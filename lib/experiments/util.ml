let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let avg_by f = function
  | [] -> 0.
  | xs -> List.fold_left (fun acc x -> acc +. f x) 0. xs /. float_of_int (List.length xs)

let streams rng =
  let seed = Int64.to_int (Prob.Rng.bits64 rng) in
  fun purpose k -> Prob.Rng.create (Hashtbl.hash (seed, purpose, k))
