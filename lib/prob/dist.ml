type t = float array

let smoothing_floor = 0.00001

let check_weights name w =
  if Array.length w = 0 then invalid_arg (name ^ ": empty weight array");
  Array.iter
    (fun x ->
      if not (Float.is_finite x) || x < 0. then
        invalid_arg (name ^ ": weights must be finite and non-negative"))
    w

let total w = Array.fold_left ( +. ) 0. w

let of_weights w =
  check_weights "Dist.of_weights" w;
  let s = total w in
  if s <= 0. then invalid_arg "Dist.of_weights: all weights are zero";
  Array.map (fun x -> x /. s) w

let of_probs p =
  check_weights "Dist.of_probs" p;
  if Float.abs (total p -. 1.) > 1e-9 then
    invalid_arg "Dist.of_probs: probabilities must sum to 1 within 1e-9";
  Array.copy p

let smooth ?(floor = smoothing_floor) w =
  check_weights "Dist.smooth" w;
  let n = Array.length w in
  let s = total w in
  (* Mass unaccounted for by the mined association rules is spread equally
     (Section III). If the rules overshoot 1 slightly we just normalize. *)
  let leftover = Float.max 0. (1. -. s) in
  let padded = Array.map (fun x -> x +. (leftover /. float_of_int n)) w in
  let floored = Array.map (fun x -> Float.max floor x) padded in
  of_weights floored

let uniform n =
  if n < 1 then invalid_arg "Dist.uniform: need at least one value";
  Array.make n (1. /. float_of_int n)

let point n i =
  if n < 1 || i < 0 || i >= n then invalid_arg "Dist.point";
  let w = Array.make n 0. in
  w.(i) <- 1.;
  smooth w

let size = Array.length
let prob d i = d.(i)
let to_array d = Array.copy d

(* Inverse-CDF walk as a plain loop: the cumulative sum stays an unboxed
   local and no closure is built, so a draw allocates nothing beyond the
   RNG's own output. The accumulation runs left to right exactly as a
   recursive walk would, and the last index is taken without a compare. *)
let sample rng d =
  let u = Rng.float rng in
  let last = Array.length d - 1 in
  if last < 0 then invalid_arg "Dist.sample: empty distribution";
  let i = ref 0 and acc = ref 0. in
  while !i < last && (acc := !acc +. d.(!i); not (u < !acc)) do
    incr i
  done;
  !i

let mode d =
  let best = ref 0 in
  for i = 1 to Array.length d - 1 do
    if d.(i) > d.(!best) then best := i
  done;
  !best

let average = function
  | [] -> invalid_arg "Dist.average: empty voter list"
  | d0 :: _ as ds ->
      let n = Array.length d0 in
      let acc = Array.make n 0. in
      List.iter
        (fun d ->
          if Array.length d <> n then
            invalid_arg "Dist.average: size mismatch";
          Array.iteri (fun i p -> acc.(i) <- acc.(i) +. p) d)
        ds;
      of_weights acc

let weighted_average = function
  | [] -> invalid_arg "Dist.weighted_average: empty voter list"
  | (_, d0) :: _ as ds ->
      let n = Array.length d0 in
      let wsum = List.fold_left (fun s (w, _) -> s +. w) 0. ds in
      if wsum <= 0. then average (List.map snd ds)
      else begin
        let acc = Array.make n 0. in
        List.iter
          (fun (w, d) ->
            if Array.length d <> n then
              invalid_arg "Dist.weighted_average: size mismatch";
            Array.iteri (fun i p -> acc.(i) <- acc.(i) +. (w *. p)) d)
          ds;
        of_weights acc
      end

let entropy d =
  Array.fold_left (fun acc p -> if p > 0. then acc -. (p *. log p) else acc) 0. d

let pp ppf d =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf p -> Format.fprintf ppf "%.4f" p))
    d
