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

(* Check and sum; pad, floor, check as [of_weights] does and sum; divide.
   Each float operation, in value and order, is one of
   [of_weights (floored (padded w))], so the result is that to the bit. *)
let smooth ?(floor = smoothing_floor) w =
  let n = Array.length w in
  if n = 0 then invalid_arg "Dist.smooth: empty weight array";
  let s = ref 0. in
  for i = 0 to n - 1 do
    let x = w.(i) in
    if not (Float.is_finite x) || x < 0. then
      invalid_arg "Dist.smooth: weights must be finite and non-negative";
    s := !s +. x
  done;
  (* Mass unaccounted for by the mined association rules is spread equally
     (Section III). If the rules overshoot 1 slightly we just normalize. *)
  let pad = Float.max 0. (1. -. !s) /. float_of_int n in
  let out = Array.make n 0. in
  let t = ref 0. in
  for i = 0 to n - 1 do
    let x = Float.max floor (w.(i) +. pad) in
    if not (Float.is_finite x) || x < 0. then
      invalid_arg "Dist.of_weights: weights must be finite and non-negative";
    out.(i) <- x;
    t := !t +. x
  done;
  let t = !t in
  if t <= 0. then invalid_arg "Dist.of_weights: all weights are zero";
  for i = 0 to n - 1 do
    out.(i) <- out.(i) /. t
  done;
  out

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

(* The inverse-CDF index as a count: the number of indices [i < last]
   whose left-to-right cumulative sum is [<= u]. Sums of non-negative
   finite floats never decrease under round-to-nearest, so those indices
   are a prefix and the count is exactly where a walk stopping at the
   first sum above [u] would stop (the last index taken without a
   compare). No branch depends on [u], and nothing is allocated beyond
   the RNG's own output. *)
let sample rng d =
  let u = Rng.float rng in
  let last = Array.length d - 1 in
  if last < 0 then invalid_arg "Dist.sample: empty distribution";
  let acc = ref 0. and i = ref 0 in
  for k = 0 to last - 1 do
    acc := !acc +. Array.unsafe_get d k;
    i := !i + Bool.to_int (!acc <= u)
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
