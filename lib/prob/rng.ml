(* splitmix64: state advances by the golden-gamma constant; the output
   function is a 64-bit finalizer (variant 13 of Stafford's mixers). *)

(* The state lives in an 8-byte buffer rather than a mutable [int64]
   field: reads and writes go through unboxed primitives, so advancing
   the generator allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t =
  let seed = bits64 t in
  of_state (mix64 seed)

let copy t = Bytes.copy t

(* Uniform int in [0, bound) by rejection on the top 62 bits, avoiding the
   modulo bias that a plain [mod] would introduce. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = 0x3FFF_FFFF_FFFF_FFFF in
  let rec draw () =
    let r = Int64.to_int (bits64 t) land mask in
    let v = r mod bound in
    (* Reject the final partial block so every residue is equally likely. *)
    if r - v > mask - bound + 1 then draw () else v
  in
  draw ()

let[@inline] float t =
  (* 53 random bits scaled into [0, 1). *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int r *. 0x1p-53

let bool t = Int64.logand (bits64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Selection sampling (Knuth, TAOCP 3.4.2, Algorithm S): one pass over
     [0, n), keeping each index with the exact conditional probability. *)
  let rec loop i chosen acc =
    if chosen = k then List.rev acc
    else if n - i <= k - chosen then loop (i + 1) (chosen + 1) (i :: acc)
    else if int t (n - i) < k - chosen then loop (i + 1) (chosen + 1) (i :: acc)
    else loop (i + 1) chosen acc
  in
  loop 0 0 []

let exponential t rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  -.log1p (-.float t) /. rate

(* Marsaglia & Tsang (2000): squeeze-accept for shape >= 1; for shape < 1 use
   Gamma(shape) = Gamma(shape + 1) * U^(1/shape). *)
let rec gamma t shape =
  if shape <= 0. then invalid_arg "Rng.gamma: shape must be positive";
  if shape < 1. then
    let u = float t in
    gamma t (shape +. 1.) *. (u ** (1. /. shape))
  else
    let d = shape -. (1. /. 3.) in
    let c = 1. /. sqrt (9. *. d) in
    let normal () =
      (* Box–Muller; we only need one coordinate per attempt. *)
      let u1 = float t and u2 = float t in
      let u1 = if u1 <= 0. then epsilon_float else u1 in
      sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)
    in
    let rec attempt () =
      let x = normal () in
      let v = 1. +. (c *. x) in
      if v <= 0. then attempt ()
      else
        let v = v *. v *. v in
        let u = float t in
        let x2 = x *. x in
        if u < 1. -. (0.0331 *. x2 *. x2) then d *. v
        else if log u < (0.5 *. x2) +. (d *. (1. -. v +. log v)) then d *. v
        else attempt ()
    in
    attempt ()
