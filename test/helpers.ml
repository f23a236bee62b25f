(* Shared helpers for the test suites. *)

let rng () = Prob.Rng.create 42

let float_close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?(eps = 1e-9) msg expected actual =
  if not (float_close ~eps expected actual) then
    Alcotest.failf "%s: expected %.9f, got %.9f" msg expected actual

let check_dist_sums_to_one ?(eps = 1e-9) msg (d : Prob.Dist.t) =
  let s = Array.fold_left ( +. ) 0. (Prob.Dist.to_array d) in
  check_float ~eps msg 1.0 s

let check_dist_positive msg (d : Prob.Dist.t) =
  Array.iteri
    (fun i p ->
      if p <= 0. then Alcotest.failf "%s: position %d not positive (%g)" msg i p)
    (Prob.Dist.to_array d)

(* The running-example relation of Fig 1 (ids t1..t17; non-key attributes
   age/edu/inc/nw). Missing values are None. *)
let fig1_schema =
  Relation.Schema.make
    [
      Relation.Attribute.make "age" [ "20"; "30"; "40" ];
      Relation.Attribute.make "edu" [ "HS"; "BS"; "MS" ];
      Relation.Attribute.make "inc" [ "50K"; "100K" ];
      Relation.Attribute.make "nw" [ "100K"; "500K" ];
    ]

let fig1_csv =
  "age,edu,inc,nw\n\
   20,HS,?,?\n\
   20,BS,50K,100K\n\
   20,?,50K,?\n\
   20,HS,100K,500K\n\
   20,?,?,?\n\
   20,HS,50K,100K\n\
   20,HS,50K,500K\n\
   ?,HS,?,?\n\
   30,BS,100K,100K\n\
   30,?,100K,?\n\
   30,HS,?,?\n\
   30,MS,?,?\n\
   40,BS,100K,100K\n\
   40,HS,?,?\n\
   40,BS,50K,500K\n\
   40,HS,?,500K\n\
   40,HS,100K,500K\n"

let fig1_relation () = Relation.Csv_io.read_string ~schema:fig1_schema fig1_csv

(* A deterministic 3-attribute dataset with a hard functional dependency
   a0 -> a1 (a1 = a0) and an independent a2, handy for inference tests. *)
let dependent_schema = Relation.Schema.of_cardinalities [ 2; 2; 2 ]

let dependent_points n =
  Array.init n (fun i ->
      let a0 = i mod 2 in
      [| a0; a0; i / 2 mod 2 |])

(* Brute-force support for cross-checking the miners: the same
   [count / n] division they use, so supports compare exactly. *)
let brute_support points s =
  let n = Array.length points in
  let hits =
    Array.fold_left
      (fun acc p -> if Mining.Itemset.matches_point s p then acc + 1 else acc)
      0 points
  in
  float_of_int hits /. float_of_int n

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* One Gibbs step, then a copy of the chain's complete point: how the
   point-list reference executors record a sample. *)
let sweep rng c =
  Mrsl.Gibbs.step rng c;
  Array.copy (Mrsl.Gibbs.current c)
