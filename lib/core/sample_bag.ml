(* [src] cells [off + check_cols.(k)] must equal [check_vals.(k)]; cell
   [off + copy_cols.(k)] then becomes the new row's column [k]. One
   representation serves both donors: a bag row (columns are donor
   columns) and a full point (columns are attribute indices). *)
type plan = {
  check_cols : int array;
  check_vals : int array;
  copy_cols : int array;
}

type t = {
  tuple : Relation.Tuple.t;
  missing : int array;  (* ascending; row column k holds attribute missing.(k) *)
  cards : int array;  (* cardinality of each column *)
  point_plan : plan;  (* offering a full point: check the evidence *)
  capacity : int;
  rows : int array;  (* capacity × width, row-major, oldest row first *)
  mutable count : int;
}

let create schema ~capacity tuple =
  if capacity < 1 then invalid_arg "Sample_bag.create: capacity must be >= 1";
  if Array.length tuple <> Relation.Schema.arity schema then
    invalid_arg "Sample_bag.create: tuple arity does not match schema";
  let missing = Array.of_list (Relation.Tuple.missing tuple) in
  if Array.length missing = 0 then
    invalid_arg "Sample_bag.create: tuple is complete";
  let known = Array.of_list (Relation.Tuple.known tuple) in
  {
    tuple;
    missing;
    cards = Array.map (Relation.Schema.cardinality schema) missing;
    point_plan =
      {
        check_cols = Array.map fst known;
        check_vals = Array.map snd known;
        copy_cols = missing;
      };
    capacity;
    rows = Array.make (capacity * Array.length missing) 0;
    count = 0;
  }

let tuple b = b.tuple
let count b = b.count
let is_full b = b.count >= b.capacity

let accepts p src off =
  let ok = ref true and k = ref 0 in
  while !ok && !k < Array.length p.check_cols do
    if src.(off + p.check_cols.(!k)) <> p.check_vals.(!k) then ok := false;
    incr k
  done;
  !ok

let take p src off b =
  let dst = b.count * Array.length b.missing in
  for k = 0 to Array.length p.copy_cols - 1 do
    b.rows.(dst + k) <- src.(off + p.copy_cols.(k))
  done;
  b.count <- b.count + 1

let cardinalities b = Array.copy b.cards
let value b r k = b.rows.((r * Array.length b.missing) + k)
let record b point = take b.point_plan point 0 b

(* The per-edge plan of ShareSamples(donor, child). *)
let edge_plan donor child =
  let col = Array.make (Array.length donor.tuple) (-1) in
  Array.iteri (fun k a -> col.(a) <- k) donor.missing;
  let not_subsumed () = invalid_arg "Sample_bag.share: donor does not subsume" in
  let copy_cols =
    Array.map (fun a -> if col.(a) < 0 then not_subsumed () else col.(a))
      child.missing
  in
  let evidence = child.point_plan in
  let checks = ref [] in
  for k = Array.length evidence.check_cols - 1 downto 0 do
    let a = evidence.check_cols.(k) and v = evidence.check_vals.(k) in
    match donor.tuple.(a) with
    | None -> checks := (col.(a), v) :: !checks
    | Some w -> if w <> v then not_subsumed ()
  done;
  {
    check_cols = Array.of_list (List.map fst !checks);
    check_vals = Array.of_list (List.map snd !checks);
    copy_cols;
  }

let share ~donor child =
  if Array.length donor.tuple <> Array.length child.tuple then
    invalid_arg "Sample_bag.share: arity mismatch";
  let p = edge_plan donor child in
  let width = Array.length donor.missing in
  let before = child.count in
  let r = ref 0 in
  while (not (is_full child)) && !r < donor.count do
    let off = !r * width in
    if accepts p donor.rows off then take p donor.rows off child;
    incr r
  done;
  child.count - before

let offer b point =
  if Array.length point <> Array.length b.tuple then
    invalid_arg "Sample_bag.offer: arity mismatch";
  (not (is_full b))
  && accepts b.point_plan point 0
  && begin
       record b point;
       true
     end

let counts b =
  let cards = b.cards and rows = b.rows in
  let width = Array.length cards in
  let counts = Array.make (Relation.Domain.count cards) 0. in
  for r = 0 to b.count - 1 do
    let off = r * width in
    let code = ref 0 in
    for k = 0 to width - 1 do
      code := (!code * cards.(k)) + rows.(off + k)
    done;
    counts.(!code) <- counts.(!code) +. 1.
  done;
  counts
