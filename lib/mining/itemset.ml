type t = (int * int) array

let empty = [||]

let of_list items =
  let sorted =
    List.sort (fun (a, _) (b, _) -> Int.compare a b) items
  in
  let rec check = function
    | [] -> ()
    | (a, v) :: rest ->
        if a < 0 || v < 0 then
          invalid_arg "Itemset.of_list: negative attribute or value";
        (match rest with
        | (b, _) :: _ when a = b ->
            invalid_arg "Itemset.of_list: duplicate attribute"
        | _ -> ());
        check rest
  in
  check sorted;
  Array.of_list sorted

let of_tuple tup = Array.of_list (Relation.Tuple.known tup)
let to_list = Array.to_list
let size = Array.length
let is_empty s = Array.length s = 0
let attrs s = Array.to_list (Array.map fst s)

let find_attr s attr =
  (* Binary search on the sorted attribute column. *)
  let lo = ref 0 and hi = ref (Array.length s - 1) in
  let found = ref None in
  while !lo <= !hi && !found = None do
    let mid = (!lo + !hi) / 2 in
    let a, v = s.(mid) in
    if a = attr then found := Some v
    else if a < attr then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let mem_attr s attr = find_attr s attr <> None
let value_of = find_attr

let add s attr v =
  if mem_attr s attr then invalid_arg "Itemset.add: attribute already present";
  of_list ((attr, v) :: to_list s)

let remove_attr s attr = Array.of_seq (Seq.filter (fun (a, _) -> a <> attr) (Array.to_seq s))

let union_disjoint a b =
  (* Merge two sorted runs, failing on conflicting assignments. *)
  let na = Array.length a and nb = Array.length b in
  let out = ref [] in
  let conflict = ref false in
  let i = ref 0 and j = ref 0 in
  while (!i < na || !j < nb) && not !conflict do
    if !i = na then begin
      out := b.(!j) :: !out;
      incr j
    end
    else if !j = nb then begin
      out := a.(!i) :: !out;
      incr i
    end
    else
      let ai, av = a.(!i) and bj, bv = b.(!j) in
      if ai < bj then begin
        out := a.(!i) :: !out;
        incr i
      end
      else if bj < ai then begin
        out := b.(!j) :: !out;
        incr j
      end
      else if av = bv then begin
        out := a.(!i) :: !out;
        incr i;
        incr j
      end
      else conflict := true
  done;
  if !conflict then None else Some (Array.of_list (List.rev !out))

let subset a b =
  let nb = Array.length b in
  let rec walk i j =
    if i = Array.length a then true
    else if j = nb then false
    else
      let ai, av = a.(i) and bj, bv = b.(j) in
      if ai = bj then av = bv && walk (i + 1) (j + 1)
      else if ai > bj then walk i (j + 1)
      else false
  in
  walk 0 0

let proper_subset a b = Array.length a < Array.length b && subset a b

let matches_point s point =
  Array.for_all (fun (a, v) -> point.(a) = v) s

let matches_tuple s tup =
  Array.for_all (fun (a, v) -> tup.(a) = Some v) s

let to_tuple ~arity s =
  let tup = Array.make arity None in
  Array.iter
    (fun (a, v) ->
      if a >= arity then invalid_arg "Itemset.to_tuple: arity too small";
      tup.(a) <- Some v)
    s;
  tup

let equal (a : t) (b : t) = a = b
(* [Stdlib.compare]'s order on [(int * int) array], without its generic
   walk: length first, then item by item, each by attribute then value.
   Lattice.meta_rules and Map/Set rely on exactly this order; plain
   lexicographic order is not the same. *)
let compare (a : t) (b : t) =
  let n = Array.length a in
  let c = Int.compare n (Array.length b) in
  if c <> 0 then c
  else
    let rec go i =
      if i = n then 0
      else
        let xa, xv = Array.unsafe_get a i and ya, yv = Array.unsafe_get b i in
        let c = Int.compare xa ya in
        if c <> 0 then c
        else
          let c = Int.compare xv yv in
          if c <> 0 then c else go (i + 1)
    in
    go 0

let hash (s : t) =
  Array.fold_left
    (fun h (a, v) -> ((h * 1000003) lxor a) * 1000003 lxor v)
    0x811C9DC5 s

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_seq
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (a, v) -> Format.fprintf ppf "a%d=%d" a v))
    (Array.to_seq s)

module Key = struct
  type nonrec t = t

  let equal = equal
  let compare = compare
  let hash = hash
end

module Table = Hashtbl.Make (Key)
module Map = Map.Make (Key)
module Set = Set.Make (Key)
