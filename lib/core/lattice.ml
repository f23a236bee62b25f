type t = {
  head_attr : int;
  head_card : int;
  by_body : Meta_rule.t Mining.Itemset.Table.t;
  max_body_size : int;
  body_attrs : int array;
      (* Sorted, duplicate-free union of the attributes mentioned by any
         rule body in the lattice — the only attributes whose observed
         values can influence [matching], and therefore the only cells a
         conditional-table context code needs to encode. *)
}

let create ~head_attr ~head_card ~root rules =
  if (root : Meta_rule.t).head_attr <> head_attr then
    invalid_arg "Lattice.create: root head attribute mismatch";
  if not (Mining.Itemset.is_empty root.body) then
    invalid_arg "Lattice.create: root body must be empty";
  if Prob.Dist.size root.cpd <> head_card then
    invalid_arg "Lattice.create: root CPD size mismatch";
  let by_body = Mining.Itemset.Table.create (List.length rules * 2 + 1) in
  Mining.Itemset.Table.replace by_body root.body root;
  let max_size = ref 0 in
  List.iter
    (fun (m : Meta_rule.t) ->
      if m.head_attr <> head_attr then
        invalid_arg "Lattice.create: head attribute mismatch";
      if Prob.Dist.size m.cpd <> head_card then
        invalid_arg "Lattice.create: CPD size mismatch";
      if Mining.Itemset.is_empty m.body then
        invalid_arg "Lattice.create: non-root meta-rule with empty body";
      if Mining.Itemset.Table.mem by_body m.body then
        invalid_arg "Lattice.create: duplicate body";
      Mining.Itemset.Table.replace by_body m.body m;
      if Mining.Itemset.size m.body > !max_size then
        max_size := Mining.Itemset.size m.body)
    rules;
  let body_attrs =
    let module IS = Set.Make (Int) in
    let set =
      Mining.Itemset.Table.fold
        (fun body _ acc ->
          List.fold_left
            (fun acc a -> if a = head_attr then acc else IS.add a acc)
            acc (Mining.Itemset.attrs body))
        by_body IS.empty
    in
    Array.of_list (IS.elements set)
  in
  { head_attr; head_card; by_body; max_body_size = !max_size; body_attrs }

let head_attr t = t.head_attr
let head_card t = t.head_card
let size t = Mining.Itemset.Table.length t.by_body

let root t =
  match Mining.Itemset.Table.find_opt t.by_body Mining.Itemset.empty with
  | Some m -> m
  | None -> assert false

let meta_rules t =
  Mining.Itemset.Table.fold (fun _ m acc -> m :: acc) t.by_body []
  |> List.sort (fun (a : Meta_rule.t) (b : Meta_rule.t) ->
         let c = Int.compare (Meta_rule.specificity a) (Meta_rule.specificity b) in
         if c <> 0 then c else Mining.Itemset.compare a.body b.body)

let find t body = Mining.Itemset.Table.find_opt t.by_body body

let max_body_size t = t.max_body_size
let body_attrs t = t.body_attrs

let matching t tup =
  (* Known assignments excluding the head attribute (bodies never mention
     it, so combinations containing it cannot be in the table). *)
  let known =
    List.filter (fun (a, _) -> a <> t.head_attr) (Relation.Tuple.known tup)
  in
  let known = Array.of_list known in
  let k = Array.length known in
  let acc = ref [ root t ] in
  let max_s = min t.max_body_size k in
  (* Enumerate subsets of each size via a combination odometer. *)
  let chosen = Array.make (max 1 max_s) 0 in
  let rec enum s pos start =
    if pos = s then begin
      let items = Array.to_list (Array.init s (fun i -> known.(chosen.(i)))) in
      match Mining.Itemset.Table.find_opt t.by_body (Mining.Itemset.of_list items) with
      | Some m -> acc := m :: !acc
      | None -> ()
    end
    else
      for c = start to k - (s - pos) do
        chosen.(pos) <- c;
        enum s (pos + 1) (c + 1)
      done
  in
  for s = 1 to max_s do
    enum s 0 0
  done;
  !acc

let most_specific matches =
  List.filter
    (fun m ->
      not (List.exists (fun other -> Meta_rule.subsumes m other) matches))
    matches

let cover_edges t =
  let rules = meta_rules t in
  let pairs = ref [] in
  List.iter
    (fun parent ->
      List.iter
        (fun child ->
          if Meta_rule.subsumes parent child then begin
            (* Keep only covering pairs: nothing strictly between. *)
            let between =
              List.exists
                (fun mid ->
                  Meta_rule.subsumes parent mid && Meta_rule.subsumes mid child)
                rules
            in
            if not between then pairs := (parent, child) :: !pairs
          end)
        rules)
    rules;
  List.rev !pairs

let pp ppf t =
  Format.fprintf ppf "@[<v>MRSL(a%d): %d meta-rules@,%a@]" t.head_attr (size t)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Meta_rule.pp)
    (meta_rules t)

let pp_named schema ppf t =
  Format.fprintf ppf "@[<v>MRSL(%s): %d meta-rules@,%a@]"
    (Relation.Attribute.name (Relation.Schema.attribute schema t.head_attr))
    (size t)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut
       (Meta_rule.pp_named schema))
    (meta_rules t)
