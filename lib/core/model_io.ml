let header = "mrsl-model\tv1"

(* Percent-encode the characters that would break the line/field
   structure. *)
let encode_label s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\t' | '\n' | '\r' | '%' -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let decode_label s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec walk i =
    if i < n then
      if s.[i] = '%' && i + 2 < n then begin
        (match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
        | Some code -> Buffer.add_char buf (Char.chr code)
        | None -> failwith "Model_io: bad percent escape");
        walk (i + 3)
      end
      else begin
        Buffer.add_char buf s.[i];
        walk (i + 1)
      end
  in
  walk 0;
  Buffer.contents buf

let body_to_string body =
  match Mining.Itemset.to_list body with
  | [] -> "-"
  | items ->
      String.concat ","
        (List.map (fun (a, v) -> Printf.sprintf "%d=%d" a v) items)

(* The [(attribute, value)] items of a body; raises [Failure] on a
   malformed item. *)
let body_items_of_string s =
  if s = "-" then []
  else
    List.map
      (fun item ->
        match String.split_on_char '=' item with
        | [ a; v ] -> (int_of_string a, int_of_string v)
        | _ -> failwith "bad body item")
      (String.split_on_char ',' s)

let cpd_to_string cpd =
  String.concat ";"
    (List.map (Printf.sprintf "%.17g") (Array.to_list (Prob.Dist.to_array cpd)))

let to_string model =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  let params = Model.params model in
  line "params\t%.17g\t%d\t%.17g" params.support_threshold params.max_itemsets
    params.smoothing_floor;
  line "stats\t%d\t%b" (Model.frequent_itemsets model) (Model.truncated model);
  let schema = Model.schema model in
  line "schema\t%d" (Relation.Schema.arity schema);
  Array.iter
    (fun attr ->
      line "attr\t%s\t%s"
        (encode_label (Relation.Attribute.name attr))
        (String.concat "\t"
           (List.init
              (Relation.Attribute.cardinality attr)
              (fun v ->
                encode_label (Relation.Attribute.value_label attr v)))))
    (Relation.Schema.attributes schema);
  Array.iter
    (fun lattice ->
      let rules = Lattice.meta_rules lattice in
      line "lattice\t%d\t%d" (Lattice.head_attr lattice) (List.length rules);
      List.iter
        (fun (m : Meta_rule.t) ->
          line "meta\t%.17g\t%s\t%s" m.weight (body_to_string m.body)
            (cpd_to_string m.cpd))
        rules)
    (Model.lattices model);
  Buffer.contents buf

let of_string text =
  (* Blank lines are skipped, but errors name the line of the text. *)
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter (fun (_, l) -> String.trim l <> "")
    |> Array.of_list
  in
  let pos = ref 0 in
  let line_no = ref 0 (* of the line read last *) in
  let fail msg =
    failwith (Printf.sprintf "Model_io line %d: %s" !line_no msg)
  in
  let next () =
    if !pos >= Array.length lines then begin
      incr line_no;
      fail "unexpected end of input"
    end;
    let n, l = lines.(!pos) in
    incr pos;
    line_no := n;
    String.split_on_char '\t' l
  in
  (match next () with
  | [ "mrsl-model"; "v1" ] -> ()
  | _ -> fail "bad header");
  let params =
    match next () with
    | [ "params"; s; m; f ] ->
        (* The miner only affects learning, not the persisted model. *)
        {
          Model.support_threshold = float_of_string s;
          max_itemsets = int_of_string m;
          smoothing_floor = float_of_string f;
          miner = Model.Apriori;
        }
    | _ -> fail "expected params line"
  in
  let frequent_itemsets, truncated =
    match next () with
    | [ "stats"; fi; tr ] -> (int_of_string fi, bool_of_string tr)
    | _ -> fail "expected stats line"
  in
  let arity =
    match next () with
    | [ "schema"; n ] -> int_of_string n
    | _ -> fail "expected schema line"
  in
  let attrs =
    List.init arity (fun _ ->
        match next () with
        | "attr" :: name :: labels when labels <> [] ->
            Relation.Attribute.make (decode_label name)
              (List.map decode_label labels)
        | _ -> fail "expected attr line")
  in
  let schema = Relation.Schema.make attrs in
  (* What loads must serve: every index is checked against the schema
     here, so no inference path meets an out-of-range cell later. *)
  let body_of_string ~head text =
    let items =
      match body_items_of_string text with
      | items -> items
      | exception Failure _ -> fail "bad body item"
    in
    List.iter
      (fun (a, v) ->
        if a < 0 || a >= arity then
          fail (Printf.sprintf "body attribute %d out of range (arity %d)" a arity);
        if v < 0 || v >= Relation.Schema.cardinality schema a then
          fail (Printf.sprintf "body value %d out of range for attribute %d" v a);
        if a = head then
          fail (Printf.sprintf "head attribute %d appears in its own body" a))
      items;
    match Mining.Itemset.of_list items with
    | body -> body
    | exception Invalid_argument _ -> fail "body names an attribute twice"
  in
  let lattices =
    Array.init arity (fun _ ->
        match next () with
        | [ "lattice"; attr; count ] ->
            let attr = int_of_string attr and count = int_of_string count in
            if attr < 0 || attr >= arity then
              fail
                (Printf.sprintf "lattice attribute %d out of range (arity %d)"
                   attr arity);
            let head_card = Relation.Schema.cardinality schema attr in
            let metas =
              List.init count (fun _ ->
                  match next () with
                  | [ "meta"; weight; body; cpd ] ->
                      let weight = float_of_string weight in
                      (* NaN passes a range check written as two
                         rejections; weighted votes would then fall
                         silently to the marginal prior. *)
                      if not (weight >= 0. && weight <= 1. +. 1e-9) then
                        fail "weight is not a support in [0, 1]";
                      let body = body_of_string ~head:attr body in
                      let raw =
                        Array.of_list
                          (List.map float_of_string
                             (String.split_on_char ';' cpd))
                      in
                      if Array.length raw <> head_card then
                        fail "CPD size does not match attribute cardinality";
                      (* Stored CPDs are already smoothed and normalized:
                         adopt them unchanged, so the round trip is exact.
                         Dividing by their sum again would move about one
                         line in sixteen by an ulp. *)
                      let cpd =
                        match Prob.Dist.of_probs raw with
                        | d -> d
                        | exception Invalid_argument _ ->
                            fail
                              "CPD is not a distribution (finite, \
                               non-negative, summing to 1 within 1e-9)"
                      in
                      Meta_rule.of_distribution ~body ~head_attr:attr ~weight
                        cpd
                  | _ -> fail "expected meta line")
            in
            let root, rest =
              match
                List.partition
                  (fun (m : Meta_rule.t) -> Mining.Itemset.is_empty m.body)
                  metas
              with
              | [ root ], rest -> (root, rest)
              | _ -> fail "lattice needs exactly one root meta-rule"
            in
            (match Lattice.create ~head_attr:attr ~head_card ~root rest with
            | l -> l
            | exception Invalid_argument msg -> fail msg)
        | _ -> fail "expected lattice line")
  in
  if !pos <> Array.length lines then begin
    line_no := fst lines.(!pos);
    fail "trailing content"
  end;
  match Model.of_parts ~params ~frequent_itemsets ~truncated schema lattices with
  | m -> m
  | exception Invalid_argument msg -> fail msg

let save path model =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_string model))

let load path =
  In_channel.with_open_bin path (fun ic -> of_string (In_channel.input_all ic))
