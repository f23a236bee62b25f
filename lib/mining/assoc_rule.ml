type t = {
  body : Itemset.t;
  head_attr : int;
  head_value : int;
  confidence : float;
  body_support : float;
  rule_support : float;
}

let mine_for_attr ?frequent apriori attr =
  let frequent =
    match frequent with Some l -> l | None -> Apriori.frequent apriori
  in
  List.filter_map
    (fun (itemset, rule_support) ->
      match Itemset.value_of itemset attr with
      | None -> None
      | Some head_value ->
          let body = Itemset.remove_attr itemset attr in
          (* Downward closure guarantees the body is frequent too. *)
          let body_support =
            match Apriori.support apriori body with
            | Some s -> s
            | None -> assert false
          in
          Some
            {
              body;
              head_attr = attr;
              head_value;
              confidence = rule_support /. body_support;
              body_support;
              rule_support;
            })
    frequent

let mine apriori ~arity =
  let frequent = Apriori.frequent apriori in
  List.concat_map (mine_for_attr ~frequent apriori) (List.init arity Fun.id)

let pp ppf r =
  Format.fprintf ppf "%a => a%d=%d (conf %.3f, supp %.3f)" Itemset.pp r.body
    r.head_attr r.head_value r.confidence r.rule_support
