let check_task model tup a =
  let schema = Model.schema model in
  let arity = Relation.Schema.arity schema in
  if Array.length tup <> arity then
    invalid_arg "Infer_single: tuple arity does not match model schema";
  if a < 0 || a >= arity then
    invalid_arg "Infer_single: attribute index out of range";
  (* An out-of-range value would carry into the next digit of a
     conditional table's context code (another context's posterior) or
     index past the end of a dense table. *)
  Array.iteri
    (fun i cell ->
      match cell with
      | Some v when v < 0 || v >= Relation.Schema.cardinality schema i ->
          invalid_arg "Infer_single: value out of range"
      | _ -> ())
    tup;
  match tup.(a) with
  | Some _ ->
      invalid_arg "Infer_single: attribute is not missing in the tuple"
  | None -> ()

let voters ?(method_ = Voting.best_averaged) model tup a =
  check_task model tup a;
  let matches = Lattice.matching (Model.lattice model a) tup in
  Voting.select method_.choice matches

(* --- graceful-degradation ladder ------------------------------------- *)

(* [Dist.t] is a private [float array]; the coercion reads without
   copying, keeping the finiteness check cheap on the Gibbs hot path. *)
let finite_dist d = Array.for_all Float.is_finite (d : Prob.Dist.t :> float array)

let marginal_prior model a =
  match Lattice.root (Model.lattice model a) with
  | (root : Meta_rule.t) ->
      if finite_dist root.cpd then Some root.cpd else None
  | exception _ -> None

let degrade ?(telemetry = Telemetry.global) ~card prior =
  match prior with
  | Some p ->
      Telemetry.incr telemetry "degrade.marginal_prior";
      Trace.instant ~cat:"voting" "degrade.marginal_prior";
      p
  | None ->
      Telemetry.incr telemetry "degrade.uniform";
      Trace.instant ~cat:"voting" "degrade.uniform";
      Prob.Dist.uniform card

type rung = Voters | Marginal_prior | Uniform

let rung_name = function
  | Voters -> "voters"
  | Marginal_prior -> "marginal-prior"
  | Uniform -> "uniform"

(* Fault injection: a dropped voter set exercises the ladder end to end.
   Keyed by (attribute, evidence) via the full mixed-radix evidence code —
   [Stdlib.Hashtbl.hash]'s bounded traversal ignored the tail of wide
   tuples, making tuples that differ only in late attributes share one
   drop decision and systematically skewing the injected fault rate. *)
let apply_voter_drop model tup a selected =
  if (Fault_inject.current ()).Fault_inject.voter_drop_rate > 0. then begin
    let schema = Model.schema model in
    let cards =
      Array.init (Relation.Schema.arity schema)
        (Relation.Schema.cardinality schema)
    in
    if
      Fault_inject.should_drop_voters
        ~key:(Fault_inject.evidence_key ~cards tup a)
    then []
    else selected
  end
  else selected

(* One ladder walk shared by {!infer} and {!explain}: the estimate, the
   voters that actually voted (empty below rung 1), and the rung taken.
   [count] gates the [degrade.*] telemetry/trace emissions so that
   explaining a task never double-counts a degradation that {!infer}
   already recorded. *)
let infer_rung ~count ?(method_ = Voting.best_averaged) ?telemetry model tup a =
  let selected = apply_voter_drop model tup a (voters ~method_ model tup a) in
  let fallback () =
    let card = Relation.Schema.cardinality (Model.schema model) a in
    let prior = marginal_prior model a in
    let rung = match prior with Some _ -> Marginal_prior | None -> Uniform in
    let d =
      if count then degrade ?telemetry ~card prior
      else
        match prior with Some p -> p | None -> Prob.Dist.uniform card
    in
    (d, [], rung)
  in
  match selected with
  | [] -> fallback ()
  | vs -> (
      match Voting.combine method_.scheme vs with
      | d when finite_dist d -> (d, vs, Voters)
      | _ -> fallback ()
      | exception Invalid_argument _ -> fallback ())

let infer ?method_ ?telemetry ?cache ?segment model tup a =
  let method_ = Option.value method_ ~default:Voting.best_averaged in
  (* Compiled fast path first; the kernel returns None (and the
     interpreted oracle below runs, degradation telemetry included)
     whenever it cannot guarantee a bit-identical posterior. Allocation
     is accounted per computed posterior, not per probe: one atomic load
     when no Resource monitor is installed, observation only either
     way. *)
  let compute () =
    Resource.alloc_span ?telemetry "mem.alloc_per_infer_bytes" @@ fun () ->
    match Kernel.posterior ?telemetry ~method_ model tup a with
    | Some d -> d
    | None ->
        let d, _, _ = infer_rung ~count:true ~method_ ?telemetry model tup a in
        d
  in
  (* Validate up front: a stored posterior must not skip the structural
     checks a computation would have performed. *)
  check_task model tup a;
  match cache with
  | None -> compute ()
  | Some c ->
      Posterior_cache.find_or_compute ?segment c model ~method_ tup a compute

let infer_result ?method_ ?telemetry ?cache ?segment model tup a =
  match infer ?method_ ?telemetry ?cache ?segment model tup a with
  | d -> Ok d
  | exception Invalid_argument msg ->
      Result.Error (Error.make Error.Input ~code:"infer.bad_task" msg)
  | exception Error.Mrsl_error e -> Result.Error e

let infer_all_missing ?method_ model tup =
  List.map (fun a -> (a, infer ?method_ model tup a)) (Relation.Tuple.missing tup)

type explanation = {
  estimate : Prob.Dist.t;
  contributions : (Meta_rule.t * float) list;
  rung : rung;
}

let explain ?(method_ = Voting.best_averaged) model tup a =
  let estimate, selected, rung =
    infer_rung ~count:false ~method_ model tup a
  in
  let weights =
    match method_.scheme with
    | Voting.Averaged -> List.map (fun _ -> 1.) selected
    | Voting.Weighted ->
        let ws = List.map (fun (m : Meta_rule.t) -> m.weight) selected in
        if List.for_all (fun w -> w <= 0.) ws then
          List.map (fun _ -> 1.) selected
        else ws
  in
  let contributions =
    match selected with
    | [] -> []
    | _ ->
        let total = List.fold_left ( +. ) 0. weights in
        List.map2 (fun m w -> (m, w /. total)) selected weights
        |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  in
  { estimate; contributions; rung }
