type config = { burn_in : int; samples : int }

let default_config = { burn_in = 100; samples = 1000 }

(* The conditional-CPD memo: monomorphic on its [int] key, so a probe
   hashes (an inline multiply-xorshift mix, no C call) and compares an
   immediate without the polymorphic primitives, and a hit ([find],
   [Not_found] on a miss) allocates nothing. *)
module Memo = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x1E3779B97F4A7C15 in
    (h lxor (h lsr 29)) land max_int
end)

type sampler = {
  model : Model.t;
  method_ : Voting.method_;
  cards : int array;
  (* Mixed-radix code of a full point (with the resampled attribute zeroed)
     composed with the attribute index; [None] when the schema's domain is
     too large to key safely. *)
  memo : Prob.Dist.t Memo.t option;
  domain_size : int;
  cache : Posterior_cache.t option;
      (* cross-run, cross-sampler evidence-keyed posterior cache; the memo
         above remains the per-sampler full-point fast path *)
  mutable hits : int;
  mutable misses : int;
}

(* Distinguish "the joint domain is too large to key the memo" (an
   [int] overflow — expected for wide schemas, and merely disables
   memoization) from a malformed schema (cardinality < 1 — a real
   programming error). The seed implementation folded both into a [-1]
   sentinel, silently masking the latter. *)
let memo_domain_size cards =
  Array.iter
    (fun c ->
      if c < 1 then
        invalid_arg "Gibbs.sampler: schema cardinality must be >= 1")
    cards;
  match Relation.Domain.count cards with
  | n -> Some n
  | exception Invalid_argument _ -> None (* overflow only: cards validated *)

let sampler ?(method_ = Voting.best_averaged) ?(memoize = true) ?cache model =
  let schema = Model.schema model in
  let arity = Relation.Schema.arity schema in
  let cards = Array.init arity (Relation.Schema.cardinality schema) in
  let domain_size =
    match memo_domain_size cards with Some n -> n | None -> -1
  in
  let memo =
    if memoize && domain_size > 0 && domain_size < 1 lsl 40 then
      Some (Memo.create 4096)
    else None
  in
  { model; method_; cards; memo; domain_size; cache; hits = 0; misses = 0 }

let model s = s.model
let voting_method s = s.method_
let posterior_cache s = s.cache

let evidence_tuple point a =
  Array.mapi (fun i v -> if i = a then None else Some v) point

let compute_conditional s point a =
  Infer_single.infer ~method_:s.method_ ?cache:s.cache s.model
    (evidence_tuple point a) a

(* Memo key of [point] for resampling [a]: the mixed-radix code of the
   point with slot [a] read as 0, composed with [a]. No range checks —
   callers guarantee [point] has the schema's arity and in-range values
   ([conditional] checks them; a chain's evidence is checked once in
   [chain] and its sampled values are in range by construction). *)
let memo_key s point a =
  let cards = s.cards in
  let code = ref 0 in
  for i = 0 to Array.length cards - 1 do
    let v = if i = a then 0 else Array.unsafe_get point i in
    code := (!code * Array.unsafe_get cards i) + v
  done;
  (a * s.domain_size) + !code

let conditional_unchecked s point a =
  match s.memo with
  | None -> compute_conditional s point a
  | Some memo -> (
      let key = memo_key s point a in
      match Memo.find memo key with
      | d ->
          s.hits <- s.hits + 1;
          d
      | exception Not_found ->
          s.misses <- s.misses + 1;
          let d = compute_conditional s point a in
          Memo.add memo key d;
          d)

let conditional s point a =
  let arity = Array.length s.cards in
  if Array.length point <> arity then
    invalid_arg "Gibbs.conditional: point arity does not match model schema";
  if a < 0 || a >= arity then
    invalid_arg "Gibbs.conditional: attribute index out of range";
  Array.iteri
    (fun i v ->
      if i <> a && (v < 0 || v >= s.cards.(i)) then
        invalid_arg "Gibbs.conditional: value out of range")
    point;
  conditional_unchecked s point a

let cache_stats s = (s.hits, s.misses)

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then 0. else float_of_int s.hits /. float_of_int total

let publish_cache_stats ?(telemetry = Telemetry.global) s =
  let hits, misses = cache_stats s in
  Telemetry.add telemetry "gibbs.memo_hits" hits;
  Telemetry.add telemetry "gibbs.memo_misses" misses;
  if hits + misses > 0 then
    Telemetry.observe telemetry "gibbs.memo_hit_rate" (hit_rate s)

type chain = {
  sampler : sampler;
  tuple : Relation.Tuple.t;
  missing : int array;
  state : int array;  (* current complete point; evidence slots fixed *)
}

let chain ?(telemetry = Telemetry.global) rng s tup =
  (* Allocation accounting (ROADMAP item 2 baseline): one atomic load
     when no Resource monitor is installed; observation only either
     way. *)
  Resource.alloc_span ~telemetry "mem.alloc_per_chain_bytes" @@ fun () ->
  let arity = Relation.Schema.arity (Model.schema s.model) in
  if Array.length tup <> arity then
    invalid_arg "Gibbs.chain: tuple arity does not match model schema";
  let missing = Array.of_list (Relation.Tuple.missing tup) in
  if Array.length missing = 0 then
    invalid_arg "Gibbs.chain: tuple is complete";
  (* Validate the evidence once: every later memo key of this chain is
     computed without range checks. *)
  Array.iteri
    (fun i v ->
      match v with
      | Some x when x < 0 || x >= s.cards.(i) ->
          invalid_arg "Gibbs.chain: evidence value out of range"
      | _ -> ())
    tup;
  (* Ensemble-health denominator: chains started, so nonconvergence and
     degradation counts can be read as shares of sampling activity. *)
  Telemetry.incr telemetry "gibbs.chains";
  let state = Array.map (function Some v -> v | None -> 0) tup in
  (* Initialize each missing attribute from its single-attribute estimate
     given the evidence only — a valid positive starting state. This is
     where the ensemble-voting layer runs un-memoized, so it carries the
     [voting] trace slice for the chain. *)
  Trace.complete ~cat:"voting"
    ~args:[ ("missing", Trace.Int (Array.length missing)) ]
    "gibbs.chain_init"
  @@ fun () ->
  Array.iter
    (fun a ->
      let d =
        Infer_single.infer ~method_:s.method_ ?cache:s.cache s.model tup a
      in
      state.(a) <- Prob.Dist.sample rng d)
    missing;
  { sampler = s; tuple = tup; missing; state }

let step rng c =
  let s = c.sampler and state = c.state and missing = c.missing in
  for k = 0 to Array.length missing - 1 do
    let a = missing.(k) in
    state.(a) <- Prob.Dist.sample rng (conditional_unchecked s state a)
  done

let current c = c.state

let sweep rng c =
  step rng c;
  Array.copy c.state

type estimate = {
  tuple : Relation.Tuple.t;
  missing : int list;
  cards : int array;
  joint : Prob.Dist.t;
  samples_used : int;
}

let estimate_of_counts tup missing cards counts n =
  let freq = Array.map (fun c -> c /. float_of_int n) counts in
  {
    tuple = tup;
    missing;
    cards;
    joint = Prob.Dist.smooth freq;
    samples_used = n;
  }

let estimate_of_points (s : sampler) tup points =
  if points = [] then invalid_arg "Gibbs.estimate_of_points: no samples";
  let missing = Relation.Tuple.missing tup in
  let missing_arr = Array.of_list missing in
  let cards = Array.map (fun a -> s.cards.(a)) missing_arr in
  let total = Relation.Domain.count cards in
  let counts = Array.make total 0. in
  let values = Array.make (Array.length missing_arr) 0 in
  let n = ref 0 in
  List.iter
    (fun point ->
      Array.iteri (fun k a -> values.(k) <- point.(a)) missing_arr;
      let code = Relation.Domain.encode cards values in
      counts.(code) <- counts.(code) +. 1.;
      incr n)
    points;
  estimate_of_counts tup missing cards counts !n

let marginal est a =
  let missing_arr = Array.of_list est.missing in
  let pos =
    match Array.find_index (Int.equal a) missing_arr with
    | Some p -> p
    | None -> invalid_arg "Gibbs.marginal: attribute not missing in estimate"
  in
  let marg = Array.make est.cards.(pos) 0. in
  Relation.Domain.iter est.cards (fun code values ->
      marg.(values.(pos)) <- marg.(values.(pos)) +. Prob.Dist.prob est.joint code);
  Prob.Dist.of_weights marg

let run ?(config = default_config) rng s tup =
  if config.burn_in < 0 || config.samples < 1 then
    invalid_arg "Gibbs.run: bad burn-in or sample count";
  let c = chain rng s tup in
  for _ = 1 to config.burn_in do
    step rng c
  done;
  let points = List.init config.samples (fun _ -> sweep rng c) in
  estimate_of_points s tup points
