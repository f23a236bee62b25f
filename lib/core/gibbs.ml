type config = { burn_in : int; samples : int }

let default_config = { burn_in = 100; samples = 1000 }

type sampler = {
  model : Model.t;
  method_ : Voting.method_;
  memoize : bool;
  cards : int array;
  mutable hits : int;
  mutable misses : int;
}

let sampler ?(method_ = Voting.best_averaged) ?(memoize = true) model =
  let schema = Model.schema model in
  let cards =
    Array.init (Relation.Schema.arity schema)
      (Relation.Schema.cardinality schema)
  in
  if Array.exists (fun c -> c < 1) cards then
    invalid_arg "Gibbs.sampler: schema cardinality must be >= 1";
  { model; method_; memoize; cards; hits = 0; misses = 0 }

let model s = s.model

(* [x] is a point whose [-1] cells are missing; its slot [a] is ignored. *)
let infer s x a =
  Infer_single.infer ~method_:s.method_ s.model
    (Array.mapi (fun i v -> if i = a || v < 0 then None else Some v) x)
    a

(* One probe of a conditional table at a context code; a hit allocates
   nothing. *)
let probe s tb code x a =
  match Kernel.find tb code with
  | d ->
      s.hits <- s.hits + 1;
      d
  | exception Not_found ->
      s.misses <- s.misses + 1;
      let d = infer s x a in
      ignore (Kernel.store tb code d : bool);
      d

let table s a =
  if s.memoize then Kernel.table ~method_:s.method_ s.model a else None

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
  match table s a with
  | None -> infer s point a
  | Some tb -> probe s tb (Kernel.context_code tb point) point a

let cache_stats s = (s.hits, s.misses)

(* A chain's probe plan, resolved once when it starts: for missing cell
   [k], its table ([None] = recompute every time), the evidence's share
   [base.(k)] of its context code, and at [place.(k * m + j)] the place
   value in that table of missing cell [j] (0 outside its context). *)
type chain = {
  sampler : sampler;
  missing : int array;
  state : int array;  (* current complete point; evidence slots fixed *)
  tables : Kernel.table option array;
  base : int array;
  place : int array;
}

(* The conditional of missing cell [k] at the chain's current point:
   its code is the evidence base plus each missing cell's digit, so a
   probe reads no evidence cell and no registry. *)
let cell_conditional c k =
  let state = c.state and missing = c.missing in
  let a = Array.unsafe_get missing k in
  match Array.unsafe_get c.tables k with
  | None -> infer c.sampler state a
  | Some tb ->
      let m = Array.length missing in
      let code = ref (Array.unsafe_get c.base k) in
      for j = 0 to m - 1 do
        code :=
          !code
          + (Array.unsafe_get state (Array.unsafe_get missing j) + 1)
            * Array.unsafe_get c.place ((k * m) + j)
      done;
      probe c.sampler tb !code state a

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
  (* Validate the evidence once: every later context code of this chain
     is computed without range checks. *)
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
  let state = Array.map (function Some v -> v | None -> -1) tup in
  let m = Array.length missing in
  (* Initialize each missing attribute (-1 until then) from its
     single-attribute estimate given the evidence only — a valid positive
     starting state. These are the chain's only votes with missing cells
     in their context, so they carry the [voting] trace slice, which
     also covers resolving the chain's tables. *)
  Trace.complete ~cat:"voting"
    ~args:[ ("missing", Trace.Int m) ]
    "gibbs.chain_init"
  @@ fun () ->
  let tables = Array.map (table s) missing in
  let base =
    Array.map
      (function Some tb -> Kernel.tuple_context_code tb tup | None -> 0)
      tables
  in
  let place =
    Array.init (m * m) (fun i ->
        match tables.(i / m) with
        | Some tb -> Kernel.place tb missing.(i mod m)
        | None -> 0)
  in
  let c = { sampler = s; missing; state; tables; base; place } in
  let init = Array.init m (cell_conditional c) in
  Array.iteri (fun k a -> state.(a) <- Prob.Dist.sample rng init.(k)) missing;
  c

let step rng c =
  let state = c.state and missing = c.missing in
  for k = 0 to Array.length missing - 1 do
    Array.unsafe_set state
      (Array.unsafe_get missing k)
      (Prob.Dist.sample rng (cell_conditional c k))
  done

let current c = c.state

let start ?telemetry ~burn_in rng s tup =
  let c = chain ?telemetry rng s tup in
  for _ = 1 to burn_in do
    step rng c
  done;
  c

let fill ?telemetry ~burn_in rng s bag =
  let c = start ?telemetry ~burn_in rng s (Sample_bag.tuple bag) in
  while not (Sample_bag.is_full bag) do
    step rng c;
    Sample_bag.record bag c.state
  done

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

let estimate_of_bag bag =
  let n = Sample_bag.count bag in
  if n = 0 then invalid_arg "Gibbs.estimate_of_bag: no samples";
  let tup = Sample_bag.tuple bag in
  estimate_of_counts tup (Relation.Tuple.missing tup)
    (Sample_bag.cardinalities bag) (Sample_bag.counts bag) n

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

let vote (s : sampler) tup =
  match Relation.Tuple.missing tup with
  | [ a ] ->
      let point = Array.map (function Some v -> v | None -> -1) tup in
      {
        tuple = tup;
        missing = [ a ];
        cards = [| s.cards.(a) |];
        joint = conditional s point a;
        samples_used = 0;
      }
  | _ -> invalid_arg "Gibbs.vote: tuple must miss exactly one cell"

let run ?(config = default_config) rng s tup =
  if config.burn_in < 0 || config.samples < 1 then
    invalid_arg "Gibbs.run: bad burn-in or sample count";
  if Relation.Tuple.missing_count tup = 1 then vote s tup
  else begin
    let bag =
      Sample_bag.create (Model.schema s.model) ~capacity:config.samples tup
    in
    fill ~burn_in:config.burn_in rng s bag;
    estimate_of_bag bag
  end
