(* Compiled per-epoch inference kernels (see kernel.mli). The compiled
   vote replays the interpreted float program exactly — same voter
   order, same accumulation order, same Dist.of_weights normalization —
   so compiled posteriors are bit-identical to the interpreted oracle,
   and anything the compiled path cannot guarantee returns None to the
   interpreted path instead of approximating. *)

(* --- per-attribute compiled form -------------------------------------- *)

(* Rules are stored in Lattice.meta_rules order minus the root: (body
   size ascending, Itemset.compare ascending). For rules that co-match a
   tuple this equals Lattice.matching's discovery order — matching
   enumerates known-cell subsets by size then lexicographically by
   attribute sequence, and co-matching bodies agree on shared values, so
   Itemset.compare degenerates to the attribute-sequence order. A linear
   scan in index order therefore collects matches in discovery order,
   and iterating the matched array backwards (root last) reproduces the
   interpreted voter list exactly. *)
type attr_kernel = {
  nrules : int;  (* excluding the root; the root is virtual rule [nrules] *)
  head_card : int;
  body_attrs : int array;  (* the lattice's, ascending *)
  offsets : int array;  (* bit offset of each body_attrs position *)
  vmask : int array;  (* per rule: field mask over its body positions *)
  vbits : int array;  (* per rule: packed body assignment (digits v+1) *)
  cpds : float array;  (* (nrules + 1) × head_card, root row last *)
  weights : float array;  (* nrules + 1, root weight last *)
  sup_off : int array;  (* nrules + 1 prefix offsets into sup_idx *)
  sup_idx : int array;  (* strict-superset rule ids, ascending per rule *)
  ok : bool;  (* false → fallback attribute (code wider than 62 bits) *)
}

(* --- per-epoch conditional tables --------------------------------------- *)

(* Context spaces up to this many codes get a dense slot array. *)
let dense_max_slots = 1 lsl 16

let budget_bytes = 64 * 1024 * 1024

type store =
  | Dense of int * Prob.Dist.t array Atomic.t
      (* slot count; [||] until the first probe *)
  | Hashed of { lock : Mutex.t; entries : (int, Prob.Dist.t) Hashtbl.t }

(* What one kernel's tables hold together: [bytes] is the hashed tables'
   share of [budget], [entries] counts stores in every table. *)
type usage_cells = { budget : int; bytes : int Atomic.t; entries : int Atomic.t }

type table = {
  tattrs : int array;  (* the lattice's body_attrs *)
  place : int array;  (* mixed-radix place value (radix card + 1) *)
  store : store;
  usage : usage_cells;  (* shared by the kernel's tables *)
}

(* A vacant dense slot, told apart by physical equality: every stored
   distribution is a fresh allocation. *)
let vacant = Prob.Dist.uniform 1

let method_index (m : Voting.method_) =
  (match m.choice with Voting.All -> 0 | Voting.Best -> 2)
  + match m.scheme with Voting.Averaged -> 0 | Voting.Weighted -> 1

let make_table ~usage ~cards ba =
  let place = Array.make (Array.length ba) 1 in
  for p = 1 to Array.length ba - 1 do
    place.(p) <- place.(p - 1) * (cards.(ba.(p - 1)) + 1)
  done;
  (* A compiled attribute's codes fit 62 bits, but the slot count can
     reach 2^62, so it is only counted up to the dense ceiling. *)
  let slots =
    Array.fold_left
      (fun n b -> if n > dense_max_slots then n else n * (cards.(b) + 1))
      1 ba
  in
  let store =
    if slots <= dense_max_slots then Dense (slots, Atomic.make [||])
    else Hashed { lock = Mutex.create (); entries = Hashtbl.create 64 }
  in
  { tattrs = ba; place; store; usage }

type t = {
  epoch : int;
  attrs : attr_kernel array;
  tables : table option array;
      (* method index × arity + attribute; [None] for fallback attributes *)
  usage : usage_cells;
}

let attr_compiled t a = t.attrs.(a).ok

(* The packed evidence code — one bit field per body attribute, holding
   digit 0 for missing and v+1 for value v — must fit a native int; 62
   bits leaves the tag bit and a sign margin on 64-bit. Wide tuples or
   large cardinalities that exceed it are detected here, at compile
   time, and the whole attribute falls back to the interpreted path
   (never a silently truncated code). *)
let max_code_bits = 62

(* Bits for the digit range 0..card (card+1 distinct digits). *)
let bits_for card =
  let b = ref 1 in
  while 1 lsl !b <= card do
    incr b
  done;
  !b

let compile_attr ~cards lattice =
  let root = Lattice.root lattice in
  let rules =
    Lattice.meta_rules lattice
    |> List.filter (fun (m : Meta_rule.t) ->
           not (Mining.Itemset.is_empty m.body))
    |> Array.of_list
  in
  let nrules = Array.length rules in
  let ba = Lattice.body_attrs lattice in
  let nba = Array.length ba in
  let card = Lattice.head_card lattice in
  let offsets = Array.make (max 1 nba) 0 in
  let total_bits = ref 0 in
  Array.iteri
    (fun p attr ->
      offsets.(p) <- min !total_bits max_code_bits;
      total_bits := !total_bits + bits_for cards.(attr))
    ba;
  let ok = !total_bits <= max_code_bits in
  let pos_of =
    let max_attr = Array.fold_left max 0 ba in
    let pos = Array.make (max_attr + 1) (-1) in
    Array.iteri (fun p attr -> pos.(attr) <- p) ba;
    fun attr -> pos.(attr)
  in
  let vmask = Array.make (max 1 nrules) 0 in
  let vbits = Array.make (max 1 nrules) 0 in
  let cpds = Array.make ((nrules + 1) * card) 0. in
  let weights = Array.make (nrules + 1) 0. in
  Array.iteri
    (fun r (m : Meta_rule.t) ->
      if ok then
        List.iter
          (fun (attr, v) ->
            let p = pos_of attr in
            vmask.(r) <-
              vmask.(r) lor (((1 lsl bits_for cards.(attr)) - 1) lsl offsets.(p));
            vbits.(r) <- vbits.(r) lor ((v + 1) lsl offsets.(p)))
          (Mining.Itemset.to_list m.body);
      Array.blit (m.cpd : Prob.Dist.t :> float array) 0 cpds (r * card) card;
      weights.(r) <- m.weight)
    rules;
  Array.blit (root.cpd : Prob.Dist.t :> float array) 0 cpds (nrules * card) card;
  weights.(nrules) <- root.weight;
  (* Strict-superset index ranges: rule [i]'s range lists every rule
     whose body strictly contains [i]'s — precomputed subsumption, so
     the Best filter is a membership test instead of an itemset scan. *)
  let sup_lists = Array.make (max 1 nrules) [] in
  let total_sup = ref 0 in
  for i = 0 to nrules - 1 do
    let acc = ref [] in
    for j = nrules - 1 downto 0 do
      if Mining.Itemset.proper_subset rules.(i).body rules.(j).body then
        acc := j :: !acc
    done;
    sup_lists.(i) <- !acc;
    total_sup := !total_sup + List.length !acc
  done;
  let sup_off = Array.make (nrules + 1) 0 in
  let sup_idx = Array.make (max 1 !total_sup) 0 in
  let soff = ref 0 in
  for i = 0 to nrules - 1 do
    sup_off.(i) <- !soff;
    List.iter
      (fun j ->
        sup_idx.(!soff) <- j;
        incr soff)
      sup_lists.(i)
  done;
  sup_off.(nrules) <- !soff;
  {
    nrules;
    head_card = card;
    body_attrs = ba;
    offsets;
    vmask;
    vbits;
    cpds;
    weights;
    sup_off;
    sup_idx;
    ok;
  }

let compile ?(budget_bytes = budget_bytes) model =
  let schema = Model.schema model in
  let arity = Relation.Schema.arity schema in
  let cards = Array.init arity (Relation.Schema.cardinality schema) in
  let attrs =
    Array.init arity (fun a -> compile_attr ~cards (Model.lattice model a))
  in
  let usage =
    { budget = budget_bytes; bytes = Atomic.make 0; entries = Atomic.make 0 }
  in
  let tables =
    Array.init (4 * arity) (fun i ->
        let ak = attrs.(i mod arity) in
        if ak.ok then Some (make_table ~usage ~cards ak.body_attrs) else None)
  in
  { epoch = Model.epoch model; attrs; tables; usage }

(* --- registry ---------------------------------------------------------- *)

let enabled_flag = Atomic.make true
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* Small MRU list behind an atomic: kernels are immutable, epochs are
   process-unique, so a lost CAS just means another domain published the
   same (or a different) epoch's kernel first — retry and find it. *)
let max_entries = 8
let registry : t list Atomic.t = Atomic.make []

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: tl -> x :: take (n - 1) tl

(* A closure-free scan: [table] runs it on every Gibbs probe. *)
let rec find_epoch epoch = function
  | [] -> raise Not_found
  | k :: tl -> if k.epoch = epoch then k else find_epoch epoch tl

let rec ensure ?(telemetry = Telemetry.global) ?budget_bytes model =
  let epoch = Model.epoch model in
  let cur = Atomic.get registry in
  match find_epoch epoch cur with
  | k -> k
  | exception Not_found ->
      let k =
        Trace.complete ~cat:"kernel"
          ~args:[ ("epoch", Trace.Int epoch) ]
          "kernel.compile"
          (fun () -> compile ?budget_bytes model)
      in
      if Atomic.compare_and_set registry cur (k :: take (max_entries - 1) cur)
      then begin
        Telemetry.incr telemetry "kernel.compiles";
        k
      end
      else ensure ~telemetry ?budget_bytes model

let rec invalidate_stale ~current =
  let epoch = Model.epoch current in
  let cur = Atomic.get registry in
  let next = List.filter (fun k -> k.epoch = epoch) cur in
  if not (Atomic.compare_and_set registry cur next) then
    invalidate_stale ~current

(* Degraded posteriors must come from the interpreted ladder: voter-drop
   fault injection changes infer's output without an epoch change, so
   while it is active the kernel and its tables step aside. *)
let bypassed () =
  (Fault_inject.current ()).Fault_inject.voter_drop_rate > 0.

(* --- conditional-table probes -------------------------------------------- *)

let table ~method_ model a =
  if (not (enabled ())) || bypassed () then None
  else
    let k = ensure model in
    Array.unsafe_get k.tables
      ((method_index method_ * Array.length k.attrs) + a)

(* Digit v + 1, so a missing cell's -1 is digit 0. Callers pass in-range
   values of the schema's arity; no checks here. *)
let context_code tb x =
  let code = ref 0 in
  for p = 0 to Array.length tb.tattrs - 1 do
    code :=
      !code
      + ((Array.unsafe_get x (Array.unsafe_get tb.tattrs p) + 1)
        * Array.unsafe_get tb.place p)
  done;
  !code

(* A linear scan, for chain start only. *)
let place tb attr =
  let rec go p =
    if p = Array.length tb.tattrs then 0
    else if tb.tattrs.(p) = attr then tb.place.(p)
    else go (p + 1)
  in
  go 0

(* The same code for a tuple: a missing cell is digit 0. *)
let tuple_context_code tb (tup : Relation.Tuple.t) =
  let code = ref 0 in
  for p = 0 to Array.length tb.tattrs - 1 do
    match tup.(Array.unsafe_get tb.tattrs p) with
    | Some v -> code := !code + ((v + 1) * Array.unsafe_get tb.place p)
    | None -> ()
  done;
  !code

(* Dense slots are read and written without a lock. Several domains may
   fill the same slot; they all store bit-identical immutable
   distributions computed from the same epoch's kernel. Under the OCaml 5
   memory model a racy read of a slot returns its initial value or a
   value some domain wrote to it, and a block is seen fully initialised by
   any domain that reads a pointer to it. So a reader sees [vacant] (and
   recomputes) or a complete, correct distribution. The slot array is
   published with a CAS, so no filled array is lost to a racing first
   probe. *)
let rec dense_slots n cell =
  let slots = Atomic.get cell in
  if Array.length slots > 0 then slots
  else
    let fresh = Array.make n vacant in
    if Atomic.compare_and_set cell slots fresh then fresh
    else dense_slots n cell

let find tb code =
  match tb.store with
  | Dense (n, cell) ->
      let d = Array.unsafe_get (dense_slots n cell) code in
      if d == vacant then raise Not_found else d
  | Hashed h -> Mutex.protect h.lock (fun () -> Hashtbl.find h.entries code)

(* Reserve [bytes] of the kernel's budget, or decline once it is full. *)
let rec reserve u bytes =
  let used = Atomic.get u.bytes in
  used + bytes <= u.budget
  && (Atomic.compare_and_set u.bytes used (used + bytes) || reserve u bytes)

let store tb code d =
  match tb.store with
  | Dense (n, cell) ->
      let slots = dense_slots n cell in
      if Array.unsafe_get slots code == vacant then Atomic.incr tb.usage.entries;
      Array.unsafe_set slots code d;
      true
  | Hashed h ->
      (* Bucket cell (4 words), the distribution (size + 1 words) and
         about two words of bucket array. *)
      let bytes = 8 * (Prob.Dist.size d + 7) in
      Mutex.protect h.lock (fun () ->
          Hashtbl.mem h.entries code
          || reserve tb.usage bytes
             && begin
                  Hashtbl.replace h.entries code d;
                  Atomic.incr tb.usage.entries;
                  true
                end)

type usage = { entries : int; bytes : int }

let registered epoch =
  match find_epoch epoch (Atomic.get registry) with
  | k -> Some k
  | exception Not_found -> None

let usage epoch =
  match registered epoch with
  | Some k ->
      { entries = Atomic.get k.usage.entries; bytes = Atomic.get k.usage.bytes }
  | None -> { entries = 0; bytes = 0 }

(* Every entry, bucket and the bucket array of a hashed table is
   reachable from its [Hashtbl.t]; each walk holds the table's lock. *)
let reachable_bytes epoch =
  match registered epoch with
  | None -> 0
  | Some k ->
      Array.fold_left
        (fun acc -> function
          | Some { store = Hashed h; _ } ->
              acc
              + Mutex.protect h.lock (fun () ->
                    Obj.reachable_words (Obj.repr h.entries))
          | Some { store = Dense _; _ } | None -> acc)
        0 k.tables
      * (Sys.word_size / 8)

(* --- the compiled vote ------------------------------------------------- *)

(* The tuple's packed evidence over the lattice's body attributes:
   digit 0 for a missing cell, v+1 for value v, each in its own bit
   field. Rule [r] matches iff [vector land vmask.(r) = vbits.(r)] —
   a missing cell's 0 digit can never equal the v+1 a rule demands, so
   the single compare covers both known-ness and value equality. *)
let tuple_vector ak tup =
  let t = ref 0 in
  for p = 0 to Array.length ak.body_attrs - 1 do
    match tup.(ak.body_attrs.(p)) with
    | Some v -> t := !t lor ((v + 1) lsl ak.offsets.(p))
    | None -> ()
  done;
  !t

(* Matched rule ids live in a small bitset (one bit per rule) rather
   than an index buffer: per-vote allocation is a handful of words, and
   the Best subsumption check is a bit probe. 62 bits per word keeps
   every shift on tagged-int-safe ground. *)
let bitset_bits = 62

let vote ak (method_ : Voting.method_) tup =
  let nwords = (ak.nrules / bitset_bits) + 1 in
  let matched = Array.make nwords 0 in
  let tv = tuple_vector ak tup in
  let kk = ref 0 in
  for r = 0 to ak.nrules - 1 do
    if tv land ak.vmask.(r) = ak.vbits.(r) then begin
      matched.(r / bitset_bits) <-
        matched.(r / bitset_bits) lor (1 lsl (r mod bitset_bits));
      incr kk
    end
  done;
  let kk = !kk in
  let mem r =
    matched.(r / bitset_bits) land (1 lsl (r mod bitset_bits)) <> 0
  in
  (* Best = Lattice.most_specific: drop every match with a matched
     strict superset. The root's empty body is a strict subset of any
     non-root body, so it survives only when nothing else matched. *)
  let voters =
    match method_.choice with
    | Voting.All -> matched
    | Voting.Best ->
        let kept = Array.copy matched in
        for r = 0 to ak.nrules - 1 do
          if mem r then begin
            let stop = ak.sup_off.(r + 1) in
            let rec subsumed j =
              j < stop && (mem ak.sup_idx.(j) || subsumed (j + 1))
            in
            if subsumed ak.sup_off.(r) then
              kept.(r / bitset_bits) <-
                kept.(r / bitset_bits) land lnot (1 lsl (r mod bitset_bits))
          end
        done;
        kept
  in
  let include_root =
    match method_.choice with Voting.All -> true | Voting.Best -> kk = 0
  in
  (* Voters in the interpreted list order: matched rules in reverse
     discovery order (= descending rule index), then the root. *)
  let each f =
    for w = nwords - 1 downto 0 do
      let word = voters.(w) in
      if word <> 0 then
        for b = bitset_bits - 1 downto 0 do
          if word land (1 lsl b) <> 0 then f ((w * bitset_bits) + b)
        done
    done;
    if include_root then f ak.nrules
  in
  let card = ak.head_card in
  let averaged () =
    let acc = Array.make card 0. in
    each (fun r ->
        let row = r * card in
        for c = 0 to card - 1 do
          acc.(c) <- acc.(c) +. ak.cpds.(row + c)
        done);
    acc
  in
  let acc =
    match method_.scheme with
    | Voting.Averaged -> averaged ()
    | Voting.Weighted ->
        let wsum = ref 0. in
        each (fun r -> wsum := !wsum +. ak.weights.(r));
        if !wsum <= 0. then averaged ()
        else begin
          let acc = Array.make card 0. in
          each (fun r ->
              let w = ak.weights.(r) in
              let row = r * card in
              for c = 0 to card - 1 do
                acc.(c) <- acc.(c) +. (w *. ak.cpds.(row + c))
              done);
          acc
        end
  in
  (* The same normalization call the interpreted combine ends with; its
     Invalid_argument cases are exactly the ones infer_rung degrades on,
     so they go back to the interpreted ladder (telemetry included). *)
  match Prob.Dist.of_weights acc with
  | d when Array.for_all Float.is_finite (d : Prob.Dist.t :> float array) ->
      Some d
  | _ -> None
  | exception Invalid_argument _ -> None

let posterior ?(telemetry = Telemetry.global) ~method_ model tup a =
  if (not (enabled ())) || bypassed () then None
  else begin
    let k = ensure ~telemetry model in
    let ak = k.attrs.(a) in
    if not ak.ok then begin
      Telemetry.incr telemetry "kernel.fallback";
      None
    end
    else
      match vote ak method_ tup with
      | Some d ->
          Telemetry.incr telemetry "kernel.hits";
          Some d
      | None ->
          Telemetry.incr telemetry "kernel.fallback";
          None
  end
