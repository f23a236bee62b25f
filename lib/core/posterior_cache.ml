(* Evidence-keyed posterior cache: sharded mutex-protected hash tables
   threaded onto intrusive LRU lists, keyed by (model epoch, attribute,
   voting method, lattice-relevant evidence signature). See the .mli for
   the full design discussion. *)

let default_max_bytes = 64 * 1024 * 1024
let default_shards = 16

(* --- wrapping full-traversal mixed-radix codes ----------------------- *)

(* splitmix64 finalizer (same constants as Fault_inject): folded in after
   every mixed-radix step so high-order digits survive the 2^64 wrap even
   when the radices are powers of two — pure left-shifting accumulation
   would push early cells' bits off the top on wide schemas, which is
   exactly the class of systematic collision this code exists to kill. *)
let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let fold_digit h ~radix ~digit =
  mix64 (Int64.add (Int64.mul h (Int64.of_int radix)) (Int64.of_int digit))

let tuple_code64 ~cards (tup : Relation.Tuple.t) =
  if Array.length cards <> Array.length tup then
    invalid_arg "Posterior_cache.tuple_code: cards/tuple arity mismatch";
  let h = ref 1L in
  Array.iteri
    (fun i cell ->
      let digit = match cell with None -> 0 | Some v -> v + 1 in
      h := fold_digit !h ~radix:(cards.(i) + 1) ~digit)
    tup;
  !h

let tuple_code ~cards tup = Int64.to_int (tuple_code64 ~cards tup)

let evidence_key ~cards tup a =
  Int64.to_int
    (fold_digit (tuple_code64 ~cards tup)
       ~radix:(Array.length cards + 1)
       ~digit:(a + 1))

(* --- keys ------------------------------------------------------------- *)

let method_code (m : Voting.method_) =
  (match m.choice with Voting.All -> 0 | Voting.Best -> 1)
  lor ((match m.scheme with Voting.Averaged -> 0 | Voting.Weighted -> 1) lsl 1)

let signature model (tup : Relation.Tuple.t) a =
  let attrs = Lattice.body_attrs (Model.lattice model a) in
  Array.map
    (fun b -> match tup.(b) with None -> 0 | Some v -> v + 1)
    attrs

(* Key namespaces: [ns = 0] keys carry the interpreted signature digit
   array; [ns = 1] keys carry the compiled kernel's exact mixed-radix
   context code as a one-element array. The namespaces are disjoint by
   construction so the two key schemes can never collide — an attribute
   whose context code would overflow falls back to ns 0 (see Kernel). *)
type key = {
  ns : int;
  epoch : int;
  attr : int;
  meth : int;
  sig_ : int array;
  khash : int;  (* precomputed; array hashing is the lookup's only O(n) *)
}

let key_hash ~ns ~epoch ~attr ~meth sig_ =
  let h = ref (Int64.of_int epoch) in
  h := fold_digit !h ~radix:31 ~digit:ns;
  h := fold_digit !h ~radix:31 ~digit:attr;
  h := fold_digit !h ~radix:31 ~digit:meth;
  Array.iter (fun d -> h := fold_digit !h ~radix:31 ~digit:d) sig_;
  Int64.to_int !h land max_int

let make_key model ~method_ tup a =
  let epoch = Model.epoch model in
  let meth = method_code method_ in
  match Kernel.cache_code model tup a with
  | Some code ->
      let sig_ = [| code |] in
      {
        ns = 1;
        epoch;
        attr = a;
        meth;
        sig_;
        khash = key_hash ~ns:1 ~epoch ~attr:a ~meth sig_;
      }
  | None ->
      let sig_ = signature model tup a in
      {
        ns = 0;
        epoch;
        attr = a;
        meth;
        sig_;
        khash = key_hash ~ns:0 ~epoch ~attr:a ~meth sig_;
      }

module Key = struct
  type t = key

  let equal a b =
    a.khash = b.khash && a.ns = b.ns && a.epoch = b.epoch && a.attr = b.attr
    && a.meth = b.meth
    && Array.length a.sig_ = Array.length b.sig_
    &&
    let rec eq i = i < 0 || (a.sig_.(i) = b.sig_.(i) && eq (i - 1)) in
    eq (Array.length a.sig_ - 1)

  let hash k = k.khash
end

module Table = Hashtbl.Make (Key)

(* --- shards: hash table + intrusive LRU ------------------------------- *)

type node = {
  nkey : key;
  dist : Prob.Dist.t;
  nbytes : int;
  mutable prev : node;  (* toward MRU / sentinel *)
  mutable next : node;  (* toward LRU / sentinel *)
}

type shard = {
  lock : Mutex.t;
  table : node Table.t;
  sentinel : node;  (* sentinel.next = MRU, sentinel.prev = LRU *)
  mutable bytes : int;
  mutable entries : int;
}

let dummy_key =
  { ns = 0; epoch = -1; attr = -1; meth = -1; sig_ = [||]; khash = 0 }

let make_shard () =
  let rec sentinel =
    { nkey = dummy_key; dist = Prob.Dist.uniform 1; nbytes = 0;
      prev = sentinel; next = sentinel }
  in
  { lock = Mutex.create (); table = Table.create 256; sentinel; bytes = 0;
    entries = 0 }

let detach n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev;
  n.prev <- n;
  n.next <- n

let push_front sh n =
  n.next <- sh.sentinel.next;
  n.prev <- sh.sentinel;
  sh.sentinel.next.prev <- n;
  sh.sentinel.next <- n

let with_lock sh f =
  Mutex.lock sh.lock;
  match f () with
  | v ->
      Mutex.unlock sh.lock;
      v
  | exception e ->
      Mutex.unlock sh.lock;
      raise e

(* --- the cache -------------------------------------------------------- *)

type t = {
  shards : shard array;
  shard_mask : int;
  max_bytes_per_shard : int;
  telemetry : Telemetry.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
  dedup_fanout : int Atomic.t;
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ?(shards = default_shards) ?(max_bytes = default_max_bytes)
    ?(telemetry = Telemetry.global) () =
  if shards < 1 then invalid_arg "Posterior_cache.create: shards must be >= 1";
  if max_bytes < 1 then
    invalid_arg "Posterior_cache.create: max_bytes must be >= 1";
  let n = pow2_at_least shards 1 in
  {
    shards = Array.init n (fun _ -> make_shard ());
    shard_mask = n - 1;
    max_bytes_per_shard = max 1 (max_bytes / n);
    telemetry;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
    dedup_fanout = Atomic.make 0;
  }

let shard_of t key = t.shards.(key.khash land t.shard_mask)

(* Per-entry footprint on a 64-bit heap, kept at or above the true cost
   so the byte budget never under-counts (the [Obj.reachable_words]
   cross-check in the resources report and test suite holds it honest):
   node record (6 words), key record (6 words), signature int array
   (len + 1 words), distribution float array (len + 1 words), hashtable
   bucket cell (4 words), plus amortized slot-array and resize slack.
   48 + 48 + 32 + 16 = 144 structural bytes, padded to 208 for the
   array headers and table slack. *)
let entry_bytes key dist =
  208 + (8 * Array.length key.sig_) + (8 * Prob.Dist.size dist)

let publish t =
  let bytes = ref 0 and entries = ref 0 in
  Array.iter
    (fun sh ->
      bytes := !bytes + sh.bytes;
      entries := !entries + sh.entries)
    t.shards;
  Telemetry.gauge t.telemetry "cache.bytes" (float_of_int !bytes);
  Telemetry.gauge t.telemetry "cache.entries" (float_of_int !entries)

let count_fanout t n =
  if n > 0 then begin
    Atomic.fetch_and_add t.dedup_fanout n |> ignore;
    Telemetry.incr ~by:n t.telemetry "cache.dedup_fanout"
  end

let find_key t key =
  let sh = shard_of t key in
  let found =
    with_lock sh (fun () ->
        match Table.find_opt sh.table key with
        | Some n ->
            detach n;
            push_front sh n;
            Some n.dist
        | None -> None)
  in
  (match found with
  | Some _ ->
      Atomic.incr t.hits;
      Telemetry.incr t.telemetry "cache.hits"
  | None ->
      Atomic.incr t.misses;
      Telemetry.incr t.telemetry "cache.misses");
  found

let add_key t key dist =
  let sh = shard_of t key in
  let evicted =
    with_lock sh (fun () ->
        if Table.mem sh.table key then 0
        else begin
          let n =
            { nkey = key; dist; nbytes = entry_bytes key dist;
              prev = sh.sentinel; next = sh.sentinel }
          in
          Table.replace sh.table key n;
          push_front sh n;
          sh.bytes <- sh.bytes + n.nbytes;
          sh.entries <- sh.entries + 1;
          let evicted = ref 0 in
          while sh.bytes > t.max_bytes_per_shard && sh.entries > 1 do
            let lru = sh.sentinel.prev in
            Table.remove sh.table lru.nkey;
            detach lru;
            sh.bytes <- sh.bytes - lru.nbytes;
            sh.entries <- sh.entries - 1;
            incr evicted
          done;
          !evicted
        end)
  in
  Trace.instant ~cat:"cache"
    ~args:[ ("attr", Trace.Int key.attr) ]
    "cache.fill";
  if evicted > 0 then begin
    Atomic.fetch_and_add t.evictions evicted |> ignore;
    Telemetry.incr ~by:evicted t.telemetry "cache.evictions";
    Trace.instant ~cat:"cache"
      ~args:[ ("evicted", Trace.Int evicted) ]
      "cache.evict"
  end;
  publish t

(* Degraded posteriors must never be cached or served: voter-drop fault
   injection changes [Infer_single.infer]'s output without a model-epoch
   change, so while it is active the cache steps aside entirely. *)
let bypassed () =
  (Fault_inject.current ()).Fault_inject.voter_drop_rate > 0.

let find t model ~method_ tup a =
  if bypassed () then None
  else begin
    let key = make_key model ~method_ tup a in
    let t0 = Clock.now () in
    let found = find_key t key in
    Telemetry.observe t.telemetry "cache.lookup_seconds" (Clock.now () -. t0);
    found
  end

type segment = unit Table.t

let new_segment () = Table.create 64

let find_or_compute ?segment t model ~method_ tup a f =
  if bypassed () then f ()
  else begin
    let key = make_key model ~method_ tup a in
    (match segment with
    | Some seen ->
        if Table.mem seen key then count_fanout t 1
        else Table.replace seen key ()
    | None -> ());
    let t0 = Clock.now () in
    let found = find_key t key in
    Telemetry.observe t.telemetry "cache.lookup_seconds"
      (Clock.now () -. t0);
    match found with
    | Some d -> d
    | None ->
        let d = f () in
        add_key t key d;
        d
  end

let prewarm t model ~method_ ~compute workload =
  if bypassed () then (0, 0)
  else begin
    let seen = Table.create 256 in
    let tasks = ref 0 and distinct = ref 0 in
    let body () =
      List.iter
        (fun tup ->
          List.iter
            (fun a ->
              incr tasks;
              let key = make_key model ~method_ tup a in
              if Table.mem seen key then ()
              else begin
                Table.replace seen key ();
                incr distinct;
                match find_key t key with
                | Some _ -> ()
                | None -> add_key t key (compute tup a)
              end)
            (Relation.Tuple.missing tup))
        workload
    in
    (* One slice per prewarm pass, emitted after the fact so its args can
       carry the dedup shape discovered during the pass. *)
    let t0 = Clock.now_ns () in
    body ();
    let fanout = !tasks - !distinct in
    Trace.complete_span ~cat:"cache"
      ~args:
        [
          ("tasks", Trace.Int !tasks);
          ("distinct", Trace.Int !distinct);
          ("fanout", Trace.Int fanout);
        ]
      ~start_ns:t0 "cache.prewarm";
    count_fanout t fanout;
    (!distinct, fanout)
  end

(* --- maintenance ------------------------------------------------------ *)

let clear t =
  Array.iter
    (fun sh ->
      with_lock sh (fun () ->
          Table.reset sh.table;
          (* Re-point the sentinel at itself; detached nodes are garbage. *)
          sh.sentinel.next <- sh.sentinel;
          sh.sentinel.prev <- sh.sentinel;
          sh.bytes <- 0;
          sh.entries <- 0))
    t.shards;
  publish t

let invalidate_stale t ~current =
  let epoch = Model.epoch current in
  let dropped = ref 0 in
  Array.iter
    (fun sh ->
      with_lock sh (fun () ->
          let stale =
            Table.fold
              (fun k n acc -> if k.epoch <> epoch then n :: acc else acc)
              sh.table []
          in
          List.iter
            (fun n ->
              Table.remove sh.table n.nkey;
              detach n;
              sh.bytes <- sh.bytes - n.nbytes;
              sh.entries <- sh.entries - 1;
              incr dropped)
            stale))
    t.shards;
  if !dropped > 0 then begin
    Atomic.fetch_and_add t.evictions !dropped |> ignore;
    Telemetry.incr ~by:!dropped t.telemetry "cache.evictions"
  end;
  publish t

(* --- stats ------------------------------------------------------------ *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  dedup_fanout : int;
  entries : int;
  bytes : int;
}

let stats t =
  let bytes = ref 0 and entries = ref 0 in
  Array.iter
    (fun sh ->
      with_lock sh (fun () ->
          bytes := !bytes + sh.bytes;
          entries := !entries + sh.entries))
    t.shards;
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    evictions = Atomic.get t.evictions;
    dedup_fanout = Atomic.get t.dedup_fanout;
    entries = !entries;
    bytes = !bytes;
  }

let hit_rate (t : t) =
  let h = Atomic.get t.hits and m = Atomic.get t.misses in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

(* True heap footprint of the shard tables: every node, key, signature,
   distribution, bucket and LRU link is reachable from a shard's table
   (the sentinel via the node prev/next chain), so one traversal per
   shard covers the lot. Each shard's lock is held during its walk so a
   concurrent writer can't mutate the structure mid-traversal; the walk
   is O(entries) and only runs from stats/report paths, never the
   serving hot path. *)
let reachable_bytes t =
  let words = ref 0 in
  Array.iter
    (fun sh ->
      with_lock sh (fun () ->
          words := !words + Obj.reachable_words (Obj.repr sh.table)))
    t.shards;
  !words * (Sys.word_size / 8)
