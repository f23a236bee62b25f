(* Resource observability (see resource.mli). Observation-only: nothing
   here touches an RNG, a sampler or a model, so installing a monitor
   cannot change inference output. *)

let word_bytes = Sys.word_size / 8

type snapshot = {
  minor_collections : int;
  major_collections : int;
  compactions : int;
  promoted_words : float;
  allocated_bytes : float;
}

let take_snapshot () =
  let s = Gc.quick_stat () in
  {
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    compactions = s.Gc.compactions;
    promoted_words = s.Gc.promoted_words;
    allocated_bytes = Clock.allocated_bytes ();
  }

type t = {
  telemetry : Telemetry.t;
  lock : Mutex.t;  (* the GC alarm and explicit samples can race *)
  mutable last : snapshot;
  mutable alarm : Gc.alarm option;
}

let create ?(telemetry = Telemetry.global) () =
  { telemetry; lock = Mutex.create (); last = take_snapshot (); alarm = None }

let current : t option Atomic.t = Atomic.make None
let enabled () = Atomic.get current <> None
let installed () = Atomic.get current

(* Deltas are clamped at zero: Telemetry counters are monotone, and the
   per-domain components of [Gc.quick_stat] mean a sample taken from a
   different domain than the previous one could otherwise go backwards. *)
let sample t =
  Mutex.lock t.lock;
  let cur = take_snapshot () in
  let prev = t.last in
  t.last <- cur;
  Mutex.unlock t.lock;
  let d a b = max 0 (a - b) in
  Telemetry.add t.telemetry "gc.minor_collections"
    (d cur.minor_collections prev.minor_collections);
  Telemetry.add t.telemetry "gc.major_collections"
    (d cur.major_collections prev.major_collections);
  Telemetry.add t.telemetry "gc.compactions"
    (d cur.compactions prev.compactions);
  Telemetry.add t.telemetry "mem.allocated_bytes"
    (max 0 (int_of_float (cur.allocated_bytes -. prev.allocated_bytes)));
  Telemetry.add t.telemetry "mem.promoted_bytes"
    (max 0
       (int_of_float ((cur.promoted_words -. prev.promoted_words)
                     *. float_of_int word_bytes)));
  let s = Gc.quick_stat () in
  Telemetry.gauge t.telemetry "mem.heap_bytes"
    (float_of_int (s.Gc.heap_words * word_bytes));
  Telemetry.gauge t.telemetry "mem.top_heap_bytes"
    (float_of_int (s.Gc.top_heap_words * word_bytes))

let sample_current () =
  match Atomic.get current with None -> () | Some t -> sample t

(* End-of-major-cycle hook: drop a [gc.major] instant on the trace's
   monotonic clock so Perfetto shows collections interleaved with
   inference slices.

   The handler runs synchronously at the end of a major cycle — which
   can be in the middle of ANY allocation, including one made while the
   interrupted thread holds a mutex (the telemetry registry's intern
   lock, this monitor's own [t.lock], the trace sink's registration
   lock). So the handler must never lock: no [sample] (Telemetry is
   mutex-protected), only the lock-free {!Trace.try_instant}. The
   gc.*/mem.* counters lose nothing — they are deltas of cumulative
   [Gc.quick_stat] numbers, refreshed at every explicit sample point
   (metrics scrape, stats op, uninstall, the CLI/bench reporters).
   [in_alarm] guards against a nested cycle completing inside the
   handler's own allocations. *)
let in_alarm = Atomic.make false

let on_major () =
  if enabled () && Atomic.compare_and_set in_alarm false true then begin
    let s = Gc.quick_stat () in
    ignore
      (Trace.try_instant ~cat:"gc"
         ~args:
           [
             ("heap_bytes", Trace.Int (s.Gc.heap_words * word_bytes));
             ("major_collections", Trace.Int s.Gc.major_collections);
           ]
         "gc.major");
    Atomic.set in_alarm false
  end

let uninstall () =
  match Atomic.get current with
  | None -> None
  | Some t ->
      (match t.alarm with
      | Some a ->
          Gc.delete_alarm a;
          t.alarm <- None
      | None -> ());
      Atomic.set current None;
      sample t;
      Some t

let install t =
  ignore (uninstall ());
  Mutex.lock t.lock;
  t.last <- take_snapshot ();
  Mutex.unlock t.lock;
  Atomic.set current (Some t);
  t.alarm <- Some (Gc.create_alarm on_major)

let monitored ?telemetry f =
  (* A previously installed monitor is put back afterwards rather than
     silently dropped; [install] re-baselines its snapshot, so activity
     inside the scoped window is published exactly once (by the scoped
     monitor) and never double-counted by the restored one. *)
  let prev = installed () in
  let t = create ?telemetry () in
  install t;
  Fun.protect
    ~finally:(fun () ->
      ignore (uninstall ());
      match prev with Some p -> install p | None -> ())
    f

let alloc_span ?telemetry name f =
  if not (enabled ()) then f ()
  else begin
    let reg =
      match telemetry with Some t -> t | None -> Telemetry.global
    in
    let a0 = Clock.allocated_bytes () in
    let r = f () in
    Telemetry.observe reg name (Clock.allocated_since a0);
    r
  end

(* --- per-domain utilization ------------------------------------------- *)

(* Latest busy-fraction snapshot per worker slot, recorded by the
   workload scheduler after each run. A snapshot (not an aggregate) so the labeled
   Prometheus series reflects the most recent run's shape. *)
let util : (int * float) list Atomic.t = Atomic.make []

let set_utilization l =
  Atomic.set util (List.sort (fun (a, _) (b, _) -> compare a b) l)

let utilization () = Atomic.get util

(* --- report ----------------------------------------------------------- *)

module Json = Telemetry.Json

let report ?model () =
  let s = Gc.quick_stat () in
  let gc =
    Json.Obj
      [
        ("minor_collections", Json.Int s.Gc.minor_collections);
        ("major_collections", Json.Int s.Gc.major_collections);
        ("compactions", Json.Int s.Gc.compactions);
      ]
  in
  let mem =
    Json.Obj
      [
        ("heap_bytes", Json.Int (s.Gc.heap_words * word_bytes));
        ("top_heap_bytes", Json.Int (s.Gc.top_heap_words * word_bytes));
        ("allocated_bytes", Json.Float (Clock.allocated_bytes ()));
        ( "promoted_bytes",
          Json.Float (s.Gc.promoted_words *. float_of_int word_bytes) );
      ]
  in
  let domains =
    Json.List
      (List.map
         (fun (d, u) ->
           Json.Obj [ ("domain", Json.Int d); ("utilization", Json.Float u) ])
         (utilization ()))
  in
  let base =
    [ ("gc", gc); ("mem", mem); ("domains", domains) ]
  in
  match model with
  | None -> Json.Obj base
  | Some m ->
      let epoch = Model.epoch m in
      let accounted = (Kernel.usage epoch).bytes in
      let reachable = Kernel.reachable_bytes epoch in
      let ratio =
        if reachable = 0 then 1.
        else float_of_int accounted /. float_of_int reachable
      in
      Json.Obj
        (base
        @ [
            ( "cache",
              Json.Obj
                [
                  ("accounted_bytes", Json.Int accounted);
                  ("reachable_bytes", Json.Int reachable);
                  ("accounted_per_reachable", Json.Float ratio);
                ] );
          ])

(* The labeled per-domain utilization series can't ride the generic
   dotted-name sanitizer (labels would be mangled), so it goes out
   through Trace's exposition-extra hook — registered once at module
   init. Module initialization runs whenever this module is linked,
   which it always is: the inference hot paths reference [alloc_span]. *)
let () =
  Trace.register_exposition_extra (fun buf ->
      match utilization () with
      | [] -> ()
      | l ->
          Buffer.add_string buf "# TYPE mrsl_domain_utilization gauge\n";
          List.iter
            (fun (d, u) ->
              Buffer.add_string buf
                (Printf.sprintf "mrsl_domain_utilization{domain=\"%d\"} %.6f\n"
                   d u))
            l)
