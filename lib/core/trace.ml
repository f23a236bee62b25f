type arg = Int of int | Float of float | Str of string

type phase =
  | Complete of int
  | Instant
  | Counter
  | Flow_start
  | Flow_end

type event = {
  name : string;
  cat : string;
  ts_ns : int;
  track : int;
  id : int;
  args : (string * arg) list;
  phase : phase;
}

let dummy_event =
  { name = ""; cat = ""; ts_ns = 0; track = 0; id = 0; args = []; phase = Instant }

(* One ring buffer per domain. A buffer is appended to only by the domain
   that owns it, so writes need no synchronization; readers (the
   exporters) run after the traced workload has finished. *)
type buffer = {
  owner : int;  (* domain id, the default track *)
  ring : event array;
  mutable len : int;
  mutable buf_dropped : int;
}

type sink = {
  sink_id : int;  (* distinguishes sinks across install/uninstall cycles *)
  capacity : int;
  start_ns : int;
  reg_lock : Mutex.t;
  mutable buffers : buffer list;
}

let default_capacity = 65536

let next_sink_id = Atomic.make 1

let create ?(capacity_per_domain = default_capacity) () =
  if capacity_per_domain < 1 then
    invalid_arg "Trace.create: capacity_per_domain must be >= 1";
  {
    sink_id = Atomic.fetch_and_add next_sink_id 1;
    capacity = capacity_per_domain;
    start_ns = Clock.now_ns ();
    reg_lock = Mutex.create ();
    buffers = [];
  }

let current : sink option Atomic.t = Atomic.make None

let install sink = Atomic.set current (Some sink)

let uninstall () =
  let s = Atomic.get current in
  Atomic.set current None;
  s

let installed () = Atomic.get current
let enabled () = Atomic.get current <> None

(* Domain-local cache of (sink_id, buffer): after the first event from a
   given domain under a given sink, emission is a DLS read plus an array
   store — lock-free. The registration (first event per domain per sink)
   takes the sink's lock once. *)
let dls_buffer : (int * buffer) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let local_buffer sink =
  let slot = Domain.DLS.get dls_buffer in
  match !slot with
  | Some (id, buf) when id = sink.sink_id -> buf
  | _ ->
      let buf =
        {
          owner = (Domain.self () :> int);
          ring = Array.make sink.capacity dummy_event;
          len = 0;
          buf_dropped = 0;
        }
      in
      Mutex.lock sink.reg_lock;
      sink.buffers <- buf :: sink.buffers;
      Mutex.unlock sink.reg_lock;
      slot := Some (sink.sink_id, buf);
      buf

let emit sink ev =
  let buf = local_buffer sink in
  if buf.len < Array.length buf.ring then begin
    buf.ring.(buf.len) <- ev;
    buf.len <- buf.len + 1
  end
  else buf.buf_dropped <- buf.buf_dropped + 1

let now_rel sink = Clock.duration_ns ~start:sink.start_ns ~stop:(Clock.now_ns ())

let instant ?(args = []) ~cat name =
  match Atomic.get current with
  | None -> ()
  | Some sink ->
      emit sink
        {
          name;
          cat;
          ts_ns = now_rel sink;
          track = (Domain.self () :> int);
          id = 0;
          args;
          phase = Instant;
        }

(* Alarm-safe instant: emits only when this domain's ring is already
   registered under the current sink, so it never takes [reg_lock]. A
   [Gc.alarm] handler can interrupt a thread that holds that lock (or
   any other mutex) mid-allocation; an emission path that locks would
   self-deadlock ("Resource deadlock avoided"). Returns [true] when the
   event was recorded, [false] when it was skipped (no sink, or this
   domain has not traced under the sink yet). *)
let try_instant ?(args = []) ~cat name =
  match Atomic.get current with
  | None -> false
  | Some sink -> (
      match !(Domain.DLS.get dls_buffer) with
      | Some (sid, buf) when sid = sink.sink_id ->
          (if buf.len < Array.length buf.ring then begin
             buf.ring.(buf.len) <-
               {
                 name;
                 cat;
                 ts_ns = now_rel sink;
                 track = (Domain.self () :> int);
                 id = 0;
                 args;
                 phase = Instant;
               };
             buf.len <- buf.len + 1
           end
           else buf.buf_dropped <- buf.buf_dropped + 1);
          true
      | _ -> false)

let counter ?(id = 0) ~cat name values =
  match Atomic.get current with
  | None -> ()
  | Some sink ->
      emit sink
        {
          name;
          cat;
          ts_ns = now_rel sink;
          track = (Domain.self () :> int);
          id;
          args = List.map (fun (k, v) -> (k, Float v)) values;
          phase = Counter;
        }

let complete_span ?(args = []) ~cat ~start_ns name =
  match Atomic.get current with
  | None -> ()
  | Some sink ->
      let stop = Clock.now_ns () in
      let start_rel = Clock.duration_ns ~start:sink.start_ns ~stop:start_ns in
      emit sink
        {
          name;
          cat;
          ts_ns = start_rel;
          track = (Domain.self () :> int);
          id = 0;
          args;
          phase = Complete (Clock.duration_ns ~start:start_ns ~stop);
        }

let complete ?args ~cat name f =
  match Atomic.get current with
  | None -> f ()
  | Some _ -> (
      let start_ns = Clock.now_ns () in
      match f () with
      | r ->
          complete_span ?args ~cat ~start_ns name;
          r
      | exception e ->
          complete_span ?args ~cat ~start_ns name;
          raise e)

let flow phase ~args ~cat ~id name =
  match Atomic.get current with
  | None -> ()
  | Some sink ->
      emit sink
        {
          name;
          cat;
          ts_ns = now_rel sink;
          track = (Domain.self () :> int);
          id;
          args;
          phase;
        }

let flow_start ?(args = []) ~cat ~id name = flow Flow_start ~args ~cat ~id name
let flow_end ?(args = []) ~cat ~id name = flow Flow_end ~args ~cat ~id name

let with_sink ?capacity_per_domain f =
  let sink = create ?capacity_per_domain () in
  install sink;
  match f () with
  | r ->
      ignore (uninstall ());
      (r, sink)
  | exception e ->
      ignore (uninstall ());
      raise e

(* --- deterministic flow ids ----------------------------------------- *)

(* splitmix64 finalizer over (seed, kind, a, b): ids are a pure function
   of the run seed and the stable task identity, independent of domain
   count and of which worker ran the task. The low 62 bits keep them
   positive. The kind numbers are fixed (task 1, share 3, request 4):
   renumbering one would move every id of that kind. *)
let mix ~seed ~kind ~a ~b =
  let z =
    Prob.Rng.mix64
      (Int64.add
         (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
         (Int64.add
            (Int64.mul (Int64.of_int kind) 0xC2B2AE3D27D4EB4FL)
            (Int64.add (Int64.mul (Int64.of_int a) 0xD6E8FEB86659FD93L)
               (Int64.of_int b))))
  in
  let v = Int64.to_int (Int64.logand z 0x3FFFFFFFFFFFFFFFL) in
  if v = 0 then 1 else v

let task_flow_id ~seed ~node = mix ~seed ~kind:1 ~a:node ~b:0
let share_flow_id ~seed ~parent ~child = mix ~seed ~kind:3 ~a:parent ~b:child
let request_flow_id ~seed ~req = mix ~seed ~kind:4 ~a:req ~b:0

(* --- inspection ------------------------------------------------------ *)

let snapshot_buffers sink =
  Mutex.lock sink.reg_lock;
  let bufs = sink.buffers in
  Mutex.unlock sink.reg_lock;
  bufs

let event_count sink =
  List.fold_left (fun acc b -> acc + b.len) 0 (snapshot_buffers sink)

let dropped sink =
  List.fold_left (fun acc b -> acc + b.buf_dropped) 0 (snapshot_buffers sink)

let events sink =
  snapshot_buffers sink
  |> List.concat_map (fun b -> Array.to_list (Array.sub b.ring 0 b.len))
  |> List.stable_sort (fun a b -> compare a.ts_ns b.ts_ns)

(* --- Chrome trace-event export --------------------------------------- *)

module Json = Telemetry.Json

let json_of_arg = function
  | Int n -> Json.Int n
  | Float f -> Json.Float f
  | Str s -> Json.String s

let us_of_ns ns = float_of_int ns /. 1e3

let json_of_event ev =
  let base =
    [
      ("name", Json.String ev.name);
      ("cat", Json.String ev.cat);
      ("pid", Json.Int ev.track);
      ("tid", Json.Int 0);
      ("ts", Json.Float (us_of_ns ev.ts_ns));
    ]
  in
  let args =
    match ev.args with
    | [] -> []
    | args -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, json_of_arg v)) args)) ]
  in
  let phase =
    match ev.phase with
    | Complete dur ->
        [ ("ph", Json.String "X"); ("dur", Json.Float (us_of_ns dur)) ]
    | Instant -> [ ("ph", Json.String "i"); ("s", Json.String "t") ]
    | Counter -> [ ("ph", Json.String "C"); ("id", Json.Int ev.id) ]
    | Flow_start -> [ ("ph", Json.String "s"); ("id", Json.Int ev.id) ]
    | Flow_end ->
        [ ("ph", Json.String "f"); ("bp", Json.String "e"); ("id", Json.Int ev.id) ]
  in
  Json.Obj (base @ phase @ args)

let to_chrome_json sink =
  let evs = events sink in
  let tracks =
    List.sort_uniq compare (List.map (fun e -> e.track) evs)
  in
  let metadata =
    List.map
      (fun t ->
        Json.Obj
          [
            ("name", Json.String "process_name");
            ("ph", Json.String "M");
            ("pid", Json.Int t);
            ("tid", Json.Int 0);
            ( "args",
              Json.Obj [ ("name", Json.String (Printf.sprintf "domain-%d" t)) ]
            );
          ])
      tracks
  in
  Json.Obj
    [
      ("traceEvents", Json.List (metadata @ List.map json_of_event evs));
      ("displayTimeUnit", Json.String "ms");
      ("dropped", Json.Int (dropped sink));
      ("trackCount", Json.Int (List.length tracks));
    ]

let chrome_string sink = Json.to_string ~pretty:false (to_chrome_json sink) ^ "\n"

let write_chrome sink path =
  Out_channel.with_open_bin path (fun oc -> output_string oc (chrome_string sink))

(* --- Prometheus text exposition -------------------------------------- *)

let sanitize name =
  let b = Bytes.of_string name in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ()
      | _ -> Bytes.set b i '_')
    b;
  let s = Bytes.to_string b in
  "mrsl_" ^ s

let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else Printf.sprintf "%.17g" f

(* Extra exposition renderers, registered by higher modules (Resource's
   labeled per-domain utilization series). Labeled series can't ride the
   generic sanitizer, and Trace sits below those modules in the library,
   so the dependency is inverted through this hook. *)
let exposition_extras : (Buffer.t -> unit) list Atomic.t = Atomic.make []

let register_exposition_extra f =
  let rec add () =
    let cur = Atomic.get exposition_extras in
    if not (Atomic.compare_and_set exposition_extras cur (f :: cur)) then
      add ()
  in
  add ()

let prometheus_exposition registry =
  let j = Telemetry.to_json registry in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s;
                                   Buffer.add_char buf '\n') fmt in
  let fields key =
    match Json.member key j with Some (Json.Obj fields) -> fields | _ -> []
  in
  let num = function
    | Json.Int n -> float_of_int n
    | Json.Float f -> f
    | _ -> Float.nan
  in
  let get k o = match Json.member k o with Some v -> num v | None -> Float.nan in
  List.iter
    (fun (name, v) ->
      let m = sanitize name ^ "_total" in
      line "# TYPE %s counter" m;
      line "%s %s" m (prom_float (num v)))
    (fields "counters");
  List.iter
    (fun (name, v) ->
      let m = sanitize name in
      line "# TYPE %s gauge" m;
      line "%s %s" m (prom_float (get "last" v));
      line "# TYPE %s_max gauge" m;
      line "%s_max %s" m (prom_float (get "max" v)))
    (fields "gauges");
  List.iter
    (fun (name, v) ->
      let m = sanitize name in
      line "# TYPE %s summary" m;
      line "%s{quantile=\"0.5\"} %s" m (prom_float (get "p50" v));
      line "%s{quantile=\"0.9\"} %s" m (prom_float (get "p90" v));
      line "%s{quantile=\"0.99\"} %s" m (prom_float (get "p99" v));
      line "%s_sum %s" m
        (prom_float (get "mean" v *. get "count" v));
      line "%s_count %s" m (prom_float (get "count" v)))
    (fields "histograms");
  List.iter
    (fun (name, v) ->
      let m = sanitize name in
      line "# TYPE %s_seconds_total counter" m;
      line "%s_seconds_total %s" m (prom_float (get "wall_seconds" v));
      line "# TYPE %s_calls_total counter" m;
      line "%s_calls_total %s" m (prom_float (get "calls" v)))
    (fields "spans");
  (* Trace-ring health: when a sink is recording, expose its drop
     counter and per-domain ring occupancy so a scrape shows when
     serving-rate tracing is lossy (rings are fixed-capacity; overflow
     drops events silently from the trace's point of view). *)
  (match Atomic.get current with
  | None -> ()
  | Some sink ->
      let bufs = snapshot_buffers sink in
      line "# TYPE mrsl_trace_dropped_total counter";
      line "mrsl_trace_dropped_total %d"
        (List.fold_left (fun acc b -> acc + b.buf_dropped) 0 bufs);
      line "# TYPE mrsl_trace_ring_capacity gauge";
      line "mrsl_trace_ring_capacity %d" sink.capacity;
      line "# TYPE mrsl_trace_ring_events gauge";
      List.iter
        (fun b ->
          line "mrsl_trace_ring_events{domain=\"%d\"} %d" b.owner b.len)
        (List.sort (fun a b -> compare a.owner b.owner) bufs));
  List.iter (fun f -> f buf) (List.rev (Atomic.get exposition_extras));
  Buffer.contents buf

(* --- trace-file summary ----------------------------------------------- *)

type slice_acc = {
  mutable s_count : int;
  mutable s_total_us : float;
  mutable s_max_us : float;
}

let summarize j =
  let evs =
    match Json.member "traceEvents" j with
    | Some (Json.List evs) -> evs
    | _ -> invalid_arg "Trace.summarize: no traceEvents array"
  in
  let str k o = match Json.member k o with Some (Json.String s) -> Some s | _ -> None in
  let num k o =
    match Json.member k o with
    | Some (Json.Int n) -> Some (float_of_int n)
    | Some (Json.Float f) -> Some f
    | _ -> None
  in
  let slices = Hashtbl.create 64 in
  let tracks = Hashtbl.create 8 in
  let counters = Hashtbl.create 16 in
  let n_events = ref 0 and t_min = ref infinity and t_max = ref neg_infinity in
  (* serve category rollup: batches (with their request counts), request
     flows, and the per-request phase decomposition instants emitted by
     the serving daemon. *)
  let serve_batches = ref 0 and serve_batch_reqs = ref 0 in
  let serve_flow_starts = ref 0 and serve_flow_ends = ref 0 in
  let serve_phases : (string, float list ref) Hashtbl.t = Hashtbl.create 4 in
  let serve_outcomes : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let serve_done = ref 0 in
  let arg_num key ev =
    match Json.member "args" ev with
    | Some args -> (
        match Json.member key args with
        | Some (Json.Int n) -> Some (float_of_int n)
        | Some (Json.Float f) -> Some f
        | _ -> None)
    | None -> None
  in
  let arg_str key ev =
    match Json.member "args" ev with
    | Some args -> (
        match Json.member key args with
        | Some (Json.String s) -> Some s
        | _ -> None)
    | None -> None
  in
  let record_serve_done ev =
    incr serve_done;
    List.iter
      (fun phase ->
        match arg_num (phase ^ "_us") ev with
        | Some v ->
            let cell =
              match Hashtbl.find_opt serve_phases phase with
              | Some c -> c
              | None ->
                  let c = ref [] in
                  Hashtbl.add serve_phases phase c;
                  c
            in
            cell := v :: !cell
        | None -> ())
      [ "queue_wait"; "compute"; "flush" ];
    match arg_str "outcome" ev with
    | Some o ->
        Hashtbl.replace serve_outcomes o
          (1 + Option.value ~default:0 (Hashtbl.find_opt serve_outcomes o))
    | None -> ()
  in
  List.iter
    (fun ev ->
      match str "ph" ev with
      | Some "M" -> ()
      | Some ph ->
          incr n_events;
          let ts = Option.value ~default:0. (num "ts" ev) in
          if ts < !t_min then t_min := ts;
          let pid = Option.value ~default:0. (num "pid" ev) in
          let name = Option.value ~default:"?" (str "name" ev) in
          let cat = Option.value ~default:"?" (str "cat" ev) in
          (match ph with
          | "X" ->
              let dur = Option.value ~default:0. (num "dur" ev) in
              if ts +. dur > !t_max then t_max := ts +. dur;
              if cat = "serve" && name = "serve.batch" then begin
                incr serve_batches;
                match arg_num "requests" ev with
                | Some r -> serve_batch_reqs := !serve_batch_reqs + int_of_float r
                | None -> ()
              end;
              let key = cat ^ "/" ^ name in
              let acc =
                match Hashtbl.find_opt slices key with
                | Some a -> a
                | None ->
                    let a = { s_count = 0; s_total_us = 0.; s_max_us = 0. } in
                    Hashtbl.add slices key a;
                    a
              in
              acc.s_count <- acc.s_count + 1;
              acc.s_total_us <- acc.s_total_us +. dur;
              if dur > acc.s_max_us then acc.s_max_us <- dur;
              let prev =
                Option.value ~default:[] (Hashtbl.find_opt tracks pid)
              in
              Hashtbl.replace tracks pid ((ts, ts +. dur) :: prev)
          | "C" ->
              if ts > !t_max then t_max := ts;
              Hashtbl.replace counters (cat ^ "/" ^ name)
                (1
                + Option.value ~default:0
                    (Hashtbl.find_opt counters (cat ^ "/" ^ name)))
          | "s" ->
              if ts > !t_max then t_max := ts;
              if cat = "serve" && name = "serve.request" then
                incr serve_flow_starts
          | "f" ->
              if ts > !t_max then t_max := ts;
              if cat = "serve" && name = "serve.request" then
                incr serve_flow_ends
          | _ ->
              if ts > !t_max then t_max := ts;
              if cat = "serve" && name = "serve.request.done" then
                record_serve_done ev;
              (* ensure every event's track shows up even if it never
                 hosted a slice *)
              if not (Hashtbl.mem tracks pid) then Hashtbl.add tracks pid [])
      | None -> ())
    evs;
  let buf = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let span_us =
    if !t_max > !t_min then !t_max -. !t_min else 0.
  in
  let dropped =
    match Json.member "dropped" j with Some (Json.Int n) -> n | _ -> 0
  in
  line "trace: %d events over %.3f ms, %d dropped" !n_events (span_us /. 1e3)
    dropped;
  let track_list =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tracks [])
  in
  line "tracks: %d" (List.length track_list);
  (* Busy time is the union of a track's slice intervals — nested slices
     (a Gibbs task containing its chain-init) count once. *)
  let union_us intervals =
    let sorted = List.sort compare intervals in
    let total, last =
      List.fold_left
        (fun (acc, cur) (s, e) ->
          match cur with
          | None -> (acc, Some (s, e))
          | Some (cs, ce) ->
              if s <= ce then (acc, Some (cs, Float.max ce e))
              else (acc +. (ce -. cs), Some (s, e)))
        (0., None) sorted
    in
    match last with None -> total | Some (cs, ce) -> total +. (ce -. cs)
  in
  List.iter
    (fun (pid, intervals) ->
      let busy = union_us intervals in
      line "  domain-%-4d busy %8.3f ms  (%5.1f%% of trace)" (int_of_float pid)
        (busy /. 1e3)
        (if span_us > 0. then 100. *. busy /. span_us else 0.))
    track_list;
  let top =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) slices []
    |> List.sort (fun (_, a) (_, b) -> Float.compare b.s_total_us a.s_total_us)
  in
  line "top slices by total duration:";
  List.iteri
    (fun i (key, a) ->
      if i < 12 then
        line "  %-32s %6d calls  total %9.3f ms  max %8.3f ms" key a.s_count
          (a.s_total_us /. 1e3) (a.s_max_us /. 1e3))
    top;
  let counter_list =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters [])
  in
  if counter_list <> [] then begin
    line "counter series:";
    List.iter
      (fun (k, n) -> line "  %-32s %6d points" k n)
      counter_list
  end;
  if !serve_batches > 0 || !serve_flow_starts > 0 || !serve_done > 0 then begin
    line "serve:";
    line "  batches: %d (%d requests, mean batch %.1f)" !serve_batches
      !serve_batch_reqs
      (if !serve_batches > 0 then
         float_of_int !serve_batch_reqs /. float_of_int !serve_batches
       else 0.);
    line "  request flows: %d started, %d finished%s" !serve_flow_starts
      !serve_flow_ends
      (if !serve_flow_starts = !serve_flow_ends then "" else "  (UNBALANCED)");
    List.iter
      (fun phase ->
        match Hashtbl.find_opt serve_phases phase with
        | None -> ()
        | Some cell ->
            let arr = Array.of_list (List.sort Float.compare !cell) in
            let n = Array.length arr in
            if n > 0 then begin
              let pct p = arr.(min (n - 1) (int_of_float (p *. float_of_int n))) in
              line "  %-12s %6d reqs  p50 %9.1f us  p99 %9.1f us  max %9.1f us"
                phase n (pct 0.5) (pct 0.99) arr.(n - 1)
            end)
      [ "queue_wait"; "compute"; "flush" ];
    let outcome_list =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) serve_outcomes [])
    in
    if outcome_list <> [] then
      line "  outcomes: %s"
        (String.concat ", "
           (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) outcome_list))
  end;
  Buffer.contents buf
