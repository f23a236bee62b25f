(* Trace artifact validator for the CI trace pass.

   Parses a Chrome trace-event JSON file produced by `mrsl infer --trace`
   or the bench harness (MRSL_TRACE_OUT) and asserts it is a usable
   observability artifact:

     - the JSON parses and has a traceEvents array with at least one
       non-metadata event;
     - dropped == 0 (no ring-buffer overflow at the default capacity);
     - at least --min-tracks distinct tracks (one per domain);
     - every --require-cat CATEGORY (repeatable) has >= 1 event;
     - with --require-task-flows: at least one "sched"/"task.run" flow,
       and every task flow id has exactly one start ("s") and exactly
       one end ("f") — every task made ready was run once;
     - with --require-rhat-counters: at least one "gibbs.convergence"
       counter event carrying an "rhat" series value;
     - with --require-serve-flows: at least one "serve.request" flow,
       and for every distinct flow id the start ("s") and end ("f")
       counts balance (>= 1 each), with at least one end landing inside
       some "serve.batch" complete-slice interval — i.e. every admitted
       request's arrow terminates on the batch that served it. Requests
       shed by the deadline ladder are exempted from the inside-a-batch
       rule (their flow ends at answer time, outside any batch slice):
       a "serve.request.done" instant whose args carry the same flow id
       with outcome "deadline_exceeded" marks the exemption.

   Usage:
     trace_check --trace t.json [--min-tracks N] [--require-task-flows]
                 [--require-rhat-counters] [--require-serve-flows]
                 [--require-cat CAT]...

   Exit codes: 0 ok, 1 validation failure, 2 usage/IO error. *)

module Json = Mrsl.Telemetry.Json

let usage () =
  prerr_endline
    "usage: trace_check --trace <t.json> [--min-tracks N] \
     [--require-task-flows] [--require-rhat-counters] \
     [--require-serve-flows] [--require-cat CAT]...";
  exit 2

let parse_args () =
  let trace = ref None
  and min_tracks = ref 1
  and task_flows = ref false
  and rhat = ref false
  and serve_flows = ref false
  and cats = ref [] in
  let rec go = function
    | [] -> ()
    | "--trace" :: v :: rest ->
        trace := Some v;
        go rest
    | "--min-tracks" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 1 -> min_tracks := n
        | _ -> usage ());
        go rest
    | "--require-task-flows" :: rest ->
        task_flows := true;
        go rest
    | "--require-rhat-counters" :: rest ->
        rhat := true;
        go rest
    | "--require-serve-flows" :: rest ->
        serve_flows := true;
        go rest
    | "--require-cat" :: v :: rest ->
        cats := v :: !cats;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !trace with
  | Some t ->
      (t, !min_tracks, !task_flows, !rhat, !serve_flows, List.rev !cats)
  | None -> usage ()

let () =
  let path, min_tracks, want_tasks, want_rhat, want_serve, required_cats =
    parse_args ()
  in
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "trace_check: cannot read %s: %s\n%!" path msg;
      exit 2
  in
  let json =
    try Json.of_string text
    with Json.Parse_error msg ->
      Printf.eprintf "trace_check: %s is not valid JSON: %s\n%!" path msg;
      exit 1
  in
  let events =
    match Json.member "traceEvents" json with
    | Some (Json.List evs) -> evs
    | _ ->
        Printf.eprintf "trace_check: %s has no traceEvents array\n%!" path;
        exit 1
  in
  let str k o =
    match Json.member k o with Some (Json.String s) -> Some s | _ -> None
  in
  let num k o =
    match Json.member k o with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int n) -> Some (float_of_int n)
    | _ -> None
  in
  let int_field k o =
    match Json.member k o with Some (Json.Int n) -> Some n | _ -> None
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let tracks = Hashtbl.create 8 in
  let cat_counts = Hashtbl.create 16 in
  let n_events = ref 0 in
  (* task.run flows: per-id (start, end) counts *)
  let task_flows : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  let rhat_counters = ref 0 in
  (* serve-flow bookkeeping: batch slice intervals, per-id start/end
     counts and end timestamps, and the deadline-shed exemption set. *)
  let serve_batches = ref [] in
  let serve_flows : (int, int * int * float list) Hashtbl.t =
    Hashtbl.create 64
  in
  let deadline_flows : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match str "ph" ev with
      | Some "M" | None -> ()
      | Some ph ->
          incr n_events;
          (match Json.member "pid" ev with
          | Some (Json.Int pid) -> Hashtbl.replace tracks pid ()
          | _ -> ());
          (match str "cat" ev with
          | Some cat ->
              Hashtbl.replace cat_counts cat
                (1 + Option.value ~default:0 (Hashtbl.find_opt cat_counts cat));
              (if
                 cat = "sched"
                 && (ph = "s" || ph = "f")
                 && str "name" ev = Some "task.run"
               then
                 match int_field "id" ev with
                 | Some id ->
                     let s, f =
                       Option.value ~default:(0, 0)
                         (Hashtbl.find_opt task_flows id)
                     in
                     Hashtbl.replace task_flows id
                       (if ph = "s" then (s + 1, f) else (s, f + 1))
                 | None -> ());
              if cat = "serve" then begin
                let name = str "name" ev in
                (if ph = "X" && name = Some "serve.batch" then
                   match (num "ts" ev, num "dur" ev) with
                   | Some ts, Some dur ->
                       serve_batches := (ts, ts +. dur) :: !serve_batches
                   | _ -> ());
                (if (ph = "s" || ph = "f") && name = Some "serve.request" then
                   match int_field "id" ev with
                   | Some id ->
                       let s, f, ends =
                         Option.value ~default:(0, 0, [])
                           (Hashtbl.find_opt serve_flows id)
                       in
                       let entry =
                         if ph = "s" then (s + 1, f, ends)
                         else
                           ( s,
                             f + 1,
                             match num "ts" ev with
                             | Some ts -> ts :: ends
                             | None -> ends )
                       in
                       Hashtbl.replace serve_flows id entry
                   | None -> ());
                if ph = "i" && name = Some "serve.request.done" then
                  match Json.member "args" ev with
                  | Some args
                    when str "outcome" args = Some "deadline_exceeded" -> (
                      match int_field "flow" args with
                      | Some id -> Hashtbl.replace deadline_flows id ()
                      | None -> ())
                  | _ -> ()
              end
          | None -> ());
          if ph = "C" && str "name" ev = Some "gibbs.convergence" then
            match Json.member "args" ev with
            | Some args when Json.member "rhat" args <> None ->
                incr rhat_counters
            | _ -> ())
    events;
  if !n_events = 0 then fail "no events (only metadata) in traceEvents";
  (match Json.member "dropped" json with
  | Some (Json.Int 0) -> ()
  | Some (Json.Int n) ->
      fail "%d events dropped (ring-buffer overflow at default capacity)" n
  | _ -> fail "no top-level \"dropped\" field");
  let n_tracks = Hashtbl.length tracks in
  if n_tracks < min_tracks then
    fail "only %d track(s), expected >= %d (one per domain)" n_tracks
      min_tracks;
  List.iter
    (fun cat ->
      match Hashtbl.find_opt cat_counts cat with
      | Some n when n > 0 -> ()
      | _ -> fail "no events in required category %S" cat)
    required_cats;
  if want_tasks then begin
    if Hashtbl.length task_flows = 0 then fail "no sched/task.run flow events";
    Hashtbl.iter
      (fun id (s, f) ->
        if s <> 1 || f <> 1 then
          fail "task.run flow %d: %d start(s), %d end(s), expected 1 and 1" id
            s f)
      task_flows
  end;
  if want_rhat && !rhat_counters = 0 then
    fail "no gibbs.convergence counter events with an rhat series";
  if want_serve then begin
    if Hashtbl.length serve_flows = 0 then
      fail "no serve.request flow events";
    (* Flow timestamps and slice bounds both went through an ns->us
       float division; allow a microsecond of rounding slop on the
       interval test. *)
    let eps = 1.0 in
    let inside ts =
      List.exists (fun (lo, hi) -> ts >= lo -. eps && ts <= hi +. eps)
        !serve_batches
    in
    Hashtbl.iter
      (fun id (s, f, ends) ->
        if s <> f || s = 0 then
          fail "serve.request flow %d unbalanced: %d start(s), %d end(s)" id s
            f
        else if
          (not (List.exists inside ends))
          && not (Hashtbl.mem deadline_flows id)
        then
          fail
            "serve.request flow %d never terminates inside a serve.batch \
             slice (and is not deadline-shed)"
            id)
      serve_flows
  end;
  match !failures with
  | [] ->
      Printf.printf
        "trace_check: %s ok (%d events, %d tracks, %d task flows, %d serve \
         flows, %d rhat points, 0 dropped)\n"
        path !n_events n_tracks (Hashtbl.length task_flows)
        (Hashtbl.length serve_flows)
        !rhat_counters
  | fs ->
      Printf.eprintf "trace_check: %s FAILED:\n" path;
      List.iter (fun f -> Printf.eprintf "  - %s\n" f) (List.rev fs);
      exit 1
