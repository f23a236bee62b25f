(* The serving path's counting handle over the model epoch's conditional
   tables (Kernel): it stores nothing itself. See the .mli. *)

type t = {
  telemetry : Telemetry.t;
  epoch : int Atomic.t;  (* of the last model probed; -1 before any *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
  dedup_fanout : int Atomic.t;
}

let create ?(telemetry = Telemetry.global) () =
  {
    telemetry;
    epoch = Atomic.make (-1);
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
    dedup_fanout = Atomic.make 0;
  }

let publish t =
  let u = Kernel.usage (Atomic.get t.epoch) in
  Telemetry.gauge t.telemetry "cache.bytes" (float_of_int u.bytes);
  Telemetry.gauge t.telemetry "cache.entries" (float_of_int u.entries)

(* One counted probe of the table. *)
let probe t model tb code =
  let epoch = Model.epoch model in
  if Atomic.get t.epoch <> epoch then Atomic.set t.epoch epoch;
  let t0 = Clock.now () in
  let found =
    match Kernel.find tb code with
    | d ->
        Atomic.incr t.hits;
        Telemetry.incr t.telemetry "cache.hits";
        Some d
    | exception Not_found ->
        Atomic.incr t.misses;
        Telemetry.incr t.telemetry "cache.misses";
        None
  in
  Telemetry.observe t.telemetry "cache.lookup_seconds" (Clock.now () -. t0);
  found

let find t model ~method_ tup a =
  match Kernel.table ~method_ model a with
  | None -> None
  | Some tb -> probe t model tb (Kernel.tuple_context_code tb tup)

type segment = (int * int * Voting.method_ * int, unit) Hashtbl.t

let new_segment () = Hashtbl.create 64

let find_or_compute ?segment t model ~method_ tup a f =
  match Kernel.table ~method_ model a with
  | None -> f ()
  | Some tb -> (
      let code = Kernel.tuple_context_code tb tup in
      (match segment with
      | Some seen ->
          let key = (Model.epoch model, a, method_, code) in
          if Hashtbl.mem seen key then begin
            Atomic.incr t.dedup_fanout;
            Telemetry.incr t.telemetry "cache.dedup_fanout"
          end
          else Hashtbl.replace seen key ()
      | None -> ());
      match probe t model tb code with
      | Some d -> d
      | None ->
          let d = f () in
          if Kernel.store tb code d then begin
            Trace.instant ~cat:"cache" ~args:[ ("attr", Trace.Int a) ] "cache.fill";
            publish t
          end
          else begin
            Atomic.incr t.evictions;
            Telemetry.incr t.telemetry "cache.evictions"
          end;
          d)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  dedup_fanout : int;
  entries : int;
  bytes : int;
}

let stats (t : t) =
  let u = Kernel.usage (Atomic.get t.epoch) in
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    evictions = Atomic.get t.evictions;
    dedup_fanout = Atomic.get t.dedup_fanout;
    entries = u.entries;
    bytes = u.bytes;
  }
