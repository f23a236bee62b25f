external monotonic_ns : unit -> int = "mrsl_clock_monotonic_ns" [@@noalloc]

let now_ns () = monotonic_ns ()
let now () = float_of_int (monotonic_ns ()) *. 1e-9
let duration_ns ~start ~stop = if stop > start then stop - start else 0
let duration ~start ~stop = if stop > start then stop -. start else 0.

(* --- allocation ------------------------------------------------------- *)

let word_bytes = float_of_int (Sys.word_size / 8)

(* [Gc.minor_words] reads the minor heap's allocation pointer, so it is
   exact at every instant. The minor component of [Gc.counters] — which
   the stdlib's allocated-bytes total sums — is not on OCaml 5.1:
   between two minor collections it reads an eighth of the truth. Direct
   major allocation is the major-words counter less what promotion put
   there. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. (major -. promoted)

let allocated_bytes () = allocated_words () *. word_bytes

let raw_since a0 = allocated_bytes () -. a0

(* --- measure ---------------------------------------------------------- *)

type measurement = {
  ns_per_run : float;
  alloc_bytes_per_run : float;
  minor_gcs : int;
  major_gcs : int;
  loops : int;
  reps : int;
  spread : float;
}

type pair = { a : measurement; b : measurement; ratio : float }

(* One timed loop of [reps] runs: wall ns, allocated bytes, minor and
   major collections. The clock reads allocate nothing. *)
let raw_loop reps f =
  let s0 = Gc.quick_stat () in
  let a0 = allocated_bytes () in
  let t0 = now_ns () in
  for _ = 1 to reps do
    f ()
  done;
  let t1 = now_ns () in
  let bytes = raw_since a0 in
  let s1 = Gc.quick_stat () in
  ( float_of_int (duration_ns ~start:t0 ~stop:t1),
    bytes,
    s1.Gc.minor_collections - s0.Gc.minor_collections,
    s1.Gc.major_collections - s0.Gc.major_collections )

(* What the two allocation reads allocate themselves (the boxed floats
   and the tuple of [Gc.counters]), read by an empty loop. Constant for
   a given build. *)
let read_overhead_bytes =
  let _, bytes, _, _ = raw_loop 0 ignore in
  bytes

let allocated_since a0 = Float.max 0. (raw_since a0 -. read_overhead_bytes)

let loop reps f =
  let ns, bytes, minor, major = raw_loop reps f in
  (ns, Float.max 0. (bytes -. read_overhead_bytes), minor, major)

let quantile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  quantile a 0.5

(* Per-loop results -> one measurement: medians of the per-run figures,
   and the interquartile range of ns/run relative to its median. *)
let summarize reps runs =
  let per_run x = x /. float_of_int reps in
  let ns = Array.of_list (List.map (fun (t, _, _, _) -> per_run t) runs) in
  Array.sort Float.compare ns;
  let med = quantile ns 0.5 in
  {
    ns_per_run = med;
    alloc_bytes_per_run = median (List.map (fun (_, b, _, _) -> per_run b) runs);
    minor_gcs = List.fold_left (fun n (_, _, m, _) -> n + m) 0 runs;
    major_gcs = List.fold_left (fun n (_, _, _, m) -> n + m) 0 runs;
    loops = List.length runs;
    reps;
    spread =
      (if med > 0. then (quantile ns 0.75 -. quantile ns 0.25) /. med else 0.);
  }

(* One warm run, timed, sizes the loops to about 20 ms each; then a
   major collection settles the heap before the timed loops start. *)
let loop_ns = 20_000_000

let warm_reps fs =
  let once =
    List.fold_left
      (fun m f ->
        let t0 = now_ns () in
        f ();
        max m (duration_ns ~start:t0 ~stop:(now_ns ())))
      0 fs
  in
  Gc.full_major ();
  max 1 (min 1_000_000 (loop_ns / max 1 once))

let loops = 11

let measure f =
  let reps = warm_reps [ f ] in
  summarize reps (List.init loops (fun _ -> loop reps f))

let pairs = 21

let measure_pair fa fb =
  let reps = warm_reps [ fa; fb ] in
  let runs =
    List.init pairs (fun k ->
        if k mod 2 = 0 then
          let a = loop reps fa in
          (a, loop reps fb)
        else
          let b = loop reps fb in
          (loop reps fa, b))
  in
  let ratio ((ta, _, _, _), (tb, _, _, _)) = if tb > 0. then ta /. tb else 0. in
  {
    a = summarize reps (List.map fst runs);
    b = summarize reps (List.map snd runs);
    ratio = median (List.map ratio runs);
  }
