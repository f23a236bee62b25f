type config = {
  seed : int;
  task_failure_rate : float;
  csv_corruption_rate : float;
  nonconvergence_rate : float;
  voter_drop_rate : float;
  torn_frame_rate : float;
  stall_write_rate : float;
  conn_drop_rate : float;
}

let disabled =
  {
    seed = 0;
    task_failure_rate = 0.;
    csv_corruption_rate = 0.;
    nonconvergence_rate = 0.;
    voter_drop_rate = 0.;
    torn_frame_rate = 0.;
    stall_write_rate = 0.;
    conn_drop_rate = 0.;
  }

let check_rate name r =
  if not (Float.is_finite r) || r < 0. || r > 1. then
    invalid_arg (Printf.sprintf "Fault_inject: %s must be in [0, 1]" name)

let validate c =
  check_rate "task_failure_rate" c.task_failure_rate;
  check_rate "csv_corruption_rate" c.csv_corruption_rate;
  check_rate "nonconvergence_rate" c.nonconvergence_rate;
  check_rate "voter_drop_rate" c.voter_drop_rate;
  check_rate "torn_frame_rate" c.torn_frame_rate;
  check_rate "stall_write_rate" c.stall_write_rate;
  check_rate "conn_drop_rate" c.conn_drop_rate

let state = Atomic.make disabled

let configure c =
  validate c;
  Atomic.set state c

let reset () = Atomic.set state disabled
let current () = Atomic.get state

let active () =
  let c = current () in
  c.task_failure_rate > 0. || c.csv_corruption_rate > 0.
  || c.nonconvergence_rate > 0. || c.voter_drop_rate > 0.
  || c.torn_frame_rate > 0. || c.stall_write_rate > 0.
  || c.conn_drop_rate > 0.

let with_config c f =
  let prev = Atomic.get state in
  configure c;
  Fun.protect ~finally:(fun () -> Atomic.set state prev) f

let describe c =
  Printf.sprintf
    "fault injection: seed=%d task=%.3f csv=%.3f nonconv=%.3f voters=%.3f \
     torn=%.3f stall=%.3f drop=%.3f"
    c.seed c.task_failure_rate c.csv_corruption_rate c.nonconvergence_rate
    c.voter_drop_rate c.torn_frame_rate c.stall_write_rate c.conn_drop_rate

(* --- deterministic decisions ---------------------------------------- *)

(* splitmix64 finalizer: decisions are a pure function of
   (config seed, site, key) — independent of call order, domain count,
   and which worker runs a task, which is what makes injected faults
   reproducible and the containment tests meaningful. *)
let hash ~seed ~site ~key =
  Prob.Rng.mix64
    (Int64.add
       (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
       (Int64.add
          (Int64.mul (Int64.of_int site) 0xC2B2AE3D27D4EB4FL)
          (Int64.of_int key)))

(* Wrapping full-traversal mixed-radix codes for the per-task keys. The
   finalizer is folded in after every digit so high-order digits survive
   the 2^64 wrap even when the radices are powers of two: pure
   left-shifting accumulation would push early cells' bits off the top
   on wide schemas. *)
let fold_digit h ~radix ~digit =
  Prob.Rng.mix64
    (Int64.add (Int64.mul h (Int64.of_int radix)) (Int64.of_int digit))

let tuple_code64 ~cards (tup : int option array) =
  if Array.length cards <> Array.length tup then
    invalid_arg "Fault_inject.tuple_code: cards/tuple arity mismatch";
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

let two_pow_53 = 9007199254740992.0

let unit_float ~seed ~site ~key =
  Int64.to_float (Int64.shift_right_logical (hash ~seed ~site ~key) 11)
  /. two_pow_53

let hit rate ~site ~key =
  if rate <= 0. then false
  else if rate >= 1. then true
  else unit_float ~seed:(current ()).seed ~site ~key < rate

let site_task = 1
let site_csv = 2
let site_nonconv = 3
let site_voters = 4
let site_shape = 5
let site_torn = 6
let site_stall = 7
let site_drop = 8

let should_fail_task ~node =
  hit (current ()).task_failure_rate ~site:site_task ~key:node

let should_corrupt_row ~line =
  hit (current ()).csv_corruption_rate ~site:site_csv ~key:line

let should_force_nonconvergence ~key =
  hit (current ()).nonconvergence_rate ~site:site_nonconv ~key

let should_drop_voters ~key =
  hit (current ()).voter_drop_rate ~site:site_voters ~key

let should_tear_frame ~key = hit (current ()).torn_frame_rate ~site:site_torn ~key
let should_stall_write ~key = hit (current ()).stall_write_rate ~site:site_stall ~key
let should_drop_conn ~key = hit (current ()).conn_drop_rate ~site:site_drop ~key

(* --- CSV corruption -------------------------------------------------- *)

(* Three corruption shapes, chosen by the same deterministic hash:
   an extra trailing field (ragged row), an unterminated quote, and a
   value outside any schema domain. The header (line 1) is never
   corrupted. Returns the document plus the 1-based corrupted lines. *)
let corrupt_line ~line text =
  let shape =
    Int64.to_int
      (Int64.rem
         (Int64.shift_right_logical
            (hash ~seed:(current ()).seed ~site:site_shape ~key:line) 17)
         3L)
  in
  match shape with
  | 0 -> text ^ ",__extra__"
  | 1 -> text ^ ",\"unterminated"
  | _ -> (
      match String.index_opt text ',' with
      | Some i ->
          "__FAULT__" ^ String.sub text i (String.length text - i)
      | None -> "__FAULT__")

let corrupt_csv text =
  let lines = String.split_on_char '\n' text in
  let corrupted = ref [] in
  let out =
    List.mapi
      (fun i l ->
        let line = i + 1 in
        if line > 1 && String.trim l <> "" && should_corrupt_row ~line then begin
          corrupted := line :: !corrupted;
          corrupt_line ~line l
        end
        else l)
      lines
  in
  (String.concat "\n" out, List.rev !corrupted)

(* --- environment ------------------------------------------------------ *)

let install_from_env () =
  let getf name = Option.bind (Sys.getenv_opt name) float_of_string_opt in
  let geti name = Option.bind (Sys.getenv_opt name) int_of_string_opt in
  let seed = geti "MRSL_FAULT_SEED" in
  let task = getf "MRSL_FAULT_TASK_RATE" in
  let csv = getf "MRSL_FAULT_CSV_RATE" in
  let nonconv = getf "MRSL_FAULT_NONCONV_RATE" in
  let voters = getf "MRSL_FAULT_VOTER_RATE" in
  let torn = getf "MRSL_FAULT_TORN_FRAME_RATE" in
  let stall = getf "MRSL_FAULT_STALL_WRITE_RATE" in
  let drop = getf "MRSL_FAULT_CONN_DROP_RATE" in
  if
    List.for_all Option.is_none [ task; csv; nonconv; voters; torn; stall; drop ]
    && seed = None
  then false
  else begin
    configure
      {
        seed = Option.value seed ~default:0;
        task_failure_rate = Option.value task ~default:0.;
        csv_corruption_rate = Option.value csv ~default:0.;
        nonconvergence_rate = Option.value nonconv ~default:0.;
        voter_drop_rate = Option.value voters ~default:0.;
        torn_frame_rate = Option.value torn ~default:0.;
        stall_write_rate = Option.value stall ~default:0.;
        conn_drop_rate = Option.value drop ~default:0.;
      };
    true
  end
