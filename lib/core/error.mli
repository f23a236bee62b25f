(** Structured error taxonomy for fault-contained inference.

    A production MRSL service sees exactly the inputs the paper promises —
    incomplete, messy relations — so failures are part of the data model,
    not exceptional control flow. Every recoverable failure in the library
    is described by a {!t}: a coarse {e class} (which subsystem failed), a
    stable machine-readable {e code} (suitable for alerting and telemetry
    dimensions), a human-readable message, and a key/value context
    (file, line, node index, …).

    Library boundaries expose [result]-returning variants built on this
    type ({!Infer_single.infer_result}, {!Workload.run_contained},
    [Relation.Csv_io.read_string_lenient]); the exception {!Mrsl_error}
    carries the same payload across layers that still raise. *)

type class_ =
  | Input  (** malformed or inconsistent caller-supplied data *)
  | Model  (** a corrupt or mismatched learned model *)
  | Inference  (** a failure inside an inference computation *)
  | Scheduler  (** a failure in the parallel execution layer *)

type t = {
  class_ : class_;
  code : string;  (** stable dotted code, e.g. ["fault_inject.task"] *)
  message : string;
  context : (string * string) list;
}

exception Mrsl_error of t

val make : ?context:(string * string) list -> class_ -> code:string ->
  string -> t

val class_name : class_ -> string
(** ["input"], ["model"], ["inference"], or ["scheduler"]. *)

val to_string : t -> string
(** ["class/code: message [k=v, …]"]. *)

val pp : Format.formatter -> t -> unit

val raise_ : t -> 'a
(** Raise as {!Mrsl_error}. *)

val of_exn : exn -> t
(** Classify an arbitrary exception: {!Mrsl_error} payloads pass through,
    [Invalid_argument] becomes [Inference/invalid_argument], [Failure]
    becomes [Input/failure], anything else [Scheduler/exception]. *)

val guard : (unit -> 'a) -> ('a, t) result
(** Run a thunk, converting raised exceptions via {!of_exn}.
    [Stack_overflow] and [Out_of_memory] are re-raised, not captured. *)
