(** Plain-text serialization of MRSL models.

    Learning is an offline process in the paper (Section VI-B: "learning
    the MRSL from the data as part of an off-line process is feasible");
    persisting the learned model lets the inference phase run later and
    elsewhere. The format is a line-oriented, tab-separated text format
    with a version header; labels are percent-encoded so arbitrary value
    strings survive the round trip. Probabilities are written with full
    precision ([%.17g]), making the round trip exact. *)

val to_string : Model.t -> string

val of_string : string -> Model.t
(** Stored CPDs are adopted exactly as written, so
    [to_string (of_string s) = s] for any [s] produced by {!to_string}.
    Raises [Failure] with a line-numbered message on malformed input —
    including a CPD that is not a distribution (an entry negative or not
    finite, or entries not summing to 1 within 1e-9) — and
    [Invalid_argument] if the decoded parts are inconsistent. *)

val save : string -> Model.t -> unit
(** Write to a file. *)

val load : string -> Model.t
