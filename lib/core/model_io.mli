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
    Raises [Failure] with a line-numbered message ([Model_io line N: …])
    on malformed input and on any model that would load but could not be
    served: a CPD that is not a distribution (an entry negative or not
    finite, or entries not summing to 1 within 1e-9), a weight that is
    not a support in [0, 1] (NaN included), a lattice attribute or a
    body item's attribute or value out of the schema's range, a head
    attribute inside its own body, and parts that are otherwise
    inconsistent. *)

val save : string -> Model.t -> unit
(** Write to a file. *)

val load : string -> Model.t
