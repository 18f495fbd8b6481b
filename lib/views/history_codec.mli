(** Binary codec for the view-schema {!History}: every version of every
    view. The encoding is the ["views"] extension blob that the durable
    layer logs and that every database image (checkpoint or catalog)
    carries. *)

val tag : string
(** ["views"]: the extension tag the history is stored under. *)

val encode : History.t -> string

val decode : string -> History.t
(** Versions are re-registered oldest-first, so the decoded history
    satisfies {!History.register}'s sequencing invariant.
    @raise Tse_store.Codec.Corrupt on malformed or trailing bytes. *)
