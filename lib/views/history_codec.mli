(** Binary codec for the view-schema {!History}: a
    {!Tse_store.Codec} list of versions. {!encode} writes every version
    of every view, the ["views"] extension blob that every database
    image (checkpoint or catalog) carries. {!encode_versions} writes
    some of them in the same shape: the durable layer logs the versions
    an evolution registered that way and folds each such list into the
    image's blob ({!Tse_store.Codec.concat_lists}). *)

val tag : string
(** ["views"]: the extension tag the history is stored under. *)

val encode : History.t -> string

val encode_versions : View_schema.t list -> string
(** A list of versions, e.g. [History.since h n]. Concatenated onto an
    {!encode} blob it decodes to the history with those versions
    registered. *)

val decode : string -> History.t
(** Versions are re-registered in version order, whatever order the
    list holds them in, so the decoded history satisfies
    {!History.register}'s sequencing invariant.
    @raise Tse_store.Codec.Corrupt on malformed or trailing bytes. *)
