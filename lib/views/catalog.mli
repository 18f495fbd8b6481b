(** Whole-database persistence: schema + objects + view history in one
    stable text artifact.

    The paper ran on GemStone, which persisted everything; our store
    substitutes for it (DESIGN.md), and this module closes the loop: a
    catalog carries the global schema graph (classes with their
    derivations and properties, so virtual classes stay {e virtual} after
    a reload), the heap snapshot, the per-object base memberships, and
    every registered view version. Loading reconstructs a fully
    operational {!Tse_db.Database.t} — evolution can continue where it
    stopped.

    A catalog is a database image ({!Tse_db.Durable.image_to_string}) at
    sequence number 0 with the history in its {!History_codec.tag}
    extension blob. Saved as [DIR/snapshot] it opens as a durable
    directory, and a checkpointed directory's [snapshot] loads as a
    catalog. *)

val to_string : ?history:History.t -> Tse_db.Database.t -> string
(** [history] defaults to an empty one. *)

val of_string : string -> Tse_db.Database.t * History.t
(** @raise Failure on malformed input, naming the bad section
    (["Catalog: bad header"], ...). An image without a history blob
    loads with an empty history. *)

val save : ?history:History.t -> Tse_db.Database.t -> string -> unit
(** Atomic write (temp file + fsync + rename), guarded by the
    ["catalog.*"] failpoints (see {!Tse_store.Storage}). *)

val load : string -> Tse_db.Database.t * History.t
(** @raise Failure if the file cannot be read (the message names the
    path) or on malformed content. *)
