(** Shared file I/O for the store's persisted artifacts: atomic
    whole-file writes (temp file + fsync + rename) with fault-injection
    points, used by snapshots, catalogs and checkpoints. *)

val declare_failpoints : string -> unit
(** Register the five failpoints guarding an atomic write under the
    prefix: [<p>.write.before], [<p>.write.short], [<p>.fsync],
    [<p>.rename.before], [<p>.rename.after]. Call once at module
    initialization of each writer. *)

val write_atomic : fp:string -> path:string -> string -> unit
(** Write contents to [path ^ ".tmp"], fsync, rename over [path]. A crash
    anywhere before the rename leaves the previous file intact; after the
    rename the new contents are durable. [fp] is the failpoint prefix
    passed to {!declare_failpoints}. *)

val write_all : Unix.file_descr -> string -> int -> int -> unit
(** Loop [Unix.write_substring] to completion. *)

val read_file : string -> string
