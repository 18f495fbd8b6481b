(** Crash-atomic transparent schema evolution: {!Tsem} over a
    {!Tse_db.Durable} database. An evolution commits like any other
    write: every physical effect — heap ops, base memberships, the
    records of the classes it created, edited or removed, and the view
    versions it registered — goes into one checksummed WAL batch, synced
    before {!evolve_many} answers [Ok] under every sync policy. The log
    carries each view version once; a checkpoint writes the whole
    history.

    The guarantee: whatever instant the process dies at — during any
    evolve phase (change/derive/classify/integrate/reclassify) or
    mid-write of the effects batch — {!open_dir} recovers to {e exactly}
    the pre-evolution or the post-evolution view version, never a
    hybrid. Recovery is the store's physical replay: until the effects
    batch is whole on disk nothing of the evolution is, so the result is
    the pre-evolution state; once it is, replay lands on the
    post-evolution state. *)

type t

val open_dir :
  ?policy:Tse_db.Durable.sync_policy ->
  dir:string ->
  unit ->
  t * Tse_store.Recovery.report
(** Open (or create) the durable database and wrap it in a {!Tsem}
    whose view history is restored from the durable ["views"] extension
    blob, every logged version folded in. The report is the log
    replay's ({!Tse_db.Durable.open_dir}). *)

val db : t -> Tse_db.Database.t
val tsem : t -> Tsem.t
val durable : t -> Tse_db.Durable.t
val dir : t -> string
val history : t -> Tse_views.History.t

val current : t -> string -> Tse_views.View_schema.t
(** @raise Invalid_argument for an unknown view. *)

val define_view_by_names :
  t ->
  name:string ->
  ?complete_closure:bool ->
  string list ->
  Tse_views.View_schema.t
(** Define version 0 of a view and persist it (the new version and any
    schema edits) in one commit. *)

val evolve_many :
  t -> view:string -> Change.t list -> (Tse_views.View_schema.t, string) result
(** Evolve a view by a change list, atomically: precheck the first
    change, commit and sync any pending traffic as a batch of its own,
    apply the list in memory, then commit the effects as one batch and
    sync it. [Ok] means the post-evolution state is durable. [Error msg]
    means the list was rejected and the database is in the pre-evolution
    state (the whole list is all-or-nothing, unlike {!Tsem.evolve_many}
    which applies a prefix). An unknown [view] is an [Error] too, for an
    empty list as well. How the database got back to the pre-evolution
    state depends on where the rejection came from:

    - the first change failed {!Tsem.precheck} (an unknown class or
      property name, a self edge, an existing or cyclic edge, a name
      already in the view, an admission-gate error): nothing was logged
      or applied. The handle, its {!db} value (physically the same) and
      every structure built on it — {!Tse_concurrency.Occ},
      {!Tse_query.Indexes} — stay valid;
    - a later change of the list was rejected, the translation failed
      mid-way, or an unexpected exception escaped: the in-memory state
      is half-applied but nothing of it was logged, so the handle
      re-opens from disk, which writes nothing. {!db} then returns a new
      database value, and structures built on the old one must be
      rebuilt.

    A {!Tse_store.Failpoint.Crash} escapes untouched — the harness that
    armed it must {!abandon} the handle and {!open_dir} again, exactly
    like a process restart. *)

val evolve :
  t -> view:string -> Change.t -> (Tse_views.View_schema.t, string) result

val commit : t -> unit
(** Persist buffered object/data traffic (see {!Tse_db.Durable.commit})
    and any view version registered on {!tsem} since the log last took
    one ([Merge.merge_views], say). *)

val sync : t -> unit

val checkpoint : t -> unit
(** {!commit}, then fold everything into a snapshot
    ({!Tse_db.Durable.checkpoint}). *)

val close : t -> unit

val abandon : t -> unit
(** Drop the handle without flushing anything — as a crash would. *)
