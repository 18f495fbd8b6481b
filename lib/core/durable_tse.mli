(** Crash-atomic transparent schema evolution: {!Tsem} over a
    {!Tse_db.Durable} database, with every evolution WAL-logged as a
    two-record unit (intent + decision) before it is applied, and its
    effects committed atomically with a completion marker.

    The guarantee: whatever instant the process dies at — before the
    begin record, between begin and commit, during any evolve phase
    (change/derive/classify/integrate/reclassify), or mid-write of the
    effects batch — {!open_dir} recovers to {e exactly} the
    pre-evolution or the post-evolution view version, never a hybrid.
    Committed-but-unapplied evolutions are rolled forward by replaying
    their decoded change list through {!Tsem.evolve_many}; a begin with
    no commit marker (including a torn, truncated one) is rolled back by
    discarding it. A roll-forward that fails deterministically is
    durably aborted ([Evo_done ok=false]) and leaves the pre-evolution
    state. *)

type t

type open_report = {
  recovery : Tse_store.Recovery.report;
  rolled_forward : (int * string) list;
      (** evolutions replayed at this open: [(eid, view)], log order *)
  aborted : int list;
      (** committed evolutions durably neutralized because their
          roll-forward failed (undecodable payload, deterministic
          rejection) *)
}

val open_dir :
  ?policy:Tse_db.Durable.sync_policy -> dir:string -> unit -> t * open_report
(** Open (or create) the durable database, roll pending evolutions
    forward, and wrap it in a {!Tsem} whose view history is restored
    from the durable ["views"] extension blob. *)

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
(** Define version 0 of a view and persist it (history blob + schema)
    in one commit. *)

val evolve_many :
  t -> view:string -> Change.t list -> (Tse_views.View_schema.t, string) result
(** Evolve a view by a change list, atomically: precheck the first
    change, log intent + decision (each fsynced), apply in memory, then
    commit the effects together with the completion marker. [Error msg]
    means the list was rejected and the database is in the pre-evolution
    state (the whole list is all-or-nothing, unlike {!Tsem.evolve_many}
    which applies a prefix). How it got there depends on where the
    rejection came from:

    - the first change failed {!Tsem.precheck} (an unknown class or
      property name, a self edge, an existing or cyclic edge, a name
      already in the view, an admission-gate error): nothing was logged
      or applied. The handle, its {!db} value (physically the same) and
      every structure built on it — {!Tse_concurrency.Occ},
      {!Tse_query.Indexes} — stay valid;
    - a later change of the list was rejected, the translation failed
      mid-way, or an unexpected exception escaped: the intent was
      already logged, so the handle re-opens from disk, where the intent
      is retried and durably aborted. {!db} then returns a new database
      value, and structures built on the old one must be rebuilt.

    A {!Tse_store.Failpoint.Crash} escapes untouched — the harness that
    armed it must {!abandon} the handle and {!open_dir} again, exactly
    like a process restart. *)

val evolve :
  t -> view:string -> Change.t -> (Tse_views.View_schema.t, string) result

val commit : t -> unit
(** Persist buffered object/data traffic (see {!Tse_db.Durable.commit}). *)

val sync : t -> unit
val checkpoint : t -> unit

val close : t -> unit

val abandon : t -> unit
(** Drop the handle without flushing anything — as a crash would. *)
