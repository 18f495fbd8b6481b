(** Optimistic concurrency control for multi-user sessions.

    The paper runs on GemStone, which supplies "persistent storage,
    concurrency control, etc." (Section 5). This module and the
    durability layer's write-ahead log ({!Tse_db.Durable}) stand in for
    GemStone's transactions: GemStone-style optimistic sessions with
    commit-time validation.

    A session buffers its writes and records the version of every object
    it read. [commit] validates that no recorded object has since been
    committed by another session (first-committer-wins); on conflict the
    session aborts with the conflicting objects listed. A validated
    commit then checks every buffered write before applying any (see
    {!commit}).

    Validation reads the database's own per-object change stamps
    ({!Tse_db.Database.object_version}), so direct (non-session) updates
    also invalidate concurrent readers — there is no way to sneak past
    validation. A stamp moves when the object is created or destroyed,
    when one of its attributes is written, and when a base-membership
    edit moves its memberships; filling a newly created class moves
    none. *)

type t
(** The concurrency manager for a database. It keeps nothing of its
    own, so any number may share one database and a dropped one costs
    nothing. *)

type session

type conflict = {
  objects : Tse_store.Oid.t list;  (** read by this session, since changed *)
}

val create : Tse_db.Database.t -> t

val db : t -> Tse_db.Database.t
(** The database the manager tracks. *)

val begin_session : t -> session

val read : session -> Tse_store.Oid.t -> string -> Tse_store.Value.t
(** Read a property through the session: records the object in the read
    set; sees the session's own buffered writes. *)

val write : session -> Tse_store.Oid.t -> string -> Tse_store.Value.t -> unit
(** Buffer a write (not visible to other sessions until commit). The
    object joins the read set (write skew is thereby excluded). *)

val commit : session -> (unit, conflict) result
(** Validate, check, then apply. After the read set validates, every
    buffered write is checked with {!Tse_db.Database.check_set_attr}
    against the state the commit started from. A write that fails the
    check raises what {!Tse_db.Database.set_attr} would raise, and the
    commit changes nothing: not the database, not the object versions,
    not the durability layer's pending log. The same holds when the
    writes' order is unsafe ({!Unsafe_write_order}). Otherwise the
    writes are applied in the order they were buffered.

    Afterwards — returned or raised — the session is closed; reusing it
    raises [Invalid_argument]. *)

exception Unsafe_write_order of {
  obj : Tse_store.Oid.t;
  earlier : string;
  later : string;
}
(** Raised by {!commit}, before anything is applied, when a session
    writes [earlier] and then [later] on one object, and the write to
    [earlier] may change what [later] resolves to for the object
    ({!Tse_db.Database.write_moves_resolution}). The earlier write can
    move the object out of a class declaring [later], such as a refine
    class over a select the write feeds, or over a class derived from
    or observing ([In_class]) such a select; or into one. Applied in
    order, the later write could find its class gone or its attribute
    changed. The check is conservative: it rejects the order even when
    the earlier write keeps the memberships. It is not a conflict,
    since a retry of the same writes meets the same order; writing
    [later] first, or in its own commit, avoids it. *)

val abort : session -> unit

val is_active : session -> bool
val reads : session -> int
val writes : session -> int

(** {2 Retrying} *)

exception Too_many_conflicts of conflict
(** The last attempt's conflict. *)

val commit_with_retry :
  ?attempts:int ->
  ?backoff:float ->
  ?jitter:Random.State.t ->
  ?durable:Tse_db.Durable.t ->
  t ->
  (session -> 'a) ->
  'a * int
(** [commit_with_retry t f] runs [f] against a fresh session and commits;
    on conflict it retries with a new session (so the body re-reads
    current state), sleeping [backoff * attempt * u] seconds — [u]
    uniform in [0.5, 1.5), capped at 50ms — between attempts. The
    jitter keeps writers that conflicted at the same instant from
    retrying in lock-step; [jitter] supplies the random state (a seeded
    process-wide default otherwise, so runs stay reproducible). Returns
    the body's result and the number of the attempt that committed
    (1 = no conflicts). An exception from [f] aborts the session and
    propagates; if [f] itself aborts the session, that counts as a
    conflict and is retried. Exhausting every attempt increments the
    [occ.retry_exhausted] counter (alongside [occ.retries], which counts
    each sleep) before raising.

    [durable] appends the validated writes to that handle's log as one
    {!Tse_db.Durable.commit} — through its sync policy, so [Group]/
    [Manual] handles amortize the commit fsync across sessions; call
    {!Tse_db.Durable.sync} when a caller needs the barrier.

    @raise Too_many_conflicts after [attempts] (default 5) conflicts.
    @raise Invalid_argument on [attempts < 1] or negative [backoff]. *)
