(** Crash-safe persistence for a {!Database}: snapshot + write-ahead log.

    A durable database lives in a directory holding two files:

    - [snapshot] — a database image (see {!image_to_string}: the last
      folded batch sequence number, the encoded schema graph, the
      extension blobs and a heap snapshot), replaced atomically;
    - [wal] — the write-ahead log of every commit since that snapshot.

    The image is the one whole-database format: a catalog
    ({!Tse_views.Catalog}) is an image at sequence number 0, so a
    catalog file opens as a snapshot and a snapshot loads as a catalog.

    Every committed change to objects is captured through the heap's
    mutation observer ({!Tse_store.Heap.set_logger}) — an object's base
    memberships included, which the database keeps as a slot of its
    conceptual cell — so one {!commit} appends exactly one checksummed
    batch: the physical heap ops, an OID-generator watermark, and — only
    when {!Tse_schema.Schema_graph.version} moved since the last commit — a
    class delta: the records of the classes edited or removed since then
    ({!Tse_schema.Schema_graph.changed_since}). A data-only commit does
    no schema work. While no whole schema image is durable (a fresh
    directory before its first such commit) the commit logs the whole
    graph instead. Every encode, whole or delta, counts in the
    [durable.schema_encodes] metric.

    {!open_dir} is recovery: load the snapshot (if any), replay the log
    tail, truncating a torn or corrupt tail instead of failing, and
    report what happened.

    {b Sync policies.} Every commit reaches the log the same way: its
    batch is framed into the log's group buffer
    ({!Tse_store.Wal.append_nosync}), and a sync barrier
    ({!Tse_store.Wal.sync}) writes the buffered batches with one write
    and one fsync. The policy only says when the barrier runs: under
    [Every_commit] (the default) every {!commit} is a group of one —
    the strongest contract and the slowest; [Group n] syncs once [n]
    batches are buffered; [Manual] only at an explicit {!sync}
    ({!checkpoint} and {!close} always force one). A crash loses at most
    the commits since the last barrier — never a synced one, and
    recovery degrades a group torn mid-flush to the longest whole-record
    prefix.

    {b When a sync fails.} If a barrier raises — an I/O error from the
    write or the fsync, inside {!commit} or in an explicit {!sync} —
    nothing of the group it was flushing may be assumed durable. The
    in-memory database has already moved past those commits and the
    group buffer is gone, so the handle must not be used again: call
    {!abandon} and reopen the directory, whose recovery tells what
    reached the disk. Nothing retries the flush. *)

type t

(** When {!commit} makes a batch durable. *)
type sync_policy =
  | Every_commit  (** fsync inside every commit (default) *)
  | Group of int  (** one write + one fsync per [n] commits; [n >= 1] *)
  | Manual  (** only {!sync}/{!checkpoint}/{!close} flush *)

val policy_of_string : string -> sync_policy
(** ["every_commit"] (or ["every"]), ["group:N"], ["manual"].
    @raise Invalid_argument on anything else, or [group:N] with [N < 1]. *)

val policy_to_string : sync_policy -> string

val open_dir :
  ?policy:sync_policy -> dir:string -> unit -> t * Tse_store.Recovery.report
(** Open (creating the directory and an empty database if needed). The
    report describes the log replay: batches applied and skipped, bytes
    dropped from a bad tail and why. [policy] defaults to the
    [TSE_SYNC_POLICY] environment variable (same syntax as
    {!policy_of_string}; mirrors [DB_FULL_RECLASSIFY]) and otherwise to
    [Every_commit].

    @raise Failure if the snapshot itself is unreadable or corrupt (the
    snapshot is written atomically, so this means outside interference,
    not a crash), or if a structurally valid log batch contradicts the
    snapshot. *)

(** {2 Images} *)

val image_to_string :
  seq:int -> schema:string -> exts:(string * string) list -> Database.t -> string
(** A whole-database image:

    {v
    TSE-DB 2
    seq <n>
    SCHEMA <len>
    <schema image>
    EXT <tag> <len>
    <blob>
    ...
    HEAP
    <heap snapshot>
    v}

    [seq] is the last log batch the image folds (0 outside a durable
    directory); [schema] is [Tse_schema.Schema_codec.encode_graph] of the
    database's graph;
    [exts] are the extension blobs, written sorted by tag. Each object's
    minimal base set travels in the heap, as the [__bases] slot of its
    conceptual cell. *)

val image_of_string :
  string -> int * Database.t * (string * string) list
(** Decode an image: its [seq], the restored database and the extension
    blobs in file order. A format-1 image ([TSE-DB 1]) carries a
    [BASES <len>] section after the schema; its sets are written into
    the heap as slots. {!open_dir} does the same for the ["bases"]
    entries of a format-1 log. @raise Failure naming the bad section (["bad
    header"], ["missing HEAP section"], ...) or the bad byte offset. *)

val db : t -> Database.t
val dir : t -> string

val seq : t -> int
(** Sequence number of the last appended batch. *)

val commit : t -> unit
(** Frame everything buffered since the previous commit as one atomic
    batch; whether it is synced before returning is the sync policy's
    call (under [Every_commit] always, under [Group n] when it completes
    the group). If that sync raises, see {e When a sync fails} above.
    A commit with no changes writes nothing. A caller that must report
    durability whatever the policy follows it with {!sync}: a schema
    evolution ([Tse_core.Durable_tse.evolve_many]) commits its effects
    as one batch this way. *)

(** {2 Extension blobs}

    Upper layers persist state the store has no schema for (the view
    history, say) as opaque tagged blobs, each a {!Tse_store.Codec}
    list. {!append_ext} stages items to append to a tag's blob; the next
    {!commit} logs them in the same atomic batch as that commit's
    physical ops, and {!checkpoint} writes each tag's blob, appended
    items folded in, into the snapshot. {!ext} reads a tag's durable
    blob. *)

val append_ext : t -> tag:string -> string -> unit
(** Stage [items], a {!Tse_store.Codec} list, to be appended to the
    list blob under [tag] (an absent blob counts as the empty list).
    The log carries only [items], under the tag ["+" ^ tag]; replay and
    {!ext} fold them in with {!Tse_store.Codec.concat_lists}, which
    reads nothing but the counts. [tag] must not be ["schema"],
    ["classes"] or ["bases"] (the store's own), must not start with
    ['+'] and must be free of spaces and newlines.
    @raise Invalid_argument otherwise. *)

val ext : t -> string -> string option
(** The tag's durable blob: the last whole one (from the snapshot, or
    from the log of a build that logged whole blobs) with every list
    appended after it folded in. Staged items are not included. *)

val sync : t -> unit
(** Explicit sync barrier: flush every unsynced commit with one write
    and one fsync. On return they are durable. No-op when nothing is
    pending, as always under [Every_commit]. *)

val policy : t -> sync_policy
val set_policy : t -> sync_policy -> unit
(** Forces a {!sync} barrier before switching, so no commit is ever
    governed by a policy weaker than the one it was made under. *)

val unsynced_commits : t -> int
(** Commits framed since the last sync barrier
    ({!Tse_store.Wal.pending_batches}; 0 under [Every_commit]). *)

val wal_stats : t -> Tse_store.Wal.stats
(** The log's amortization counters: fsyncs, bytes framed, batches per
    sync. *)

val checkpoint : t -> unit
(** {!commit}, then {!sync} (a checkpoint is always a barrier), then
    fold the whole state into a fresh snapshot (atomically: temp file,
    fsync, rename) and reset the log. A crash between the rename and
    the log reset is safe: replay skips batches the snapshot already
    covers. *)

val close : t -> unit
(** {!commit}, {!sync}, detach the observers and close the log. The
    value must not be used afterwards. *)

val abandon : t -> unit
(** Detach the observers and close the log {e without} committing or
    flushing anything buffered — dropping the handle exactly as a crash
    would have. For test harnesses after a simulated {!
    Tse_store.Failpoint.Crash} and for discarding a handle whose
    in-memory state a failed evolution left half-applied. Idempotent. *)
