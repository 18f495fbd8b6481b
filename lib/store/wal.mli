(** The write-ahead log: the durability substrate the paper delegates to
    GemStone ("persistent storage, concurrency control, etc.", Section 5).

    A log is a sequence of {e records}, each framed as

    {v u32le payload-length | u32le crc32(payload) | payload v}

    and each carrying one {e batch}: a sequence number plus the entries
    of one atomic commit (physical heap ops, an OID-generator watermark,
    and opaque extension entries for upper layers — schema blobs, base
    memberships). A batch is all-or-nothing by construction: a crash
    mid-append leaves a torn or checksum-corrupt tail record, which
    {!scan_file} detects and reports so recovery can truncate it —
    graceful degradation instead of refusal to open.

    There is one way to get a batch into the file: {!append_nosync}
    frames the batch into an in-memory buffer, and {!sync} flushes every
    buffered batch with one contiguous write followed by one fsync. An
    eager commit is a group of one — the same bytes, one write and one
    fsync; a grouped commit amortizes the fsync over several batches,
    which {!stats} measures. A crash between the two loses exactly the
    buffered tail; a crash inside {!sync} leaves a prefix of the group
    on disk (whole records survive the torn-tail scan, the rest is
    truncated).

    Appends go through [Unix] descriptors and are guarded by three
    failpoints: ["wal.group.append"] (a crash before the batch is
    framed, or a torn flush), ["wal.group.fsync"] (a crash after the
    flush's write, before its fsync) and ["wal.truncate.before"]. A
    failed [fsync] on the data path raises — it is never swallowed,
    because the caller is about to report durability. *)

type entry =
  | Op of Heap.op  (** one physical heap mutation *)
  | Gen of int  (** OID-generator watermark ({!Oid.Gen.peek}) *)
  | Ext of string * string
      (** upper-layer payload, opaque to the store: [(kind, blob)] *)
(** A scanned record may also hold the evolution intent, decision and
    done entries (tags [B], [C], [D]) that older builds wrote. The
    scanner decodes and drops them: they are not entries, and nothing
    can encode them. *)

(** {2 Appending} *)

type t

val open_append : path:string -> t
(** Open (creating if needed) for appending. *)

val append_nosync : t -> seq:int -> entry list -> unit
(** Frame and checksum one batch into the in-memory group buffer.
    Nothing touches the file until {!sync}; a crash before it loses the
    batch. [seq] must increase strictly across the life of the database
    (recovery uses it to skip batches already folded into a checkpoint
    snapshot). *)

val sync : t -> unit
(** The sync barrier: write every buffered batch as one contiguous
    stretch of records, then fsync once. No-op when nothing is buffered.
    On return the whole group is durable. If it raises ([Unix_error],
    or a simulated fault) nothing of the group may be assumed durable,
    and the buffer is empty either way: a failed sync is not retried,
    the caller abandons the handle and rescans the file. *)

val pending_batches : t -> int
(** Batches framed by {!append_nosync} and not yet flushed by {!sync}. *)

(** Amortization counters, cumulative over the life of the handle:
    [batches_framed / syncs] is the measured batches-per-fsync. *)
type stats = {
  mutable fsyncs : int;  (** [Unix.fsync] calls on the log descriptor *)
  mutable syncs : int;  (** barriers that actually flushed data *)
  mutable batches_framed : int;
  mutable bytes_framed : int;  (** framed record bytes, headers included *)
  mutable max_batches_per_sync : int;
}

val stats : t -> stats

val reset : t -> unit
(** Truncate to empty (after a checkpoint folded the log into the
    snapshot), discarding any buffered batches with it. *)

val close : t -> unit
(** Flush any buffered group ({!sync}, so a failing flush raises rather
    than silently dropping the tail), then close the descriptor. *)

val abandon : t -> unit
(** Close the descriptor {e discarding} any buffered group — for
    dropping a handle whose in-memory state must not reach the file
    (after a simulated crash or a failed evolution). *)

(** {2 Scanning (recovery)} *)

type batch = { seq : int; entries : entry list; start_off : int }

type scan = {
  batches : batch list;  (** every decodable batch, in log order *)
  valid_len : int;  (** bytes of trustworthy prefix *)
  file_len : int;
  reason : string option;
      (** why scanning stopped before [file_len], if it did *)
}

val scan_file : path:string -> scan
(** Read and verify the log. Never raises on torn or corrupt content —
    the bad tail is described by [reason]/[valid_len] instead. A missing
    file is an empty log. *)

val scan_string : string -> scan

val truncate_file : path:string -> int -> unit
(** Cut the log back to the trustworthy prefix. *)

val encode_record : seq:int -> entry list -> string
(** The exact bytes {!append_nosync} frames (exposed for tests). *)
