(** Replay a WAL tail onto a snapshot-loaded heap.

    Opening a database is [snapshot + wal tail]: load the snapshot, then
    {!replay} every batch whose sequence number the snapshot does not
    already cover. A torn or checksum-corrupt tail is truncated — with a
    {!report} of what was dropped — instead of refusing to open. *)

type report = {
  batches_applied : int;
  entries_applied : int;
  batches_skipped : int;
      (** batches already folded into the snapshot (seq <= [after]) —
          nonzero when a crash hit between checkpoint-rename and
          log truncation *)
  dropped_bytes : int;  (** bytes cut off the tail *)
  reason : string option;  (** why the tail was cut, when it was *)
  last_seq : int;  (** highest batch sequence now reflected in the heap *)
}

val pp_report : Format.formatter -> report -> unit

val replay :
  heap:Heap.t ->
  path:string ->
  after:int ->
  on_ext:(string -> string -> unit) ->
  report
(** Apply every batch with [seq > after] to the heap, in log order;
    [on_ext] receives extension entries (schema images, class deltas,
    upper-layer blobs) for the caller to interpret. The log file is physically truncated to
    its trustworthy prefix when a bad tail is found.

    @raise Failure if a structurally valid batch fails to {e apply}
    (snapshot and log disagree about what exists — distinct from tail
    corruption, which is handled); the log is truncated before the
    offending batch first. *)
