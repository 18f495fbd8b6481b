module Metrics = Tse_obs.Metrics
module Trace = Tse_obs.Trace

let m_replays = Metrics.counter "recovery.replays"
let m_batches_applied = Metrics.counter "recovery.batches_applied"
let m_entries_applied = Metrics.counter "recovery.entries_applied"
let m_batches_skipped = Metrics.counter "recovery.batches_skipped"
let m_truncations = Metrics.counter "recovery.truncations"
let m_dropped_bytes = Metrics.counter "recovery.dropped_bytes"

type report = {
  batches_applied : int;
  entries_applied : int;
  batches_skipped : int;
  dropped_bytes : int;
  reason : string option;
  last_seq : int;
}

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>replayed %d batch(es) (%d entr%s), skipped %d already-checkpointed@ \
     dropped %d byte(s)%s"
    r.batches_applied r.entries_applied
    (if r.entries_applied = 1 then "y" else "ies")
    r.batches_skipped r.dropped_bytes
    (match r.reason with None -> "" | Some why -> ": " ^ why);
  Format.fprintf ppf "@]"

(* Idempotent for re-allocation: an [Alloc] of a live OID just refreshes
   the tag. *)
let apply_op heap = function
  | Heap.Alloc (oid, tag) ->
    if Heap.mem heap oid then Heap.set_tag heap oid tag
    else ignore (Heap.alloc_raw heap ~oid ~tag)
  | Heap.Free oid -> Heap.free heap oid
  | Heap.Set_tag (oid, tag) -> Heap.set_tag heap oid tag
  | Heap.Set_slot (oid, name, v) -> Heap.set_slot heap oid name v
  | Heap.Remove_slot (oid, name) -> Heap.remove_slot heap oid name
  | Heap.Swap (a, b) -> Heap.swap_identity heap a b

let replay ~heap ~path ~after ~on_ext =
  Metrics.incr m_replays;
  Trace.with_span ~attrs:[ ("path", path) ] "recovery.replay" @@ fun () ->
  let scan = Wal.scan_file ~path in
  let applied = ref 0 and entries = ref 0 and skipped = ref 0 in
  let last_seq = ref after in
  let stopped_at = ref None in
  (* A batch that fails to apply (it references state the snapshot does not
     contain — possible only if snapshot and log are from different
     databases, or the prefix itself was damaged) ends the replay there:
     everything from that batch on is dropped and reported, mirroring how a
     corrupt record truncates the log. *)
  (try
     List.iter
       (fun (b : Wal.batch) ->
         if b.seq <= after then incr skipped
         else begin
           stopped_at := Some b.start_off;
           List.iter
             (fun entry ->
               (match entry with
               | Wal.Op op -> apply_op heap op
               | Wal.Gen n -> Oid.Gen.advance_to (Heap.gen heap) n
               | Wal.Ext (kind, payload) -> on_ext kind payload);
               incr entries)
             b.entries;
           stopped_at := None;
           last_seq := max !last_seq b.seq;
           incr applied
         end)
       scan.batches
   with e ->
     let what = Printexc.to_string e in
     let off = Option.value !stopped_at ~default:scan.valid_len in
     if off < scan.file_len then Wal.truncate_file ~path off;
     raise
       (Failure
          (Printf.sprintf "Recovery: batch at offset %d failed to apply: %s"
             off what)));
  let dropped = scan.file_len - scan.valid_len in
  if dropped > 0 then begin
    Wal.truncate_file ~path scan.valid_len;
    Metrics.incr m_truncations;
    Metrics.add m_dropped_bytes dropped
  end;
  Metrics.add m_batches_applied !applied;
  Metrics.add m_entries_applied !entries;
  Metrics.add m_batches_skipped !skipped;
  {
    batches_applied = !applied;
    entries_applied = !entries;
    batches_skipped = !skipped;
    dropped_bytes = dropped;
    reason = scan.reason;
    last_seq = !last_seq;
  }
