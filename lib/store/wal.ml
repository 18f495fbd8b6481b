module Metrics = Tse_obs.Metrics
module Trace = Tse_obs.Trace
module Watchdog = Tse_obs.Watchdog

type entry =
  | Op of Heap.op
  | Gen of int
  | Ext of string * string

type stats = {
  mutable fsyncs : int;
  mutable syncs : int;
  mutable batches_framed : int;
  mutable bytes_framed : int;
  mutable max_batches_per_sync : int;
}

type t = {
  path : string;
  mutable fd : Unix.file_descr option;
  mutable pending : string list;
      (* framed records appended but not yet written, newest first *)
  mutable pending_batches : int;
  stats : stats;
}

(* The per-log [stats] record above stays the API benches and tests
   consume; these registry handles aggregate the same events across
   every open log for the global [stats]/metrics surface. *)
let m_fsyncs = Metrics.counter "wal.fsyncs"
let m_syncs = Metrics.counter "wal.syncs"
let m_batches_framed = Metrics.counter "wal.batches_framed"
let m_bytes_framed = Metrics.counter "wal.bytes_framed"
let m_resets = Metrics.counter "wal.resets"

let m_group_batches =
  Metrics.histogram ~buckets:[ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. ]
    "wal.group_batches"

let fp_group_append = "wal.group.append"
let fp_group_fsync = "wal.group.fsync"
let fp_truncate_before = "wal.truncate.before"

let () =
  List.iter Failpoint.declare
    [ fp_group_append; fp_group_fsync; fp_truncate_before ]

(* ---------- entry codec (Codec primitives + Value encoding) ---------- *)

let add_oid buf o = Codec.add_int buf (Oid.to_int o)

let read_oid s pos =
  let i, pos = Codec.read_int s pos in
  (Oid.of_int i, pos)

let add_entry buf = function
  | Op (Heap.Alloc (o, tag)) ->
    Buffer.add_char buf 'A';
    add_oid buf o;
    Codec.add_str buf tag
  | Op (Heap.Free o) ->
    Buffer.add_char buf 'F';
    add_oid buf o
  | Op (Heap.Set_tag (o, tag)) ->
    Buffer.add_char buf 'T';
    add_oid buf o;
    Codec.add_str buf tag
  | Op (Heap.Set_slot (o, name, v)) ->
    Buffer.add_char buf 'S';
    add_oid buf o;
    Codec.add_str buf name;
    Value.encode buf v
  | Op (Heap.Remove_slot (o, name)) ->
    Buffer.add_char buf 'R';
    add_oid buf o;
    Codec.add_str buf name
  | Op (Heap.Swap (a, b)) ->
    Buffer.add_char buf 'W';
    add_oid buf a;
    add_oid buf b
  | Gen n ->
    Buffer.add_char buf 'G';
    Codec.add_int buf n
  | Ext (tag, payload) ->
    Buffer.add_char buf 'X';
    Codec.add_str buf tag;
    Codec.add_str buf payload

(* [None] for an entry that decodes but carries nothing to replay; the
   tags and slot names a replay stores go through [share] *)
let read_entry share s pos =
  if pos >= String.length s then Codec.fail_at pos "eof in entry";
  match s.[pos] with
  | 'A' ->
    let o, pos = read_oid s (pos + 1) in
    let tag, pos = Codec.read_str s pos in
    (Some (Op (Heap.Alloc (o, share tag))), pos)
  | 'F' ->
    let o, pos = read_oid s (pos + 1) in
    (Some (Op (Heap.Free o)), pos)
  | 'T' ->
    let o, pos = read_oid s (pos + 1) in
    let tag, pos = Codec.read_str s pos in
    (Some (Op (Heap.Set_tag (o, share tag))), pos)
  | 'S' ->
    let o, pos = read_oid s (pos + 1) in
    let name, pos = Codec.read_str s pos in
    let v, pos = Value.decode s pos in
    (Some (Op (Heap.Set_slot (o, share name, v))), pos)
  | 'R' ->
    let o, pos = read_oid s (pos + 1) in
    let name, pos = Codec.read_str s pos in
    (Some (Op (Heap.Remove_slot (o, name))), pos)
  | 'W' ->
    let a, pos = read_oid s (pos + 1) in
    let b, pos = read_oid s pos in
    (Some (Op (Heap.Swap (a, b))), pos)
  | 'G' ->
    let n, pos = Codec.read_int s (pos + 1) in
    (Some (Gen n), pos)
  | 'X' ->
    let tag, pos = Codec.read_str s (pos + 1) in
    let payload, pos = Codec.read_str s pos in
    (Some (Ext (tag, payload)), pos)
  (* Older builds logged each evolution as an intent record ('B': id,
     view, change list), a decision record ('C': id, view) and a done
     marker ('D': id, flag) riding in the effects batch. Nothing writes
     them any more. They are decoded only to be dropped, so an old log
     scans on past them: the effects batch replays physically like any
     other, and an intent whose effects never landed recovers to the
     pre-evolution state. *)
  | 'B' ->
    let _eid, pos = Codec.read_int s (pos + 1) in
    let _view, pos = Codec.read_str s pos in
    let _changes, pos = Codec.read_str s pos in
    (None, pos)
  | 'C' ->
    let _eid, pos = Codec.read_int s (pos + 1) in
    let _view, pos = Codec.read_str s pos in
    (None, pos)
  | 'D' ->
    let _eid, pos = Codec.read_int s (pos + 1) in
    let _ok, pos = Codec.read_int s pos in
    (None, pos)
  | c -> Codec.fail_at pos (Printf.sprintf "bad entry tag %C" c)

(* ---------- record framing: u32le length, u32le crc32, payload ---------- *)

let header_len = 8

let encode_record ~seq entries =
  let payload = Buffer.create 256 in
  Codec.add_int payload seq;
  Codec.add_list payload add_entry entries;
  let payload = Buffer.contents payload in
  let n = String.length payload in
  let record = Bytes.create (header_len + n) in
  Bytes.set_int32_le record 0 (Int32.of_int n);
  Bytes.set_int32_le record 4 (Crc32.string payload);
  Bytes.blit_string payload 0 record header_len n;
  Bytes.unsafe_to_string record

(* ---------- appending ---------- *)

let open_append ~path =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  {
    path;
    fd = Some fd;
    pending = [];
    pending_batches = 0;
    stats =
      {
        fsyncs = 0;
        syncs = 0;
        batches_framed = 0;
        bytes_framed = 0;
        max_batches_per_sync = 0;
      };
  }

let stats t = t.stats
let pending_batches t = t.pending_batches

let fd_exn t =
  match t.fd with
  | Some fd -> fd
  | None -> invalid_arg "Wal: log already closed"

let append_nosync t ~seq entries =
  ignore (fd_exn t);
  Failpoint.hit fp_group_append;
  let record = encode_record ~seq entries in
  let len = String.length record in
  t.stats.batches_framed <- t.stats.batches_framed + 1;
  t.stats.bytes_framed <- t.stats.bytes_framed + len;
  Metrics.incr m_batches_framed;
  Metrics.add m_bytes_framed len;
  t.pending <- record :: t.pending;
  t.pending_batches <- t.pending_batches + 1

let sync t =
  if t.pending_batches > 0 then begin
    let fd = fd_exn t in
    (* a group of one is written as framed, with no copy *)
    let data =
      match t.pending with
      | [ record ] -> record
      | records -> String.concat "" (List.rev records)
    in
    let batches = t.pending_batches in
    t.pending <- [];
    t.pending_batches <- 0;
    let len = String.length data in
    (match Failpoint.short fp_group_append ~len with
    | Some k ->
      Storage.write_all fd data 0 k;
      (* Crash simulation only: the [Crash] below escapes to the test
         harness, so no durability is reported — a failed flush of the
         deliberately torn bytes cannot fake anything. *)
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      raise (Failpoint.Crash fp_group_append)
    | None -> Storage.write_all fd data 0 len);
    Failpoint.hit fp_group_fsync;
    (* on the data path a failed fsync must propagate: the caller is about
       to treat the whole group as durable. It runs under the stall
       watchdog, so a slow disk shows up as a W301 warning and in the
       wal.fsync_ms histogram rather than as silent tail latency. *)
    let t0 = Trace.now_us () in
    Unix.fsync fd;
    Watchdog.observe_fsync ~ms:(float_of_int (Trace.now_us () - t0) /. 1000.);
    t.stats.fsyncs <- t.stats.fsyncs + 1;
    t.stats.syncs <- t.stats.syncs + 1;
    Metrics.incr m_fsyncs;
    Metrics.incr m_syncs;
    Metrics.observe m_group_batches (float_of_int batches);
    if batches > t.stats.max_batches_per_sync then
      t.stats.max_batches_per_sync <- batches
  end

let reset t =
  let fd = fd_exn t in
  (* anything still buffered is part of what the caller folded elsewhere
     (checkpoint) or is being discarded with the log *)
  t.pending <- [];
  t.pending_batches <- 0;
  Failpoint.hit fp_truncate_before;
  Unix.ftruncate fd 0;
  Unix.fsync fd;
  t.stats.fsyncs <- t.stats.fsyncs + 1;
  Metrics.incr m_fsyncs;
  Metrics.incr m_resets

let close t =
  match t.fd with
  | None -> ()
  | Some fd ->
    (* flush any buffered group; a failed write or fsync here propagates
       rather than silently dropping the tail *)
    sync t;
    t.fd <- None;
    Unix.close fd

let abandon t =
  match t.fd with
  | None -> ()
  | Some fd ->
    (* deliberately NOT synced: the handle is being dropped as if the
       process had died (simulated crash, in-memory state a failed
       evolution left behind) and buffered frames must not reach the
       file *)
    t.pending <- [];
    t.pending_batches <- 0;
    t.fd <- None;
    Unix.close fd

(* ---------- scanning ---------- *)

type batch = { seq : int; entries : entry list; start_off : int }

type scan = {
  batches : batch list;
  valid_len : int;
  file_len : int;
  reason : string option;
}

let decode_payload share payload =
  let seq, pos = Codec.read_int payload 0 in
  let entries, pos = Codec.read_list (read_entry share) payload pos in
  if pos <> String.length payload then
    Codec.fail_at pos "trailing garbage in record";
  (seq, List.filter_map Fun.id entries)

let scan_string s =
  let share = Codec.sharer () in
  let len = String.length s in
  let rec go acc pos =
    if pos = len then (List.rev acc, pos, None)
    else if pos + header_len > len then
      (List.rev acc, pos, Some "torn record header")
    else
      let n = Int32.to_int (String.get_int32_le s pos) in
      if n < 0 || pos + header_len + n > len then
        (List.rev acc, pos, Some "torn record body")
      else
        let crc = String.get_int32_le s (pos + 4) in
        let payload = String.sub s (pos + header_len) n in
        if Crc32.string payload <> crc then
          (List.rev acc, pos, Some "checksum mismatch")
        else
          match decode_payload share payload with
          | seq, entries ->
            go ({ seq; entries; start_off = pos } :: acc) (pos + header_len + n)
          | exception Codec.Corrupt (what, _) ->
            (List.rev acc, pos, Some ("undecodable record: " ^ what))
          | exception Failure what ->
            (List.rev acc, pos, Some ("undecodable record: " ^ what))
  in
  let batches, valid_len, reason = go [] 0 in
  { batches; valid_len; file_len = len; reason }

let scan_file ~path =
  if not (Sys.file_exists path) then
    { batches = []; valid_len = 0; file_len = 0; reason = None }
  else scan_string (Storage.read_file path)

let truncate_file ~path n =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.ftruncate fd n;
      Unix.fsync fd)
