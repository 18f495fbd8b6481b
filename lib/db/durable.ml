module Oid = Tse_store.Oid
module Heap = Tse_store.Heap
module Codec = Tse_store.Codec
module Snapshot = Tse_store.Snapshot
module Storage = Tse_store.Storage
module Wal = Tse_store.Wal
module Recovery = Tse_store.Recovery
module Schema_graph = Tse_schema.Schema_graph
module Schema_codec = Tse_schema.Schema_codec
module Metrics = Tse_obs.Metrics
module Trace = Tse_obs.Trace

let m_commits = Metrics.counter "durable.commits"
let m_empty_commits = Metrics.counter "durable.empty_commits"
let m_checkpoints = Metrics.counter "durable.checkpoints"
let m_opens = Metrics.counter "durable.opens"
let m_schema_encodes = Metrics.counter "durable.schema_encodes"

type sync_policy = Every_commit | Group of int | Manual

type t = {
  dir : string;
  database : Database.t;
  wal : Wal.t;
  mutable seq : int;  (* last appended batch *)
  mutable pending : Heap.op list;  (* newest first *)
  mutable schema_imaged : bool;  (* a whole schema image is durable *)
  mutable last_stamp : int;  (* graph version the durable schema is at *)
  exts : (string, string list) Hashtbl.t;
      (* durable blob per ext tag, as pieces newest first: a whole blob,
         then the lists appended to it *)
  mutable staged : Wal.entry list;
      (* appended lists for the next commit, newest first *)
  mutable policy : sync_policy;
  mutable closed : bool;
}

let db t = t.database
let dir t = t.dir
let seq t = t.seq
let snapshot_path dir = Filename.concat dir "snapshot"
let wal_path dir = Filename.concat dir "wal"

(* every schema encode this module makes, whole graph or class delta,
   goes through one of these two, so the counter shows how often the
   write path pays for one *)
let encode_schema db =
  Metrics.incr m_schema_encodes;
  Schema_codec.encode_graph (Database.graph db)

let encode_delta delta =
  Metrics.incr m_schema_encodes;
  Schema_codec.encode_delta delta

let check_policy = function
  | Group n when n < 1 ->
    invalid_arg (Printf.sprintf "Durable: Group of %d: size must be >= 1" n)
  | p -> p

let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "every" | "every_commit" | "everycommit" -> Every_commit
  | "manual" -> Manual
  | spec -> (
    match String.split_on_char ':' spec with
    | [ "group"; n ] -> (
      match int_of_string_opt n with
      | Some n -> check_policy (Group n)
      | None -> invalid_arg (Printf.sprintf "Durable: bad sync policy %S" s))
    | _ -> invalid_arg (Printf.sprintf "Durable: bad sync policy %S" s))

let policy_to_string = function
  | Every_commit -> "every_commit"
  | Group n -> Printf.sprintf "group:%d" n
  | Manual -> "manual"

(* mirrors DB_FULL_RECLASSIFY: the environment picks the default so CI can
   run the whole suite under a grouped policy without touching the tests *)
let env_policy () =
  match Sys.getenv_opt "TSE_SYNC_POLICY" with
  | None | Some "" -> Every_commit
  | Some s -> policy_of_string s

let () = Storage.declare_failpoints "checkpoint"

(* ------------------------------------------------------------------ *)
(* Extension blobs                                                     *)
(* ------------------------------------------------------------------ *)

(* The log tags an appended list with its blob's tag behind a '+'. *)
let append_prefix = '+'

(* Fold one logged [Ext] entry into the per-tag pieces: a whole blob
   replaces what the tag held, an appended list goes on top. *)
let fold_ext exts tag blob =
  if String.length tag > 1 && tag.[0] = append_prefix then
    let tag = String.sub tag 1 (String.length tag - 1) in
    let pieces = Option.value (Hashtbl.find_opt exts tag) ~default:[] in
    Hashtbl.replace exts tag (blob :: pieces)
  else Hashtbl.replace exts tag [ blob ]

(* A tag's blob with its appended lists folded in, kept folded. *)
let ext_blob exts tag =
  match Hashtbl.find_opt exts tag with
  | None | Some [] -> None
  | Some [ blob ] -> Some blob
  | Some pieces ->
    let blob = Codec.concat_lists (List.rev pieces) in
    Hashtbl.replace exts tag [ blob ];
    Some blob

(* ------------------------------------------------------------------ *)
(* The database image                                                  *)
(* ------------------------------------------------------------------ *)

(* Format 1 kept the minimal base sets outside the heap: an image's
   BASES section, and log entries tagged ["bases"] naming the objects a
   commit touched (an empty list for a destroyed one). Reading either
   writes each set as the slot format 2 keeps it in; an object the heap
   no longer holds is skipped. *)
let import_v1_bases heap blob =
  let bases, pos =
    Codec.read_list
      (fun s pos ->
        let o, pos = Schema_codec.read_cid s pos in
        let cids, pos = Codec.read_list Schema_codec.read_cid s pos in
        ((o, cids), pos))
      blob 0
  in
  if pos <> String.length blob then Codec.fail_at pos "trailing bases bytes";
  List.iter
    (fun (o, cids) ->
      if Heap.mem heap o then Database.write_base_membership heap o cids)
    bases

let image_to_string ~seq ~schema ~exts db =
  let heap_text = Snapshot.to_string (Database.heap db) in
  let buf = Buffer.create (String.length heap_text + 256) in
  Buffer.add_string buf "TSE-DB 2\n";
  Buffer.add_string buf (Printf.sprintf "seq %d\n" seq);
  Buffer.add_string buf (Printf.sprintf "SCHEMA %d\n" (String.length schema));
  Buffer.add_string buf schema;
  (* upper-layer extension blobs (e.g. the view history), keyed by the same
     tags the log's [Ext] entries use, in a stable order *)
  List.sort (fun (a, _) (b, _) -> String.compare a b) exts
  |> List.iter (fun (tag, blob) ->
         Buffer.add_string buf
           (Printf.sprintf "\nEXT %s %d\n" tag (String.length blob));
         Buffer.add_string buf blob);
  Buffer.add_string buf "\nHEAP\n";
  Buffer.add_string buf heap_text;
  Buffer.contents buf

type sections = {
  seq : int;
  schema : string option;  (* [None]: a fresh directory, nothing yet *)
  exts : (string * string) list;
  heap : Heap.t;
}

(* raises [Failure] naming the bad section, or [Codec.Corrupt] *)
let parse_image text =
  let line_end pos =
    match String.index_from_opt text pos '\n' with
    | Some nl -> nl
    | None -> failwith "truncated header line"
  in
  (* format 1 kept the base sets in a BASES section after the schema *)
  let header v = String.starts_with ~prefix:("TSE-DB " ^ v ^ "\n") text in
  let v1 =
    if header "1" then true
    else if header "2" then false
    else failwith "bad header"
  in
  let pos = String.length "TSE-DB 2\n" in
  let nl = line_end pos in
  let seq =
    match String.split_on_char ' ' (String.sub text pos (nl - pos)) with
    | [ "seq"; n ] -> (
      try int_of_string n with _ -> failwith "bad seq line")
    | _ -> failwith "bad seq line"
  in
  let sized pos keyword =
    let nl = line_end pos in
    let len =
      match String.split_on_char ' ' (String.sub text pos (nl - pos)) with
      | [ k; n ] when String.equal k keyword -> (
        try int_of_string n with _ -> failwith ("bad " ^ keyword ^ " line"))
      | _ -> failwith ("bad " ^ keyword ^ " line")
    in
    if String.length text < nl + 1 + len then failwith (keyword ^ " truncated");
    (String.sub text (nl + 1) len, nl + 1 + len)
  in
  let schema, pos = sized (nl + 1) "SCHEMA" in
  if pos >= String.length text || text.[pos] <> '\n' then
    failwith "missing newline after SCHEMA";
  let v1_bases, pos =
    if v1 then
      let bases, pos = sized (pos + 1) "BASES" in
      (Some bases, pos)
    else (None, pos)
  in
  (* zero or more "\nEXT <tag> <len>\n<blob>" sections precede the heap *)
  let exts = ref [] in
  let pos = ref pos in
  let starts_with prefix =
    String.length text >= !pos + String.length prefix
    && String.sub text !pos (String.length prefix) = prefix
  in
  while starts_with "\nEXT " do
    let line_start = !pos + 1 in
    let nl = line_end line_start in
    (match
       String.split_on_char ' ' (String.sub text line_start (nl - line_start))
     with
    | [ "EXT"; tag; n ] ->
      let len = try int_of_string n with _ -> failwith "bad EXT line" in
      if String.length text < nl + 1 + len then failwith "EXT truncated";
      exts := (tag, String.sub text (nl + 1) len) :: !exts;
      pos := nl + 1 + len
    | _ -> failwith "bad EXT line")
  done;
  let heap_marker = "\nHEAP\n" in
  if not (starts_with heap_marker) then failwith "missing HEAP section";
  let heap_start = !pos + String.length heap_marker in
  let heap =
    Snapshot.of_string
      (String.sub text heap_start (String.length text - heap_start))
  in
  Option.iter (import_v1_bases heap) v1_bases;
  { seq; schema = Some schema; exts = List.rev !exts; heap }

(* the graph decodes against the heap's OID generator, with the class
   deltas logged since the image applied in log order *)
let restore ~heap ~schema ~deltas =
  let gen = Heap.gen heap in
  let graph =
    match schema, deltas with
    | Some blob, deltas -> Schema_codec.decode_graph ~deltas ~gen blob
    | None, [] -> Schema_graph.create ~gen
    | None, _ :: _ ->
      failwith "Durable: schema: a class delta without a schema image"
  in
  Database.restore ~heap ~graph

let image_of_string text =
  try
    let s = parse_image text in
    ( s.seq,
      restore ~heap:s.heap ~schema:s.schema ~deltas:[],
      s.exts )
  with Codec.Corrupt (what, pos) ->
    failwith (Printf.sprintf "%s at %d" what pos)

(* ------------------------------------------------------------------ *)
(* Open = snapshot + log replay                                        *)
(* ------------------------------------------------------------------ *)

let attach t =
  let heap = Database.heap t.database in
  Heap.set_logger heap (Some (fun op -> t.pending <- op :: t.pending))

let open_dir ?policy ~dir () =
  Metrics.incr m_opens;
  Trace.with_span ~attrs:[ ("dir", dir) ] "durable.open" @@ fun () ->
  let policy =
    match policy with
    | Some p -> check_policy p
    | None -> env_policy ()
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let snap_file = snapshot_path dir in
  let snap =
    if Sys.file_exists snap_file then begin
      match parse_image (Storage.read_file snap_file) with
      | s -> s
      | exception Sys_error msg ->
        failwith (Printf.sprintf "Durable.open_dir %S: %s" snap_file msg)
      | exception Failure msg -> failwith ("Durable: snapshot: " ^ msg)
      | exception Codec.Corrupt (what, pos) ->
        failwith (Printf.sprintf "Durable: snapshot: %s at %d" what pos)
    end
    else { seq = 0; schema = None; exts = []; heap = Heap.create () }
  in
  let heap = snap.heap in
  (* replay the log tail: heap ops directly, whole schema images and the
     class deltas logged after the latest one, a format-1 log's base
     memberships as the slots they are now, and opaque per-tag blobs for
     every other tag, whole or appended to (upper layers interpret those
     through {!ext}) *)
  let latest_schema = ref snap.schema in
  let deltas = ref [] in
  let exts = Hashtbl.create 4 in
  List.iter (fun (tag, blob) -> Hashtbl.replace exts tag [ blob ]) snap.exts;
  let on_ext kind blob =
    match kind with
    | "schema" ->
      latest_schema := Some blob;
      deltas := []
    | "classes" -> deltas := blob :: !deltas
    | "bases" -> import_v1_bases heap blob
    | tag -> fold_ext exts tag blob
  in
  let report =
    Recovery.replay ~heap ~path:(wal_path dir) ~after:snap.seq ~on_ext
  in
  let database =
    try
      restore ~heap ~schema:!latest_schema ~deltas:(List.rev !deltas)
    with Codec.Corrupt (what, pos) ->
      failwith (Printf.sprintf "Durable: schema: %s at %d" what pos)
  in
  let seq = max snap.seq report.Recovery.last_seq in
  let t =
    {
      dir;
      database;
      wal = Wal.open_append ~path:(wal_path dir);
      seq;
      pending = [];
      schema_imaged = Option.is_some !latest_schema;
      last_stamp = Schema_graph.version (Database.graph database);
      exts;
      staged = [];
      policy;
      closed = false;
    }
  in
  attach t;
  (t, report)

(* ------------------------------------------------------------------ *)
(* Commit / checkpoint / close                                         *)
(* ------------------------------------------------------------------ *)

let check_open t what =
  if t.closed then invalid_arg (Printf.sprintf "Durable.%s: closed" what)

let policy t = t.policy
let unsynced_commits t = Wal.pending_batches t.wal
let wal_stats t = Wal.stats t.wal

let sync t =
  check_open t "sync";
  Wal.sync t.wal

let set_policy t p =
  check_open t "set_policy";
  let p = check_policy p in
  (* a policy switch is a barrier: nothing committed under the old policy
     stays exposed to the new one's weaker (or different) cadence *)
  sync t;
  t.policy <- p

let append_ext t ~tag items =
  check_open t "append_ext";
  (match tag with
  | "schema" | "classes" | "bases" ->
    invalid_arg (Printf.sprintf "Durable.append_ext: reserved tag %s" tag)
  | _ -> ());
  if tag = "" || tag.[0] = append_prefix || String.contains tag ' '
     || String.contains tag '\n'
  then invalid_arg (Printf.sprintf "Durable.append_ext: bad tag %S" tag);
  t.staged <- Wal.Ext (String.make 1 append_prefix ^ tag, items) :: t.staged

let ext (t : t) tag = ext_blob t.exts tag

let commit t =
  check_open t "commit";
  Trace.with_span "durable.commit" @@ fun () ->
  let db = t.database in
  let ops = List.rev_map (fun op -> Wal.Op op) t.pending in
  (* the schema is logged only when the graph version moved since the
     durable schema: as the records of the classes edited or removed
     since then, or whole while no whole image is durable yet *)
  let graph = Database.graph db in
  let stamp = Schema_graph.version graph in
  let schema_entry =
    if stamp = t.last_stamp then []
    else if not t.schema_imaged then [ Wal.Ext ("schema", encode_schema db) ]
    else
      match Schema_graph.changed_since graph t.last_stamp with
      | [], [] -> []
      | delta -> [ Wal.Ext ("classes", encode_delta delta) ]
  in
  let ext_entries = List.rev t.staged in
  if ops = [] && schema_entry = [] && ext_entries = []
  then begin
    t.last_stamp <- stamp;
    Metrics.incr m_empty_commits
  end
  else begin
    Metrics.incr m_commits;
    let gen_entry = [ Wal.Gen (Oid.Gen.peek (Heap.gen (Database.heap db))) ] in
    let entries = ops @ gen_entry @ schema_entry @ ext_entries in
    let seq = t.seq + 1 in
    Wal.append_nosync t.wal ~seq entries;
    (* the batch is framed for the next sync barrier: advance the
       in-memory image *)
    t.seq <- seq;
    t.pending <- [];
    if schema_entry <> [] then t.schema_imaged <- true;
    t.last_stamp <- stamp;
    List.iter
      (function
        | Wal.Ext (tag, blob) -> fold_ext t.exts tag blob
        | Wal.Op _ | Wal.Gen _ -> ())
      ext_entries;
    t.staged <- [];
    (* an eager commit is a group of one *)
    let group =
      match t.policy with
      | Every_commit -> 1
      | Group n -> n
      | Manual -> max_int
    in
    if Wal.pending_batches t.wal >= group then sync t
  end

let checkpoint t =
  check_open t "checkpoint";
  Metrics.incr m_checkpoints;
  Trace.with_span "durable.checkpoint" @@ fun () ->
  commit t;
  (* the snapshot folds the whole in-memory image, so everything framed
     must be on disk first: a checkpoint is always a sync barrier *)
  sync t;
  let exts =
    Hashtbl.fold (fun tag _ acc -> tag :: acc) t.exts []
    |> List.filter_map (fun tag ->
           Option.map (fun blob -> (tag, blob)) (ext_blob t.exts tag))
  in
  Storage.write_atomic ~fp:"checkpoint" ~path:(snapshot_path t.dir)
    (image_to_string ~seq:t.seq ~schema:(encode_schema t.database) ~exts
       t.database);
  t.schema_imaged <- true;
  (* a crash before this reset is benign: replay skips seq <= snapshot's *)
  Wal.reset t.wal

let close t =
  check_open t "close";
  commit t;
  sync t;
  t.closed <- true;
  Heap.set_logger (Database.heap t.database) None;
  Wal.close t.wal

let abandon t =
  if not t.closed then begin
    t.closed <- true;
    Heap.set_logger (Database.heap t.database) None;
    Wal.abandon t.wal
  end
