module Oid = Tse_store.Oid
module Heap = Tse_store.Heap
module Codec = Tse_store.Codec
module Snapshot = Tse_store.Snapshot
module Storage = Tse_store.Storage
module Klass = Tse_schema.Klass
module Schema_codec = Tse_schema.Schema_codec
module Schema_graph = Tse_schema.Schema_graph
module Database = Tse_db.Database

(* Primitive and schema codecs live in Tse_store.Codec and
   Tse_schema.Schema_codec (shared with the durability layer); this module
   only owns the catalog container format: schema + base memberships +
   view history + heap snapshot. *)

let add_cid = Schema_codec.add_cid
let read_cid = Schema_codec.read_cid

let schema_blob db history =
  let buf = Buffer.create 4096 in
  let graph = Database.graph db in
  add_cid buf (Schema_graph.root graph);
  let classes =
    Schema_graph.classes graph
    |> List.sort (fun (a : Klass.t) b -> Oid.compare a.cid b.cid)
  in
  Codec.add_list buf Schema_codec.add_class classes;
  (* per-object explicit base memberships *)
  let bases =
    List.map
      (fun o -> (o, Oid.Set.elements (Database.base_membership db o)))
      (List.sort Oid.compare (Database.objects db))
  in
  Codec.add_list buf
    (fun buf (o, cids) ->
      add_cid buf o;
      Codec.add_list buf add_cid cids)
    bases;
  (* view history (same codec as the durable layer's "views" blob) *)
  (match history with
  | None -> Codec.add_list buf History_codec.add_view []
  | Some h -> History_codec.add_history buf h);
  Buffer.contents buf

let to_string ?history db =
  let blob = schema_blob db history in
  let heap_snapshot = Snapshot.to_string (Database.heap db) in
  let buf = Buffer.create (String.length blob + String.length heap_snapshot + 64) in
  Buffer.add_string buf "TSE-CATALOG 1\n";
  Buffer.add_string buf (Printf.sprintf "SCHEMA %d\n" (String.length blob));
  Buffer.add_string buf blob;
  Buffer.add_string buf "\nHEAP\n";
  Buffer.add_string buf heap_snapshot;
  Buffer.contents buf

let of_string text =
  let header = "TSE-CATALOG 1\n" in
  if String.length text < String.length header
     || String.sub text 0 (String.length header) <> header
  then failwith "Catalog: bad header";
  let pos = String.length header in
  let nl = String.index_from text pos '\n' in
  let schema_line = String.sub text pos (nl - pos) in
  let blob_len =
    match String.split_on_char ' ' schema_line with
    | [ "SCHEMA"; n ] -> int_of_string n
    | _ -> failwith "Catalog: bad SCHEMA line"
  in
  let blob_start = nl + 1 in
  let blob = String.sub text blob_start blob_len in
  let rest = blob_start + blob_len in
  let heap_marker = "\nHEAP\n" in
  if
    String.length text < rest + String.length heap_marker
    || String.sub text rest (String.length heap_marker) <> heap_marker
  then failwith "Catalog: missing HEAP section";
  let heap_text =
    String.sub text
      (rest + String.length heap_marker)
      (String.length text - rest - String.length heap_marker)
  in
  try
    (* heap first: it owns the OID generator *)
    let heap = Snapshot.of_string heap_text in
    let pos = 0 in
    let root, pos = read_cid blob pos in
    let graph = Schema_graph.restore_empty ~gen:(Heap.gen heap) ~root in
    let classes, pos = Codec.read_list Schema_codec.read_class blob pos in
    List.iter (Schema_graph.install graph) classes;
    Schema_graph.relink_subs graph;
    let bases, pos =
      Codec.read_list
        (fun s pos ->
          let o, pos = read_cid s pos in
          let cids, pos = Codec.read_list read_cid s pos in
          ((o, cids), pos))
        blob pos
    in
    let db = Database.restore ~heap ~graph ~bases in
    let history, _pos = History_codec.read_history blob pos in
    (db, history)
  with Codec.Corrupt (what, pos) ->
    failwith (Printf.sprintf "Catalog: %s at %d" what pos)

let () = Storage.declare_failpoints "catalog"

let save ?history db path =
  Storage.write_atomic ~fp:"catalog" ~path (to_string ?history db)

let load path =
  match Storage.read_file path with
  | s -> of_string s
  | exception Sys_error msg ->
    failwith (Printf.sprintf "Catalog.load %S: %s" path msg)
