module Codec = Tse_store.Codec
module Storage = Tse_store.Storage
module Schema_codec = Tse_schema.Schema_codec
module Database = Tse_db.Database
module Durable = Tse_db.Durable

let to_string ?(history = History.create ()) db =
  Durable.image_to_string ~seq:0
    ~schema:(Schema_codec.encode_graph (Database.graph db))
    ~exts:[ (History_codec.tag, History_codec.encode history) ]
    db

let of_string text =
  try
    let _seq, db, exts = Durable.image_of_string text in
    let history =
      match List.assoc_opt History_codec.tag exts with
      | Some blob -> History_codec.decode blob
      | None -> History.create ()
    in
    (db, history)
  with
  | Failure msg -> failwith ("Catalog: " ^ msg)
  | Codec.Corrupt (what, pos) ->
    failwith (Printf.sprintf "Catalog: %s at %d" what pos)

let () = Storage.declare_failpoints "catalog"

let save ?history db path =
  Storage.write_atomic ~fp:"catalog" ~path (to_string ?history db)

let load path =
  match Storage.read_file path with
  | s -> of_string s
  | exception Sys_error msg ->
    failwith (Printf.sprintf "Catalog.load %S: %s" path msg)
