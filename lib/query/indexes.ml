module Index = Tse_store.Index
module Prop = Tse_schema.Prop
module Type_info = Tse_schema.Type_info
module Database = Tse_db.Database

type cid = Tse_schema.Klass.cid
type kind = Index.kind = Hash | Ordered

(* The database's maintained indexes this handle selected, at most one
   per (class, attribute). *)
type t = { db : Database.t; mutable selected : ((cid * string) * Index.t) list }

let create db = { db; selected = [] }

let key_matches (c, a) cid attr = Tse_store.Oid.equal c cid && String.equal a attr

let ensure ?(kind = Hash) t cid attr =
  let graph = Database.graph t.db in
  (match Type_info.find_usable graph cid attr with
  | Some p when Prop.is_stored p -> ()
  | Some _ ->
    invalid_arg (Printf.sprintf "Indexes.ensure: %s is a method" attr)
  | None ->
    invalid_arg
      (Printf.sprintf "Indexes.ensure: %s undefined for the class" attr));
  let ix = Database.index t.db kind cid attr in
  t.selected <-
    ((cid, attr), ix)
    :: List.filter (fun (k, _) -> not (key_matches k cid attr)) t.selected

let find t cid attr =
  List.find_map
    (fun (k, ix) -> if key_matches k cid attr then Some ix else None)
    t.selected

let indexed t cid attr = find t cid attr <> None
let kind_of t cid attr = Option.map Index.kind (find t cid attr)
let key_cardinality t cid attr = Option.map Index.distinct_keys (find t cid attr)
let entry_count t cid attr = Option.map Index.cardinal (find t cid attr)

let overhead_bytes t =
  List.fold_left (fun acc (_, ix) -> acc + Index.overhead_bytes ix) 0 t.selected
