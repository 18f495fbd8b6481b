module Index = Tse_store.Index
module Ord_index = Tse_store.Ord_index
module Prop = Tse_schema.Prop
module Type_info = Tse_schema.Type_info
module Database = Tse_db.Database

type cid = Tse_schema.Klass.cid
type kind = Database.index_kind = Hash | Ordered

(* The database's maintained indexes this handle selected, at most one
   per (class, attribute). *)
type t = {
  db : Database.t;
  mutable selected : ((cid * string) * Database.index) list;
}

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

let lookup t cid attr v =
  Option.map
    (function
      | Database.Hash_index i -> Index.lookup i v
      | Database.Ordered_index i -> Ord_index.lookup i v)
    (find t cid attr)

let range_lookup t cid attr ~lo ~hi =
  Option.bind (find t cid attr) (function
    | Database.Ordered_index i -> Some (Ord_index.range i ~lo ~hi)
    | Database.Hash_index _ -> None)

let indexed t cid attr = find t cid attr <> None

let kind_of t cid attr =
  Option.map
    (function Database.Hash_index _ -> Hash | Database.Ordered_index _ -> Ordered)
    (find t cid attr)

let key_cardinality t cid attr =
  Option.map
    (function
      | Database.Hash_index i -> Index.distinct_keys i
      | Database.Ordered_index i -> Ord_index.distinct_keys i)
    (find t cid attr)

let entry_count t cid attr =
  Option.map
    (function
      | Database.Hash_index i -> Index.cardinal i
      | Database.Ordered_index i -> Ord_index.cardinal i)
    (find t cid attr)

let overhead_bytes t =
  List.fold_left
    (fun acc (_, ix) ->
      acc
      +
      match ix with
      | Database.Hash_index i -> Index.overhead_bytes i
      | Database.Ordered_index i -> Ord_index.overhead_bytes i)
    0 t.selected
