module Oid = Tse_store.Oid
module Value = Tse_store.Value
module Index = Tse_store.Index
module Ord_index = Tse_store.Ord_index
module Prop = Tse_schema.Prop
module Type_info = Tse_schema.Type_info
module Klass = Tse_schema.Klass
module Schema_graph = Tse_schema.Schema_graph
module Database = Tse_db.Database
module Metrics = Tse_obs.Metrics

type cid = Tse_schema.Klass.cid
type kind = Hash | Ordered

type backing = B_hash of Index.t | B_ord of Ord_index.t

type entry = {
  e_cid : cid;
  e_attr : string;
  backing : backing;
  (* last indexed value per object, so updates can unindex the old one *)
  current : Value.t Oid.Tbl.t;
}

type t = {
  db : Database.t;
  mutable entries : entry list;
}

let key_matches e cid attr = Oid.equal e.e_cid cid && String.equal e.e_attr attr

let backing_add e v o =
  match e.backing with
  | B_hash i -> Index.add i v o
  | B_ord i -> Ord_index.add i v o

let backing_remove e v o =
  match e.backing with
  | B_hash i -> Index.remove i v o
  | B_ord i -> Ord_index.remove i v o

let m_refreshes = Metrics.counter "query.index_refreshes"

(* (Re)index one object in one entry according to its current state. *)
let refresh_object e db o =
  Metrics.incr m_refreshes;
  let was = Oid.Tbl.find_opt e.current o in
  let now =
    if
      Database.mem_object db o
      && Oid.Set.mem o (Database.extent db e.e_cid)
    then
      match Database.get_prop db o e.e_attr with
      | v -> Some v
      | exception _ -> None
    else None
  in
  (match was with
  | Some v -> (
    match now with
    | Some v' when Value.equal v v' -> ()
    | _ ->
      backing_remove e v o;
      Oid.Tbl.remove e.current o)
  | None -> ());
  match now with
  | Some v when Oid.Tbl.find_opt e.current o = None ->
    backing_add e v o;
    Oid.Tbl.replace e.current o v
  | Some _ | None -> ()

(* Can a membership delta move [e]'s view of the object? Only if the
   object entered or left [e]'s class (the extent test), or entered or
   left a class declaring [e]'s attribute locally: attribute resolution
   picks among the object's member classes with a local definition, so
   no other class changes what [e_attr] resolves to. *)
let delta_touches graph e added removed =
  let touches c =
    Oid.equal c e.e_cid
    ||
    match Schema_graph.find graph c with
    | Some k -> Klass.has_local_prop k e.e_attr
    | None -> true
  in
  List.exists touches added || List.exists touches removed

let on_event t event =
  let handle o = List.iter (fun e -> refresh_object e t.db o) t.entries in
  match event with
  | Database.Object_created o | Database.Object_destroyed o -> handle o
  | Database.Membership_delta (o, added, removed) ->
    let graph = Database.graph t.db in
    List.iter
      (fun e ->
        if delta_touches graph e added removed then refresh_object e t.db o)
      t.entries
  | Database.Class_populated (cid, members) ->
    (* every member gained exactly [cid], so one test per entry decides
       for all of them *)
    let graph = Database.graph t.db in
    List.iter
      (fun e ->
        if delta_touches graph e [ cid ] [] then
          Oid.Set.iter (refresh_object e t.db) members)
      t.entries
  | Database.Attr_set (o, attr, _) ->
    (* a stored-attribute write can only move entries indexing that name *)
    List.iter
      (fun e -> if String.equal e.e_attr attr then refresh_object e t.db o)
      t.entries

let create db =
  let t = { db; entries = [] } in
  Database.add_listener db ~owner:t on_event;
  t

let ensure ?(kind = Hash) t cid attr =
  let graph = Database.graph t.db in
  (match Type_info.find_usable graph cid attr with
  | Some p when Prop.is_stored p -> ()
  | Some _ ->
    invalid_arg (Printf.sprintf "Indexes.ensure: %s is a method" attr)
  | None ->
    invalid_arg
      (Printf.sprintf "Indexes.ensure: %s undefined for the class" attr));
  t.entries <- List.filter (fun e -> not (key_matches e cid attr)) t.entries;
  let backing =
    match kind with
    | Hash -> B_hash (Index.create ())
    | Ordered -> B_ord (Ord_index.create ())
  in
  let e = { e_cid = cid; e_attr = attr; backing; current = Oid.Tbl.create 64 } in
  Oid.Set.iter (fun o -> refresh_object e t.db o) (Database.extent t.db cid);
  t.entries <- e :: t.entries

let find t cid attr =
  List.find_opt (fun e -> key_matches e cid attr) t.entries

let lookup t cid attr v =
  Option.map
    (fun e ->
      match e.backing with
      | B_hash i -> Index.lookup i v
      | B_ord i -> Ord_index.lookup i v)
    (find t cid attr)

let range_lookup t cid attr ~lo ~hi =
  Option.bind (find t cid attr) (fun e ->
      match e.backing with
      | B_ord i -> Some (Ord_index.range i ~lo ~hi)
      | B_hash _ -> None)

let indexed t cid attr = find t cid attr <> None

let kind_of t cid attr =
  Option.map
    (fun e -> match e.backing with B_hash _ -> Hash | B_ord _ -> Ordered)
    (find t cid attr)

let key_cardinality t cid attr =
  Option.map
    (fun e ->
      match e.backing with
      | B_hash i -> Index.distinct_keys i
      | B_ord i -> Ord_index.distinct_keys i)
    (find t cid attr)

let entry_count t cid attr =
  Option.map
    (fun e ->
      match e.backing with
      | B_hash i -> Index.cardinal i
      | B_ord i -> Ord_index.cardinal i)
    (find t cid attr)

let overhead_bytes t =
  List.fold_left
    (fun acc e ->
      acc
      +
      match e.backing with
      | B_hash i -> Index.overhead_bytes i
      | B_ord i -> Ord_index.overhead_bytes i)
    0 t.entries

