module Oid = Tse_store.Oid
module Schema_graph = Tse_schema.Schema_graph

type cid = Tse_schema.Klass.cid

type t = {
  view_name : string;
  version : int;
  members : (cid * string) list;
}

let check_members members =
  let seen_cid = Hashtbl.create 8 and seen_name = Hashtbl.create 8 in
  List.iter
    (fun (cid, name) ->
      if Hashtbl.mem seen_cid (Oid.to_int cid) then
        invalid_arg "View_schema: duplicate class";
      if Hashtbl.mem seen_name name then
        invalid_arg (Printf.sprintf "View_schema: duplicate local name %s" name);
      Hashtbl.add seen_cid (Oid.to_int cid) ();
      Hashtbl.add seen_name name ())
    members

let make ~name ~version graph cids =
  let members = List.map (fun cid -> (cid, Schema_graph.name_of graph cid)) cids in
  check_members members;
  { view_name = name; version; members }

let classes t = List.map fst t.members

let class_set t =
  List.fold_left (fun acc (cid, _) -> Oid.Set.add cid acc) Oid.Set.empty t.members

let mem t cid = List.exists (fun (c, _) -> Oid.equal c cid) t.members
let size t = List.length t.members

let local_name t cid =
  List.find_map
    (fun (c, n) -> if Oid.equal c cid then Some n else None)
    t.members

let cid_of t name =
  List.find_map
    (fun (c, n) -> if String.equal n name then Some c else None)
    t.members

let cid_of_exn t name =
  match cid_of t name with
  | Some c -> c
  | None ->
    invalid_arg
      (Printf.sprintf "view %s (v%d) has no class named %s" t.view_name
         t.version name)

let rename t cid name =
  if not (mem t cid) then invalid_arg "View_schema.rename: class not in view";
  (match cid_of t name with
  | Some other when not (Oid.equal other cid) ->
    invalid_arg (Printf.sprintf "View_schema.rename: name %s taken" name)
  | Some _ | None -> ());
  {
    t with
    members =
      List.map (fun (c, n) -> if Oid.equal c cid then (c, name) else (c, n)) t.members;
  }

let add_class t ?as_name graph cid =
  if mem t cid then invalid_arg "View_schema.add_class: already in view";
  let name =
    match as_name with Some n -> n | None -> Schema_graph.name_of graph cid
  in
  (match cid_of t name with
  | Some _ -> invalid_arg (Printf.sprintf "View_schema.add_class: name %s taken" name)
  | None -> ());
  { t with members = t.members @ [ (cid, name) ] }

let remove_class t cid =
  { t with members = List.filter (fun (c, _) -> not (Oid.equal c cid)) t.members }

let substitute t ~old_cid ~new_cid =
  {
    t with
    members =
      List.map
        (fun (c, n) -> if Oid.equal c old_cid then (new_cid, n) else (c, n))
        t.members;
  }

let with_version t version = { t with version }
