module Oid = Tse_store.Oid
module Schema_graph = Tse_schema.Schema_graph
module Database = Tse_db.Database
module View_schema = Tse_views.View_schema
module History = Tse_views.History

let resolve view name =
  match View_schema.cid_of view name with Some c -> Some c | None -> None

let with_descendants graph cid =
  Oid.Set.add cid (Schema_graph.descendants graph cid)

let with_ancestors graph cid =
  Oid.Set.add cid (Schema_graph.ancestors graph cid)

let affected_set db view change =
  let graph = Database.graph db in
  let of_name name =
    match resolve view name with Some c -> Oid.Set.singleton c | None -> Oid.Set.empty
  in
  let content name =
    (* type change propagates to every (global!) subclass *)
    Oid.Set.fold
      (fun c acc -> Oid.Set.union acc (with_descendants graph c))
      (of_name name) Oid.Set.empty
  in
  match change with
  | Change.Add_attribute { cls; _ }
  | Change.Delete_attribute { cls; _ }
  | Change.Add_method { cls; _ }
  | Change.Delete_method { cls; _ } ->
    content cls
  | Change.Add_edge { sup; sub } | Change.Delete_edge { sup; sub; _ } ->
    (* subclasses of sub gain/lose inherited properties; superclasses of
       sup gain/lose extent members *)
    Oid.Set.union (content sub)
      (Oid.Set.fold
         (fun c acc -> Oid.Set.union acc (with_ancestors graph c))
         (of_name sup) Oid.Set.empty)
  | Change.Add_class { connected_to; _ } ->
    (* a new empty leaf affects nothing existing; its anchor is untouched *)
    ignore connected_to;
    Oid.Set.empty
  | Change.Insert_class { sup; sub; _ } ->
    Oid.Set.union (content sub) (of_name sup)
  | Change.Delete_class_2 { cls } ->
    Oid.Set.union (content cls)
      (Oid.Set.fold
         (fun c acc -> Oid.Set.union acc (with_ancestors graph c))
         (of_name cls) Oid.Set.empty)
  | Change.Partition_class _ | Change.Coalesce_classes _
  | Change.Delete_class _ | Change.Rename_class _ ->
    (* view-only or purely additive *)
    Oid.Set.empty

type report = {
  change : Change.t;
  classes_touched : string list;
  broken_views : (string * string list) list;
}

let analyze tsem ~view change =
  let db = Tsem.db tsem in
  let graph = Database.graph db in
  let v = Tsem.current tsem view in
  let affected = affected_set db v change in
  let classes_touched =
    Oid.Set.elements (Oid.Set.remove (Database.root db) affected)
    |> List.map (Schema_graph.name_of graph)
    |> List.sort String.compare
  in
  let history = Tsem.history tsem in
  let broken_views =
    History.view_names history
    |> List.filter (fun n -> not (String.equal n view))
    |> List.filter_map (fun n ->
           match History.current history n with
           | None -> None
           | Some other ->
             let hit =
               List.filter_map
                 (fun cid ->
                   if Oid.Set.mem cid affected then
                     View_schema.local_name other cid
                   else None)
                 (View_schema.classes other)
             in
             if hit = [] then None else Some (n, List.sort String.compare hit))
  in
  { change; classes_touched; broken_views }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>impact of %s:@ " (Change.to_string r.change);
  Format.fprintf ppf "  global classes a destructive change would touch: %s@ "
    (match r.classes_touched with
    | [] -> "(none)"
    | cs -> String.concat ", " cs);
  (match r.broken_views with
  | [] -> Format.fprintf ppf "  no other view would be affected@ "
  | vs ->
    List.iter
      (fun (name, classes) ->
        Format.fprintf ppf "  view %s would break at: %s@ " name
          (String.concat ", " classes))
      vs);
  Format.fprintf ppf "  under TSE: no other view is affected (Proposition B)@]"
