module Oid = Tse_store.Oid
module View_schema = Tse_views.View_schema
module History = Tse_views.History

let name_collisions v1 v2 =
  List.filter_map
    (fun cid1 ->
      match View_schema.local_name v1 cid1 with
      | None -> None
      | Some name -> (
        match View_schema.cid_of v2 name with
        | Some cid2 when not (Oid.equal cid1 cid2) -> Some name
        | Some _ | None -> None))
    (View_schema.classes v1)
  |> List.sort_uniq String.compare

let get_version tsem view version =
  match History.version (Tsem.history tsem) view version with
  | Some v -> v
  | None ->
    invalid_arg (Printf.sprintf "Merge: no version %d of view %s" version view)

let merge_views tsem v1 v2 ~new_name =
  (match History.current (Tsem.history tsem) new_name with
  | Some _ -> invalid_arg (Printf.sprintf "Merge: view %s already exists" new_name)
  | None -> ());
  let graph = Tse_db.Database.graph (Tsem.db tsem) in
  let collisions = name_collisions v1 v2 in
  let local v cid =
    match View_schema.local_name v cid with
    | Some n -> n
    | None -> Tse_schema.Schema_graph.name_of graph cid
  in
  let add_from merged (v : View_schema.t) =
    List.fold_left
      (fun merged cid ->
        (* identical classes (same global class) appear once *)
        if View_schema.mem merged cid then merged
        else begin
          let name = local v cid in
          let name =
            if List.mem name collisions then
              Printf.sprintf "%s.%s.v%d" name v.View_schema.view_name
                v.View_schema.version
            else name
          in
          (* belt and braces: never raise on residual collisions *)
          let rec uniquify candidate i =
            if View_schema.cid_of merged candidate = None then candidate
            else uniquify (Printf.sprintf "%s#%d" name i) (i + 1)
          in
          View_schema.add_class merged ~as_name:(uniquify name 2) graph cid
        end)
      merged (View_schema.classes v)
  in
  let merged =
    add_from
      (add_from (View_schema.make ~name:new_name ~version:0 graph []) v1)
      v2
  in
  History.register (Tsem.history tsem) merged;
  merged

let merge tsem ~view1 ~version1 ~view2 ~version2 ~new_name =
  let v1 = get_version tsem view1 version1
  and v2 = get_version tsem view2 version2 in
  merge_views tsem v1 v2 ~new_name

let merge_current tsem ~view1 ~view2 ~new_name =
  let v1 = History.current_exn (Tsem.history tsem) view1
  and v2 = History.current_exn (Tsem.history tsem) view2 in
  merge_views tsem v1 v2 ~new_name
