module Oid = Tse_store.Oid
module Prop = Tse_schema.Prop
module Klass = Tse_schema.Klass
module Schema_graph = Tse_schema.Schema_graph
module Type_info = Tse_schema.Type_info
module Database = Tse_db.Database
module View_schema = Tse_views.View_schema
module Generation = Tse_views.Generation

let rejected fmt = Format.kasprintf (fun s -> raise (Change.Rejected s)) fmt

let resolve view name =
  match View_schema.cid_of view name with
  | Some cid -> cid
  | None -> rejected "class %s is not in view %s" name view.View_schema.view_name

let add_property db view ~cls_name ~prop_name ~mk_prop =
  let graph = Database.graph db in
  let cls = resolve view cls_name in
  if Type_info.has_prop graph cls prop_name then
    rejected "%s already defined for %s" prop_name cls_name;
  Schema_graph.add_local_prop graph cls (Prop.reoriginate (mk_prop ()) cls);
  Database.reclassify_all db;
  view

let delete_property db view ~cls_name ~prop_name =
  let graph = Database.graph db in
  let cls = resolve view cls_name in
  let view_set = View_schema.class_set view in
  if not (Type_info.has_prop graph cls prop_name) then
    rejected "%s is not defined for %s" prop_name cls_name;
  if not (Type_info.is_uppermost_in graph ~view:view_set cls prop_name) then
    rejected "%s is inherited within the view" prop_name;
  let k = Schema_graph.find_exn graph cls in
  if not (Klass.has_local_prop k prop_name) then
    rejected
      "direct oracle limitation: %s is not local to %s in the global schema"
      prop_name cls_name;
  Schema_graph.remove_local_prop graph cls prop_name;
  (* the suppressed inherited property, if any, reappears automatically *)
  Database.reclassify_all db;
  view

let apply_edge db f =
  f (Database.graph db);
  Database.reclassify_all db

let rec apply db view change =
  let graph = Database.graph db in
  match change with
  | Change.Add_attribute { cls; def } ->
    add_property db view ~cls_name:cls ~prop_name:def.attr_name
      ~mk_prop:(fun () ->
        Prop.stored ~origin:(Oid.of_int 0) ~default:def.default
          ~required:def.required def.attr_name def.ty)
  | Change.Add_method { cls; method_name; body } ->
    add_property db view ~cls_name:cls ~prop_name:method_name ~mk_prop:(fun () ->
        Prop.method_ ~origin:(Oid.of_int 0) method_name body)
  | Change.Delete_attribute { cls; attr_name } ->
    delete_property db view ~cls_name:cls ~prop_name:attr_name
  | Change.Delete_method { cls; method_name } ->
    delete_property db view ~cls_name:cls ~prop_name:method_name
  | Change.Add_edge { sup; sub } ->
    let csup = resolve view sup and csub = resolve view sub in
    if Tse_store.Oid.equal csup csub then
      rejected "add_edge: %s-%s is a self edge" sup sub;
    if Schema_graph.is_strict_ancestor graph ~anc:csup ~desc:csub then
      rejected "add_edge: %s is already a superclass of %s" sup sub;
    if Schema_graph.is_strict_ancestor graph ~anc:csub ~desc:csup then
      rejected "add_edge: would create a cycle";
    apply_edge db (fun g -> Schema_graph.add_edge g ~sup:csup ~sub:csub);
    view
  | Change.Delete_edge { sup; sub; connected_to } ->
    let csup = resolve view sup and csub = resolve view sub in
    if
      not
        (List.exists
           (fun (s, b) -> Tse_store.Oid.equal s csup && Tse_store.Oid.equal b csub)
           (Generation.edges graph view))
    then
      rejected "delete_edge: %s is not a direct superclass of %s in the view"
        sup sub;
    let upper =
      Option.map
        (fun name ->
          let c = resolve view name in
          if not (Schema_graph.is_strict_ancestor graph ~anc:c ~desc:csup) then
            rejected "delete_edge: %s must be a superclass of %s" name sup;
          c)
        connected_to
    in
    apply_edge db (fun g ->
        Schema_graph.remove_edge g ~sup:csup ~sub:csub;
        match upper with
        | Some u ->
          if not (Schema_graph.is_ancestor_or_self g ~anc:u ~desc:csub) then
            Schema_graph.add_edge g ~sup:u ~sub:csub
        | None -> ());
    view
  | Change.Add_class { cls; connected_to } ->
    if View_schema.cid_of view cls <> None then
      rejected "add_class: %s already in view" cls;
    let supers =
      match connected_to with
      | None -> []
      | Some s -> [ resolve view s ]
    in
    let cid = Schema_graph.register_base graph ~name:cls ~props:[] ~supers in
    View_schema.add_class view ~as_name:cls graph cid
  | Change.Delete_class { cls } ->
    View_schema.remove_class view (resolve view cls)
  | Change.Rename_class { old_name; new_name } ->
    let cid = resolve view old_name in
    if View_schema.cid_of view new_name <> None then
      rejected "rename_class: %s already names a class in the view" new_name;
    View_schema.rename view cid new_name
  | Change.Partition_class _ | Change.Coalesce_classes _ ->
    (* the Section 9 extensions have no destructive counterpart in the
       ORION taxonomy; the oracle cannot express them *)
    rejected "direct oracle limitation: no destructive form of this change"
  | Change.Insert_class { cls; sup; sub } ->
    let view = apply db view (Change.Add_class { cls; connected_to = Some sup }) in
    apply db view (Change.Add_edge { sup = cls; sub })
  | Change.Delete_class_2 { cls } ->
    let cdel = resolve view cls in
    let edges = Generation.edges graph view in
    let subs = Generation.subs_of edges cdel in
    let sups = Generation.supers_of edges cdel in
    apply_edge db (fun g ->
        List.iter
          (fun sub ->
            Schema_graph.remove_edge g ~sup:cdel ~sub;
            List.iter
              (fun sup ->
                if not (Schema_graph.is_ancestor_or_self g ~anc:sup ~desc:sub)
                then Schema_graph.add_edge g ~sup ~sub)
              sups)
          subs;
        List.iter
          (fun sup -> Schema_graph.remove_edge g ~sup ~sub:cdel)
          (Schema_graph.supers g cdel));
    View_schema.remove_class view cdel
