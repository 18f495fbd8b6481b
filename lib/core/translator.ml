module Oid = Tse_store.Oid
module Value = Tse_store.Value
module Prop = Tse_schema.Prop
module Klass = Tse_schema.Klass
module Expr = Tse_schema.Expr
module Schema_graph = Tse_schema.Schema_graph
module Type_info = Tse_schema.Type_info
module Database = Tse_db.Database
module Ops = Tse_algebra.Ops
module View_schema = Tse_views.View_schema
module Generation = Tse_views.Generation

type cid = Klass.cid

let rejected fmt = Format.kasprintf (fun s -> raise (Change.Rejected s)) fmt

let resolve view name =
  match View_schema.cid_of view name with
  | Some cid -> cid
  | None -> rejected "class %s is not in view %s" name view.View_schema.view_name

(* ------------------------------------------------------------------ *)
(* Mapping old view classes to their primed replacements               *)
(* ------------------------------------------------------------------ *)

type ctx = {
  db : Database.t;
  view : View_schema.t;
  (* the old view's generated hierarchy: by Proposition B no change
     alters it, so it is computed once, before the first class is added *)
  edges : (cid * cid) list;
  mapping : (cid * cid) list ref;  (* old -> new, insertion ordered *)
}

let map_add ctx ~old_cid ~new_cid =
  ctx.mapping := !(ctx.mapping) @ [ (old_cid, new_cid) ]

let mapped ctx cid =
  List.find_map
    (fun (o, n) -> if Oid.equal o cid then Some n else None)
    !(ctx.mapping)

let map_or_id ctx cid = Option.value (mapped ctx cid) ~default:cid

(* Replacement is-a edges between primed classes: mirror every old view
   edge whose endpoints changed, so that the generated view hierarchy of
   the new view equals the old one (Proposition A's E'' = E). The deleted
   edge, when the change is delete_edge, is excluded by the caller. *)
let stitch ?(except = []) ctx =
  let graph = Database.graph ctx.db in
  List.iter
    (fun (sup, sub) ->
      let skip =
        List.exists
          (fun (s, b) -> Oid.equal s sup && Oid.equal b sub)
          except
      in
      if not skip then begin
        let sup' = map_or_id ctx sup and sub' = map_or_id ctx sub in
        if
          (not (Oid.equal sup' sup) || not (Oid.equal sub' sub))
          && (not (Schema_graph.is_ancestor_or_self graph ~anc:sup' ~desc:sub'))
          && not (Schema_graph.is_ancestor_or_self graph ~anc:sub' ~desc:sup')
        then Schema_graph.add_edge graph ~sup:sup' ~sub:sub'
      end)
    ctx.edges

(* The replacement view: every mapped class substituted (keeping its
   view-local name — the renaming step of Section 6.1.3). *)
let finish ctx =
  List.fold_left
    (fun view (old_cid, new_cid) ->
      View_schema.substitute view ~old_cid ~new_cid)
    ctx.view !(ctx.mapping)

let make_ctx db view =
  { db; view; edges = Generation.edges (Database.graph db) view; mapping = ref [] }

(* The propagation walk of Sections 6.1-6.5: the view subclasses below
   [root], depth first in the old hierarchy, each class once. [root] is
   replaced by [root']; [build ~tmp sub] makes the new class for [sub],
   reached from [tmp], or answers [None] to stop the walk there. *)
let propagate ctx ~root ~root' build =
  map_add ctx ~old_cid:root ~new_cid:root';
  let rec walk tmp =
    List.iter
      (fun sub ->
        if mapped ctx sub = None then
          match build ~tmp sub with
          | Some sub' ->
            map_add ctx ~old_cid:sub ~new_cid:sub';
            walk sub
          | None -> ())
      (Generation.subs_of ctx.edges tmp)
  in
  walk root

(* C_sup's view ancestors in topological order, then C_sup: the classes
   whose extents the added or deleted edge feeds (Sections 6.5, 6.6). *)
let super_chain ctx csup =
  let graph = Database.graph ctx.db in
  let ancs =
    Oid.Set.inter (Schema_graph.ancestors graph csup) (View_schema.class_set ctx.view)
  in
  List.filter (fun c -> Oid.Set.mem c ancs) (Schema_graph.topo_order graph) @ [ csup ]

(* ------------------------------------------------------------------ *)
(* 6.1 / 6.3: add_attribute, add_method                                 *)
(* ------------------------------------------------------------------ *)

(* Refine C with the new property, then propagate to the subclasses
   within the view via inheritance-refine, stopping where a same-named
   property is already visible (Section 6.1.2). *)
let add_property db view ~cls_name ~prop_name ~mk_prop =
  let ctx = make_ctx db view in
  let graph = Database.graph db in
  let cls = resolve view cls_name in
  let c' =
    Ops.refine db ~name:(Ops.primed_name db (Schema_graph.name_of graph cls))
      ~props:[ mk_prop () ] ~src:cls
  in
  propagate ctx ~root:cls ~root':c' (fun ~tmp sub ->
      (* a same-named property visible here, locally defined or inherited
         along another path, overrides *)
      if Type_info.has_prop graph sub prop_name then None
      else
        Some
          (Ops.refine_from db
             ~name:(Ops.primed_name db (Schema_graph.name_of graph sub))
             ~src:(map_or_id ctx tmp) ~prop_name ~target:sub));
  stitch ctx;
  finish ctx

(* ------------------------------------------------------------------ *)
(* 6.2 / 6.4: delete_attribute, delete_method                           *)
(* ------------------------------------------------------------------ *)

let delete_property db view ~cls_name ~prop_name =
  let ctx = make_ctx db view in
  let graph = Database.graph db in
  let cls = resolve view cls_name in
  (* the property identity being deleted at [cls] *)
  let deleted_uid =
    match Type_info.find graph cls prop_name with
    | Some (Type_info.Single p) -> Some p.Prop.uid
    | Some (Type_info.Conflict _) | None -> None
  in
  (* a suppressed same-named attribute to restore afterwards *)
  let suppressed = Type_info.inherited_candidates graph cls prop_name in
  let suppressed =
    List.filter
      (fun (p : Prop.t) -> Some p.uid <> deleted_uid)
      suppressed
  in
  let hide c =
    Ops.hide db ~name:(Ops.primed_name db (Schema_graph.name_of graph c))
      ~props:[ prop_name ] ~src:c
  in
  (* hide the property from cls and its view subclasses, stopping where a
     different local definition overrides it *)
  propagate ctx ~root:cls ~root':(hide cls) (fun ~tmp:_ sub ->
      match Klass.local_prop (Schema_graph.find_exn graph sub) prop_name with
      | Some p when Some p.Prop.uid <> deleted_uid -> None
      | Some _ | None -> Some (hide sub));
  (* restore the suppressed attribute, if any (Section 6.2.2) *)
  (match suppressed with
  | [] -> ()
  | p :: _ ->
    let super_c = p.Prop.origin in
    ctx.mapping :=
      List.map
        (fun (old_cid, hidden_cid) ->
          let restored =
            Ops.refine_from db
              ~name:(Ops.primed_name db (Schema_graph.name_of graph old_cid))
              ~src:super_c ~prop_name ~target:hidden_cid
          in
          (old_cid, restored))
        !(ctx.mapping));
  stitch ctx;
  finish ctx

(* ------------------------------------------------------------------ *)
(* 6.5: add_edge                                                        *)
(* ------------------------------------------------------------------ *)

let add_edge db view ~sup_name ~sub_name =
  let ctx = make_ctx db view in
  let graph = Database.graph db in
  let csup = resolve view sup_name and csub = resolve view sub_name in
  let sup_props = Tse_classifier.Classification.intended_type db (Klass.Hide ([], csup)) in
  (* phase 1: the new subclass side inherits C_sup's properties; same-named
     local properties override (footnote 15) *)
  let refine_with w =
    let props =
      List.filter
        (fun (p : Prop.t) ->
          match Type_info.find graph w p.name with
          | Some _ -> false (* overriding: not added *)
          | None -> true)
        sup_props
    in
    if props = [] then
      (* nothing to inherit: still prime the class so extent bookkeeping
         and renaming stay uniform — an empty refine is just the identity,
         realized as select-true to keep the derivation well-formed *)
      Ops.select db ~name:(Ops.primed_name db (Schema_graph.name_of graph w))
        ~src:w (Expr.bool true)
    else
      Ops.refine db ~name:(Ops.primed_name db (Schema_graph.name_of graph w))
        ~props ~src:w
  in
  propagate ctx ~root:csub ~root':(refine_with csub) (fun ~tmp:_ sub ->
      Some (refine_with sub));
  (* phase 2: the extent of C_sub flows into C_sup and its superclasses
     (top-down so each union classifies beneath the previous one) *)
  List.iter
    (fun v ->
      if not (Schema_graph.is_strict_ancestor graph ~anc:v ~desc:csub) then begin
        let v' =
          Ops.union db ~name:(Ops.primed_name db (Schema_graph.name_of graph v))
            v
            (map_or_id ctx csub)
        in
        map_add ctx ~old_cid:v ~new_cid:v'
      end)
    (super_chain ctx csup);
  stitch ctx;
  (* the new is-a relationship itself *)
  let new_sup = map_or_id ctx csup and new_sub = map_or_id ctx csub in
  if not (Schema_graph.is_ancestor_or_self graph ~anc:new_sup ~desc:new_sub) then
    Schema_graph.add_edge graph ~sup:new_sup ~sub:new_sub;
  finish ctx

(* ------------------------------------------------------------------ *)
(* 6.6: delete_edge                                                     *)
(* ------------------------------------------------------------------ *)

let delete_edge db view ~sup_name ~sub_name ~connected_to =
  let ctx = make_ctx db view in
  let graph = Database.graph db in
  let csup = resolve view sup_name and csub = resolve view sub_name in
  let upper = Option.map (resolve view) connected_to in
  let deleted = Macros.assume_deleted db view ~sup:csup ~sub:csub in
  (* phase A: C_sup and its view ancestors, bottom-up, lose C_sub's
     instances except those a view class still below them keeps
     ([Macros.restore_set]). A class that still reaches C_sub, or that
     gets it back through the reattachment edge, keeps them all. *)
  let keeps_sub v =
    Macros.reaches deleted v csub
    ||
    match upper with
    | Some u -> Schema_graph.is_ancestor_or_self graph ~anc:v ~desc:u
    | None -> false
  in
  List.iter
    (fun v ->
      if not (keeps_sub v) then begin
        let vname = Schema_graph.name_of graph v in
        let restore d =
          if Macros.reaches deleted csub d then d
          else
            Ops.intersect db ~name:(Ops.fresh_name db (vname ^ "$x"))
              (map_or_id ctx d) csub
        in
        let kept = Macros.restore_set deleted v in
        let d = Ops.difference db ~name:(Ops.fresh_name db (vname ^ "$diff")) v csub in
        let v' =
          match List.map restore kept with
          | [] ->
            (* nothing to restore: v' is just the difference, under v's
               primed name *)
            Schema_graph.rename graph d (Ops.primed_name db vname);
            d
          | x :: xs ->
            let x =
              List.fold_left
                (fun acc c ->
                  Ops.union db ~name:(Ops.fresh_name db (vname ^ "$x")) acc c)
                x xs
            in
            Ops.union db ~name:(Ops.primed_name db vname) d x
        in
        map_add ctx ~old_cid:v ~new_cid:v'
      end)
    (List.rev (super_chain ctx csup));
  (* phase B: subclasses of C_sub lose the properties inherited only
     through the deleted edge *)
  List.iter
    (fun w ->
      match Macros.find_properties deleted w with
      | [] -> ()
      | y ->
        let w' =
          Ops.hide db ~name:(Ops.primed_name db (Schema_graph.name_of graph w))
            ~props:y ~src:w
        in
        map_add ctx ~old_cid:w ~new_cid:w')
    (Generation.descendants_in_view graph view csub);
  stitch ctx ~except:[ (csup, csub) ];
  (* reattachment when C_sub would be left disconnected in the view *)
  (match upper with
  | Some u ->
    let u' = map_or_id ctx u and sub' = map_or_id ctx csub in
    if not (Schema_graph.is_ancestor_or_self graph ~anc:u' ~desc:sub') then
      Schema_graph.add_edge graph ~sup:u' ~sub:sub'
  | None -> ());
  finish ctx

(* ------------------------------------------------------------------ *)
(* 6.7: add_class                                                       *)
(* ------------------------------------------------------------------ *)

(* Replay the derivation chain of [cid], substituting each origin base
   class with its fresh empty subclass (Figure 13 (e)). *)
let rec replay db ~subst ~basename cid =
  let graph = Database.graph db in
  let k = Schema_graph.find_exn graph cid in
  match k.kind with
  | Klass.Base -> begin
    match List.assoc_opt (Oid.to_int cid) subst with
    | Some c -> c
    | None -> rejected "add_class: origin %s not substituted" k.name
  end
  | Klass.Virtual d ->
    let sub c = replay db ~subst ~basename c in
    (* the name must be drawn after the sources are replayed, or nested
       replays would race for the same fresh name *)
    let fresh () = Ops.fresh_name db basename in
    (match d with
    | Klass.Select (c, pred) ->
      let src = sub c in
      Ops.select db ~name:(fresh ()) ~src pred
    | Klass.Hide (ps, c) -> (
      let src = sub c in
      (* the original source may show a property only through an is-a
         edge that the replayed source lacks; that one needs no hiding *)
      match List.filter (Type_info.has_prop graph src) ps with
      | [] -> src
      | ps -> Ops.hide db ~name:(fresh ()) ~props:ps ~src)
    | Klass.Refine (props, c) ->
      let src = sub c in
      Ops.refine db ~name:(fresh ()) ~props ~src
    | Klass.Refine_from { src; prop_name; target } ->
      let src = sub src in
      let target = sub target in
      Ops.refine_from db ~name:(fresh ()) ~src ~prop_name ~target
    | Klass.Union (a, b) ->
      let a = sub a and b = sub b in
      Ops.union db ~name:(fresh ()) a b
    | Klass.Intersect (a, b) ->
      let a = sub a and b = sub b in
      Ops.intersect db ~name:(fresh ()) a b
    | Klass.Difference (a, b) ->
      let a = sub a and b = sub b in
      Ops.difference db ~name:(fresh ()) a b)

let add_class db view ~cls_name ~connected_to =
  let graph = Database.graph db in
  let global_name = Ops.fresh_name db cls_name in
  let cadd =
    match connected_to with
    | None ->
      (* no anchor: a fresh empty base class under the root *)
      Schema_graph.register_base graph ~name:global_name ~props:[] ~supers:[]
    | Some sup_name ->
      let csup = resolve view sup_name in
      let origins = Macros.origin_classes db csup in
      let subst =
        List.map
          (fun origin ->
            ( Oid.to_int origin,
              Schema_graph.register_base graph
                ~name:(Ops.fresh_name db (cls_name ^ "$x"))
                ~props:[] ~supers:[ origin ] ))
          origins
      in
      let cadd =
        match Schema_graph.find_exn graph csup with
        | { Klass.kind = Klass.Base; _ } ->
          (* base anchor: the substituted class itself is the new class *)
          let x = List.assoc (Oid.to_int csup) subst in
          Schema_graph.rename graph x global_name;
          x
        | _ ->
          let c = replay db ~subst ~basename:(cls_name ^ "$r") csup in
          Schema_graph.rename graph c global_name;
          c
      in
      (* guaranteed subclass (Section 6.7.3): make the view edge real *)
      if not (Schema_graph.is_ancestor_or_self graph ~anc:csup ~desc:cadd) then
        Schema_graph.add_edge graph ~sup:csup ~sub:cadd;
      cadd
  in
  View_schema.add_class view ~as_name:cls_name graph cadd

(* ------------------------------------------------------------------ *)
(* 6.8 / 6.9: delete_class, insert_class, delete_class_2                *)
(* ------------------------------------------------------------------ *)

let delete_class _db view ~cls_name =
  View_schema.remove_class view (resolve view cls_name)

(* ------------------------------------------------------------------ *)
(* Preconditions                                                        *)
(* ------------------------------------------------------------------ *)

let not_in_view view what name =
  if View_schema.cid_of view name <> None then
    rejected "%s: %s already in view" what name

let check_deletable graph view ~cls ~prop_name ~want_stored =
  let cid = resolve view cls in
  (match Type_info.find graph cid prop_name with
  | None -> rejected "%s is not defined for %s" prop_name cls
  | Some (Type_info.Conflict _) -> ()
  | Some (Type_info.Single p) ->
    if want_stored && not (Prop.is_stored p) then
      rejected "%s is a method; use delete_method" prop_name;
    if (not want_stored) && Prop.is_stored p then
      rejected "%s is an attribute; use delete_attribute" prop_name);
  (* only local properties may be deleted (full-inheritance invariant) —
     where "local" is either a genuinely local (possibly overriding)
     definition, or view-relative local: the class is the uppermost one in
     the view exposing the property (Section 6.2.1) *)
  if
    (not (Klass.has_local_prop (Schema_graph.find_exn graph cid) prop_name))
    && not
         (Type_info.is_uppermost_in graph ~view:(View_schema.class_set view)
            cid prop_name)
  then
    rejected "%s is inherited within the view; delete it at its uppermost class"
      prop_name

(* Every check a change can fail before the translator touches anything
   (Section 6's semantics subsections). Reads the schema and the view
   only, so a caller may run it ahead of logging the change. *)
let rec validate db view change =
  let graph = Database.graph db in
  match change with
  | Change.Add_attribute { cls; def = { attr_name = prop_name; _ } }
  | Change.Add_method { cls; method_name = prop_name; _ } ->
    if Type_info.has_prop graph (resolve view cls) prop_name then
      rejected "%s already defined for %s" prop_name cls
  | Change.Delete_attribute { cls; attr_name } ->
    check_deletable graph view ~cls ~prop_name:attr_name ~want_stored:true
  | Change.Delete_method { cls; method_name } ->
    check_deletable graph view ~cls ~prop_name:method_name ~want_stored:false
  | Change.Add_edge { sup; sub } ->
    let csup = resolve view sup and csub = resolve view sub in
    if Oid.equal csup csub then rejected "add_edge: %s-%s is a self edge" sup sub;
    if Schema_graph.is_strict_ancestor graph ~anc:csup ~desc:csub then
      rejected "add_edge: %s is already a superclass of %s" sup sub;
    if Schema_graph.is_strict_ancestor graph ~anc:csub ~desc:csup then
      rejected "add_edge: %s-%s would create a cycle" sup sub
  | Change.Delete_edge { sup; sub; connected_to } ->
    let csup = resolve view sup and csub = resolve view sub in
    if
      not
        (List.exists
           (fun (s, b) -> Oid.equal s csup && Oid.equal b csub)
           (Generation.edges graph view))
    then
      rejected "delete_edge: %s is not a direct superclass of %s in the view"
        sup sub;
    Option.iter
      (fun name ->
        if
          not
            (Schema_graph.is_strict_ancestor graph ~anc:(resolve view name)
               ~desc:csup)
        then rejected "delete_edge: %s must be a superclass of %s" name sup)
      connected_to
  | Change.Add_class { cls; connected_to } ->
    not_in_view view "add_class" cls;
    Option.iter (fun sup -> ignore (resolve view sup)) connected_to
  | Change.Delete_class { cls } | Change.Delete_class_2 { cls } ->
    ignore (resolve view cls)
  | Change.Rename_class { old_name; new_name } ->
    ignore (resolve view old_name);
    if View_schema.cid_of view new_name <> None then
      rejected "rename_class: %s already names a class in the view" new_name
  | Change.Partition_class { cls; predicate; into_true; into_false } ->
    let cid = resolve view cls in
    List.iter (not_in_view view "partition_class") [ into_true; into_false ];
    (try Ops.check_select db ~src:cid predicate
     with Ops.Error m -> rejected "partition_class: %s" m)
  | Change.Coalesce_classes { a; b; as_name } -> (
    let ca = resolve view a and cb = resolve view b in
    if Oid.equal ca cb then rejected "coalesce_classes: same class";
    match View_schema.cid_of view as_name with
    | Some c when not (Oid.equal c ca || Oid.equal c cb) ->
      rejected "coalesce_classes: %s already in view" as_name
    | Some _ | None -> ())
  | Change.Insert_class { cls; sup; sub } ->
    let csup = resolve view sup in
    let csub = resolve view sub in
    validate db view (Change.Add_class { cls; connected_to = Some sup });
    (* the class add_class creates lies strictly below [sup], so the
       add_edge step would find [sub] above it *)
    if Schema_graph.is_ancestor_or_self graph ~anc:csub ~desc:csup then
      rejected "add_edge: %s-%s would create a cycle" cls sub

let rec apply db view change =
  validate db view change;
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
  | Change.Add_edge { sup; sub } -> add_edge db view ~sup_name:sup ~sub_name:sub
  | Change.Delete_edge { sup; sub; connected_to } ->
    delete_edge db view ~sup_name:sup ~sub_name:sub ~connected_to
  | Change.Add_class { cls; connected_to } ->
    add_class db view ~cls_name:cls ~connected_to
  | Change.Delete_class { cls } -> delete_class db view ~cls_name:cls
  | Change.Rename_class { old_name; new_name } ->
    View_schema.rename view (resolve view old_name) new_name
  | Change.Partition_class { cls; predicate; into_true; into_false } ->
    (* Section 9 extension, object-preserving form: the partitions are two
       complementary select classes below the original *)
    let graph = Database.graph db in
    let cid = resolve view cls in
    let ctrue =
      Ops.select db ~name:(Ops.fresh_name db into_true) ~src:cid predicate
    in
    let cfalse =
      Ops.select db
        ~name:(Ops.fresh_name db into_false)
        ~src:cid (Expr.Not predicate)
    in
    View_schema.add_class
      (View_schema.add_class view ~as_name:into_true graph ctrue)
      ~as_name:into_false graph cfalse
  | Change.Coalesce_classes { a; b; as_name } ->
    let graph = Database.graph db in
    let ca = resolve view a and cb = resolve view b in
    let fused =
      try Ops.union db ~name:(Ops.fresh_name db as_name) ca cb
      with Ops.Error m -> rejected "coalesce_classes: %s" m
    in
    View_schema.add_class
      (View_schema.remove_class (View_schema.remove_class view ca) cb)
      ~as_name graph fused
  | Change.Insert_class { cls; sup; sub } ->
    (* Section 6.9.1: add_class + add_edge *)
    let view = apply db view (Change.Add_class { cls; connected_to = Some sup }) in
    apply db view (Change.Add_edge { sup = cls; sub })
  | Change.Delete_class_2 { cls } ->
    (* Section 6.9.2: rewire every subclass to the superclasses, then cut
       the class loose and drop it from the view *)
    let graph = Database.graph db in
    let cdel = resolve view cls in
    let edges = Generation.edges graph view in
    let subs = Generation.subs_of edges cdel in
    let sups = Generation.supers_of edges cdel in
    let name_of_in v c =
      match View_schema.local_name v c with
      | Some n -> n
      | None -> Schema_graph.name_of graph c
    in
    let view =
      List.fold_left
        (fun view sub ->
          let sub_name = name_of_in view sub in
          let view =
            apply db view
              (Change.Delete_edge
                 { sup = cls; sub = sub_name; connected_to = None })
          in
          List.fold_left
            (fun view sup ->
              let sup_name = name_of_in view sup in
              try
                apply db view (Change.Add_edge { sup = sup_name; sub = sub_name })
              with Change.Rejected _ -> view (* already a superclass *))
            view sups)
        view subs
    in
    (* finally cut the class loose from its own superclasses: its local
       extent becomes invisible to them (Section 6.9.2) *)
    let view =
      List.fold_left
        (fun view sup ->
          let sup_name = name_of_in view sup in
          try
            apply db view
              (Change.Delete_edge
                 { sup = sup_name; sub = cls; connected_to = None })
          with Change.Rejected _ -> view)
        view sups
    in
    apply db view (Change.Delete_class { cls })
