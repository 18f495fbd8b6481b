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
    (View_schema.copy ctx.view)
    !(ctx.mapping)

let make_ctx db view =
  { db; view; edges = Generation.edges (Database.graph db) view; mapping = ref [] }

(* ------------------------------------------------------------------ *)
(* 6.1 / 6.3: add_attribute, add_method                                 *)
(* ------------------------------------------------------------------ *)

(* Shared skeleton: refine C with the new property, then propagate to the
   subclasses within the view via inheritance-refine, stopping where a
   local same-named property overrides (Section 6.1.2). *)
let add_property db view ~cls_name ~prop_name ~mk_prop =
  let ctx = make_ctx db view in
  let graph = Database.graph db in
  let cls = resolve view cls_name in
  let c' =
    Ops.refine db ~name:(Ops.primed_name db (Schema_graph.name_of graph cls))
      ~props:[ mk_prop () ] ~src:cls
  in
  map_add ctx ~old_cid:cls ~new_cid:c';
  let rec walk tmp =
    List.iter
      (fun sub ->
        if mapped ctx sub = None then
          if Type_info.has_prop graph sub prop_name then
            (* a same-named property is already visible here — locally
               defined or inherited along another path — and overrides:
               propagation stops (Section 6.1.2) *)
            ()
          else begin
            let sub' =
              Ops.refine_from db
                ~name:(Ops.primed_name db (Schema_graph.name_of graph sub))
                ~src:(map_or_id ctx tmp) ~prop_name ~target:sub
            in
            map_add ctx ~old_cid:sub ~new_cid:sub';
            walk sub
          end)
      (Generation.subs_of ctx.edges tmp)
  in
  walk cls;
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
  (* hide the property from cls and its view subclasses, stopping where a
     different local definition overrides it *)
  let rec walk tmp =
    List.iter
      (fun sub ->
        if mapped ctx sub = None then begin
          let k = Schema_graph.find_exn graph sub in
          let overriding =
            match Klass.local_prop k prop_name with
            | Some p -> Some p.Prop.uid <> deleted_uid
            | None -> false
          in
          if not overriding then begin
            let sub' =
              Ops.hide db
                ~name:(Ops.primed_name db (Schema_graph.name_of graph sub))
                ~props:[ prop_name ] ~src:sub
            in
            map_add ctx ~old_cid:sub ~new_cid:sub';
            walk sub
          end
        end)
      (Generation.subs_of ctx.edges tmp)
  in
  let cls' =
    Ops.hide db ~name:(Ops.primed_name db (Schema_graph.name_of graph cls))
      ~props:[ prop_name ] ~src:cls
  in
  map_add ctx ~old_cid:cls ~new_cid:cls';
  walk cls;
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
  let rec walk_subs tmp =
    List.iter
      (fun sub ->
        if mapped ctx sub = None then begin
          let sub' = refine_with sub in
          map_add ctx ~old_cid:sub ~new_cid:sub';
          walk_subs sub
        end)
      (Generation.subs_of ctx.edges tmp)
  in
  let csub' = refine_with csub in
  map_add ctx ~old_cid:csub ~new_cid:csub';
  walk_subs csub;
  (* phase 2: the extent of C_sub flows into C_sup and its superclasses
     (top-down so each union classifies beneath the previous one) *)
  let super_chain =
    let ancs =
      Oid.Set.inter (Schema_graph.ancestors graph csup) (View_schema.class_set view)
    in
    let in_order =
      List.filter (fun c -> Oid.Set.mem c ancs) (Schema_graph.topo_order graph)
    in
    in_order @ [ csup ]
  in
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
    super_chain;
  stitch ctx;
  (* the new is-a relationship itself *)
  let new_sup = map_or_id ctx csup and new_sub = map_or_id ctx csub in
  if not (Schema_graph.is_ancestor_or_self graph ~anc:new_sup ~desc:new_sub) then
    Schema_graph.add_edge graph ~sup:new_sup ~sub:new_sub;
  finish ctx

(* ------------------------------------------------------------------ *)
(* 6.6: delete_edge                                                     *)
(* ------------------------------------------------------------------ *)

(* The class plus its principal-source chain: Select/Hide/Refine follow
   their source, Refine_from its target, and the binary operators their
   first operand — the thread along which the translator derives "the same
   view class, one version earlier". *)
let version_lineage graph cid =
  let rec go acc c =
    let acc = Oid.Set.add c acc in
    match (Schema_graph.find_exn graph c).Klass.kind with
    | Klass.Base -> acc
    | Klass.Virtual d ->
      let next =
        match d with
        | Klass.Select (s, _) | Klass.Hide (_, s) | Klass.Refine (_, s) -> s
        | Klass.Refine_from { target; _ } -> target
        | Klass.Union (a, _) | Klass.Intersect (a, _) | Klass.Difference (a, _)
          -> a
      in
      if Oid.Set.mem next acc then acc else go acc next
  in
  go Oid.Set.empty cid

(* Global descendant reachability that avoids the deleted edge — the
   "assuming the edge has been deleted" hypothetical of Section 6.6. It
   must run on the global graph, not on the generated view hierarchy:
   transitive reduction erases the redundant-but-vital direct edges of
   Figure 11's diamond. An edge (x, y) is treated as deleted when x is a
   version of the edge's superclass end and y a version of its subclass
   end: such an edge is the deleted relationship itself, possibly wearing
   an older name. Every other path — through another view class, or
   through an unrelated global class outside the view — is a different
   is-a relationship and stays open; the previous whole-source-lineage
   exclusion wrongly closed those alternate routes, which is what the
   Proposition B replays pinned. *)
let reaches_avoiding graph ~esup ~esub ~blocked ~sub_versions a b =
  let seen = ref Oid.Set.empty in
  let rec go c =
    Oid.equal c b
    || List.exists
         (fun d ->
           (not (Oid.equal c esup && Oid.equal d esub))
           && (not (Oid.Set.mem d !seen))
           && (not (Oid.Set.mem d sub_versions && Oid.Set.mem c blocked))
           &&
           (seen := Oid.Set.add d !seen;
            go d))
         (Schema_graph.subs graph c)
  in
  (not (Oid.equal a b)) && go a

(* The avoiding-reachability test for the deletion of view edge
   (esup, esub), with the blocked version sets precomputed. *)
let deleted_edge_avoiding graph ~esup ~esub =
  let sub_versions = version_lineage graph esub in
  let blocked = version_lineage graph esup in
  reaches_avoiding graph ~esup ~esub ~blocked ~sub_versions

(* Uppermost providers within the view of the property identified by
   [uid]: view classes exposing it with no view member above them doing
   so. *)
let view_providers graph view ~name ~uid =
  let has c =
    match Type_info.find graph c name with
    | Some (Type_info.Single p) -> p.Prop.uid = uid
    | Some (Type_info.Conflict ps) ->
      List.exists (fun (p : Prop.t) -> p.Prop.uid = uid) ps
    | None -> false
  in
  List.filter
    (fun c ->
      has c
      && not
           (List.exists
              (fun other ->
                (not (Oid.equal other c))
                && has other
                && Schema_graph.is_strict_ancestor graph ~anc:other ~desc:c)
              (View_schema.classes view)))
    (View_schema.classes view)

(* findProperties: the properties [w] inherits only through the deleted
   edge — no uppermost provider still reaches [w] once the edge is gone. *)
let view_find_properties db view ~esup ~esub w =
  let graph = Database.graph db in
  let avoiding = deleted_edge_avoiding graph ~esup ~esub in
  Type_info.full_type graph w
  |> List.filter_map (fun (name, entry) ->
         let candidates =
           match entry with
           | Type_info.Single p -> [ p ]
           | Type_info.Conflict ps -> ps
         in
         let survives (p : Prop.t) =
           let providers = view_providers graph view ~name ~uid:p.Prop.uid in
           List.exists (fun c -> Oid.equal c w || avoiding c w) providers
           (* a property with no in-view provider comes from outside the
              view (or is local): it cannot be lost by the edge *)
           || providers = []
         in
         if List.exists survives candidates then None else Some name)

let delete_edge db view ~sup_name ~sub_name ~connected_to =
  let ctx = make_ctx db view in
  let graph = Database.graph db in
  let csup = resolve view sup_name and csub = resolve view sub_name in
  let upper = Option.map (resolve view) connected_to in
  (* phase A: superclasses of C_sup lose C_sub's instances, except those
     still visible through other paths (the commonSub correction) *)
  let avoiding = deleted_edge_avoiding graph ~esup:csup ~esub:csub in
  (* the reattachment class and its ancestors get C_sub back through the
     new edge, so they keep its instances *)
  let reattached v =
    match upper with
    | Some u -> Schema_graph.is_ancestor_or_self graph ~anc:v ~desc:u
    | None -> false
  in
  let still_super_without_edge v = avoiding v csub || reattached v in
  let common_sub_view v =
    let commons =
      List.filter
        (fun d -> avoiding v d && avoiding csub d)
        (View_schema.classes view)
    in
    List.filter
      (fun d ->
        not
          (List.exists
             (fun d' -> (not (Oid.equal d d')) && avoiding d' d)
             commons))
      commons
  in
  let super_chain =
    let ancs =
      Oid.Set.inter (Schema_graph.ancestors graph csup) (View_schema.class_set view)
    in
    let in_order =
      List.filter (fun c -> Oid.Set.mem c ancs) (Schema_graph.topo_order graph)
    in
    in_order @ [ csup ]
  in
  List.iter
    (fun v ->
      if not (still_super_without_edge v) then begin
        let vname = Schema_graph.name_of graph v in
        let still_visible = common_sub_view v in
        let d = Ops.difference db ~name:(Ops.fresh_name db (vname ^ "$diff")) v csub in
        let v' =
          match still_visible with
          | [] ->
            (* nothing to restore: v' is just the difference, under v's
               primed name *)
            Schema_graph.rename graph d (Ops.primed_name db vname);
            d
          | xs ->
            let x =
              List.fold_left
                (fun acc c ->
                  Ops.union db ~name:(Ops.fresh_name db (vname ^ "$x")) acc c)
                (List.hd xs) (List.tl xs)
            in
            Ops.union db ~name:(Ops.primed_name db vname) d x
        in
        map_add ctx ~old_cid:v ~new_cid:v'
      end)
    super_chain;
  (* phase B: subclasses of C_sub lose the properties inherited only
     through the deleted edge *)
  let subs_chain = Generation.descendants_in_view graph view csub in
  List.iter
    (fun w ->
      let y = view_find_properties db view ~esup:csup ~esub:csub w in
      if y <> [] then begin
        let w' =
          Ops.hide db ~name:(Ops.primed_name db (Schema_graph.name_of graph w))
            ~props:y ~src:w
        in
        map_add ctx ~old_cid:w ~new_cid:w'
      end)
    subs_chain;
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
  let view' = View_schema.copy view in
  View_schema.add_class view' ~as_name:cls_name graph cadd;
  view'

(* ------------------------------------------------------------------ *)
(* 6.8 / 6.9: delete_class, insert_class, delete_class_2                *)
(* ------------------------------------------------------------------ *)

let delete_class _db view ~cls_name =
  let cid = resolve view cls_name in
  let view' = View_schema.copy view in
  View_schema.remove_class view' cid;
  view'

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
    let cid = resolve view old_name in
    let view' = View_schema.copy view in
    View_schema.rename view' cid new_name;
    view'
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
    let view' = View_schema.copy view in
    View_schema.add_class view' ~as_name:into_true graph ctrue;
    View_schema.add_class view' ~as_name:into_false graph cfalse;
    view'
  | Change.Coalesce_classes { a; b; as_name } ->
    let graph = Database.graph db in
    let ca = resolve view a and cb = resolve view b in
    let fused =
      try Ops.union db ~name:(Ops.fresh_name db as_name) ca cb
      with Ops.Error m -> rejected "coalesce_classes: %s" m
    in
    let view' = View_schema.copy view in
    View_schema.remove_class view' ca;
    View_schema.remove_class view' cb;
    View_schema.add_class view' ~as_name graph fused;
    view'
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
