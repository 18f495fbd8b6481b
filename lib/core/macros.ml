module Oid = Tse_store.Oid
module Prop = Tse_schema.Prop
module Klass = Tse_schema.Klass
module Schema_graph = Tse_schema.Schema_graph
module Type_info = Tse_schema.Type_info
module Database = Tse_db.Database
module View_schema = Tse_views.View_schema

type cid = Klass.cid

type t = {
  graph : Schema_graph.t;
  view : View_schema.t;
  sub : cid;
  sup_versions : Oid.Set.t;
  sub_versions : Oid.Set.t;
}

(* The class plus its principal-source chain: the thread along which the
   translator derives "the same view class, one version earlier". *)
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

let assume_deleted db view ~sup ~sub =
  let graph = Database.graph db in
  {
    graph;
    view;
    sub;
    sup_versions = version_lineage graph sup;
    sub_versions = version_lineage graph sub;
  }

let reaches h a b =
  let seen = ref Oid.Set.empty in
  let rec go c =
    Oid.equal c b
    || List.exists
         (fun d ->
           (not (Oid.Set.mem c h.sup_versions && Oid.Set.mem d h.sub_versions))
           && (not (Oid.Set.mem d !seen))
           &&
           (seen := Oid.Set.add d !seen;
            go d))
         (Schema_graph.subs h.graph c)
  in
  (not (Oid.equal a b)) && go a

(* the greatest elements: those no other one reaches *)
let greatest h cs =
  List.filter (fun d -> not (List.exists (fun d' -> reaches h d' d) cs)) cs

let below h v = List.filter (reaches h v) (View_schema.classes h.view)

let common_sub h v = greatest h (List.filter (reaches h h.sub) (below h v))

let restore_set h v =
  greatest h
    (List.filter (fun d -> not (Oid.Set.mem d h.sub_versions)) (below h v))

(* Uppermost providers within the view of the property identified by
   [uid]: view classes exposing it with no view member above them doing
   so. *)
let view_providers h ~name ~uid =
  let has c =
    match Type_info.find h.graph c name with
    | Some (Type_info.Single p) -> p.Prop.uid = uid
    | Some (Type_info.Conflict ps) ->
      List.exists (fun (p : Prop.t) -> p.Prop.uid = uid) ps
    | None -> false
  in
  let holders = List.filter has (View_schema.classes h.view) in
  List.filter
    (fun c ->
      not
        (List.exists
           (fun other -> Schema_graph.is_strict_ancestor h.graph ~anc:other ~desc:c)
           holders))
    holders

let find_properties h w =
  Type_info.full_type h.graph w
  |> List.filter_map (fun (name, entry) ->
         let candidates =
           match entry with
           | Type_info.Single p -> [ p ]
           | Type_info.Conflict ps -> ps
         in
         let survives (p : Prop.t) =
           match view_providers h ~name ~uid:p.Prop.uid with
           | [] -> true
           | providers ->
             List.exists (fun c -> Oid.equal c w || reaches h c w) providers
         in
         if List.exists survives candidates then None else Some name)

let origin_classes db cid =
  let g = Database.graph db in
  let seen = ref Oid.Set.empty in
  let bases = ref [] in
  let rec go cid =
    if not (Oid.Set.mem cid !seen) then begin
      seen := Oid.Set.add cid !seen;
      let k = Schema_graph.find_exn g cid in
      match Klass.sources k with
      | [] -> if not (List.exists (Oid.equal cid) !bases) then bases := cid :: !bases
      | sources -> List.iter go sources
    end
  in
  go cid;
  List.rev !bases
