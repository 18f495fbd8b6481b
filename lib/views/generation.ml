module Oid = Tse_store.Oid
module Schema_graph = Tse_schema.Schema_graph

type cid = Tse_schema.Klass.cid

let edges graph view =
  let members = View_schema.classes view in
  let set = View_schema.class_set view in
  List.concat_map
    (fun sub ->
      (* global strict ancestors of [sub] inside the view *)
      let ancs = Oid.Set.inter (Schema_graph.ancestors graph sub) set in
      (* keep only the minimal ones: a view ancestor that is itself an
         ancestor of another has a view class in between *)
      let above =
        Oid.Set.fold
          (fun mid acc -> Oid.Set.union (Schema_graph.ancestors graph mid) acc)
          ancs Oid.Set.empty
      in
      Oid.Set.elements (Oid.Set.diff ancs above)
      |> List.map (fun sup -> (sup, sub)))
    members

let supers_of edges cid =
  List.filter_map
    (fun (sup, sub) -> if Oid.equal sub cid then Some sup else None)
    edges

let subs_of edges cid =
  List.filter_map
    (fun (sup, sub) -> if Oid.equal sup cid then Some sub else None)
    edges

let roots graph view =
  let edges = edges graph view in
  List.filter (fun cid -> supers_of edges cid = []) (View_schema.classes view)

let descendants_in_view graph view cid =
  let set = View_schema.class_set view in
  Schema_graph.subclasses_within graph cid ~in_set:set

let edges_signature graph view =
  let name cid =
    match View_schema.local_name view cid with
    | Some n -> n
    | None -> Schema_graph.name_of graph cid
  in
  edges graph view
  |> List.map (fun (sup, sub) -> Printf.sprintf "%s>%s" (name sup) (name sub))
  |> List.sort String.compare
  |> String.concat ";"

let pp graph ppf view =
  Format.fprintf ppf "@[<v 2>view %s (v%d):@ " view.View_schema.view_name
    view.View_schema.version;
  let name cid =
    match View_schema.local_name view cid with
    | Some n -> n
    | None -> Schema_graph.name_of graph cid
  in
  let edges = edges graph view in
  List.iter
    (fun cid ->
      let supers = supers_of edges cid in
      Format.fprintf ppf "%s <- {%s}@ " (name cid)
        (String.concat ", " (List.map name supers)))
    (View_schema.classes view);
  Format.fprintf ppf "@]"
