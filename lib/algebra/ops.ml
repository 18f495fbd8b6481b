module Oid = Tse_store.Oid
module Prop = Tse_schema.Prop
module Expr = Tse_schema.Expr
module Klass = Tse_schema.Klass
module Schema_graph = Tse_schema.Schema_graph
module Type_info = Tse_schema.Type_info
module Database = Tse_db.Database
module Classification = Tse_classifier.Classification

type cid = Klass.cid

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let check_src db src =
  if not (Schema_graph.mem (Database.graph db) src) then
    error "unknown source class %s" (Oid.to_string src)

let check_name db name =
  match Schema_graph.find_by_name (Database.graph db) name with
  | Some _ -> error "class name %s already in use" name
  | None -> ()

let fp_derive = "evolve.derive"
let () = Tse_store.Failpoint.declare fp_derive

let register db ~name derivation props =
  check_name db name;
  let cid =
    Tse_obs.Trace.with_span ~attrs:[ ("class", name) ] "evolve.derive"
    @@ fun () ->
    Tse_store.Failpoint.hit fp_derive;
    Schema_graph.register_virtual (Database.graph db) ~name derivation props
  in
  Classification.integrate db cid

let check_select db ~src pred =
  check_src db src;
  let graph = Database.graph db in
  List.iter
    (fun attr ->
      if not (Type_info.has_prop graph src attr) then
        error "select predicate reads %s, undefined for %s" attr
          (Schema_graph.name_of graph src))
    (Expr.free_attrs pred);
  List.iter
    (fun cname ->
      if Schema_graph.find_by_name graph cname = None then
        error "select predicate references unknown class %s" cname)
    (Expr.referenced_classes pred)

let select db ~name ~src pred =
  check_select db ~src pred;
  register db ~name (Klass.Select (src, pred)) []

let hide db ~name ~props ~src =
  check_src db src;
  if props = [] then error "hide: empty property list";
  let graph = Database.graph db in
  List.iter
    (fun p ->
      if not (Type_info.has_prop graph src p) then
        error "hide: %s is not defined for %s" p (Schema_graph.name_of graph src))
    props;
  register db ~name (Klass.Hide (props, src)) []

let refine db ~name ~props ~src =
  check_src db src;
  if props = [] then error "refine: empty property list";
  let graph = Database.graph db in
  List.iter
    (fun (p : Prop.t) ->
      if Type_info.has_prop graph src p.name then
        error "refine: %s already defined for %s" p.name
          (Schema_graph.name_of graph src))
    props;
  let seen = Hashtbl.create 4 in
  List.iter
    (fun (p : Prop.t) ->
      if Hashtbl.mem seen p.Prop.name then
        error "refine: duplicate property %s" p.Prop.name
      else Hashtbl.add seen p.Prop.name ())
    props;
  register db ~name (Klass.Refine (props, src)) props

let refine_from db ~name ~src ~prop_name ~target =
  check_src db src;
  check_src db target;
  let graph = Database.graph db in
  (match Type_info.find_usable graph src prop_name with
  | Some _ -> ()
  | None ->
    error "refine_from: %s has no usable property %s"
      (Schema_graph.name_of graph src) prop_name);
  if Type_info.has_prop graph target prop_name then
    error "refine_from: %s already defined for %s" prop_name
      (Schema_graph.name_of graph target);
  register db ~name (Klass.Refine_from { src; prop_name; target }) []

let union db ~name a b =
  check_src db a;
  check_src db b;
  register db ~name (Klass.Union (a, b)) []

let intersect db ~name a b =
  check_src db a;
  check_src db b;
  register db ~name (Klass.Intersect (a, b)) []

let difference db ~name a b =
  check_src db a;
  check_src db b;
  register db ~name (Klass.Difference (a, b)) []

let primed_name db base =
  let graph = Database.graph db in
  let rec go candidate =
    if Schema_graph.find_by_name graph candidate = None then candidate
    else go (candidate ^ "'")
  in
  go (base ^ "'")

let fresh_name db base =
  let graph = Database.graph db in
  if Schema_graph.find_by_name graph base = None then base
  else
    let rec go i =
      let candidate = Printf.sprintf "%s$%d" base i in
      if Schema_graph.find_by_name graph candidate = None then candidate
      else go (i + 1)
    in
    go 2

type query =
  | Class of string
  | Select of query * Expr.t
  | Hide of string list * query
  | Refine of Prop.t list * query
  | Union of query * query
  | Intersect of query * query
  | Difference of query * query

let define_vc db ~name query =
  let rec eval ~name query =
    let sub base q = eval ~name:(fresh_name db (name ^ "$" ^ base)) q in
    match query with
    | Class cname -> begin
      match Schema_graph.find_by_name (Database.graph db) cname with
      | Some k -> k.Klass.cid
      | None -> error "defineVC: unknown class %s" cname
    end
    | Select (q, pred) -> select db ~name ~src:(sub "src" q) pred
    | Hide (props, q) -> hide db ~name ~props ~src:(sub "src" q)
    | Refine (props, q) -> refine db ~name ~props ~src:(sub "src" q)
    | Union (a, b) -> union db ~name (sub "l" a) (sub "r" b)
    | Intersect (a, b) -> intersect db ~name (sub "l" a) (sub "r" b)
    | Difference (a, b) -> difference db ~name (sub "l" a) (sub "r" b)
  in
  eval ~name query
