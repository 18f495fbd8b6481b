module Oid = Tse_store.Oid

type t = {
  attr_selects : (string, Oid.Set.t) Hashtbl.t;
  class_selects : Oid.Set.t Oid.Tbl.t;
}

let selects_on_attr t name =
  Option.value (Hashtbl.find_opt t.attr_selects name) ~default:Oid.Set.empty

let selects_on_class t cid =
  Option.value (Oid.Tbl.find_opt t.class_selects cid) ~default:Oid.Set.empty

(* A predicate reads a property by NAME; resolution may land on a stored
   slot or on a method whose body reads further properties. The schema
   does not say which definition an individual object resolves to, so the
   closure is conservative: a name is expanded through EVERY method body
   declared under it anywhere in the schema. *)
let method_bodies g name =
  Oid.Set.fold
    (fun cid acc ->
      match Klass.local_prop (Schema_graph.find_exn g cid) name with
      | Some { Prop.body = Prop.Method e; _ } -> e :: acc
      | Some _ | None -> acc)
    (Schema_graph.declarers g name)
    []

let compute g =
  let attr_selects = Hashtbl.create 32 in
  let class_selects = Oid.Tbl.create 32 in
  let add_attr name cid =
    Hashtbl.replace attr_selects name
      (Oid.Set.add cid
         (Option.value (Hashtbl.find_opt attr_selects name)
            ~default:Oid.Set.empty))
  in
  let add_class c cid =
    Oid.Tbl.replace class_selects c
      (Oid.Set.add cid
         (Option.value (Oid.Tbl.find_opt class_selects c)
            ~default:Oid.Set.empty))
  in
  (* free attrs and referenced class names of a predicate, closed through
     method bodies *)
  let closure pred =
    let attrs = ref [] in
    let cnames = ref (Expr.referenced_classes pred) in
    let seen = Hashtbl.create 8 in
    let rec visit name =
      if not (Hashtbl.mem seen name) then begin
        Hashtbl.add seen name ();
        attrs := name :: !attrs;
        List.iter
          (fun body ->
            cnames := Expr.referenced_classes body @ !cnames;
            List.iter visit (Expr.free_attrs body))
          (method_bodies g name)
      end
    in
    List.iter visit (Expr.free_attrs pred);
    (!attrs, List.sort_uniq String.compare !cnames)
  in
  List.iter
    (fun (k : Klass.t) ->
      match k.kind with
      | Klass.Virtual (Klass.Select (_, pred)) ->
        let attrs, cnames = closure pred in
        List.iter
          (fun a ->
            add_attr a k.cid;
            (* carrier rule: gaining/losing a class that locally defines
               a property the predicate reads changes what (and whether)
               that name resolves *)
            Oid.Set.iter
              (fun c -> add_class c k.cid)
              (Schema_graph.declarers g a))
          attrs;
        List.iter
          (fun cn ->
            match Schema_graph.find_by_name g cn with
            | Some kc -> add_class kc.Klass.cid k.cid
            | None -> () (* member_of on an unknown name is constantly false *))
          cnames
      | Klass.Base | Klass.Virtual _ -> ())
    (Schema_graph.classes g);
  { attr_selects; class_selects }
