module Oid = Tse_store.Oid

type t = {
  attr_selects : (string, Oid.Set.t) Hashtbl.t;
  class_selects : Oid.Set.t Oid.Tbl.t;
  (* class -> its direct superclasses and the classes derived from it:
     the other classes whose membership can follow its own *)
  follows : Oid.Set.t Oid.Tbl.t;
}

let selects_on_attr t name =
  Option.value (Hashtbl.find_opt t.attr_selects name) ~default:Oid.Set.empty

let find tbl cid = Option.value (Oid.Tbl.find_opt tbl cid) ~default:Oid.Set.empty
let selects_on_class t cid = find t.class_selects cid

(* A membership moves another one in three ways, as the fixpoint
   reclassifies: a select observes the class, a class derives from it,
   or a superclass held only through it follows it. *)
let classes_moved_by_attr t name =
  let rec close acc = function
    | [] -> acc
    | c :: rest when Oid.Set.mem c acc -> close acc rest
    | c :: rest ->
      let next = Oid.Set.union (selects_on_class t c) (find t.follows c) in
      close (Oid.Set.add c acc) (Oid.Set.elements next @ rest)
  in
  close Oid.Set.empty (Oid.Set.elements (selects_on_attr t name))

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
  let add_to tbl c cid = Oid.Tbl.replace tbl c (Oid.Set.add cid (find tbl c)) in
  let add_class = add_to class_selects in
  let follows = Oid.Tbl.create 32 in
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
      List.iter (fun s -> add_to follows s k.cid) (Klass.sources k);
      Oid.Tbl.replace follows k.cid
        (List.fold_left (Fun.flip Oid.Set.add) (find follows k.cid) k.supers);
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
  { attr_selects; class_selects; follows }
