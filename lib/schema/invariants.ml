module Oid = Tse_store.Oid

let check graph =
  let problems = ref [] in
  let add fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  let root = Schema_graph.root graph in
  let classes = Schema_graph.classes graph in
  (* acyclicity: a class must never be its own strict ancestor. A
     dangling superclass edge makes the ancestor closure raise; swallow
     it here — the endpoint-existence clause below reports it. *)
  List.iter
    (fun (k : Klass.t) ->
      match Schema_graph.ancestors graph k.cid with
      | anc -> if Oid.Set.mem k.cid anc then add "cycle through class %s" k.name
      | exception Invalid_argument _ -> ())
    classes;
  (* edge symmetry and endpoint existence *)
  List.iter
    (fun (k : Klass.t) ->
      List.iter
        (fun sup ->
          match Schema_graph.find graph sup with
          | None -> add "%s lists missing superclass %s" k.name (Oid.to_string sup)
          | Some ksup ->
            if not (List.exists (Oid.equal k.cid) ksup.subs) then
              add "edge %s->%s not symmetric" ksup.name k.name)
        k.supers;
      List.iter
        (fun sub ->
          match Schema_graph.find graph sub with
          | None -> add "%s lists missing subclass %s" k.name (Oid.to_string sub)
          | Some ksub ->
            if not (List.exists (Oid.equal k.cid) ksub.supers) then
              add "edge %s->%s not symmetric" k.name ksub.name)
        k.subs)
    classes;
  (* rootedness *)
  List.iter
    (fun (k : Klass.t) ->
      if Oid.equal k.cid root then begin
        if k.supers <> [] then add "root has superclasses"
      end
      else begin
        if k.supers = [] then add "class %s is disconnected (no superclass)" k.name;
        match Schema_graph.is_strict_ancestor graph ~anc:root ~desc:k.cid with
        | true -> ()
        | false -> add "class %s is not a descendant of the root" k.name
        | exception Invalid_argument _ -> ()
      end)
    classes;
  (* unique names *)
  let names = Hashtbl.create 16 in
  List.iter
    (fun (k : Klass.t) ->
      if Hashtbl.mem names k.name then add "duplicate class name %s" k.name
      else Hashtbl.add names k.name ())
    classes;
  (* virtual sources exist *)
  List.iter
    (fun (k : Klass.t) ->
      List.iter
        (fun src ->
          if not (Schema_graph.mem graph src) then
            add "virtual class %s has missing source %s" k.name
              (Oid.to_string src))
        (Klass.sources k))
    classes;
  (* unique local property names *)
  List.iter
    (fun (k : Klass.t) ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (p : Prop.t) ->
          if Hashtbl.mem seen p.name then
            add "class %s defines property %s twice" k.name p.name
          else Hashtbl.add seen p.name ())
        k.local_props)
    classes;
  List.rev !problems
