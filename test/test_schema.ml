(* Tests for the schema layer: expressions, properties, the is-a DAG and
   full-type computation with the paper's conflict rules. *)

open Tse_store
open Tse_schema

let check = Alcotest.check
let vpp = Alcotest.testable Value.pp Value.equal

(* A tiny standalone graph for structural tests. *)
let graph () = Schema_graph.create ~gen:(Oid.Gen.create ())

let stored = Prop.stored ~origin:(Oid.of_int 0)

let test_expr_eval () =
  let slots = [ ("age", Value.Int 30); ("name", Value.String "ann") ] in
  let env =
    {
      Expr.self = Oid.of_int 1;
      get =
        (fun n ->
          match List.assoc_opt n slots with
          | Some v -> v
          | None -> raise (Expr.Unknown_property n));
      member_of = (fun c -> c = "Person");
    }
  in
  let open Expr in
  check vpp "arith" (Value.Int 35) (eval env (Arith (Add, attr "age", int 5)));
  check vpp "cmp" (Value.Bool true) (eval env (attr "age" >= int 18));
  check vpp "and/or" (Value.Bool true)
    (eval env ((attr "age" > int 40) || (attr "name" === str "ann")));
  check vpp "in_class" (Value.Bool true) (eval env (In_class "Person"));
  check vpp "in_class neg" (Value.Bool false) (eval env (In_class "Robot"));
  check vpp "if" (Value.String "adult")
    (eval env (If (attr "age" >= int 18, str "adult", str "minor")));
  check vpp "self" (Value.Ref (Oid.of_int 1)) (eval env Self);
  check vpp "is_null" (Value.Bool false) (eval env (Is_null (attr "age")));
  Alcotest.check_raises "unknown property" (Expr.Unknown_property "zz")
    (fun () -> ignore (eval env (attr "zz")));
  (try
     ignore (eval env (Arith (Add, attr "name", int 1)));
     Alcotest.fail "expected type error"
   with Expr.Type_error _ -> ());
  (try
     ignore (eval env (Arith (Div, int 1, int 0)));
     Alcotest.fail "expected division by zero"
   with Expr.Type_error _ -> ())

let test_expr_null_semantics () =
  let env =
    { Expr.self = Oid.of_int 1;
      get = (fun _ -> Value.Null);
      member_of = (fun _ -> false) }
  in
  let open Expr in
  check vpp "null = null" (Value.Bool true) (eval env (attr "x" === Const Value.Null));
  check vpp "null <> 1" (Value.Bool true) (eval env (attr "x" <> int 1));
  Alcotest.(check bool) "null predicate is false" false
    (eval_bool env (attr "x"));
  (try
     ignore (eval env (attr "x" < int 1));
     Alcotest.fail "expected type error on ordering null"
   with Expr.Type_error _ -> ())

let test_expr_utils () =
  let open Expr in
  let e = (attr "a" > int 1) && In_class "C" && Is_null (attr "b") in
  check Alcotest.(list string) "free attrs" [ "a"; "b" ] (free_attrs e);
  check Alcotest.(list string) "classes" [ "C" ] (referenced_classes e);
  Alcotest.(check bool) "equal reflexive" true (equal e e);
  Alcotest.(check bool) "not equal" false (equal e (attr "a" > int 2));
  let renamed = rename_attr ~old_name:"a" ~new_name:"z" e in
  check Alcotest.(list string) "renamed" [ "b"; "z" ] (free_attrs renamed)

let test_prop_identity () =
  let p = stored "age" Value.TInt in
  let q = Prop.rename p "years" in
  Alcotest.(check bool) "rename keeps identity" true (Prop.same_prop p q);
  let r = Prop.with_fresh_uid p in
  Alcotest.(check bool) "fresh uid distinct" false (Prop.same_prop p r);
  Alcotest.(check bool) "signature equal despite uid" true
    (Prop.signature_equal p r);
  Alcotest.(check bool) "renamed not signature equal" false
    (Prop.signature_equal p q)

let test_graph_edges () =
  let g = graph () in
  let a = Schema_graph.register_base g ~name:"A" ~props:[] ~supers:[] in
  let b = Schema_graph.register_base g ~name:"B" ~props:[] ~supers:[ a ] in
  let c = Schema_graph.register_base g ~name:"C" ~props:[] ~supers:[ b ] in
  Alcotest.(check bool) "A ancestor of C" true
    (Schema_graph.is_strict_ancestor g ~anc:a ~desc:c);
  Alcotest.(check bool) "C not ancestor of A" false
    (Schema_graph.is_strict_ancestor g ~anc:c ~desc:a);
  check Alcotest.int "descendants of A" 2
    (Oid.Set.cardinal (Schema_graph.descendants g a));
  (* cycle rejection *)
  (try
     Schema_graph.add_edge g ~sup:c ~sub:a;
     Alcotest.fail "expected cycle rejection"
   with Invalid_argument _ -> ());
  (* root handling: removing B's only parent edge reattaches to root *)
  Schema_graph.remove_edge g ~sup:a ~sub:b;
  check Alcotest.(list string)
    "B reattached to root"
    [ "Object" ]
    (List.map (Schema_graph.name_of g) (Schema_graph.supers g b));
  (* adding a real superclass drops the root edge *)
  Schema_graph.add_edge g ~sup:a ~sub:b;
  check Alcotest.(list string) "root edge dropped" [ "A" ]
    (List.map (Schema_graph.name_of g) (Schema_graph.supers g b));
  Alcotest.(check (list string)) "invariants hold" [] (Invariants.check g)

let test_graph_remove_class () =
  let g = graph () in
  let a = Schema_graph.register_base g ~name:"A" ~props:[] ~supers:[] in
  let b = Schema_graph.register_base g ~name:"B" ~props:[] ~supers:[ a ] in
  let c = Schema_graph.register_base g ~name:"C" ~props:[] ~supers:[ b ] in
  Schema_graph.remove g b;
  Alcotest.(check bool) "B gone" false (Schema_graph.mem g b);
  (* C must not be left disconnected *)
  check Alcotest.(list string) "C reattached to root" [ "Object" ]
    (List.map (Schema_graph.name_of g) (Schema_graph.supers g c));
  Alcotest.(check (list string)) "invariants hold" [] (Invariants.check g)

let test_graph_topo_and_paths () =
  let g = graph () in
  let a = Schema_graph.register_base g ~name:"A" ~props:[] ~supers:[] in
  let b = Schema_graph.register_base g ~name:"B" ~props:[] ~supers:[ a ] in
  let c = Schema_graph.register_base g ~name:"C" ~props:[] ~supers:[ a ] in
  let d = Schema_graph.register_base g ~name:"D" ~props:[] ~supers:[ b; c ] in
  let order = Schema_graph.topo_order g in
  let pos x = Option.get (List.find_index (Oid.equal x) order) in
  Alcotest.(check bool) "a before b" true (pos a < pos b);
  Alcotest.(check bool) "b before d" true (pos b < pos d);
  Alcotest.(check bool) "c before d" true (pos c < pos d);
  Alcotest.(check bool) "redundant edge detection" false
    (Schema_graph.is_redundant_edge g ~sup:a ~sub:b);
  Schema_graph.add_edge g ~sup:a ~sub:d;
  Alcotest.(check bool) "a->d redundant" true
    (Schema_graph.is_redundant_edge g ~sup:a ~sub:d)

(* Anything derived from the schema keys on the graph version, so every
   mutator must move it. *)
let test_every_mutator_moves_version () =
  let g = graph () in
  (* [find_by_name] answers from a table the mutators keep: it must agree
     with a scan of the records for every name ever used *)
  let names = [ "Object"; "A"; "B"; "V"; "B2"; "C" ] in
  let names_agree what =
    List.iter
      (fun name ->
        let scan =
          List.find_opt
            (fun (k : Klass.t) -> String.equal k.name name)
            (Schema_graph.classes g)
        in
        let cid = Option.map (fun (k : Klass.t) -> k.cid) in
        if cid (Schema_graph.find_by_name g name) <> cid scan then
          Alcotest.failf "after %s, find_by_name %s disagrees with a scan" what
            name)
      names
  in
  (* likewise [declarers], for every property name ever used *)
  let declarers_agree what =
    List.iter
      (fun name ->
        let scan =
          List.fold_left
            (fun acc (k : Klass.t) ->
              if Klass.has_local_prop k name then Oid.Set.add k.cid acc else acc)
            Oid.Set.empty (Schema_graph.classes g)
        in
        if not (Oid.Set.equal (Schema_graph.declarers g name) scan) then
          Alcotest.failf "after %s, declarers %s disagrees with a scan" what
            name)
      [ "x"; "y"; "z" ]
  in
  let moves what f =
    let before = Schema_graph.version g in
    let r = f () in
    if Schema_graph.version g <= before then
      Alcotest.failf "%s left the version at %d" what before;
    names_agree what;
    declarers_agree what;
    r
  in
  let a =
    moves "register_base" (fun () ->
        Schema_graph.register_base g ~name:"A"
          ~props:[ stored "x" Value.TInt; stored "y" Value.TInt ]
          ~supers:[])
  in
  let b =
    moves "register_base" (fun () ->
        Schema_graph.register_base g ~name:"B" ~props:[] ~supers:[])
  in
  let v =
    moves "register_virtual" (fun () ->
        Schema_graph.register_virtual g ~name:"V"
          (Klass.Select (a, Expr.bool true))
          [ stored "y" Value.TInt ])
  in
  moves "add_edge" (fun () -> Schema_graph.add_edge g ~sup:a ~sub:v);
  moves "remove_edge" (fun () -> Schema_graph.remove_edge g ~sup:a ~sub:v);
  moves "add_local_prop" (fun () ->
      Schema_graph.add_local_prop g b (stored "x" Value.TInt));
  moves "add_local_prop" (fun () ->
      Schema_graph.add_local_prop g b (stored "z" Value.TInt));
  moves "remove_local_prop" (fun () -> Schema_graph.remove_local_prop g b "x");
  moves "rename" (fun () -> Schema_graph.rename g b "B2");
  moves "remove" (fun () -> Schema_graph.remove g v);
  let c = Oid.Gen.fresh (Schema_graph.gen g) in
  moves "install" (fun () ->
      Schema_graph.install g
        { (Klass.make_base ~cid:c ~name:"C" ~props:[ stored "z" Value.TInt ])
          with
          supers = [ Schema_graph.root g ] });
  (* an install over a known cid replaces its record and its declarations *)
  moves "install" (fun () ->
      Schema_graph.install g
        { (Klass.make_base ~cid:c ~name:"C" ~props:[ stored "x" Value.TInt ])
          with
          supers = [ Schema_graph.root g ] });
  moves "relink_subs" (fun () -> Schema_graph.relink_subs g);
  check Alcotest.string "renamed" "B2" (Schema_graph.name_of g b);
  Alcotest.check_raises "rename onto a used name"
    (Invalid_argument
       (Printf.sprintf "Schema_graph: class name A already used by %s"
          (Oid.to_string a)))
    (fun () -> Schema_graph.rename g b "A")

let test_inheritance_basic () =
  let g = graph () in
  let a =
    Schema_graph.register_base g ~name:"A"
      ~props:[ stored "x" Value.TInt ]
      ~supers:[]
  in
  let b =
    Schema_graph.register_base g ~name:"B"
      ~props:[ stored "y" Value.TInt ]
      ~supers:[ a ]
  in
  check Alcotest.(list string) "full inheritance" [ "x"; "y" ]
    (Type_info.prop_names g b);
  Alcotest.(check bool) "subtype" true (Type_info.subtype_of g ~sub:b ~sup:a);
  Alcotest.(check bool) "not supertype" false
    (Type_info.subtype_of g ~sub:a ~sup:b)

let test_inheritance_override () =
  let g = graph () in
  let a =
    Schema_graph.register_base g ~name:"A"
      ~props:[ stored "x" Value.TInt ]
      ~supers:[]
  in
  let b =
    Schema_graph.register_base g ~name:"B"
      ~props:[ stored "x" Value.TString ]
      ~supers:[ a ]
  in
  let c = Schema_graph.register_base g ~name:"C" ~props:[] ~supers:[ b ] in
  (* local override wins and propagates to subclasses *)
  (match Type_info.find_usable g b "x" with
  | Some p -> Alcotest.(check bool) "B sees own x" true (p.Prop.origin = b)
  | None -> Alcotest.fail "x unresolved at B");
  (match Type_info.find_usable g c "x" with
  | Some p -> Alcotest.(check bool) "C inherits B's x" true (p.Prop.origin = b)
  | None -> Alcotest.fail "x unresolved at C");
  (* the suppressed candidate from A is still discoverable *)
  let cands = Type_info.inherited_candidates g b "x" in
  check Alcotest.int "suppressed candidate" 1 (List.length cands);
  (match cands with
  | [ p ] -> Alcotest.(check bool) "candidate from A" true (p.Prop.origin = a)
  | _ -> Alcotest.fail "expected one candidate")

let test_inheritance_diamond_no_conflict () =
  let g = graph () in
  let a =
    Schema_graph.register_base g ~name:"A"
      ~props:[ stored "x" Value.TInt ]
      ~supers:[]
  in
  let b = Schema_graph.register_base g ~name:"B" ~props:[] ~supers:[ a ] in
  let c = Schema_graph.register_base g ~name:"C" ~props:[] ~supers:[ a ] in
  let d = Schema_graph.register_base g ~name:"D" ~props:[] ~supers:[ b; c ] in
  (* one property along two paths is not a conflict *)
  match Type_info.find g d "x" with
  | Some (Type_info.Single _) -> ()
  | Some (Type_info.Conflict _) -> Alcotest.fail "diamond must not conflict"
  | None -> Alcotest.fail "x lost in diamond"

let test_inheritance_real_conflict () =
  let g = graph () in
  let a =
    Schema_graph.register_base g ~name:"A"
      ~props:[ stored "x" Value.TInt ]
      ~supers:[]
  in
  let b =
    Schema_graph.register_base g ~name:"B"
      ~props:[ stored "x" Value.TString ]
      ~supers:[]
  in
  let c = Schema_graph.register_base g ~name:"C" ~props:[] ~supers:[ a; b ] in
  (match Type_info.find g c "x" with
  | Some (Type_info.Conflict ps) ->
    check Alcotest.int "two candidates" 2 (List.length ps)
  | Some (Type_info.Single _) -> Alcotest.fail "expected conflict"
  | None -> Alcotest.fail "x missing");
  Alcotest.(check bool) "not usable while ambiguous" true
    (Type_info.find_usable g c "x" = None);
  (* user disambiguates by renaming one candidate at its origin *)
  let ka = Schema_graph.find_exn g a in
  let px = Option.get (Klass.local_prop ka "x") in
  Schema_graph.add_local_prop g a (Prop.rename px "ax");
  Schema_graph.remove_local_prop g a "x";
  (match Type_info.find g c "x" with
  | Some (Type_info.Single p) ->
    Alcotest.(check bool) "B's survives" true (p.Prop.origin = b)
  | _ -> Alcotest.fail "conflict should be resolved");
  match Type_info.find g c "ax" with
  | Some (Type_info.Single _) -> ()
  | _ -> Alcotest.fail "renamed candidate visible"

let test_promoted_priority () =
  let g = graph () in
  (* Simulates the Section 6.2.3 situation: a promoted definition takes
     priority over another inherited same-named property. *)
  let a =
    Schema_graph.register_base g ~name:"A"
      ~props:[ stored "x" Value.TInt ]
      ~supers:[]
  in
  ignore a;
  let promoted = Prop.promote (stored "x" Value.TString) in
  let b =
    Schema_graph.register_base g ~name:"B" ~props:[ promoted ] ~supers:[]
  in
  let c = Schema_graph.register_base g ~name:"C" ~props:[] ~supers:[ a; b ] in
  match Type_info.find g c "x" with
  | Some (Type_info.Single p) ->
    Alcotest.(check bool) "promoted wins" true (p.Prop.origin = b)
  | _ -> Alcotest.fail "promoted property should resolve the conflict"

let test_uppermost_in_view () =
  let g = graph () in
  let a =
    Schema_graph.register_base g ~name:"A"
      ~props:[ stored "x" Value.TInt ]
      ~supers:[]
  in
  let b = Schema_graph.register_base g ~name:"B" ~props:[] ~supers:[ a ] in
  let c = Schema_graph.register_base g ~name:"C" ~props:[] ~supers:[ b ] in
  let view_all = Oid.Set.of_list [ a; b; c ] in
  let view_bc = Oid.Set.of_list [ b; c ] in
  Alcotest.(check bool) "A uppermost in full view" true
    (Type_info.is_uppermost_in g ~view:view_all a "x");
  Alcotest.(check bool) "B not uppermost in full view" false
    (Type_info.is_uppermost_in g ~view:view_all b "x");
  (* paper: local is view-relative — B is uppermost when A is outside *)
  Alcotest.(check bool) "B uppermost when A hidden" true
    (Type_info.is_uppermost_in g ~view:view_bc b "x")

let test_type_signature_stability () =
  let g = graph () in
  let a =
    Schema_graph.register_base g ~name:"A"
      ~props:[ stored "x" Value.TInt; Prop.method_ ~origin:(Oid.of_int 0) "m" (Expr.int 1) ]
      ~supers:[]
  in
  let b = Schema_graph.register_base g ~name:"B" ~props:[] ~supers:[ a ] in
  Alcotest.(check bool) "same type A B (B adds nothing)" true
    (Type_info.type_equal g a b);
  let c =
    Schema_graph.register_base g ~name:"Cc"
      ~props:[ stored "y" Value.TInt ]
      ~supers:[ a ]
  in
  Alcotest.(check bool) "C differs" false (Type_info.type_equal g a c)

(* ------------------------------------------------------------------ *)
(* Invariants.check: one crafted violation per documented clause.      *)
(* The mutators (add_edge, register_base, add_local_prop) refuse to    *)
(* produce these states, so each is crafted by direct record surgery,  *)
(* and the test asserts the human-readable message names the           *)
(* offending class.                                                    *)
(* ------------------------------------------------------------------ *)

let problem_mentioning needle problems =
  let contains hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    nl = 0 || go 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "some problem mentions %S (got: %s)" needle
       (String.concat " | " problems))
    true
    (List.exists contains problems)

let two_classes () =
  let g = graph () in
  let a = Schema_graph.register_base g ~name:"A" ~props:[] ~supers:[] in
  let b = Schema_graph.register_base g ~name:"B" ~props:[] ~supers:[ a ] in
  (g, Schema_graph.find_exn g a, Schema_graph.find_exn g b)

let test_invariant_cycle () =
  let g, ka, kb = two_classes () in
  (* close the loop A -> B -> A behind add_edge's back *)
  ka.Klass.supers <- kb.Klass.cid :: ka.Klass.supers;
  kb.Klass.subs <- ka.Klass.cid :: kb.Klass.subs;
  problem_mentioning "cycle through class A" (Invariants.check g)

let test_invariant_missing_superclass () =
  let g, _, kb = two_classes () in
  kb.Klass.supers <- Oid.of_int 9999 :: kb.Klass.supers;
  problem_mentioning "B lists missing superclass" (Invariants.check g)

let test_invariant_missing_subclass () =
  let g, ka, _ = two_classes () in
  ka.Klass.subs <- Oid.of_int 9999 :: ka.Klass.subs;
  problem_mentioning "A lists missing subclass" (Invariants.check g)

let test_invariant_asymmetric_super_edge () =
  let g, ka, kb = two_classes () in
  (* B claims A as a superclass twice is fine; instead drop B from A's
     subs so the super-side listing has no matching sub-side entry *)
  ka.Klass.subs <- List.filter (fun c -> not (Oid.equal c kb.Klass.cid)) ka.Klass.subs;
  problem_mentioning "edge A->B not symmetric" (Invariants.check g)

let test_invariant_asymmetric_sub_edge () =
  let g, ka, kb = two_classes () in
  kb.Klass.supers <-
    List.filter (fun c -> not (Oid.equal c ka.Klass.cid)) kb.Klass.supers;
  (* B now looks disconnected too; the asymmetry clause must still fire *)
  problem_mentioning "edge A->B not symmetric" (Invariants.check g)

let test_invariant_root_with_supers () =
  let g, ka, _ = two_classes () in
  let kroot = Schema_graph.find_exn g (Schema_graph.root g) in
  kroot.Klass.supers <- [ ka.Klass.cid ];
  ka.Klass.subs <- Schema_graph.root g :: ka.Klass.subs;
  problem_mentioning "root has superclasses" (Invariants.check g)

let test_invariant_disconnected () =
  let g, ka, kb = two_classes () in
  kb.Klass.supers <- [];
  ka.Klass.subs <- List.filter (fun c -> not (Oid.equal c kb.Klass.cid)) ka.Klass.subs;
  problem_mentioning "class B is disconnected" (Invariants.check g)

let test_invariant_not_under_root () =
  let g, ka, _kb = two_classes () in
  (* detach A from the root but keep B -> A intact: A is flagged as
     disconnected, and B as not a descendant of the root *)
  let kroot = Schema_graph.find_exn g (Schema_graph.root g) in
  ka.Klass.supers <- [];
  kroot.Klass.subs <-
    List.filter (fun c -> not (Oid.equal c ka.Klass.cid)) kroot.Klass.subs;
  let problems = Invariants.check g in
  problem_mentioning "class A is disconnected" problems;
  problem_mentioning "class B is not a descendant of the root" problems

let test_invariant_duplicate_name () =
  let g, _, kb = two_classes () in
  kb.Klass.name <- "A";
  problem_mentioning "duplicate class name A" (Invariants.check g)

let test_invariant_missing_virtual_source () =
  let g, ka, _ = two_classes () in
  ignore
    (Schema_graph.register_virtual g ~name:"V"
       (Klass.Select (ka.Klass.cid, Expr.bool true))
       []);
  Schema_graph.remove g ka.Klass.cid;
  problem_mentioning "virtual class V has missing source" (Invariants.check g)

let test_invariant_duplicate_local_prop () =
  let g, ka, _ = two_classes () in
  let p = stored "x" Value.TInt in
  ka.Klass.local_props <- [ p; p ];
  problem_mentioning "class A defines property x twice" (Invariants.check g)

let test_invariant_clean_graph_has_no_problems () =
  let g, _, _ = two_classes () in
  Alcotest.(check (list string)) "clean" [] (Invariants.check g)

let suite =
  [
    Alcotest.test_case "expr evaluation" `Quick test_expr_eval;
    Alcotest.test_case "expr null semantics" `Quick test_expr_null_semantics;
    Alcotest.test_case "expr utilities" `Quick test_expr_utils;
    Alcotest.test_case "property identity" `Quick test_prop_identity;
    Alcotest.test_case "graph edges / cycles / root" `Quick test_graph_edges;
    Alcotest.test_case "graph class removal" `Quick test_graph_remove_class;
    Alcotest.test_case "graph topo order and paths" `Quick
      test_graph_topo_and_paths;
    Alcotest.test_case "full inheritance" `Quick test_inheritance_basic;
    Alcotest.test_case "override blocks propagation" `Quick
      test_inheritance_override;
    Alcotest.test_case "diamond is not a conflict" `Quick
      test_inheritance_diamond_no_conflict;
    Alcotest.test_case "real conflict needs renaming" `Quick
      test_inheritance_real_conflict;
    Alcotest.test_case "promoted definition has priority" `Quick
      test_promoted_priority;
    Alcotest.test_case "uppermost-in-view (view-relative local)" `Quick
      test_uppermost_in_view;
    Alcotest.test_case "type signatures" `Quick test_type_signature_stability;
    Alcotest.test_case "every graph mutator moves the version" `Quick
      test_every_mutator_moves_version;
    Alcotest.test_case "invariant: cycle" `Quick test_invariant_cycle;
    Alcotest.test_case "invariant: missing superclass" `Quick
      test_invariant_missing_superclass;
    Alcotest.test_case "invariant: missing subclass" `Quick
      test_invariant_missing_subclass;
    Alcotest.test_case "invariant: asymmetric edge (super side)" `Quick
      test_invariant_asymmetric_super_edge;
    Alcotest.test_case "invariant: asymmetric edge (sub side)" `Quick
      test_invariant_asymmetric_sub_edge;
    Alcotest.test_case "invariant: root with superclasses" `Quick
      test_invariant_root_with_supers;
    Alcotest.test_case "invariant: disconnected class" `Quick
      test_invariant_disconnected;
    Alcotest.test_case "invariant: not a descendant of the root" `Quick
      test_invariant_not_under_root;
    Alcotest.test_case "invariant: duplicate class name" `Quick
      test_invariant_duplicate_name;
    Alcotest.test_case "invariant: missing virtual source" `Quick
      test_invariant_missing_virtual_source;
    Alcotest.test_case "invariant: duplicate local property" `Quick
      test_invariant_duplicate_local_prop;
    Alcotest.test_case "invariant: clean graph reports nothing" `Quick
      test_invariant_clean_graph_has_no_problems;
  ]
