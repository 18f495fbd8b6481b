(* The static schema analyzer (lib/analysis) and the evolution admission
   gate (Tse_core.Admission): one crafted schema per diagnostic code, the
   derivation lints, the gate's three policies, and the qcheck property
   that every schema the random evolution generator can reach is
   diagnostic-clean. *)

open Tse_store
open Tse_schema
open Tse_db
open Tse_core
open Tse_workload
module Diagnostic = Tse_analysis.Diagnostic
module Typecheck = Tse_analysis.Typecheck
module Analysis = Tse_analysis.Analysis

let mk_graph () = Schema_graph.create ~gen:(Oid.Gen.create ())

let origin = Oid.of_int 0
let stored name ty = Prop.stored ~origin name ty
let method_ name body = Prop.method_ ~origin name body

(* A base class with one int, one string and one bool attribute. *)
let base_abc g =
  Schema_graph.register_base g ~name:"A"
    ~props:[ stored "i" Value.TInt; stored "s" Value.TString;
             stored "b" Value.TBool ]
    ~supers:[]

let codes report = List.map (fun d -> d.Diagnostic.code) report.Analysis.diagnostics
let error_codes report = List.map (fun d -> d.Diagnostic.code) (Analysis.errors report)

let has_code c report = List.mem c (codes report)

let check_code name c report =
  Alcotest.(check bool) (name ^ " reports " ^ c) true (has_code c report)

(* ---------------- expression typechecking, one code each ---------------- *)

let test_e101_undefined () =
  let g = mk_graph () in
  let a = base_abc g in
  Schema_graph.add_local_prop g a
    (method_ "m" (Expr.attr "nope"));
  let r = Analysis.analyze g in
  check_code "undefined attr" "E101" r;
  Alcotest.(check bool) "not clean" false (Analysis.is_clean r)

let test_e102_ambiguous () =
  let g = mk_graph () in
  let p1 = Schema_graph.register_base g ~name:"P1"
      ~props:[ stored "x" Value.TInt ] ~supers:[] in
  let p2 = Schema_graph.register_base g ~name:"P2"
      ~props:[ stored "x" Value.TInt ] ~supers:[] in
  let c = Schema_graph.register_base g ~name:"C" ~props:[] ~supers:[ p1; p2 ] in
  Schema_graph.add_local_prop g c
    (method_ "m" (Expr.attr "x"));
  check_code "conflict-ambiguous attr" "E102" (Analysis.analyze g)

let test_e103_unknown_class () =
  let g = mk_graph () in
  let a = base_abc g in
  Schema_graph.add_local_prop g a
    (method_ "m" (Expr.In_class "Ghost"));
  check_code "In_class nonexistent" "E103" (Analysis.analyze g)

let test_e104_type_mismatches () =
  let g = mk_graph () in
  let a = base_abc g in
  Schema_graph.add_local_prop g a
    (method_ "bad_arith" (Expr.Arith (Expr.Add, Expr.attr "s", Expr.int 1)));
  Schema_graph.add_local_prop g a
    (method_ "bad_cmp" Expr.(attr "i" === attr "s"));
  Schema_graph.add_local_prop g a
    (method_ "bad_and" Expr.(attr "i" && attr "b"));
  Schema_graph.add_local_prop g a
    (method_ "null_order" Expr.(attr "i" < Const Value.Null));
  let r = Analysis.analyze g in
  Alcotest.(check int) "four E104s" 4
    (List.length (List.filter (String.equal "E104") (error_codes r)))

let test_e105_concat () =
  let g = mk_graph () in
  let a = base_abc g in
  Schema_graph.add_local_prop g a
    (method_ "m" (Expr.Concat (Expr.attr "i", Expr.str "x")));
  check_code "concat non-string" "E105" (Analysis.analyze g)

let test_e106_div_zero () =
  let g = mk_graph () in
  let a = base_abc g in
  Schema_graph.add_local_prop g a
    (method_ "m" (Expr.Arith (Expr.Div, Expr.attr "i", Expr.int 0)));
  check_code "constant division by zero" "E106" (Analysis.analyze g)

let test_e107_nonbool_predicate () =
  let g = mk_graph () in
  let a = base_abc g in
  ignore
    (Schema_graph.register_virtual g ~name:"V"
       (Klass.Select (a, Expr.Arith (Expr.Add, Expr.int 1, Expr.int 2)))
       []);
  check_code "non-boolean select predicate" "E107" (Analysis.analyze g)

let test_e110_dangling_source () =
  let g = mk_graph () in
  let a = base_abc g in
  let v =
    Schema_graph.register_virtual g ~name:"V"
      (Klass.Select (a, Expr.bool true)) []
  in
  ignore v;
  Schema_graph.remove g a;
  check_code "dangling select source" "E110" (Analysis.analyze g)

let test_e111_method_cycle () =
  let g = mk_graph () in
  let a = base_abc g in
  Schema_graph.add_local_prop g a (method_ "m1" (Expr.attr "m2"));
  Schema_graph.add_local_prop g a (method_ "m2" (Expr.attr "m1"));
  let r = Analysis.analyze g in
  check_code "derived-method cycle" "E111" r;
  (* the cycle is one diagnostic, and the guarded recursion means the
     mutually recursive bodies are NOT also undefined/type errors *)
  Alcotest.(check bool) "no E101 from the recursion" false (has_code "E101" r);
  Alcotest.(check (list (list string))) "cycle members" [ [ "m1"; "m2" ] ]
    (Analysis.method_cycles g)

let test_e112_invisible_attr () =
  let g = mk_graph () in
  let a = base_abc g in
  ignore
    (Schema_graph.register_virtual g ~name:"V"
       (Klass.Select (a, Expr.(attr "zz" === int 1)))
       []);
  let r = Analysis.analyze g in
  check_code "predicate reads invisible attr" "E112" r;
  Alcotest.(check bool) "E101 reserved for method bodies" false
    (has_code "E101" r)

let test_w201_dead_branch () =
  let g = mk_graph () in
  let a = base_abc g in
  Schema_graph.add_local_prop g a
    (method_ "m" (Expr.If (Expr.bool true, Expr.int 1, Expr.int 2)));
  let r = Analysis.analyze g in
  check_code "constant if condition" "W201" r;
  Alcotest.(check bool) "warning only, still clean" true (Analysis.is_clean r)

let test_w202_unsat_predicate () =
  let g = mk_graph () in
  let a = base_abc g in
  ignore
    (Schema_graph.register_virtual g ~name:"Empty"
       (Klass.Select (a, Expr.bool false)) []);
  let r = Analysis.analyze g in
  check_code "constantly false predicate" "W202" r;
  Alcotest.(check bool) "warning only, still clean" true (Analysis.is_clean r)

let test_constant_true_not_flagged () =
  (* the translator derives identity classes as [select true]; the
     analyzer must not warn on them *)
  let g = mk_graph () in
  let a = base_abc g in
  ignore
    (Schema_graph.register_virtual g ~name:"Same"
       (Klass.Select (a, Expr.bool true)) []);
  let r = Analysis.analyze g in
  Alcotest.(check (list string)) "no diagnostics" [] (codes r)

let test_methods_followed_for_type () =
  (* a predicate over a derived method gets the method's inferred type *)
  let g = mk_graph () in
  let a = base_abc g in
  Schema_graph.add_local_prop g a
    (method_ "double" (Expr.Arith (Expr.Mul, Expr.attr "i", Expr.int 2)));
  ignore
    (Schema_graph.register_virtual g ~name:"Big"
       (Klass.Select (a, Expr.(attr "double" >= int 10)))
       []);
  Alcotest.(check (list string)) "clean" [] (codes (Analysis.analyze g))

(* ---------------- capacity classification ---------------- *)

let test_capacity_facts () =
  let g = mk_graph () in
  let a = base_abc g in
  ignore
    (Schema_graph.register_virtual g ~name:"Sel"
       (Klass.Select (a, Expr.bool true)) []);
  ignore
    (Schema_graph.register_virtual g ~name:"Hid"
       (Klass.Hide ([ "s" ], a)) []);
  let refined = stored "extra" Value.TInt in
  ignore
    (Schema_graph.register_virtual g ~name:"RefS"
       (Klass.Refine ([ refined ], a)) [ refined ]);
  let derived = method_ "twice" (Expr.Arith (Expr.Mul, Expr.attr "i", Expr.int 2)) in
  ignore
    (Schema_graph.register_virtual g ~name:"RefM"
       (Klass.Refine ([ derived ], a)) [ derived ]);
  let r = Analysis.analyze g in
  Alcotest.(check (list (pair string string)))
    "facts"
    [ ("Hid", "reducing"); ("RefM", "preserving"); ("RefS", "augmenting");
      ("Sel", "preserving") ]
    (List.map (fun (c, cap) -> (c, Analysis.capacity_to_string cap)) r.Analysis.facts)

let test_capacity_of_change () =
  let cap c = Analysis.capacity_to_string (Admission.capacity_of_change c) in
  Alcotest.(check string) "add_attribute augments" "augmenting"
    (cap (Change.Add_attribute { cls = "C"; def = Change.attr "x" Value.TInt }));
  Alcotest.(check string) "delete_attribute reduces" "reducing"
    (cap (Change.Delete_attribute { cls = "C"; attr_name = "x" }));
  Alcotest.(check string) "add_method preserves" "preserving"
    (cap (Change.Add_method { cls = "C"; method_name = "m"; body = Expr.int 1 }))

(* ---------------- the admission gate ---------------- *)

let university_tsem () =
  let u = University.build () in
  let tsem = Tsem.of_database u.db in
  ignore
    (Tsem.define_view_by_names tsem ~name:"V"
       [ "Person"; "Student"; "Staff"; "TeachingStaff"; "SupportStaff";
         "TA"; "Grad"; "Grader" ]);
  tsem

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* Every crafted ill-typed change, with the diagnostic code the gate
   must reject it with. The acceptance criterion asks for >= 10. *)
let ill_typed_changes =
  [
    ( "method reads undefined attr",
      Change.Add_method
        { cls = "Person"; method_name = "m"; body = Expr.attr "nope" },
      "E101" );
    ( "method names unknown class",
      Change.Add_method
        { cls = "Person"; method_name = "m"; body = Expr.In_class "Ghost" },
      "E103" );
    ( "method adds string to int",
      Change.Add_method
        { cls = "Person"; method_name = "m";
          body = Expr.Arith (Expr.Add, Expr.attr "name", Expr.int 1) },
      "E104" );
    ( "method compares int to string",
      Change.Add_method
        { cls = "Person"; method_name = "m";
          body = Expr.(attr "age" === attr "name") },
      "E104" );
    ( "method orders against null",
      Change.Add_method
        { cls = "Person"; method_name = "m";
          body = Expr.(attr "age" < Const Value.Null) },
      "E104" );
    ( "method ands an int",
      Change.Add_method
        { cls = "Person"; method_name = "m";
          body = Expr.(attr "age" && bool true) },
      "E104" );
    ( "method concats an int",
      Change.Add_method
        { cls = "Person"; method_name = "m";
          body = Expr.Concat (Expr.attr "age", Expr.str "y") },
      "E105" );
    ( "method divides by constant zero",
      Change.Add_method
        { cls = "Person"; method_name = "m";
          body = Expr.Arith (Expr.Div, Expr.attr "age", Expr.int 0) },
      "E106" );
    ( "partition predicate not boolean",
      Change.Partition_class
        { cls = "Student"; predicate = Expr.Arith (Expr.Add, Expr.int 1, Expr.int 2);
          into_true = "Yes"; into_false = "No" },
      "E107" );
    ( "partition predicate reads invisible attr",
      Change.Partition_class
        { cls = "Student"; predicate = Expr.(attr "zz" === int 1);
          into_true = "Yes"; into_false = "No" },
      "E112" );
    ( "attribute default does not conform",
      Change.Add_attribute
        { cls = "Student";
          def = Change.attr ~default:(Value.Int 3) "flag" Value.TBool },
      "E108" );
    ( "partition predicate constantly false (lens)",
      Change.Partition_class
        { cls = "Student"; predicate = Expr.bool false;
          into_true = "Nobody"; into_false = "Everybody" },
      "E123" );
  ]

let test_gate_rejects_ill_typed () =
  let tsem = university_tsem () in
  List.iter
    (fun (name, change, code) ->
      match Tsem.evolve tsem ~view:"V" change with
      | _ -> Alcotest.failf "%s: gate admitted the change" name
      | exception Change.Rejected msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: rejection names %s (got %S)" name code msg)
          true
          (contains ~needle:code msg))
    ill_typed_changes

let test_gate_rejection_leaves_view_intact () =
  let tsem = university_tsem () in
  let v0 = (Tsem.current tsem "V").Tse_views.View_schema.version in
  (try
     ignore
       (Tsem.evolve tsem ~view:"V"
          (Change.Add_method
             { cls = "Person"; method_name = "m"; body = Expr.attr "nope" }))
   with Change.Rejected _ -> ());
  Alcotest.(check int) "view version unchanged" v0
    (Tsem.current tsem "V").Tse_views.View_schema.version

let test_gate_counters () =
  let tsem = university_tsem () in
  let checks0 = Tse_obs.Metrics.find_counter "analysis.gate_checks" in
  let rejections0 = Tse_obs.Metrics.find_counter "analysis.gate_rejections" in
  let aug0 = Tse_obs.Metrics.find_counter "analysis.capacity_augmenting" in
  ignore
    (Tsem.evolve tsem ~view:"V"
       (Change.Add_attribute
          { cls = "Student"; def = Change.attr "ok_attr" Value.TBool }));
  (try
     ignore
       (Tsem.evolve tsem ~view:"V"
          (Change.Add_method
             { cls = "Person"; method_name = "m"; body = Expr.attr "nope" }))
   with Change.Rejected _ -> ());
  Alcotest.(check int) "two gate checks"
    (checks0 + 2)
    (Tse_obs.Metrics.find_counter "analysis.gate_checks");
  Alcotest.(check int) "one rejection"
    (rejections0 + 1)
    (Tse_obs.Metrics.find_counter "analysis.gate_rejections");
  Alcotest.(check int) "one capacity-augmenting change"
    (aug0 + 1)
    (Tse_obs.Metrics.find_counter "analysis.capacity_augmenting")

let test_gate_well_typed_changes_admitted () =
  let tsem = university_tsem () in
  let v =
    Tsem.evolve tsem ~view:"V"
      (Change.Add_method
         { cls = "Person"; method_name = "next_age";
           body = Expr.Arith (Expr.Add, Expr.attr "age", Expr.int 1) })
  in
  let v =
    ignore v;
    Tsem.evolve tsem ~view:"V"
      (Change.Partition_class
         { cls = "Student"; predicate = Expr.(attr "gpa" >= Expr.Const (Value.Float 3.5));
           into_true = "Honors"; into_false = "Regular" })
  in
  Alcotest.(check bool) "both admitted" true
    (v.Tse_views.View_schema.version >= 2);
  Alcotest.(check (list string)) "evolved schema analyzer-clean" []
    (error_codes (Analysis.analyze (Database.graph (Tsem.db tsem))))

(* ---------------- report plumbing ---------------- *)

let test_report_json_shape () =
  let g = mk_graph () in
  let a = base_abc g in
  Schema_graph.add_local_prop g a
    (method_ "m" (Expr.attr "nope"));
  let json = Analysis.report_to_json (Analysis.analyze g) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json mentions " ^ needle) true
        (contains ~needle json))
    [ "\"errors\":1"; "\"E101\""; "\"diagnostics\""; "\"facts\"";
      "\"classes_checked\"" ]

let test_diagnostic_ordering () =
  (* subject-first: (class, prop), then code — so reports group by class
     and are byte-stable regardless of emission order *)
  let w = Diagnostic.make Diagnostic.Warning ~code:"W201" "w" in
  let e = Diagnostic.make Diagnostic.Error ~code:"E104" "e" in
  Alcotest.(check bool) "subjectless: lower code first" true
    (Diagnostic.compare e w < 0);
  let da = Diagnostic.make ~cls:"A" Diagnostic.Warning ~code:"W202" "w" in
  let db_ = Diagnostic.make ~cls:"B" Diagnostic.Error ~code:"E101" "e" in
  Alcotest.(check bool) "class A before class B, severity ignored" true
    (Diagnostic.compare da db_ < 0);
  let p1 = Diagnostic.make ~cls:"A" ~prop:"p" Diagnostic.Error ~code:"E104" "e" in
  let p2 = Diagnostic.make ~cls:"A" ~prop:"q" Diagnostic.Error ~code:"E101" "e" in
  Alcotest.(check bool) "prop p before prop q, code ignored" true
    (Diagnostic.compare p1 p2 < 0)

(* Diagnostics, facts and lens entries are each sorted, so two renderings
   of the same logical schema are byte-identical even when the classes
   were registered in a different order (hashtable iteration order must
   not leak into reports). *)
let test_report_byte_stability () =
  let build order =
    let g = mk_graph () in
    let a = base_abc g in
    let mk = function
      | `Sel ->
        ignore
          (Schema_graph.register_virtual g ~name:"Sel"
             (Klass.Select (a, Expr.(attr "i" >= int 5))) [])
      | `Hid ->
        ignore
          (Schema_graph.register_virtual g ~name:"Hid"
             (Klass.Hide ([ "s" ], a)) [])
      | `Bad ->
        Schema_graph.add_local_prop g a
          (method_ "m" (Expr.attr "nope"))
    in
    List.iter mk order;
    let r = Analysis.analyze g in
    (Format.asprintf "%a" Analysis.pp_report r, Analysis.report_to_json r)
  in
  let t1, j1 = build [ `Sel; `Hid; `Bad ] in
  let t2, j2 = build [ `Bad; `Hid; `Sel ] in
  Alcotest.(check string) "text rendering byte-stable" t1 t2;
  Alcotest.(check string) "json rendering byte-stable" j1 j2;
  let t3, j3 = build [ `Sel; `Hid; `Bad ] in
  Alcotest.(check string) "text rendering run-stable" t1 t3;
  Alcotest.(check string) "json rendering run-stable" j1 j3

(* ---------------- code exhaustiveness ---------------- *)

(* Every code in the closed registry (Diagnostic.declared_codes) is
   produced by at least one crafted scenario, and no scenario produces a
   code outside the registry. *)
let test_code_exhaustiveness () =
  let produced = ref [] in
  let note codes = produced := codes @ !produced in
  (* expression typechecking + derivation lints, E101..E112/W201/W202 *)
  let g1 = mk_graph () in
  let a = base_abc g1 in
  Schema_graph.add_local_prop g1 a (method_ "m_undef" (Expr.attr "nope"));
  Schema_graph.add_local_prop g1 a (method_ "m_ghost" (Expr.In_class "Ghost"));
  Schema_graph.add_local_prop g1 a
    (method_ "m_arith" (Expr.Arith (Expr.Add, Expr.attr "s", Expr.int 1)));
  Schema_graph.add_local_prop g1 a
    (method_ "m_concat" (Expr.Concat (Expr.attr "i", Expr.str "x")));
  Schema_graph.add_local_prop g1 a
    (method_ "m_div" (Expr.Arith (Expr.Div, Expr.attr "i", Expr.int 0)));
  Schema_graph.add_local_prop g1 a
    (method_ "m_if" (Expr.If (Expr.bool true, Expr.int 1, Expr.int 2)));
  ignore
    (Schema_graph.register_virtual g1 ~name:"NonBool"
       (Klass.Select (a, Expr.Arith (Expr.Add, Expr.int 1, Expr.int 2))) []);
  ignore
    (Schema_graph.register_virtual g1 ~name:"Invis"
       (Klass.Select (a, Expr.(attr "zz" === int 1))) []);
  note (codes (Analysis.analyze g1));
  (* E102 (needs a conflict), E111 (cycle suppresses other codes), E110
     (dangling source): separate graphs to avoid interference *)
  let g2 = mk_graph () in
  let p1 =
    Schema_graph.register_base g2 ~name:"P1" ~props:[ stored "x" Value.TInt ]
      ~supers:[]
  in
  let p2 =
    Schema_graph.register_base g2 ~name:"P2" ~props:[ stored "x" Value.TInt ]
      ~supers:[]
  in
  let c = Schema_graph.register_base g2 ~name:"C" ~props:[] ~supers:[ p1; p2 ] in
  Schema_graph.add_local_prop g2 c (method_ "m" (Expr.attr "x"));
  Schema_graph.add_local_prop g2 c (method_ "m1" (Expr.attr "m2"));
  Schema_graph.add_local_prop g2 c (method_ "m2" (Expr.attr "m1"));
  note (codes (Analysis.analyze g2));
  let g3 = mk_graph () in
  let a3 = base_abc g3 in
  ignore
    (Schema_graph.register_virtual g3 ~name:"V"
       (Klass.Select (a3, Expr.bool true)) []);
  Schema_graph.remove g3 a3;
  note (codes (Analysis.analyze g3));
  (* gate-only codes: E108 (attribute default conformance), E123 on a
     proposed partition, W212 on a proposed coalesce *)
  let tsem = university_tsem () in
  let db = Tsem.db tsem in
  let view = Tsem.current tsem "V" in
  let gate change =
    note
      (List.map (fun d -> d.Diagnostic.code) (Admission.check db view change))
  in
  gate
    (Change.Add_attribute
       { cls = "Student";
         def = Change.attr ~default:(Value.Int 3) "flag" Value.TBool });
  gate
    (Change.Partition_class
       { cls = "Student"; predicate = Expr.bool false; into_true = "T";
         into_false = "F" });
  gate (Change.Coalesce_classes { a = "Student"; b = "Staff"; as_name = "M" });
  (* lens verdict codes over one crafted database: E120..E123, W210..W213 *)
  let ldb = Database.create () in
  let lg = Database.graph ldb in
  let reg name props supers =
    Schema_graph.register_base lg ~name ~props ~supers
  in
  let b0 =
    reg "B0"
      [ stored "a" Value.TInt;
        Prop.stored ~required:true ~origin "key" Value.TInt ]
      []
  in
  let b1 = reg "B1" [ stored "a" Value.TInt ] [] in
  let b2 = reg "B2" [ stored "c" Value.TInt ] [ b0 ] in
  let module Ops = Tse_algebra.Ops in
  ignore (Ops.select ldb ~name:"LSel" ~src:b0 Expr.(attr "a" >= int 5));
  ignore (Ops.select ldb ~name:"LEmpty" ~src:b0 (Expr.bool false));
  ignore (Ops.hide ldb ~name:"LHide" ~props:[ "key" ] ~src:b0);
  ignore (Ops.union ldb ~name:"LUnion" b0 b1);
  ignore (Ops.intersect ldb ~name:"LInter" b0 b1);
  ignore (Ops.difference ldb ~name:"LDiff" b0 b1);
  ignore (Ops.difference ldb ~name:"LDiffEmpty" b2 b0);
  note
    (List.map
       (fun d -> d.Diagnostic.code)
       (Tse_analysis.Lens.diagnostics (Tse_analysis.Lens.analyze lg)));
  let produced = List.sort_uniq String.compare !produced in
  let declared = List.map fst Diagnostic.declared_codes in
  List.iter
    (fun code ->
      Alcotest.(check bool)
        (Printf.sprintf "declared code %s is produced by some check" code)
        true (List.mem code produced))
    declared;
  List.iter
    (fun code ->
      Alcotest.(check bool)
        (Printf.sprintf "produced code %s is declared" code)
        true (List.mem code declared))
    produced

(* ---------------- the qcheck property ---------------- *)

(* Every schema reachable by the random evolution generator is
   diagnostic-clean: the generator only produces well-typed predicates
   and bodies, and the translator only derives well-formed classes — so
   the analyzer finding an error on a reachable schema means either a
   translator bug or an analyzer false positive. *)
let prop_reachable_schemas_clean =
  QCheck.Test.make
    ~name:"random evolution reaches only diagnostic-clean schemas" ~count:40
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000))
    (fun seed ->
      let rng = Random.State.make [| seed; 59 |] in
      let rs = Random_schema.generate ~seed ~classes:10 ~objects:10 () in
      let tsem = Tsem.of_database rs.db in
      ignore
        (Tsem.define_view_by_names tsem ~name:"V" (Random_schema.class_names rs));
      for _ = 1 to 5 do
        try ignore (Tsem.evolve tsem ~view:"V" (Testkit.random_change rng rs))
        with Change.Rejected _ | Invalid_argument _ | Failure _ ->
          (* translator precondition rejections — either way the
             schema we are left with must still analyze clean *)
          ()
      done;
      Analysis.errors (Analysis.analyze (Database.graph rs.db)) = [])

let suite =
  [
    Alcotest.test_case "E101 undefined property" `Quick test_e101_undefined;
    Alcotest.test_case "E102 ambiguous property" `Quick test_e102_ambiguous;
    Alcotest.test_case "E103 unknown class" `Quick test_e103_unknown_class;
    Alcotest.test_case "E104 type mismatches" `Quick test_e104_type_mismatches;
    Alcotest.test_case "E105 concat non-string" `Quick test_e105_concat;
    Alcotest.test_case "E106 constant division by zero" `Quick test_e106_div_zero;
    Alcotest.test_case "E107 non-boolean predicate" `Quick
      test_e107_nonbool_predicate;
    Alcotest.test_case "E110 dangling source" `Quick test_e110_dangling_source;
    Alcotest.test_case "E111 derived-method cycle" `Quick test_e111_method_cycle;
    Alcotest.test_case "E112 invisible attribute" `Quick test_e112_invisible_attr;
    Alcotest.test_case "W201 dead branch" `Quick test_w201_dead_branch;
    Alcotest.test_case "W202 unsatisfiable predicate" `Quick
      test_w202_unsat_predicate;
    Alcotest.test_case "constant-true predicate is not flagged" `Quick
      test_constant_true_not_flagged;
    Alcotest.test_case "derived methods followed for their type" `Quick
      test_methods_followed_for_type;
    Alcotest.test_case "capacity facts per derivation" `Quick test_capacity_facts;
    Alcotest.test_case "capacity of changes" `Quick test_capacity_of_change;
    Alcotest.test_case "gate rejects every crafted ill-typed change" `Quick
      test_gate_rejects_ill_typed;
    Alcotest.test_case "gate rejection leaves the view intact" `Quick
      test_gate_rejection_leaves_view_intact;
    Alcotest.test_case "gate feeds the analysis.* counters" `Quick
      test_gate_counters;
    Alcotest.test_case "well-typed changes pass the gate" `Quick
      test_gate_well_typed_changes_admitted;
    Alcotest.test_case "report JSON shape" `Quick test_report_json_shape;
    Alcotest.test_case "diagnostic ordering" `Quick test_diagnostic_ordering;
    Alcotest.test_case "report renderings are byte-stable" `Quick
      test_report_byte_stability;
    Alcotest.test_case "every declared code is produced" `Quick
      test_code_exhaustiveness;
    Qcheck_det.to_alcotest prop_reachable_schemas_clean;
  ]
