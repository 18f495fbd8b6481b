(* Regenerates the transcript of every table and figure in the paper.
   Usage: experiments.exe [fig1 .. fig16 | table1 | table2 | stats | all] *)

open Tse_store
open Tse_schema
open Tse_db
open Tse_views
open Tse_core
open Tse_workload
open Tse_baselines

let hdr title =
  Printf.printf "\n==================================================\n%s\n==================================================\n"
    title

let show_view db view =
  Format.printf "%a@." (Generation.pp (Database.graph db)) view

let show_extents db = Format.printf "%a@." Database.pp_extents db

let show_class db cid =
  let g = Database.graph db in
  let k = Schema_graph.find_exn g cid in
  Format.printf "  %s%s: {%s}  extent=%d@." k.Klass.name
    (if Klass.is_virtual k then "*" else "")
    (String.concat "; "
       (List.map
          (fun (n, e) -> Format.asprintf "%s=%a" n Type_info.pp_entry e)
          (Type_info.full_type g cid)))
    (Database.extent_size db cid)

let uni_with_population n =
  let u = University.build () in
  ignore (University.populate u ~n);
  u

(* ------------------------------------------------------------------ *)

let fig1 () =
  hdr "Figure 1 — the TSE approach: view replaced, global schema augmented";
  let u = uni_with_population 12 in
  let tsem = Tsem.of_database u.db in
  let v0 = Tsem.define_view_by_names tsem ~name:"VS" [ "Person"; "Student"; "TA" ] in
  Printf.printf "before the change, global schema has %d classes\n"
    (Schema_graph.size (Database.graph u.db));
  show_view u.db v0;
  let v1 =
    Tsem.evolve tsem ~view:"VS"
      (Change.Add_attribute { cls = "Student"; def = Change.attr "register" Value.TBool })
  in
  Printf.printf
    "after 'add_attribute register to Student': global schema has %d classes\n"
    (Schema_graph.size (Database.graph u.db));
  Printf.printf "the user's view was REPLACED (v%d -> v%d); the old one survives:\n"
    v0.View_schema.version v1.View_schema.version;
  show_view u.db v1;
  Printf.printf "old version still registered: %b\n"
    (History.version (Tsem.history tsem) "VS" 0 <> None)

let fig2 () =
  hdr "Figure 2 — the university global schema";
  let u = uni_with_population 24 in
  Format.printf "%a@." Schema_graph.pp (Database.graph u.db);
  show_extents u.db

let fig3_7 () =
  hdr "Figures 3 and 7 — add_attribute register to Student (full pipeline)";
  let u = uni_with_population 12 in
  let tsem = Tsem.of_database u.db in
  ignore (Tsem.define_view_by_names tsem ~name:"VS1" [ "Person"; "Student"; "TA" ]);
  Printf.printf "VS1 (before):\n";
  show_view u.db (Tsem.current tsem "VS1");
  let v2 =
    Tsem.evolve tsem ~view:"VS1"
      (Change.Add_attribute { cls = "Student"; def = Change.attr "register" Value.TBool })
  in
  Printf.printf
    "translator emitted: defineVC Student' as (refine register for Student);\n\
    \                    defineVC TA' as (refine Student':register for TA)\n";
  Printf.printf "VS2 (after; primed classes renamed back inside the view):\n";
  show_view u.db v2;
  Printf.printf "global classes now:\n";
  List.iter (show_class u.db)
    [ u.person; u.student; View_schema.cid_of_exn v2 "Student";
      u.ta; View_schema.cid_of_exn v2 "TA"; u.grad ];
  Printf.printf "note: Grad (outside the view) is untouched\n"

let fig4 () =
  hdr "Figure 4 — virtual class creation: AgelessPerson = hide age from Person";
  let u = uni_with_population 6 in
  let ageless =
    Tse_algebra.Ops.hide u.db ~name:"AgelessPerson" ~props:[ "age" ] ~src:u.person
  in
  show_class u.db ageless;
  show_class u.db u.person;
  Printf.printf "AgelessPerson classified above Person: %b; same extent: %b\n"
    (Schema_graph.is_strict_ancestor (Database.graph u.db) ~anc:ageless
       ~desc:u.person)
    (Oid.Set.equal (Database.extent u.db ageless) (Database.extent u.db u.person))

let fig5 () =
  hdr "Figure 5 — multiple classification: o1 is both Jeep and Imported";
  let module S = Tse_objmodel.Slicing in
  let module I = Tse_objmodel.Intersection in
  let cars = Cars.build () in
  let m = S.create ~graph:cars.graph ~heap:cars.heap ~stats:(Tse_store.Stats.create ()) in
  let o1 = S.create_object m cars.jeep in
  S.add_to_class m o1 cars.imported;
  Printf.printf
    "object-slicing: o1 = conceptual %s with %d implementation objects (Car, Jeep, Imported)\n"
    (Oid.to_string o1) (S.impl_count m o1);
  let cars2 = Cars.build () in
  let mi =
    I.create ~graph:cars2.graph ~heap:cars2.heap ~stats:(Tse_store.Stats.create ())
  in
  let o1' = I.create_object mi cars2.jeep in
  I.add_to_class mi o1' cars2.imported;
  Printf.printf
    "intersection-class: o1 moved into auto-created class %s (copies=%d, swaps=%d)\n"
    (Schema_graph.name_of cars2.graph (I.class_of mi o1'))
    (I.stats mi).Tse_store.Stats.copies
    (I.stats mi).Tse_store.Stats.identity_swaps

let fig6 () =
  hdr "Figure 6 — the TSE system architecture (module map)";
  List.iter print_endline
    [
      "  user schema change";
      "        |";
      "  TSEM (Tse_core.Tsem) ----(1)----> TSE Translator (Tse_core.Translator)";
      "        |                               | emits extended object algebra";
      "        |                               v";
      "        |                 Extended Object Algebra (Tse_algebra.Ops)";
      "        |----(2)----> Classifier (Tse_classifier.Classification)";
      "        |----(3)----> View Manager (Tse_views.{View_schema,Generation,Closure})";
      "        |                 View Schema History (Tse_views.History)";
      "  Global Schema Manager (Tse_db.Database)";
      "  TSE object model: object slicing (Tse_objmodel.Slicing)";
      "  persistent store standing in for GemStone (Tse_store.{Heap,Snapshot,Wal})";
    ]

let fig8 () =
  hdr "Figure 8 — delete_attribute gpa from Student";
  let u = uni_with_population 12 in
  let tsem = Tsem.of_database u.db in
  ignore (Tsem.define_view_by_names tsem ~name:"VS" [ "Person"; "Student"; "TA" ]);
  let v1 =
    Tsem.evolve tsem ~view:"VS"
      (Change.Delete_attribute { cls = "Student"; attr_name = "gpa" })
  in
  show_view u.db v1;
  Printf.printf "new Student type: ";
  show_class u.db (View_schema.cid_of_exn v1 "Student");
  Printf.printf "the stored gpa data is NOT deleted — the old view still reads it:\n";
  show_class u.db u.student

let fig9 () =
  hdr "Figure 9 — add_edge SupportStaff-TA";
  let u = uni_with_population 24 in
  let tsem = Tsem.of_database u.db in
  ignore
    (Tsem.define_view_by_names tsem ~name:"VS"
       [ "Person"; "Student"; "Staff"; "TeachingStaff"; "SupportStaff"; "TA"; "Grader" ]);
  Printf.printf "before: extent(SupportStaff)=%d, extent(TA)=%d\n"
    (Database.extent_size u.db u.support_staff)
    (Database.extent_size u.db u.ta);
  let v1 =
    Tsem.evolve tsem ~view:"VS" (Change.Add_edge { sup = "SupportStaff"; sub = "TA" })
  in
  show_view u.db v1;
  let support' = View_schema.cid_of_exn v1 "SupportStaff" in
  let ta' = View_schema.cid_of_exn v1 "TA" in
  Printf.printf "after: extent(SupportStaff')=%d (expanded by the TAs)\n"
    (Database.extent_size u.db support');
  Printf.printf "TA now inherits boss: %b; Grader too: %b\n"
    (Type_info.has_prop (Database.graph u.db) ta' "boss")
    (Type_info.has_prop (Database.graph u.db)
       (View_schema.cid_of_exn v1 "Grader") "boss")

let fig10 () =
  hdr "Figure 10 — delete_edge TeachingStaff-TA";
  let u = uni_with_population 24 in
  let tsem = Tsem.of_database u.db in
  ignore
    (Tsem.define_view_by_names tsem ~name:"VS"
       [ "Person"; "Student"; "Staff"; "TeachingStaff"; "SupportStaff"; "TA"; "Grader" ]);
  Printf.printf "before: extent(TeachingStaff)=%d (includes the TAs)\n"
    (Database.extent_size u.db u.teaching_staff);
  let v1 =
    Tsem.evolve tsem ~view:"VS"
      (Change.Delete_edge { sup = "TeachingStaff"; sub = "TA"; connected_to = None })
  in
  show_view u.db v1;
  let teaching' = View_schema.cid_of_exn v1 "TeachingStaff" in
  let ta' = View_schema.cid_of_exn v1 "TA" in
  Printf.printf "after: extent(TeachingStaff')=%d (TAs hidden)\n"
    (Database.extent_size u.db teaching');
  Printf.printf "lecture still on TA? %b (findProperties hid it)\n"
    (Type_info.has_prop (Database.graph u.db) ta' "lecture")

let fig11 () =
  hdr "Figure 11 — the commonSub diamond";
  let db = Database.create () in
  let g = Database.graph db in
  let reg name supers =
    Schema_graph.register_base g ~name ~props:[] ~supers
  in
  let v = reg "V" [] in
  let csup = reg "Csup" [ v ] in
  let csub = reg "Csub" [ csup ] in
  let c1 = reg "C1" [ v; csub ] in
  let _c2 = reg "C2" [ v; csub ] in
  let _c3 = reg "C3" [ v; csub ] in
  ignore (Database.create_object db c1 ~init:[]);
  ignore (Database.create_object db csub ~init:[]);
  let tsem = Tsem.of_database db in
  let w =
    Tsem.define_view_by_names tsem ~name:"W" [ "V"; "Csup"; "Csub"; "C1"; "C2"; "C3" ]
  in
  let commons =
    Macros.common_sub (Macros.assume_deleted db w ~sup:csup ~sub:csub) v
  in
  Printf.printf "commonSub(V, Csub, minus Csup-Csub) = {%s}\n"
    (String.concat ", " (List.map (Schema_graph.name_of g) commons));
  let v1 =
    Tsem.evolve tsem ~view:"W"
      (Change.Delete_edge { sup = "Csup"; sub = "Csub"; connected_to = None })
  in
  Printf.printf "after the change: extent(V)=%d (C1's instance retained), extent(Csup)=%d\n"
    (Database.extent_size db (View_schema.cid_of_exn v1 "V"))
    (Database.extent_size db (View_schema.cid_of_exn v1 "Csup"))

let fig12_13 () =
  hdr "Figures 12/13 — add_class below a virtual class (derivation replay)";
  let u = uni_with_population 0 in
  let honor =
    Tse_algebra.Ops.select u.db ~name:"HonorStudent" ~src:u.student
      Expr.(attr "gpa" >= Const (Value.Float 3.5))
  in
  let tsem = Tsem.of_database u.db in
  ignore
    (Tsem.define_view_by_names tsem ~name:"VS" [ "Person"; "Student"; "HonorStudent" ]);
  let v1 =
    Tsem.evolve tsem ~view:"VS"
      (Change.Add_class { cls = "HonorParttime"; connected_to = Some "HonorStudent" })
  in
  let cadd = View_schema.cid_of_exn v1 "HonorParttime" in
  Printf.printf
    "HonorParttime built by replaying HonorStudent's derivation over a fresh\n\
     empty base subclass of its origin class (Student):\n";
  show_view u.db v1;
  Printf.printf "subclass of HonorStudent: %b; initially empty: %b\n"
    (Schema_graph.is_strict_ancestor (Database.graph u.db) ~anc:honor ~desc:cadd)
    (Database.extent_size u.db cadd = 0);
  let o =
    Tse_update.Generic.create u.db cadd
      ~init:[ ("name", Value.String "zoe"); ("gpa", Value.Float 3.9) ]
  in
  Printf.printf
    "created one member via the new class; visible in HonorStudent: %b\n"
    (Oid.Set.mem o (Database.extent u.db honor))

let fig14 () =
  hdr "Figure 14 — insert_class Middle between Person-Student";
  let u = uni_with_population 12 in
  let tsem = Tsem.of_database u.db in
  ignore (Tsem.define_view_by_names tsem ~name:"VS" [ "Person"; "Student"; "TA" ]);
  let v1 =
    Tsem.evolve tsem ~view:"VS"
      (Change.Insert_class { cls = "Middle"; sup = "Person"; sub = "Student" })
  in
  show_view u.db v1;
  Printf.printf "extent(Middle)=%d (covers the students)\n"
    (Database.extent_size u.db (View_schema.cid_of_exn v1 "Middle"))

let fig15 () =
  hdr "Figure 15 — delete_class_2 Student";
  let u = uni_with_population 24 in
  let tsem = Tsem.of_database u.db in
  ignore (Tsem.define_view_by_names tsem ~name:"VS" [ "Person"; "Student"; "TA"; "Grad" ]);
  let v1 = Tsem.evolve tsem ~view:"VS" (Change.Delete_class_2 { cls = "Student" }) in
  show_view u.db v1;
  let grad = View_schema.cid_of_exn v1 "Grad" in
  Printf.printf "Grad no longer inherits Student's gpa: %b; keeps thesis: %b\n"
    (not (Type_info.has_prop (Database.graph u.db) grad "gpa"))
    (Type_info.has_prop (Database.graph u.db) grad "thesis");
  Printf.printf "Person extent excludes the pure students: %d of %d objects\n"
    (Database.extent_size u.db (View_schema.cid_of_exn v1 "Person"))
    (Database.object_count u.db)

let fig16 () =
  hdr "Figure 16 — merging two schema versions";
  let u = uni_with_population 12 in
  let tsem = Tsem.of_database u.db in
  ignore (Tsem.define_view_by_names tsem ~name:"VS1" [ "Person"; "Student"; "TA" ]);
  ignore (Tsem.define_view_by_names tsem ~name:"VS2" [ "Person"; "Student"; "TA" ]);
  ignore
    (Tsem.evolve tsem ~view:"VS1"
       (Change.Add_attribute { cls = "Student"; def = Change.attr "register" Value.TBool }));
  ignore
    (Tsem.evolve tsem ~view:"VS2"
       (Change.Add_attribute { cls = "Student"; def = Change.attr "student_id" Value.TInt }));
  let merged = Merge.merge_current tsem ~view1:"VS1" ~view2:"VS2" ~new_name:"VS3" in
  Printf.printf "VS3 = merge(VS1, VS2):\n";
  show_view u.db merged;
  Printf.printf
    "identical Person kept once; the two distinct Students disambiguated;\n\
     instances are shared throughout (never copied per version)\n"

let table1 () =
  hdr "Table 1 — object-slicing vs intersection-class (measured)";
  List.iter
    (fun (n, k) ->
      Format.printf "%a@.@." Table1.pp_comparison
        (Table1.measure ~objects:n ~types_per_object:k))
    [ (1000, 2); (1000, 4) ];
  Printf.printf "class-explosion worst case (every subset of n aspect types):\n";
  List.iter
    (fun n ->
      let s, i = Table1.worst_case_classes ~aspects:n in
      Printf.printf
        "  aspects=%d: slicing adds %d classes, intersection adds %d (2^n-n-1=%d)\n"
        n s i ((1 lsl n) - n - 1))
    [ 2; 3; 4; 5; 6 ]

let table2 () =
  hdr "Table 2 — comparison with related systems (scenario-measured)";
  Format.printf "%a@." Criteria.pp_table (Criteria.run_all ())

let stats () =
  hdr "Section 2 — evolution-frequency statistics [26],[12], synthesized";
  let initial_classes = 10 and initial_attrs = 30 in
  let trace =
    Evolution_trace.generate ~seed:42 ~months:18 ~initial_classes ~initial_attrs
  in
  let s = Evolution_trace.summarize trace in
  let cg, ag, ac = Evolution_trace.ratios s ~initial_classes ~initial_attrs in
  Printf.printf
    "18-month synthetic trace: %d changes (%d add-attr, %d del-attr, %d add-class, %d add-method)\n"
    s.total s.adds_attribute s.deletes_attribute s.adds_class s.adds_method;
  Printf.printf
    "growth ratios: classes +%.0f%% (target 139%%), attributes +%.0f%% (target 274%%), changed %.0f%% (target 59%%)\n"
    (cg *. 100.) (ag *. 100.) (ac *. 100.);
  let rs = Random_schema.generate ~seed:42 ~classes:initial_classes ~objects:40 () in
  let tsem = Tsem.of_database rs.db in
  ignore (Tsem.define_view_by_names tsem ~name:"V" (Random_schema.class_names rs));
  let applied = ref 0 and rejected = ref 0 in
  Evolution_trace.replay tsem ~view:"V" trace ~applied ~rejected;
  Printf.printf
    "replayed through TSE: %d applied, %d rejected; view at version %d; db consistent: %b\n"
    !applied !rejected
    (Tsem.current tsem "V").View_schema.version
    (Database.check rs.db = [])

let all =
  [
    ("fig1", fig1); ("fig2", fig2); ("fig3", fig3_7); ("fig7", fig3_7);
    ("fig4", fig4); ("fig5", fig5); ("fig6", fig6); ("fig8", fig8);
    ("fig9", fig9); ("fig10", fig10); ("fig11", fig11); ("fig12", fig12_13);
    ("fig13", fig12_13); ("fig14", fig14); ("fig15", fig15); ("fig16", fig16);
    ("table1", table1); ("table2", table2); ("stats", stats);
  ]

let () =
  let unique_all =
    [ fig1; fig2; fig3_7; fig4; fig5; fig6; fig8; fig9; fig10; fig11;
      fig12_13; fig14; fig15; fig16; table1; table2; stats ]
  in
  match Array.to_list Sys.argv with
  | [ _ ] | [ _; "all" ] -> List.iter (fun f -> f ()) unique_all
  | _ :: picks ->
    List.iter
      (fun p ->
        match List.assoc_opt p all with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown experiment %s; known: %s\n" p
            (String.concat ", " (List.map fst all));
          exit 1)
      picks
  | [] -> ()
