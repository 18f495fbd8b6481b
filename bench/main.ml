(* The benchmark harness: regenerates the measured counterpart of every
   table and figure of the paper's evaluation, plus the ablations listed
   in DESIGN.md. Absolute numbers are machine-dependent; the SHAPE (who
   wins, by what factor, where crossovers fall) is what reproduces the
   paper's claims. *)

open Bechamel
open Toolkit
open Tse_store
open Tse_schema
open Tse_db
open Tse_core
open Tse_workload
open Tse_baselines

let hdr title =
  Printf.printf "\n=== %s %s\n" title
    (String.make (max 1 (66 - String.length title)) '=')

let now () = Sys.time ()

(* Run one bechamel test group and print (name, ns/run, r²) rows. *)
let measure ?(quota = 0.25) test =
  (* stabilize:false — GC stabilization loops pathologically on
     allocation-heavy fixtures and is unnecessary for relative
     comparisons *)
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> e
        | Some [] | None -> nan
      in
      let r2 = Option.value (Analyze.OLS.r_square ols) ~default:nan in
      (name, est, r2) :: acc)
    results []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let print_rows rows =
  List.iter
    (fun (name, ns, r2) ->
      Printf.printf "  %-46s %12.1f ns/op   (r²=%.3f)\n" name ns r2)
    rows

let bench ?quota name tests =
  print_rows (measure ?quota (Test.make_grouped ~name tests))

let staged f = Staged.stage f

(* ------------------------------------------------------------------ *)
(* TABLE 1 — object-slicing vs intersection-class                      *)
(* ------------------------------------------------------------------ *)

let table1_structural () =
  hdr "TABLE 1 (structural rows, measured)";
  List.iter
    (fun (n, k) ->
      Format.printf "%a@.@." Table1.pp_comparison
        (Table1.measure ~objects:n ~types_per_object:k))
    [ (1000, 2); (1000, 4) ];
  Printf.printf "class explosion (one object per subset of n aspect types):\n";
  List.iter
    (fun n ->
      let s, i = Table1.worst_case_classes ~aspects:n in
      Printf.printf
        "  aspects=%d: slicing +%d classes, intersection +%d (2^n-n-1=%d)\n" n s
        i ((1 lsl n) - n - 1))
    [ 3; 4; 5; 6 ]

let table1_timing () =
  hdr "TABLE 1 (timing rows)";
  let pair (a : unit Table1.workload) (b : unit Table1.workload) =
    [ Test.make ~name:a.label (staged a.run);
      Test.make ~name:b.label (staged b.run) ]
  in
  let cast_s, cast_i = Table1.cast_workloads ~objects:1000 in
  bench "cast" (pair cast_s cast_i);
  let loc_s, loc_i = Table1.local_attr_workloads ~objects:1000 in
  bench "get_local" (pair loc_s loc_i);
  List.iter
    (fun depth ->
      let inh_s, inh_i = Table1.inherited_attr_workloads ~depth ~objects:1000 in
      bench "get_inherited" (pair inh_s inh_i))
    [ 2; 8 ];
  let sel_s, sel_i = Table1.select_scan_workloads ~objects:1000 in
  bench "select_scan"
    [ Test.make ~name:sel_s.label (staged (fun () -> ignore (sel_s.run ())));
      Test.make ~name:sel_i.label (staged (fun () -> ignore (sel_i.run ()))) ];
  let rec_s, rec_i = Table1.reclass_workloads ~objects:256 in
  bench "dynamic classification" (pair rec_s rec_i)

(* ------------------------------------------------------------------ *)
(* TABLE 2 — related systems                                           *)
(* ------------------------------------------------------------------ *)

let table2 () =
  hdr "TABLE 2 (scenario-measured)";
  Format.printf "%a@." Criteria.pp_table (Criteria.run_all ());
  bench "table2 scenario cost"
    [
      Test.make ~name:"table2:all-scenarios"
        (staged (fun () -> ignore (Criteria.run_all ())));
    ]

(* ------------------------------------------------------------------ *)
(* FIGURES 3-15 — schema-change pipeline cost                          *)
(* ------------------------------------------------------------------ *)

(* Each run evolves a FRESH university fixture, so costs do not
   accumulate across runs; the fixture build is measured separately so it
   can be subtracted. *)
let change_bench name mk_change =
  let counter = ref 0 in
  Test.make ~name
    (staged (fun () ->
         incr counter;
         let u = University.build () in
         ignore (University.populate u ~n:12);
         let tsem = Tsem.of_database u.db in
         ignore
           (Tsem.define_view_by_names tsem ~name:"V"
              [ "Person"; "Student"; "Staff"; "TeachingStaff"; "SupportStaff";
                "TA"; "Grad"; "Grader" ]);
         ignore (Tsem.evolve tsem ~view:"V" (mk_change !counter))))

let fixture_bench =
  Test.make ~name:"baseline:fixture-build-only"
    (staged (fun () ->
         let u = University.build () in
         ignore (University.populate u ~n:12);
         let tsem = Tsem.of_database u.db in
         ignore
           (Tsem.define_view_by_names tsem ~name:"V"
              [ "Person"; "Student"; "Staff"; "TeachingStaff"; "SupportStaff";
                "TA"; "Grad"; "Grader" ])))

let figures_pipeline () =
  hdr "FIGURES 3-15 (schema-change pipeline, fresh fixture per run)";
  bench ~quota:0.4 "pipeline"
    [
      fixture_bench;
      change_bench "fig3/7:add_attribute" (fun i ->
          Change.Add_attribute
            { cls = "Student"; def = Change.attr (Printf.sprintf "r%d" i) Value.TBool });
      change_bench "fig8:delete_attribute" (fun _ ->
          Change.Delete_attribute { cls = "Student"; attr_name = "gpa" });
      change_bench "fig9:add_edge" (fun _ ->
          Change.Add_edge { sup = "SupportStaff"; sub = "TA" });
      change_bench "fig10:delete_edge" (fun _ ->
          Change.Delete_edge
            { sup = "TeachingStaff"; sub = "TA"; connected_to = None });
      change_bench "fig12:add_class" (fun i ->
          Change.Add_class
            { cls = Printf.sprintf "New%d" i; connected_to = Some "Student" });
      change_bench "fig14:insert_class" (fun i ->
          Change.Insert_class
            { cls = Printf.sprintf "Mid%d" i; sup = "Person"; sub = "Student" });
      change_bench "fig15:delete_class_2" (fun _ ->
          Change.Delete_class_2 { cls = "Student" });
    ]

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md)                                               *)
(* ------------------------------------------------------------------ *)

let ablation_direct_vs_tse () =
  hdr "ABLATION: TSE (view) change vs direct destructive change";
  let direct_bench =
    let counter = ref 0 in
    Test.make ~name:"direct:add_attribute"
      (staged (fun () ->
           incr counter;
           let u = University.build () in
           ignore (University.populate u ~n:12);
           let g = Database.graph u.db in
           let view =
             Tse_views.View_schema.make ~name:"V" ~version:0 g
               [ u.person; u.student; u.ta ]
           in
           ignore
             (Direct.apply u.db view
                (Change.Add_attribute
                   {
                     cls = "Student";
                     def = Change.attr (Printf.sprintf "r%d" !counter) Value.TBool;
                   }))))
  in
  bench ~quota:0.4 "tse-vs-direct"
    [
      fixture_bench;
      change_bench "tse:add_attribute" (fun i ->
          Change.Add_attribute
            { cls = "Student"; def = Change.attr (Printf.sprintf "r%d" i) Value.TBool });
      direct_bench;
    ]

let ablation_classifier_scaling () =
  hdr "ABLATION: classifier + view generation vs schema size";
  let tests =
    List.concat_map
      (fun n ->
        let rs = Random_schema.generate ~seed:7 ~classes:n ~objects:0 () in
        let g = Database.graph rs.db in
        let view = Tse_views.View_schema.make ~name:"V" ~version:0 g rs.classes in
        let counter = ref 0 in
        [
          Test.make
            ~name:(Printf.sprintf "classify:new-select (schema=%d)" n)
            (staged (fun () ->
                 incr counter;
                 let src = List.hd rs.classes in
                 ignore
                   (Tse_algebra.Ops.select rs.db
                      ~name:(Printf.sprintf "S%d_%d" n !counter)
                      ~src
                      Expr.(attr "a1" >= int !counter))));
          Test.make
            ~name:(Printf.sprintf "viewgen:edges (classes=%d)" n)
            (staged (fun () -> ignore (Tse_views.Generation.edges g view)));
        ])
      [ 10; 40 ]
  in
  bench "scaling" tests

let ablation_propagation_depth () =
  hdr "ABLATION: update propagation vs derivation-chain depth (Section 9)";
  let mk_chain depth =
    let u = University.build () in
    let rec go src i =
      if i >= depth then src
      else
        let next =
          Tse_algebra.Ops.select u.db
            ~name:(Printf.sprintf "Chain%d" i)
            ~src
            Expr.(attr "age" >= int 0)
        in
        go next (i + 1)
    in
    (u, go u.person 0)
  in
  let tests =
    List.map
      (fun depth ->
        let u, leaf = mk_chain depth in
        Test.make
          ~name:(Printf.sprintf "create-through-chain (depth=%d)" depth)
          (staged (fun () ->
               let o =
                 Tse_update.Generic.create u.db leaf ~init:[ ("age", Value.Int 30) ]
               in
               Tse_update.Generic.delete u.db [ o ])))
      [ 1; 4; 8 ]
  in
  bench "propagation" tests

let ablation_query_engine () =
  hdr "ABLATION: query engine — indexed select vs extent scan";
  let u = University.build () in
  let idx = Tse_query.Indexes.create u.db in
  ignore (University.populate u ~n:2000);
  Tse_query.Indexes.ensure idx u.person "age";
  let pred = Expr.(attr "age" === int 30) in
  Printf.printf "  index overhead: %d bytes for %d entries\n"
    (Tse_query.Indexes.overhead_bytes idx)
    (Database.extent_size u.db u.person);
  let no_idx = Tse_query.Indexes.create u.db in
  bench "query"
    [
      Test.make ~name:"select:indexed (2000 objs)"
        (staged (fun () -> ignore (Tse_query.Engine.select u.db idx u.person pred)));
      Test.make ~name:"select:scan (2000 objs)"
        (staged (fun () ->
             ignore (Tse_query.Engine.select u.db no_idx u.person pred)));
    ]

let ablation_snapshot () =
  hdr "ABLATION: persistence (snapshot encode/parse, 500 objects)";
  let u = University.build () in
  ignore (University.populate u ~n:500);
  let s = Snapshot.to_string (Database.heap u.db) in
  Printf.printf "  snapshot size: %d bytes\n" (String.length s);
  bench "snapshot"
    [
      Test.make ~name:"snapshot:encode"
        (staged (fun () -> ignore (Snapshot.to_string (Database.heap u.db))));
      Test.make ~name:"snapshot:decode"
        (staged (fun () -> ignore (Snapshot.of_string s)));
    ]

let ablation_durability () =
  hdr "ABLATION: durability — WAL commit, checkpoint, recovery replay";
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tse_bench_durable_%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let d, _ = Durable.open_dir ~dir () in
  let db = Durable.db d in
  let person =
    Schema_graph.register_base (Database.graph db) ~name:"Person"
      ~props:
        [
          Prop.stored ~origin:(Oid.of_int 0) "name" Value.TString;
          Prop.stored ~origin:(Oid.of_int 0) "age" Value.TInt;
        ]
      ~supers:[]
  in
  let objs =
    List.init 100 (fun i ->
        Database.create_object db person
          ~init:
            [
              ("name", Value.String (Printf.sprintf "p%04d" i));
              ("age", Value.Int i);
            ])
  in
  Durable.commit d;
  let counter = ref 0 in
  bench "durability"
    [
      Test.make ~name:"commit:one-attr batch (fsync)"
        (staged (fun () ->
             incr counter;
             Database.set_attr db (List.hd objs) "age" (Value.Int !counter);
             Durable.commit d));
      Test.make ~name:"checkpoint:fold-wal-into-snapshot"
        (staged (fun () -> Durable.checkpoint d));
    ];
  (* leave a real log tail behind, then measure opening it *)
  List.iteri (fun i o -> Database.set_attr db o "age" (Value.Int (1000 + i))) objs;
  Durable.commit d;
  Durable.close d;
  let wal_len = (Unix.stat (Filename.concat dir "wal")).Unix.st_size in
  let d2, report = Durable.open_dir ~dir () in
  Printf.printf "  log tail: %d byte(s), %d batch(es), %d entries\n" wal_len
    report.Recovery.batches_applied report.Recovery.entries_applied;
  Durable.close d2;
  bench "recovery"
    [
      Test.make ~name:"open:snapshot+wal-tail (100 objs)"
        (staged (fun () ->
             let d, _ = Durable.open_dir ~dir () in
             Durable.close d));
    ]

let evolution_longitudinal () =
  hdr "SECTION 2 STATS: 18-month trace replayed through TSE";
  let initial_classes = 10 and initial_attrs = 30 in
  let trace =
    Evolution_trace.generate ~seed:42 ~months:18 ~initial_classes ~initial_attrs
  in
  let s = Evolution_trace.summarize trace in
  let rs =
    Random_schema.generate ~seed:42 ~classes:initial_classes ~objects:50 ()
  in
  let tsem = Tsem.of_database rs.db in
  ignore (Tsem.define_view_by_names tsem ~name:"V" (Random_schema.class_names rs));
  let applied = ref 0 and rejected = ref 0 in
  let t0 = now () in
  Evolution_trace.replay tsem ~view:"V" trace ~applied ~rejected;
  let dt = now () -. t0 in
  Printf.printf
    "  %d changes (%d applied, %d rejected) in %.3f s — %.2f ms/change\n"
    s.Evolution_trace.total !applied !rejected dt
    (1000. *. dt /. float_of_int (max 1 !applied));
  Printf.printf "  final schema: %d classes; view version %d; consistent: %b\n"
    (Schema_graph.size (Database.graph rs.db))
    (Tsem.current tsem "V").Tse_views.View_schema.version
    (Database.check rs.db = [])

let () =
  let argv = Array.to_list Sys.argv in
  if List.mem "reclassify" argv then begin
    Bench_reclassify.run ~smoke:(List.mem "--smoke" argv) ();
    exit 0
  end;
  if List.mem "query" argv then begin
    Bench_query.run ~smoke:(List.mem "--smoke" argv) ();
    exit 0
  end;
  if List.mem "commit" argv then begin
    Bench_commit.run ~smoke:(List.mem "--smoke" argv) ();
    exit 0
  end;
  if List.mem "analyze" argv then begin
    Bench_analyze.run ~smoke:(List.mem "--smoke" argv) ();
    exit 0
  end;
  Printf.printf
    "TSE benchmark harness — one section per paper table/figure + ablations\n";
  table1_structural ();
  table1_timing ();
  table2 ();
  figures_pipeline ();
  ablation_direct_vs_tse ();
  ablation_classifier_scaling ();
  ablation_propagation_depth ();
  ablation_query_engine ();
  ablation_snapshot ();
  ablation_durability ();
  evolution_longitudinal ();
  Printf.printf "\nbench: done\n"
