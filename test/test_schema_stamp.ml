(* The graph version as the schema's change detector. [Durable.commit]
   logs schema records only when [Schema_graph.version] moved since its
   last commit, and then only the classes [Schema_graph.changed_since]
   names, so every schema mutation must move the version and stamp the
   class it edits. The first property walks random change sequences
   through both mutation styles (the transparent translator and
   in-place [Direct] surgery); the second adds view definitions and
   merges and checks the delta itself. The durable tests drive each
   mutation path through a commit, a crash-like abandon and a reopen,
   and demand that the reopened schema encodes exactly like the
   in-memory one. *)

open Tse_store
open Tse_schema
open Tse_db
open Tse_core
open Tse_workload
module Ops = Tse_algebra.Ops
module View_schema = Tse_views.View_schema
module Metrics = Tse_obs.Metrics

let check = Alcotest.check
let view = "V"

(* ---------------- the version catches every mutation ---------------- *)

(* Testkit.random_change plus renames and partitions, which only
   the translator can express (the direct twin rejects partitions). *)
let mixed_change rng (rs : Random_schema.t) step =
  let g = Database.graph rs.db in
  let name () = Schema_graph.name_of g (Random_schema.random_class rng rs) in
  match Random.State.int rng 10 with
  | 0 ->
    Change.Rename_class
      { old_name = name (); new_name = Printf.sprintf "R%d" step }
  | 1 ->
    Change.Partition_class
      {
        cls = name ();
        predicate = Expr.bool true;
        into_true = Printf.sprintf "P%dt" step;
        into_false = Printf.sprintf "P%df" step;
      }
  | _ -> Testkit.random_change rng rs

(* Applies [change], rejected or not (a rejection mid-translation may
   already have touched the schema), and fails if the encoded schema
   moved while the version stayed put. *)
let step_checked ~who ~step db change apply =
  let encode () = Schema_codec.encode_graph (Database.graph db) in
  let version () = Schema_graph.version (Database.graph db) in
  let before = encode () and stamp = version () in
  (try apply () with Change.Rejected _ -> ());
  if (not (String.equal (encode ()) before)) && version () = stamp then
    QCheck.Test.fail_reportf
      "%s, step %d: %s changed the schema but not the graph version" who step
      (Change.to_string change)

let prop_stamp_covers_mutations =
  QCheck.Test.make ~name:"every schema mutation moves the graph version"
    ~count:40 Test_property.seed_arb (fun seed ->
      let rng = Random.State.make [| seed; 43 |] in
      let mk () = Random_schema.generate ~seed ~classes:8 ~objects:16 () in
      let rs1 = mk () and rs2 = mk () in
      let names = Random_schema.class_names rs1 in
      let tsem = Tsem.of_database rs1.db in
      ignore (Tsem.define_view_by_names tsem ~name:view names);
      let g2 = Database.graph rs2.db in
      let direct_view =
        ref
          (View_schema.make ~name:view ~version:0 g2
             (List.map (fun n -> (Schema_graph.find_by_name_exn g2 n).Klass.cid)
                names))
      in
      for step = 1 to 10 do
        let change = mixed_change rng rs1 step in
        step_checked ~who:"translator" ~step rs1.db change (fun () ->
            ignore (Tsem.evolve tsem ~view change));
        step_checked ~who:"direct" ~step rs2.db change (fun () ->
            direct_view := Direct.apply rs2.db !direct_view change)
      done;
      true)

(* ---------------- every mutation path survives a reopen ---------------- *)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tse_stamp_%d_%d" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir
    end;
    dir

let stored = Prop.stored ~origin:(Oid.of_int 0)
let encode db = Schema_codec.encode_graph (Database.graph db)

let reg db name props supers =
  Schema_graph.register_base (Database.graph db) ~name ~props ~supers

(* Person <- Student with two members, committed, then one data-only
   commit so the durable schema image is at the current stamp before a
   test mutates anything. *)
let build db =
  let person =
    reg db "Person" [ stored "name" Value.TString; stored "age" Value.TInt ] []
  in
  let student = reg db "Student" [ stored "gpa" Value.TInt ] [ person ] in
  let o1 =
    Database.create_object db person
      ~init:[ ("name", Value.String "ann"); ("age", Value.Int 30) ]
  in
  ignore
    (Database.create_object db student
       ~init:[ ("name", Value.String "bob"); ("age", Value.Int 19) ]);
  (person, o1)

let settle d o1 =
  Durable.commit d;
  Database.set_attr (Durable.db d) o1 "age" (Value.Int 31);
  Durable.commit d

(* the reopened schema must be the one the abandoned handle held *)
let expect_reopened what ~dir expected =
  let d, _ = Durable.open_dir ~policy:Durable.Every_commit ~dir () in
  check Alcotest.string (what ^ ": reopened schema") expected
    (encode (Durable.db d));
  (match Database.check (Durable.db d) with
  | [] -> ()
  | p -> Alcotest.failf "%s: inconsistent: %s" what (String.concat "; " p));
  Durable.close d

(* a plain durable handle: build, settle, [mutate], commit, abandon *)
let durable_path what mutate () =
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ~policy:Durable.Every_commit ~dir () in
  let db = Durable.db d in
  let person, o1 = build db in
  settle d o1;
  let before = encode db in
  mutate db person;
  let expected = encode db in
  Alcotest.(check bool) (what ^ ": the schema moved") false
    (String.equal before expected);
  Durable.commit d;
  Durable.abandon d;
  expect_reopened what ~dir expected

let test_register_base =
  durable_path "register_base" (fun db person ->
      ignore (reg db "Staff" [ stored "salary" Value.TInt ] [ person ]))

let test_ops_select =
  durable_path "Ops.select" (fun db person ->
      ignore (Ops.select db ~name:"Adult" ~src:person Expr.(attr "age" >= int 21)))

(* in-place surgery edits a class through the graph, which moves the
   version that tells the commit to log the class *)
let test_direct_surgery =
  durable_path "Direct surgery" (fun db _ ->
      let v =
        View_schema.make ~name:view ~version:0 (Database.graph db)
          (List.map
             (fun n -> (Schema_graph.find_by_name_exn (Database.graph db) n).Klass.cid)
             [ "Person"; "Student" ])
      in
      let version = Schema_graph.version (Database.graph db) in
      ignore
        (Direct.apply db v
           (Change.Add_attribute
              { cls = "Student"; def = Change.attr "credits" Value.TInt }));
      check Alcotest.bool "surgery moves the graph version" true
        (Schema_graph.version (Database.graph db) > version))

(* a class removed after it was logged: the delta names its cid, and
   replay drops the logged record *)
let test_remove_logged () =
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ~policy:Durable.Every_commit ~dir () in
  let db = Durable.db d in
  let person, o1 = build db in
  let adult =
    Ops.select db ~name:"Adult" ~src:person Expr.(attr "age" >= int 21)
  in
  settle d o1;
  let g = Database.graph db in
  let stamp = Schema_graph.version g in
  Schema_graph.remove g adult;
  let _, removed = Schema_graph.changed_since g stamp in
  check Alcotest.bool "the removal is reported" true
    (List.exists (Oid.equal adult) removed);
  let expected = encode db in
  Durable.commit d;
  Durable.abandon d;
  expect_reopened "Schema_graph.remove" ~dir expected

(* the evolution layer: a view definition and an accepted evolution *)
let tse_path what act () =
  let dir = fresh_dir () in
  let t, _ = Durable_tse.open_dir ~policy:Durable.Every_commit ~dir () in
  let _, o1 = build (Durable_tse.db t) in
  settle (Durable_tse.durable t) o1;
  act t;
  let expected = encode (Durable_tse.db t) in
  Durable_tse.commit t;
  Durable_tse.abandon t;
  expect_reopened what ~dir expected

let test_define_view =
  tse_path "define_view" (fun t ->
      ignore
        (Durable_tse.define_view_by_names t ~name:view [ "Person"; "Student" ]))

let test_evolve_many =
  tse_path "Durable_tse.evolve_many" (fun t ->
      ignore
        (Durable_tse.define_view_by_names t ~name:view [ "Person"; "Student" ]);
      match
        Durable_tse.evolve_many t ~view
          [
            Change.Add_attribute
              { cls = "Person"; def = Change.attr "rank" Value.TInt };
            Change.Add_class { cls = "Staff"; connected_to = Some "Person" };
          ]
      with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "evolution rejected: %s" m)

(* ---------------- the class delta is sound ---------------- *)

module History_codec = Tse_views.History_codec

let class_bytes g =
  List.map
    (fun (k : Klass.t) ->
      let buf = Buffer.create 64 in
      Schema_codec.add_class buf k;
      (k.cid, Buffer.contents buf))
    (Schema_graph.classes g)

(* [Durable.commit] logs [changed_since] of the last logged version, so
   it must name every class whose record bytes moved and every class
   that is gone *)
let check_delta ~who ~step g before stamp =
  let changed, removed = Schema_graph.changed_since g stamp in
  let after = class_bytes g in
  List.iter
    (fun (cid, bytes) ->
      match List.assoc_opt cid before with
      | Some b when String.equal b bytes -> ()
      | Some _ | None ->
        if not (List.exists (fun (k : Klass.t) -> Oid.equal k.cid cid) changed)
        then
          QCheck.Test.fail_reportf "%s, step %d: %s changed but not in the delta"
            who step (Schema_graph.name_of g cid))
    after;
  List.iter
    (fun (cid, _) ->
      if (not (List.mem_assoc cid after))
         && not (List.exists (Oid.equal cid) removed)
      then
        QCheck.Test.fail_reportf "%s, step %d: %s removed but not reported" who
          step (Oid.to_string cid))
    before

let random_names rng g =
  let names =
    Schema_graph.classes g
    |> List.filter (fun (k : Klass.t) -> not (Oid.equal k.cid (Schema_graph.root g)))
    |> List.map (fun (k : Klass.t) -> k.name)
    |> List.sort String.compare
  in
  List.filter (fun _ -> Random.State.int rng 3 = 0) names

(* One step of a random mix: a translator evolution, in-place [Direct]
   surgery, a new view, or an in-memory merge on the [Tsem]. A change
   that names a class [Direct] removed is skipped. *)
let random_step rng rs t step =
  let db = Durable_tse.db t in
  let g = Database.graph db in
  let change () =
    match mixed_change rng rs step with
    | c -> Some c
    | exception Invalid_argument _ -> None
  in
  match Random.State.int rng 10 with
  | 0 ->
    (try
       ignore
         (Durable_tse.define_view_by_names t
            ~name:(Printf.sprintf "W%d" step) (random_names rng g))
     with Invalid_argument _ | Change.Rejected _ -> ());
    "define_view"
  | 1 ->
    ignore
      (Tse_core.Merge.merge_current (Durable_tse.tsem t) ~view1:view
         ~view2:
           (match Tse_views.History.view_names (Durable_tse.history t) with
           | v :: _ -> v
           | [] -> view)
         ~new_name:(Printf.sprintf "M%d" step));
    "merge"
  | 2 | 3 ->
    (match change () with
    | Some c -> (
      try ignore (Direct.apply db (Durable_tse.current t view) c)
      with Change.Rejected _ | Invalid_argument _ | Not_found | Failure _ -> ())
    | None -> ());
    "direct"
  | _ ->
    (match change () with
    | Some c -> ignore (Durable_tse.evolve t ~view c)
    | None -> ());
    "translator"

let prop_delta_replays =
  QCheck.Test.make
    ~name:"class deltas and appended view versions replay byte for byte"
    ~count:12 Test_property.seed_arb (fun seed ->
      let rng = Random.State.make [| seed; 47 |] in
      let rs0 = Random_schema.generate ~seed ~classes:6 ~objects:12 () in
      let dir = fresh_dir () in
      Unix.mkdir dir 0o755;
      Out_channel.with_open_bin (Filename.concat dir "snapshot") (fun oc ->
          output_string oc
            (Durable.image_to_string ~seq:0 ~schema:(encode rs0.db) ~exts:[]
               rs0.db));
      let open_t () =
        fst (Durable_tse.open_dir ~policy:Durable.Every_commit ~dir ())
      in
      let t = ref (open_t ()) in
      ignore
        (Durable_tse.define_view_by_names !t ~name:view
           (Random_schema.class_names rs0));
      for step = 1 to 8 do
        let db = Durable_tse.db !t in
        let g = Database.graph db in
        let before = class_bytes g and stamp = Schema_graph.version g in
        let who =
          random_step rng { rs0 with Random_schema.db } !t step
        in
        (* a rejected evolution reopens the handle: only an unchanged
           database kept the graph whose stamps are compared *)
        if Durable_tse.db !t == db then check_delta ~who ~step g before stamp;
        Durable_tse.commit !t;
        if Random.State.int rng 5 = 0 then Durable_tse.checkpoint !t;
        let schema = encode (Durable_tse.db !t)
        and history = History_codec.encode (Durable_tse.history !t) in
        Durable_tse.abandon !t;
        t := open_t ();
        if not (String.equal schema (encode (Durable_tse.db !t))) then
          QCheck.Test.fail_reportf "%s, step %d: the reopened schema differs"
            who step;
        if
          not
            (String.equal history
               (History_codec.encode (Durable_tse.history !t)))
        then
          QCheck.Test.fail_reportf "%s, step %d: the reopened history differs"
            who step
      done;
      Durable_tse.close !t;
      true)

(* ---------------- the encode counter ---------------- *)

let encodes () = Metrics.find_counter "durable.schema_encodes"

let test_encode_counts () =
  let dir = fresh_dir () in
  let t, _ = Durable_tse.open_dir ~policy:Durable.Every_commit ~dir () in
  let db = Durable_tse.db t in
  let _, o1 = build db in
  ignore (Durable_tse.define_view_by_names t ~name:view [ "Person"; "Student" ]);
  settle (Durable_tse.durable t) o1;
  let c0 = encodes () in
  for i = 1 to 20 do
    Database.set_attr db o1 "age" (Value.Int (40 + i));
    Durable_tse.commit t
  done;
  check Alcotest.int "data-only commits encode nothing" 0 (encodes () - c0);
  let c1 = encodes () in
  (match
     Durable_tse.evolve t ~view
       (Change.Add_attribute
          { cls = "Student"; def = Change.attr "credits" Value.TInt })
   with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "evolution rejected: %s" m);
  check Alcotest.int "one accepted evolution encodes once" 1 (encodes () - c1);
  Durable_tse.close t

let suite =
  [
    Qcheck_det.to_alcotest prop_stamp_covers_mutations;
    Alcotest.test_case "register_base survives commit/abandon/reopen" `Quick
      test_register_base;
    Alcotest.test_case "Ops.select survives commit/abandon/reopen" `Quick
      test_ops_select;
    Alcotest.test_case "Direct surgery survives commit/abandon/reopen" `Quick
      test_direct_surgery;
    Alcotest.test_case "define_view survives commit/abandon/reopen" `Quick
      test_define_view;
    Alcotest.test_case "evolve_many survives commit/abandon/reopen" `Quick
      test_evolve_many;
    Alcotest.test_case "schema encodes: 0 per data commit, 1 per evolution"
      `Quick test_encode_counts;
    Alcotest.test_case "a logged class's removal survives a reopen" `Quick
      test_remove_logged;
    Qcheck_det.to_alcotest prop_delta_replays;
  ]
