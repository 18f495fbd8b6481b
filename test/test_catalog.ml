(* Tests for whole-database persistence: the catalog must reconstruct a
   fully operational database — schema (including virtual classes and
   their derivations), objects with their slices, memberships, extents
   and the complete view history — such that evolution can continue. *)

open Tse_store
open Tse_schema
open Tse_db
open Tse_views
open Tse_core

let check = Alcotest.check
let vpp = Alcotest.testable Value.pp Value.equal

let evolved_fixture () =
  let u = Tse_workload.University.build () in
  ignore (Tse_workload.University.populate u ~n:18);
  let tsem = Tsem.of_database u.db in
  ignore (Tsem.define_view_by_names tsem ~name:"VS" [ "Person"; "Student"; "TA" ]);
  ignore
    (Tsem.evolve tsem ~view:"VS"
       (Change.Add_attribute { cls = "Student"; def = Change.attr "register" Value.TBool }));
  ignore
    (Tsem.evolve tsem ~view:"VS"
       (Change.Add_method
          { cls = "Person"; method_name = "adult"; body = Expr.(attr "age" >= int 18) }));
  (u, tsem)

let test_roundtrip_schema_and_extents () =
  let u, tsem = evolved_fixture () in
  let text = Catalog.to_string ~history:(Tsem.history tsem) u.db in
  let db', history' = Catalog.of_string text in
  (* same classes (names, kinds, types) *)
  let names db =
    Schema_graph.classes (Database.graph db)
    |> List.map (fun (k : Klass.t) ->
           Printf.sprintf "%s|%s|%s" k.name
             (if Klass.is_virtual k then "v" else "b")
             (Type_info.type_signature (Database.graph db) k.cid))
    |> List.sort String.compare
  in
  check Alcotest.(list string) "classes identical" (names u.db) (names db');
  (* same extents *)
  List.iter
    (fun (k : Klass.t) ->
      check Alcotest.int
        (Printf.sprintf "extent of %s" k.name)
        (Database.extent_size u.db k.cid)
        (Database.extent_size db' k.cid))
    (Schema_graph.classes (Database.graph u.db));
  (* same view history *)
  check Alcotest.(list string) "views" (History.view_names (Tsem.history tsem))
    (History.view_names history');
  check Alcotest.int "versions" 3 (List.length (History.versions history' "VS"));
  (* loaded database passes the consistency oracle *)
  Alcotest.(check (list string)) "consistent" [] (Database.check db')

let test_roundtrip_preserves_data () =
  let u, tsem = evolved_fixture () in
  let o = List.hd (Database.extent_list u.db u.student) in
  Database.set_attr u.db o "register" (Value.Bool true);
  let name_before = Database.get_prop u.db o "name" in
  let text = Catalog.to_string ~history:(Tsem.history tsem) u.db in
  let db', _ = Catalog.of_string text in
  check vpp "shared attr survives" name_before (Database.get_prop db' o "name");
  check vpp "refined stored attr survives" (Value.Bool true)
    (Database.get_prop db' o "register");
  (* derived methods still evaluate *)
  check vpp "method still evaluates"
    (Database.get_prop u.db o "adult")
    (Database.get_prop db' o "adult")

let test_evolution_continues_after_load () =
  let u, tsem = evolved_fixture () in
  let text = Catalog.to_string ~history:(Tsem.history tsem) u.db in
  let db', history' = Catalog.of_string text in
  let tsem' = Tsem.of_database db' in
  (* re-register the loaded history *)
  List.iter
    (fun name ->
      List.iter
        (fun v -> History.register (Tsem.history tsem') v)
        (History.versions history' name))
    (History.view_names history');
  let v =
    Tsem.evolve tsem' ~view:"VS"
      (Change.Add_attribute { cls = "TA"; def = Change.attr "badge" Value.TInt })
  in
  check Alcotest.int "version continues" 3 v.View_schema.version;
  let ta = View_schema.cid_of_exn v "TA" in
  Alcotest.(check bool) "new attribute present" true
    (Type_info.has_prop (Database.graph db') ta "badge");
  (* and the attribute added BEFORE the save is still there too *)
  Alcotest.(check bool) "old refined attribute kept" true
    (Type_info.has_prop (Database.graph db') ta "register");
  Alcotest.(check (list string)) "consistent" [] (Database.check db')

let test_select_classes_still_classify () =
  let u = Tse_workload.University.build () in
  let adult =
    Tse_algebra.Ops.select u.db ~name:"Adult" ~src:u.person
      Expr.(attr "age" >= int 18)
  in
  ignore (Database.create_object u.db u.person ~init:[ ("age", Value.Int 30) ]);
  let text = Catalog.to_string u.db in
  let db', _ = Catalog.of_string text in
  check Alcotest.int "select extent restored" 1 (Database.extent_size db' adult);
  (* predicates survived: a NEW object classifies correctly *)
  let o = Database.create_object db' u.person ~init:[ ("age", Value.Int 50) ] in
  Alcotest.(check bool) "new object classified by loaded predicate" true
    (Database.is_member db' o adult);
  let o2 = Database.create_object db' u.person ~init:[ ("age", Value.Int 5) ] in
  Alcotest.(check bool) "young object excluded" false (Database.is_member db' o2 adult)

let test_file_roundtrip () =
  let u, tsem = evolved_fixture () in
  let path = Filename.temp_file "tse_catalog" ".db" in
  Catalog.save ~history:(Tsem.history tsem) u.db path;
  let db', history' = Catalog.load path in
  Sys.remove path;
  check Alcotest.int "objects" (Database.object_count u.db)
    (Database.object_count db');
  check Alcotest.int "view versions" 3 (List.length (History.versions history' "VS"))

let test_load_missing_file () =
  let path = Filename.temp_file "tse_catalog" ".gone" in
  Sys.remove path;
  (* the error must name the file *)
  match Catalog.load path with
  | _ -> Alcotest.fail "expected load of a missing file to fail"
  | exception Failure msg ->
    let prefix = Printf.sprintf "Catalog.load %S" path in
    Alcotest.(check bool)
      (Printf.sprintf "%S names the path" msg)
      true
      (String.length msg >= String.length prefix
      && String.sub msg 0 (String.length prefix) = prefix)

let rm_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* A catalog is a database image at sequence number 0: saved as a
   directory's snapshot it opens as a durable database, and a
   checkpoint's snapshot loads as a catalog. *)
let test_catalog_is_checkpoint () =
  let u, tsem = evolved_fixture () in
  let history = Tsem.history tsem in
  let dir = Filename.temp_dir "tse_catalog" "" in
  let snapshot = Filename.concat dir "snapshot" in
  Catalog.save ~history u.db snapshot;
  let t, _ = Durable_tse.open_dir ~dir () in
  check Alcotest.string "catalog opens as a checkpoint"
    (Verify.db_fingerprint ~history u.db)
    (Verify.db_fingerprint ~history:(Durable_tse.history t) (Durable_tse.db t));
  check Alcotest.int "view versions" 3
    (List.length (History.versions (Durable_tse.history t) "VS"));
  (* evolve and write through the durable handle, then checkpoint *)
  (match
     Durable_tse.evolve t ~view:"VS"
       (Change.Add_attribute { cls = "TA"; def = Change.attr "badge" Value.TInt })
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "evolve rejected: %s" msg);
  let db = Durable_tse.db t in
  let o = List.hd (Database.extent_list db u.student) in
  Database.set_attr db o "register" (Value.Bool true);
  Durable_tse.checkpoint t;
  let db', history' = Catalog.load snapshot in
  check Alcotest.string "checkpoint loads as a catalog"
    (Verify.db_fingerprint ~history:(Durable_tse.history t) db)
    (Verify.db_fingerprint ~history:history' db');
  Alcotest.(check (list string)) "consistent" [] (Database.check db');
  Durable_tse.close t;
  rm_dir dir

let test_malformed () =
  Alcotest.check_raises "bad header" (Failure "Catalog: bad header") (fun () ->
      ignore (Catalog.of_string "garbage"))

let test_expr_codec_roundtrip () =
  let exprs =
    Expr.
      [
        int 1;
        attr "age" >= int 18 && In_class "Person";
        If (Is_null (attr "x"), str "a;b:c", Concat (str "p", str "q"));
        Not (Self === Const (Value.Ref (Oid.of_int 3)));
        Arith (Div, attr "a", Arith (Mul, int 2, attr "b"));
      ]
  in
  List.iter
    (fun e ->
      let buf = Buffer.create 32 in
      Expr.encode buf e;
      let e', pos = Expr.decode (Buffer.contents buf) 0 in
      check Alcotest.int "consumed" (Buffer.length buf) pos;
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" (Expr.to_string e))
        true (Expr.equal e e'))
    exprs

let suite =
  [
    Alcotest.test_case "roundtrip: schema, extents, history" `Quick
      test_roundtrip_schema_and_extents;
    Alcotest.test_case "roundtrip: object data and methods" `Quick
      test_roundtrip_preserves_data;
    Alcotest.test_case "evolution continues after load" `Quick
      test_evolution_continues_after_load;
    Alcotest.test_case "select predicates survive reload" `Quick
      test_select_classes_still_classify;
    Alcotest.test_case "file save/load" `Quick test_file_roundtrip;
    Alcotest.test_case "load names missing file" `Quick test_load_missing_file;
    Alcotest.test_case "a catalog is a checkpoint" `Quick
      test_catalog_is_checkpoint;
    Alcotest.test_case "malformed input" `Quick test_malformed;
    Alcotest.test_case "expression codec" `Quick test_expr_codec_roundtrip;
  ]
