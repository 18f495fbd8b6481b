(* Unit tests for the Section 6 auxiliary macros: commonSub,
   findProperties and the origin-class trace. *)

open Tse_store
open Tse_schema
open Tse_db
open Tse_core

let check = Alcotest.check

let names g cids =
  List.map (Schema_graph.name_of g) cids |> List.sort String.compare

let diamond () =
  (* V > Csup > Csub; C1, C2 under both V and Csub; D under C1 *)
  let db = Database.create () in
  let g = Database.graph db in
  let reg name props supers =
    Schema_graph.register_base g ~name ~props ~supers
  in
  let o0 = Oid.of_int 0 in
  let v = reg "V" [ Prop.stored ~origin:o0 "top" Value.TInt ] [] in
  let csup = reg "Csup" [ Prop.stored ~origin:o0 "mid" Value.TInt ] [ v ] in
  let csub = reg "Csub" [ Prop.stored ~origin:o0 "low" Value.TInt ] [ csup ] in
  let c1 = reg "C1" [] [ v; csub ] in
  let c2 = reg "C2" [] [ v; csub ] in
  let d = reg "D" [] [ c1 ] in
  (db, g, v, csup, csub, c1, c2, d)

(* the hypothetical for a view holding every class of [db] *)
let deleted db ~sup ~sub =
  let g = Database.graph db in
  let all =
    List.filter
      (fun c -> not (Oid.equal c (Schema_graph.root g)))
      (Schema_graph.cids g)
  in
  Macros.assume_deleted db
    (Tse_views.View_schema.make ~name:"ALL" ~version:0 g all)
    ~sup ~sub

let test_common_sub_basic () =
  let db, g, v, csup, csub, _, _, _ = diamond () in
  let commons = Macros.common_sub (deleted db ~sup:csup ~sub:csub) v in
  check Alcotest.(list string) "greatest common subclasses" [ "C1"; "C2" ]
    (names g commons)

let test_common_sub_greatest_only () =
  (* D (under C1) is common too, but not GREATEST: only C1/C2 returned *)
  let db, g, v, csup, csub, _, _, d = diamond () in
  let commons = Macros.common_sub (deleted db ~sup:csup ~sub:csub) v in
  Alcotest.(check bool) "D excluded" false
    (List.mem (Schema_graph.name_of g d) (names g commons))

let test_common_sub_empty_when_no_other_path () =
  let db = Database.create () in
  let g = Database.graph db in
  let reg name supers =
    Schema_graph.register_base g ~name ~props:[] ~supers
  in
  let v = reg "V" [] in
  let csup = reg "Csup" [ v ] in
  let csub = reg "Csub" [ csup ] in
  check Alcotest.int "no survivors" 0
    (List.length (Macros.common_sub (deleted db ~sup:csup ~sub:csub) v))

let test_find_properties_only_through_edge () =
  let db, _, _, csup, csub, _, _, _ = diamond () in
  (* properties reaching Csub only through Csup-Csub: mid (from Csup);
     top survives via... no — Csub's only super is Csup, so top is lost
     too; low is local and stays *)
  let y = Macros.find_properties (deleted db ~sup:csup ~sub:csub) csub in
  check Alcotest.(list string) "lost properties" [ "mid"; "top" ] y

let test_find_properties_keeps_multipath () =
  let db, _, _, csup, csub, c1, _, _ = diamond () in
  (* for C1, 'top' survives via the direct V edge and 'low' via the intact
     Csub-C1 edge; only 'mid' arrived exclusively through Csup-Csub *)
  let y = Macros.find_properties (deleted db ~sup:csup ~sub:csub) c1 in
  check Alcotest.(list string) "only mid is lost" [ "mid" ]
    (List.sort String.compare y)

let test_origin_classes () =
  let u = Tse_workload.University.build () in
  let db = u.db in
  let g = Database.graph db in
  (* base class: its own origin *)
  check Alcotest.(list string) "base" [ "Person" ]
    (names g (Macros.origin_classes db u.person));
  (* chain of selects: still one origin *)
  let a =
    Tse_algebra.Ops.select db ~name:"A" ~src:u.student Expr.(attr "age" >= int 1)
  in
  let b = Tse_algebra.Ops.select db ~name:"B" ~src:a Expr.(attr "age" >= int 2) in
  check Alcotest.(list string) "chained select" [ "Student" ]
    (names g (Macros.origin_classes db b));
  (* union: both branches' origins (the add-class replay needs them all) *)
  let un = Tse_algebra.Ops.union db ~name:"U" a u.support_staff in
  check Alcotest.(list string) "union merges origins"
    [ "Student"; "SupportStaff" ]
    (List.map (Schema_graph.name_of g) (Macros.origin_classes db un))

let suite =
  [
    Alcotest.test_case "commonSub: diamond survivors" `Quick test_common_sub_basic;
    Alcotest.test_case "commonSub: greatest only" `Quick
      test_common_sub_greatest_only;
    Alcotest.test_case "commonSub: empty without other paths" `Quick
      test_common_sub_empty_when_no_other_path;
    Alcotest.test_case "findProperties: through-edge only" `Quick
      test_find_properties_only_through_edge;
    Alcotest.test_case "findProperties: multipath kept" `Quick
      test_find_properties_keeps_multipath;
    Alcotest.test_case "origin classes" `Quick test_origin_classes;
  ]
