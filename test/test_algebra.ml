(* Tests for the extended object algebra and the classifier (Sections 3.2
   and 3.1). *)

open Tse_store
open Tse_schema
open Tse_db
open Tse_algebra

let check = Alcotest.check
let vpp = Alcotest.testable Value.pp Value.equal
let uni () = Tse_workload.University.build ()

let name_of db cid = Schema_graph.name_of (Database.graph db) cid
let supers_names db cid =
  List.map (name_of db) (Schema_graph.supers (Database.graph db) cid)
  |> List.sort String.compare

let test_select () =
  let u = uni () in
  let db = u.db in
  let young = Database.create_object db u.person ~init:[ ("age", Value.Int 10) ] in
  let old = Database.create_object db u.person ~init:[ ("age", Value.Int 40) ] in
  let adult = Ops.select db ~name:"Adult" ~src:u.person Expr.(attr "age" >= int 18) in
  (* classified below its source *)
  check Alcotest.(list string) "Adult under Person" [ "Person" ]
    (supers_names db adult);
  (* same type as source *)
  Alcotest.(check bool) "type unchanged" true
    (Type_info.type_equal (Database.graph db) adult u.person);
  (* restricted extent *)
  Alcotest.(check bool) "old in" true (Oid.Set.mem old (Database.extent db adult));
  Alcotest.(check bool) "young out" false
    (Oid.Set.mem young (Database.extent db adult));
  Alcotest.(check (list string)) "db consistent" [] (Database.check db)

let test_select_validation () =
  let u = uni () in
  (try
     ignore
       (Ops.select u.db ~name:"Bad" ~src:u.person Expr.(attr "nosuch" === int 1));
     Alcotest.fail "expected rejection"
   with Ops.Error _ -> ());
  try
    ignore (Ops.select u.db ~name:"Person" ~src:u.person Expr.(bool true));
    Alcotest.fail "expected name clash rejection"
  with Ops.Error _ -> ()

let test_hide_figure4 () =
  (* Figure 4: AgelessPerson = hide age from Person, classified as a
     superclass of Person with the same extent. *)
  let u = uni () in
  let db = u.db in
  let p = Database.create_object db u.person ~init:[ ("age", Value.Int 33) ] in
  let ageless = Ops.hide db ~name:"AgelessPerson" ~props:[ "age" ] ~src:u.person in
  let g = Database.graph db in
  Alcotest.(check bool) "AgelessPerson above Person" true
    (Schema_graph.is_strict_ancestor g ~anc:ageless ~desc:u.person);
  Alcotest.(check bool) "age hidden" false (Type_info.has_prop g ageless "age");
  Alcotest.(check bool) "name kept" true (Type_info.has_prop g ageless "name");
  Alcotest.(check bool) "same extent" true
    (Oid.Set.equal (Database.extent db ageless) (Database.extent db u.person));
  Alcotest.(check bool) "object member" true (Database.is_member db p ageless);
  (* Person still sees age *)
  check vpp "age still on Person" (Value.Int 33) (Database.get_prop db p "age");
  Alcotest.(check (list string)) "db consistent" [] (Database.check db)

let test_hide_keeps_subclass_types () =
  let u = uni () in
  let db = u.db in
  let g = Database.graph db in
  (* hiding a local property: the hide class sits between Person and
     Student (Figure 8's Student-without-register shape) *)
  let nogpa = Ops.hide db ~name:"NoGpaStudent" ~props:[ "gpa" ] ~src:u.student in
  Alcotest.(check bool) "between: above Student" true
    (Schema_graph.is_strict_ancestor g ~anc:nogpa ~desc:u.student);
  Alcotest.(check bool) "between: below Person" true
    (Schema_graph.is_strict_ancestor g ~anc:u.person ~desc:nogpa);
  Alcotest.(check bool) "major kept" true (Type_info.has_prop g nogpa "major");
  Alcotest.(check bool) "gpa gone" false (Type_info.has_prop g nogpa "gpa");
  (* Student's own full type is untouched *)
  Alcotest.(check bool) "Student keeps gpa" true (Type_info.has_prop g u.student "gpa");
  (* hiding an inherited property pushes the class to the top: nothing
     below the root can lack [age] *)
  let ageless = Ops.hide db ~name:"AgelessStudent" ~props:[ "age" ] ~src:u.student in
  check Alcotest.(list string) "ageless under root" [ "Object" ]
    (supers_names db ageless);
  Alcotest.(check bool) "ageless above Student" true
    (Schema_graph.is_strict_ancestor g ~anc:ageless ~desc:u.student);
  Alcotest.(check (list string)) "schema invariants" [] (Invariants.check g)

let test_refine_capacity_augmenting () =
  let u = uni () in
  let db = u.db in
  let s = Database.create_object db u.student ~init:[ ("age", Value.Int 20) ] in
  let register = Prop.stored ~origin:(Oid.of_int 0) "register" Value.TBool in
  let student' =
    Ops.refine db ~name:"Student'" ~props:[ register ] ~src:u.student
  in
  let g = Database.graph db in
  check Alcotest.(list string) "below source" [ "Student" ] (supers_names db student');
  Alcotest.(check bool) "extent preserved" true
    (Oid.Set.equal (Database.extent db student') (Database.extent db u.student));
  Alcotest.(check bool) "register defined" true
    (Type_info.has_prop g student' "register");
  (* the existing object was restructured: it can store the new attribute *)
  Database.set_attr db s "register" (Value.Bool true);
  check vpp "new stored data" (Value.Bool true) (Database.get_prop db s "register");
  (* rejection: refining with an existing name *)
  (try
     ignore
       (Ops.refine db ~name:"Bad" ~src:u.student
          ~props:[ Prop.stored ~origin:(Oid.of_int 0) "age" Value.TInt ]);
     Alcotest.fail "expected rejection"
   with Ops.Error _ -> ());
  Alcotest.(check (list string)) "db consistent" [] (Database.check db)

let test_refine_from_sharing () =
  let u = uni () in
  let db = u.db in
  let register = Prop.stored ~origin:(Oid.of_int 0) "register" Value.TBool in
  let student' = Ops.refine db ~name:"Student'" ~props:[ register ] ~src:u.student in
  let ta' =
    Ops.refine_from db ~name:"TA'" ~src:student' ~prop_name:"register" ~target:u.ta
  in
  let g = Database.graph db in
  (* Figure 7 (c): TA' under both TA and Student' *)
  check Alcotest.(list string) "TA' supers" [ "Student'"; "TA" ] (supers_names db ta');
  (* the property is shared, not duplicated: same identity at both classes *)
  let p1 = Option.get (Type_info.find_usable g student' "register") in
  let p2 = Option.get (Type_info.find_usable g ta' "register") in
  Alcotest.(check bool) "shared identity" true (Prop.same_prop p1 p2);
  Alcotest.(check (list string)) "db consistent" [] (Database.check db)

let test_union_and_promotion () =
  let u = uni () in
  let db = u.db in
  let s = Database.create_object db u.student ~init:[] in
  let staff = Database.create_object db u.support_staff ~init:[] in
  let p = Database.create_object db u.person ~init:[] in
  let both = Ops.union db ~name:"StudentOrStaff" u.student u.staff in
  let g = Database.graph db in
  Alcotest.(check bool) "above Student" true
    (Schema_graph.is_strict_ancestor g ~anc:both ~desc:u.student);
  Alcotest.(check bool) "above Staff" true
    (Schema_graph.is_strict_ancestor g ~anc:both ~desc:u.staff);
  Alcotest.(check bool) "below Person (minimal common ancestor)" true
    (Schema_graph.is_strict_ancestor g ~anc:u.person ~desc:both);
  (* union type = common properties = Person's props here *)
  Alcotest.(check bool) "has name" true (Type_info.has_prop g both "name");
  Alcotest.(check bool) "no gpa" false (Type_info.has_prop g both "gpa");
  Alcotest.(check bool) "no salary" false (Type_info.has_prop g both "salary");
  (* extent: members of either *)
  Alcotest.(check bool) "student in" true (Oid.Set.mem s (Database.extent db both));
  Alcotest.(check bool) "staff in" true (Oid.Set.mem staff (Database.extent db both));
  Alcotest.(check bool) "plain person out" false
    (Oid.Set.mem p (Database.extent db both));
  Alcotest.(check (list string)) "db consistent" [] (Database.check db)

let test_union_promotes_common_locals () =
  (* two unrelated classes with a signature-equal local property: the union
     exposes it (lowest common supertype), via promotion *)
  let u = uni () in
  let db = u.db in
  let g = Database.graph db in
  let mk name =
    Schema_graph.register_base g ~name
      ~props:[ Prop.stored ~origin:(Oid.of_int 0) "tag" Value.TString ]
      ~supers:[]
  in
  let a = mk "Aa" and b = mk "Bb" in
  let ab = Ops.union db ~name:"AB" a b in
  Alcotest.(check bool) "common local exposed on union" true
    (Type_info.has_prop g ab "tag");
  (* and it resolves as a single property at the union *)
  match Type_info.find g ab "tag" with
  | Some (Type_info.Single _) -> ()
  | _ -> Alcotest.fail "tag should resolve at the union class"

let test_intersect_difference () =
  let u = uni () in
  let db = u.db in
  let ta = Database.create_object db u.ta ~init:[] in
  let s = Database.create_object db u.student ~init:[] in
  let inter = Ops.intersect db ~name:"StudentAndStaff" u.student u.staff in
  let diff = Ops.difference db ~name:"StudentNotStaff" u.student u.staff in
  let g = Database.graph db in
  check Alcotest.(list string) "intersect below both" [ "Staff"; "Student" ]
    (supers_names db inter);
  check Alcotest.(list string) "difference below first" [ "Student" ]
    (supers_names db diff);
  (* intersect type merges both *)
  Alcotest.(check bool) "gpa on intersect" true (Type_info.has_prop g inter "gpa");
  Alcotest.(check bool) "salary on intersect" true
    (Type_info.has_prop g inter "salary");
  (* difference keeps first argument's type *)
  Alcotest.(check bool) "gpa on difference" true (Type_info.has_prop g diff "gpa");
  Alcotest.(check bool) "no salary on difference" false
    (Type_info.has_prop g diff "salary");
  Alcotest.(check bool) "ta in intersect" true (Oid.Set.mem ta (Database.extent db inter));
  Alcotest.(check bool) "s in difference" true (Oid.Set.mem s (Database.extent db diff));
  Alcotest.(check bool) "ta not in difference" false
    (Oid.Set.mem ta (Database.extent db diff));
  Alcotest.(check (list string)) "db consistent" [] (Database.check db)

let test_duplicate_detection () =
  let u = uni () in
  let db = u.db in
  let pred = Expr.(attr "age" >= int 18) in
  let a1 = Ops.select db ~name:"Adult" ~src:u.person pred in
  let size = Schema_graph.size (Database.graph db) in
  (* same derivation under another name: discarded, existing reused *)
  let a2 = Ops.select db ~name:"Grownup" ~src:u.person pred in
  Alcotest.(check bool) "same class returned" true (Oid.equal a1 a2);
  check Alcotest.int "no new class" size (Schema_graph.size (Database.graph db));
  (* different predicate is a different class *)
  let a3 = Ops.select db ~name:"Senior" ~src:u.person Expr.(attr "age" >= int 65) in
  Alcotest.(check bool) "distinct class" false (Oid.equal a1 a3)

let test_define_vc_nested () =
  let u = uni () in
  let db = u.db in
  let _o1 = Database.create_object db u.student ~init:[ ("age", Value.Int 17) ] in
  let o2 = Database.create_object db u.student ~init:[ ("age", Value.Int 25) ] in
  (* defineVC AdultNoAge as (hide age from (select from Student where age >= 18)) *)
  let vc =
    Ops.define_vc db ~name:"AdultNoAge"
      (Ops.Hide ([ "age" ], Ops.Select (Ops.Class "Student", Expr.(attr "age" >= int 18))))
  in
  let g = Database.graph db in
  Alcotest.(check bool) "age hidden" false (Type_info.has_prop g vc "age");
  Alcotest.(check bool) "gpa visible" true (Type_info.has_prop g vc "gpa");
  check Alcotest.int "only the adult student" 1 (Database.extent_size db vc);
  Alcotest.(check bool) "o2 member" true (Oid.Set.mem o2 (Database.extent db vc));
  (* an anonymous intermediate select class was created *)
  Alcotest.(check bool) "intermediate exists" true
    (Schema_graph.find_by_name g "AdultNoAge$src" <> None);
  Alcotest.(check (list string)) "db consistent" [] (Database.check db)

let test_primed_names () =
  let u = uni () in
  let db = u.db in
  check Alcotest.string "first prime" "Student'" (Ops.primed_name db "Student");
  let register = Prop.stored ~origin:(Oid.of_int 0) "register" Value.TBool in
  ignore (Ops.refine db ~name:"Student'" ~props:[ register ] ~src:u.student);
  check Alcotest.string "second prime" "Student''" (Ops.primed_name db "Student")

let suite =
  [
    Alcotest.test_case "select derives a subclass" `Quick test_select;
    Alcotest.test_case "select validation" `Quick test_select_validation;
    Alcotest.test_case "hide derives a superclass (Fig 4)" `Quick
      test_hide_figure4;
    Alcotest.test_case "hide slots in mid-hierarchy" `Quick
      test_hide_keeps_subclass_types;
    Alcotest.test_case "refine is capacity-augmenting" `Quick
      test_refine_capacity_augmenting;
    Alcotest.test_case "refine_from shares the property" `Quick
      test_refine_from_sharing;
    Alcotest.test_case "union placement, type and extent" `Quick
      test_union_and_promotion;
    Alcotest.test_case "union promotes common locals" `Quick
      test_union_promotes_common_locals;
    Alcotest.test_case "intersect and difference" `Quick test_intersect_difference;
    Alcotest.test_case "duplicate class detection" `Quick test_duplicate_detection;
    Alcotest.test_case "defineVC nested query" `Quick test_define_vc_nested;
    Alcotest.test_case "primed naming" `Quick test_primed_names;
  ]
