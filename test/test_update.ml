(* Tests for the generic update operators and their propagation through
   virtual classes (Sections 3.3-3.4). *)

open Tse_store
open Tse_schema
open Tse_db
open Tse_update

let check = Alcotest.check
let vpp = Alcotest.testable Value.pp Value.equal
let uni () = Tse_workload.University.build ()

let test_create_through_base () =
  let u = uni () in
  let o =
    Generic.create u.db u.student
      ~init:[ ("name", Value.String "li"); ("gpa", Value.Float 3.3) ]
  in
  Alcotest.(check bool) "member" true (Database.is_member u.db o u.student);
  check vpp "attr stored" (Value.Float 3.3) (Database.get_prop u.db o "gpa")

let test_create_through_select_value_closure () =
  let u = uni () in
  let adult =
    Tse_algebra.Ops.select u.db ~name:"Adult" ~src:u.person
      Expr.(attr "age" >= int 18)
  in
  (* satisfying create goes to the origin base class Person *)
  let o = Generic.create u.db adult ~init:[ ("age", Value.Int 30) ] in
  Alcotest.(check bool) "in Adult" true (Database.is_member u.db o adult);
  Alcotest.(check bool) "in Person (source)" true
    (Database.is_member u.db o u.person);
  (* violating create: Reject policy refuses and leaves no trace *)
  let before = Database.object_count u.db in
  (try
     ignore (Generic.create u.db adult ~init:[ ("age", Value.Int 10) ]);
     Alcotest.fail "expected rejection"
   with Generic.Rejected _ -> ());
  check Alcotest.int "no orphan object" before (Database.object_count u.db);
  (* Accept policy: the object lands in the source but outside the view
     class (the paper's second resolution) *)
  let o2 =
    Generic.create ~policy:Generic.Policy.lenient u.db adult
      ~init:[ ("age", Value.Int 10) ]
  in
  Alcotest.(check bool) "in Person" true (Database.is_member u.db o2 u.person);
  Alcotest.(check bool) "not in Adult" false (Database.is_member u.db o2 adult)

let test_create_through_hide_defaults () =
  let u = uni () in
  let ageless =
    Tse_algebra.Ops.hide u.db ~name:"AgelessPerson" ~props:[ "age" ] ~src:u.person
  in
  (* cannot assign the hidden attribute through the hide class *)
  (try
     ignore (Generic.create u.db ageless ~init:[ ("age", Value.Int 5) ]);
     Alcotest.fail "expected rejection"
   with Generic.Rejected _ -> ());
  let o = Generic.create u.db ageless ~init:[ ("name", Value.String "v") ] in
  Alcotest.(check bool) "created in source" true
    (Database.is_member u.db o u.person);
  check vpp "hidden attr unset" Value.Null (Database.get_prop u.db o "age")

let test_create_required_attribute () =
  let u = uni () in
  let g = Database.graph u.db in
  let c =
    Schema_graph.register_base g ~name:"Badge"
      ~props:[ Prop.stored ~origin:(Oid.of_int 0) ~required:true "code" Value.TString ]
      ~supers:[]
  in
  (try
     ignore (Generic.create u.db c ~init:[]);
     Alcotest.fail "expected rejection for missing required"
   with Generic.Rejected _ -> ());
  ignore (Generic.create u.db c ~init:[ ("code", Value.String "b1") ])

let test_create_through_union_goes_first () =
  let u = uni () in
  let both = Tse_algebra.Ops.union u.db ~name:"Both" u.student u.staff in
  (* default policy: propagate to the first argument (the substituted
     class rule of Section 6.5.4) *)
  let o = Generic.create u.db both ~init:[] in
  Alcotest.(check bool) "in Student" true (Database.is_member u.db o u.student);
  Alcotest.(check bool) "not in Staff" false (Database.is_member u.db o u.staff);
  Alcotest.(check bool) "in union" true (Database.is_member u.db o both);
  (* explicit policies *)
  let o2 =
    Generic.create
      ~policy:{ Generic.Policy.default with union_target = Generic.Policy.Second }
      u.db both ~init:[]
  in
  Alcotest.(check bool) "second: in Staff" true (Database.is_member u.db o2 u.staff);
  let o3 =
    Generic.create
      ~policy:{ Generic.Policy.default with union_target = Generic.Policy.Both }
      u.db both ~init:[]
  in
  Alcotest.(check bool) "both: Student and Staff" true
    (Database.is_member u.db o3 u.student && Database.is_member u.db o3 u.staff)

let test_create_through_intersect () =
  let u = uni () in
  let inter = Tse_algebra.Ops.intersect u.db ~name:"Inter" u.student u.staff in
  let o = Generic.create u.db inter ~init:[] in
  Alcotest.(check bool) "in both sources" true
    (Database.is_member u.db o u.student && Database.is_member u.db o u.staff);
  Alcotest.(check bool) "in intersect" true (Database.is_member u.db o inter)

let test_create_through_difference () =
  let u = uni () in
  let diff = Tse_algebra.Ops.difference u.db ~name:"Diff" u.student u.staff in
  let o = Generic.create u.db diff ~init:[] in
  Alcotest.(check bool) "in first source" true (Database.is_member u.db o u.student);
  Alcotest.(check bool) "in difference" true (Database.is_member u.db o diff)

let test_origin_bases () =
  let u = uni () in
  let adult =
    Tse_algebra.Ops.select u.db ~name:"Adult" ~src:u.person
      Expr.(attr "age" >= int 18)
  in
  let senior =
    Tse_algebra.Ops.select u.db ~name:"Senior" ~src:adult
      Expr.(attr "age" >= int 65)
  in
  check
    Alcotest.(list string)
    "origin of chained selects"
    [ "Person" ]
    (List.map
       (Schema_graph.name_of (Database.graph u.db))
       (Generic.origin_bases u.db senior));
  check
    Alcotest.(list string)
    "origin of base class is itself"
    [ "Person" ]
    (List.map
       (Schema_graph.name_of (Database.graph u.db))
       (Generic.origin_bases u.db u.person))

let test_set_with_closure_check () =
  let u = uni () in
  let adult =
    Tse_algebra.Ops.select u.db ~name:"Adult" ~src:u.person
      Expr.(attr "age" >= int 18)
  in
  let o = Generic.create u.db adult ~init:[ ("age", Value.Int 30) ] in
  (* a set through the class that would expel the object is refused and
     rolled back under Reject *)
  (try
     Generic.set ~through:adult u.db [ o ] [ ("age", Value.Int 10) ];
     Alcotest.fail "expected rejection"
   with Generic.Rejected _ -> ());
  check vpp "rolled back" (Value.Int 30) (Database.get_prop u.db o "age");
  (* lenient policy lets the object drop out *)
  Generic.set ~policy:Generic.Policy.lenient ~through:adult u.db [ o ]
    [ ("age", Value.Int 10) ];
  check vpp "applied" (Value.Int 10) (Database.get_prop u.db o "age");
  Alcotest.(check bool) "dropped out of Adult" false
    (Database.is_member u.db o adult);
  Alcotest.(check bool) "still a Person" true (Database.is_member u.db o u.person)

let test_add_remove () =
  let u = uni () in
  let o = Generic.create u.db u.person ~init:[] in
  Generic.add u.db [ o ] u.student;
  Alcotest.(check bool) "added" true (Database.is_member u.db o u.student);
  Generic.remove u.db [ o ] u.student;
  Alcotest.(check bool) "removed" false (Database.is_member u.db o u.student);
  Alcotest.(check bool) "still person" true (Database.is_member u.db o u.person)

let test_add_through_refine_restructures () =
  let u = uni () in
  let register = Prop.stored ~origin:(Oid.of_int 0) "register" Value.TBool in
  let student' =
    Tse_algebra.Ops.refine u.db ~name:"Student'" ~props:[ register ] ~src:u.student
  in
  let o = Generic.create u.db u.person ~init:[] in
  (* adding through the refine class propagates to its source Student *)
  Generic.add u.db [ o ] student';
  Alcotest.(check bool) "in Student" true (Database.is_member u.db o u.student);
  Alcotest.(check bool) "in Student'" true (Database.is_member u.db o student');
  (* ... and the object can now store the refining attribute *)
  Generic.set u.db [ o ] [ ("register", Value.Bool true) ];
  check vpp "register stored" (Value.Bool true) (Database.get_prop u.db o "register")

let test_remove_from_union_both () =
  let u = uni () in
  let both = Tse_algebra.Ops.union u.db ~name:"Both" u.student u.staff in
  let o = Generic.create u.db u.ta ~init:[] in
  (* a TA is Student and Staff, hence in the union; removing from the
     union removes from both sources *)
  Alcotest.(check bool) "in union" true (Database.is_member u.db o both);
  Generic.remove u.db [ o ] both;
  Alcotest.(check bool) "out of Student" false (Database.is_member u.db o u.student);
  Alcotest.(check bool) "out of Staff" false (Database.is_member u.db o u.staff);
  Alcotest.(check bool) "out of union" false (Database.is_member u.db o both);
  Alcotest.(check bool) "still a Person" true (Database.is_member u.db o u.person)

let test_delete () =
  let u = uni () in
  let o = Generic.create u.db u.student ~init:[] in
  Generic.delete u.db [ o ];
  Alcotest.(check bool) "destroyed" false (Database.mem_object u.db o);
  check Alcotest.int "no extents left" 0 (Database.extent_size u.db u.person)

let test_theorem1_updatability_end_to_end () =
  (* every virtual class built by the algebra accepts updates that reach
     its origin classes: the Theorem 1 claim exercised dynamically *)
  let u = uni () in
  let open Tse_algebra in
  let adult = Ops.select u.db ~name:"Adult" ~src:u.person Expr.(attr "age" >= int 18) in
  let ageless = Ops.hide u.db ~name:"Ageless" ~props:[ "age" ] ~src:adult in
  let both = Ops.union u.db ~name:"U" ageless u.staff in
  (* a strict create cannot satisfy the select predicate (age is hidden on
     the union's type, so it cannot even be assigned): Reject refuses *)
  (try
     ignore (Generic.create u.db both ~init:[ ("name", Value.String "x") ]);
     Alcotest.fail "expected rejection"
   with Generic.Rejected _ -> ());
  (* the lenient route: create lands in the origin class, a later update
     brings the object into the whole derived chain *)
  let o =
    Generic.create ~policy:Generic.Policy.lenient u.db both
      ~init:[ ("name", Value.String "x") ]
  in
  (* create went down the chain union -> hide -> select -> Person *)
  Alcotest.(check bool) "reached Person" true (Database.is_member u.db o u.person);
  Generic.set u.db [ o ] [ ("age", Value.Int 44) ];
  Alcotest.(check bool) "now satisfies select" true
    (Database.is_member u.db o adult);
  Alcotest.(check bool) "and the whole chain" true
    (Database.is_member u.db o ageless && Database.is_member u.db o both);
  Alcotest.(check (list string)) "consistent" [] (Database.check u.db)

let test_type_specific_methods () =
  (* Section 3.3: type implementors override the generic operators to
     check constraints, maintain derived information, or refuse updates *)
  let u = uni () in
  let methods = Type_methods.create () in
  (* constraint on Staff: salary must be non-negative *)
  let guard db assignments =
    ignore db;
    (match List.assoc_opt "salary" assignments with
    | Some (Value.Int s) when s < 0 -> raise (Generic.Rejected "negative salary")
    | Some _ | None -> ());
    assignments
  in
  Type_methods.on_create methods u.staff guard;
  Type_methods.on_set methods u.staff (fun db _o a -> guard db a);
  (* derived maintenance on Person: default the name *)
  Type_methods.on_create methods u.person (fun _db init ->
      if List.mem_assoc "name" init then init
      else ("name", Value.String "anonymous") :: init);
  check Alcotest.int "hooks installed" 3 (Type_methods.hook_count methods);
  (* the Person hook fires for Staff creates too (lineage) *)
  let o = Generic.create ~methods u.db u.staff ~init:[ ("salary", Value.Int 100) ] in
  check vpp "maintained attribute" (Value.String "anonymous")
    (Database.get_prop u.db o "name");
  (* constraint refusal on create *)
  (try
     ignore (Generic.create ~methods u.db u.staff ~init:[ ("salary", Value.Int (-1)) ]);
     Alcotest.fail "expected constraint rejection"
   with Generic.Rejected _ -> ());
  (* constraint refusal on set *)
  (try
     Generic.set ~methods u.db [ o ] [ ("salary", Value.Int (-5)) ];
     Alcotest.fail "expected constraint rejection on set"
   with Generic.Rejected _ -> ());
  check vpp "salary unchanged" (Value.Int 100) (Database.get_prop u.db o "salary");
  (* delete hook observes (and can veto) destruction *)
  let deleted = ref [] in
  Type_methods.on_delete methods u.person (fun _db o -> deleted := o :: !deleted);
  Generic.delete ~methods u.db [ o ];
  check Alcotest.int "delete observed" 1 (List.length !deleted);
  (* generic operators without ~methods are unaffected *)
  ignore (Generic.create u.db u.staff ~init:[ ("salary", Value.Int (-1)) ])

let suite =
  [
    Alcotest.test_case "type-specific update methods (3.3)" `Quick
      test_type_specific_methods;
    Alcotest.test_case "create through base" `Quick test_create_through_base;
    Alcotest.test_case "create through select: value closure" `Quick
      test_create_through_select_value_closure;
    Alcotest.test_case "create through hide: hidden attrs" `Quick
      test_create_through_hide_defaults;
    Alcotest.test_case "create: required attributes" `Quick
      test_create_required_attribute;
    Alcotest.test_case "create through union: first-arg rule" `Quick
      test_create_through_union_goes_first;
    Alcotest.test_case "create through intersect: both" `Quick
      test_create_through_intersect;
    Alcotest.test_case "create through difference: first" `Quick
      test_create_through_difference;
    Alcotest.test_case "origin classes" `Quick test_origin_bases;
    Alcotest.test_case "set with closure check" `Quick test_set_with_closure_check;
    Alcotest.test_case "add/remove" `Quick test_add_remove;
    Alcotest.test_case "add through refine restructures" `Quick
      test_add_through_refine_restructures;
    Alcotest.test_case "remove from union: both sources" `Quick
      test_remove_from_union_both;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "Theorem 1 end-to-end" `Quick
      test_theorem1_updatability_end_to_end;
  ]
