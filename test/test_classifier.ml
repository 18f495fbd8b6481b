(* Focused tests for the classification algorithm: intended types,
   placement, duplicate detection and property promotion. *)

open Tse_store
open Tse_schema
open Tse_db
open Tse_classifier

let check = Alcotest.check
let uni () = Tse_workload.University.build ()

let prop_names props = List.map (fun (p : Prop.t) -> p.Prop.name) props
  |> List.sort String.compare

let test_intended_types () =
  let u = uni () in
  let db = u.db in
  let names d = prop_names (Classification.intended_type db d) in
  (* select keeps the source type *)
  check Alcotest.(list string) "select"
    [ "age"; "name"; "ssn" ]
    (names (Klass.Select (u.person, Expr.bool true)));
  (* hide subtracts *)
  check Alcotest.(list string) "hide"
    [ "name"; "ssn" ]
    (names (Klass.Hide ([ "age" ], u.person)));
  (* refine adds *)
  check Alcotest.(list string) "refine"
    [ "age"; "name"; "ssn"; "x" ]
    (names
       (Klass.Refine ([ Prop.stored ~origin:(Oid.of_int 0) "x" Value.TInt ], u.person)));
  (* union: common properties = lowest common supertype *)
  check Alcotest.(list string) "union"
    [ "age"; "name"; "salary"; "ssn" ]
    (names (Klass.Union (u.teaching_staff, u.support_staff)));
  (* intersect merges *)
  check Alcotest.(list string) "intersect"
    [ "age"; "boss"; "lecture"; "name"; "salary"; "ssn" ]
    (names (Klass.Intersect (u.teaching_staff, u.support_staff)));
  (* difference keeps the first argument *)
  check Alcotest.(list string) "difference"
    [ "age"; "gpa"; "major"; "name"; "ssn" ]
    (names (Klass.Difference (u.student, u.staff)))

let test_duplicate_detection_modulo_commutativity () =
  let u = uni () in
  let db = u.db in
  let a = Tse_algebra.Ops.union db ~name:"U1" u.student u.staff in
  (* union is commutative: swapped arguments are the same class *)
  let b = Tse_algebra.Ops.union db ~name:"U2" u.staff u.student in
  Alcotest.(check bool) "commutative duplicate" true (Oid.equal a b);
  (* difference is NOT commutative *)
  let d1 = Tse_algebra.Ops.difference db ~name:"D1" u.student u.staff in
  let d2 = Tse_algebra.Ops.difference db ~name:"D2" u.staff u.student in
  Alcotest.(check bool) "difference not commutative" false (Oid.equal d1 d2)

let test_duplicate_detection_nested () =
  let u = uni () in
  let db = u.db in
  let q =
    Tse_algebra.Ops.(
      Hide ([ "ssn" ], Select (Class "Person", Expr.(attr "age" >= int 18))))
  in
  let v1 = Tse_algebra.Ops.define_vc db ~name:"V1" q in
  let size = Schema_graph.size (Database.graph db) in
  (* re-running the same nested query reuses BOTH levels *)
  let v2 = Tse_algebra.Ops.define_vc db ~name:"V2" q in
  Alcotest.(check bool) "outer reused" true (Oid.equal v1 v2);
  check Alcotest.int "no new classes at all" size
    (Schema_graph.size (Database.graph db))

let test_promotion_shares_identity () =
  let u = uni () in
  let db = u.db in
  let g = Database.graph db in
  let ageless = Tse_algebra.Ops.hide db ~name:"NoGpa" ~props:[ "gpa" ] ~src:u.student in
  (* 'major' was local at Student; the hide class got a promoted copy with
     the SAME identity, so Student's inheritance view is unchanged *)
  let at_hide = Option.get (Type_info.find_usable g ageless "major") in
  let at_student = Option.get (Type_info.find_usable g u.student "major") in
  Alcotest.(check bool) "promoted copy shares uid" true
    (Prop.same_prop at_hide at_student);
  Alcotest.(check bool) "marked promoted" true at_hide.Prop.promoted

let test_union_between_related_classes () =
  let u = uni () in
  let db = u.db in
  let g = Database.graph db in
  (* union(A, B) where A is an ancestor of B: extent = extent(A); must not
     cycle and must sit above A *)
  let un = Tse_algebra.Ops.union db ~name:"PS" u.person u.student in
  Alcotest.(check bool) "above person" true
    (Schema_graph.is_strict_ancestor g ~anc:un ~desc:u.person);
  Alcotest.(check (list string)) "invariants" [] (Invariants.check g)

let test_refine_from_validation () =
  let u = uni () in
  (try
     ignore
       (Tse_algebra.Ops.refine_from u.db ~name:"Bad" ~src:u.person
          ~prop_name:"ssn" ~target:u.grad);
     Alcotest.fail "target already has the property: must reject"
   with Tse_algebra.Ops.Error _ -> ());
  try
    ignore
      (Tse_algebra.Ops.refine_from u.db ~name:"Bad2" ~src:u.support_staff
         ~prop_name:"nosuch" ~target:u.grad);
    Alcotest.fail "unknown property: must reject"
  with Tse_algebra.Ops.Error _ -> ()

let test_edge_repair_removes_redundancy () =
  let u = uni () in
  let db = u.db in
  let g = Database.graph db in
  (* inserting a refine class below Student must not leave Student with a
     transitive-redundant edge to the new class's subclasses *)
  let r1 =
    Tse_algebra.Ops.refine db ~name:"R1"
      ~props:[ Prop.stored ~origin:(Oid.of_int 0) "a" Value.TInt ]
      ~src:u.student
  in
  let r2 =
    Tse_algebra.Ops.refine db ~name:"R2"
      ~props:[ Prop.stored ~origin:(Oid.of_int 0) "b" Value.TInt ]
      ~src:r1
  in
  ignore r2;
  (* no direct Student -> R2 edge: it reaches R2 through R1 *)
  let direct_subs = Schema_graph.subs g u.student in
  Alcotest.(check bool) "no redundant direct edge" false
    (List.exists (Oid.equal r2) direct_subs);
  Alcotest.(check (list string)) "invariants" [] (Invariants.check g)

let test_classified_class_extents_populated () =
  let u = uni () in
  let db = u.db in
  ignore (Tse_workload.University.populate u ~n:24);
  (* classification populates extents for classes created AFTER the data *)
  let adult =
    Tse_algebra.Ops.select db ~name:"Adult" ~src:u.person
      Expr.(attr "age" >= int 18)
  in
  Alcotest.(check bool) "extent non-empty" true (Database.extent_size db adult > 0);
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

(* Populating a new class by set algebra is exact only while joining it
   moves no other membership. Each guard scenario below runs on twin
   universities: one on the default engine, one on the full-fixpoint
   oracle. The twins allocate identical oids, so extents compare
   directly. *)
let twin_universities ~n =
  let mk full =
    let u = uni () in
    Database.set_full_reclassify u.db full;
    ignore (Tse_workload.University.populate u ~n);
    u
  in
  (mk false, mk true)

let check_matches_oracle (u : Tse_workload.University.t)
    (o : Tse_workload.University.t) =
  Alcotest.(check (list string)) "consistent" [] (Database.check u.db);
  Alcotest.(check (list string)) "oracle consistent" [] (Database.check o.db);
  let extents (u : Tse_workload.University.t) =
    List.map
      (fun c -> (c, Database.extent_list u.db c))
      (List.sort Oid.compare (Schema_graph.cids (Database.graph u.db)))
  in
  Alcotest.(check bool) "extents equal the oracle's" true
    (extents u = extents o)

(* Runs [f] and returns its result with how many objects the set-algebra
   path admitted and how many classes fell back to the fixpoint. *)
let populate_counts f =
  let populated = Tse_obs.Metrics.counter "reclass.populated_objects" in
  let fallbacks = Tse_obs.Metrics.counter "reclass.populate_fallbacks" in
  let p0 = Tse_obs.Metrics.counter_value populated in
  let f0 = Tse_obs.Metrics.counter_value fallbacks in
  let r = f () in
  ( r,
    Tse_obs.Metrics.counter_value populated - p0,
    Tse_obs.Metrics.counter_value fallbacks - f0 )

(* Ancestor guard: refine_from links the new class under the provider
   SupportStaff as well as under Grad, and no grad is support staff. Its
   members must join SupportStaff too, which only the fixpoint does. *)
let boss_for_grads (u : Tse_workload.University.t) =
  Tse_algebra.Ops.refine_from u.db ~name:"BossedGrad" ~src:u.support_staff
    ~prop_name:"boss" ~target:u.grad

let test_populate_ancestor_guard () =
  let u, o = twin_universities ~n:60 in
  let c, populated, fallbacks = populate_counts (fun () -> boss_for_grads u) in
  ignore (boss_for_grads o);
  check Alcotest.int "nobody admitted by set algebra" 0 populated;
  check Alcotest.int "one fallback" 1 fallbacks;
  Alcotest.(check bool) "grads joined the new class" true
    (Database.extent_size u.db c > 0);
  check_matches_oracle u o

(* Observed guard: a refine of Student adds a second, unrelated stored
   [lecture]. For a TA, a member of both Student and TeachingStaff, the
   name becomes ambiguous, so DbTeachers' predicate no longer holds and
   the TAs must leave it. *)
let db_teachers (u : Tse_workload.University.t) =
  Tse_algebra.Ops.select u.db ~name:"DbTeachers" ~src:u.teaching_staff
    Expr.(attr "lecture" === str "db101")

let second_lecture (u : Tse_workload.University.t) =
  Tse_algebra.Ops.refine u.db ~name:"Lectured"
    ~props:[ Prop.stored ~origin:(Oid.of_int 0) "lecture" Value.TString ]
    ~src:u.student

let test_populate_observed_guard () =
  let u, o = twin_universities ~n:60 in
  let sel, populated, fallbacks = populate_counts (fun () -> db_teachers u) in
  ignore (db_teachers o);
  check Alcotest.int "the TAs teaching db101 admitted by filtering" 10
    populated;
  check Alcotest.int "select: no fallback" 0 fallbacks;
  let tas = Database.extent u.db u.ta in
  check Alcotest.int "every member is a TA" 10
    (Oid.Set.cardinal (Oid.Set.inter tas (Database.extent u.db sel)));
  let _, populated, fallbacks = populate_counts (fun () -> second_lecture u) in
  ignore (second_lecture o);
  check Alcotest.int "refine: nobody admitted by set algebra" 0 populated;
  check Alcotest.int "refine: one fallback" 1 fallbacks;
  Alcotest.(check bool) "no TA left in DbTeachers" false
    (Oid.Set.exists (fun t -> Oid.Set.mem t tas) (Database.extent u.db sel));
  check_matches_oracle u o

let suite =
  [
    Alcotest.test_case "intended types per operator" `Quick test_intended_types;
    Alcotest.test_case "duplicates modulo commutativity" `Quick
      test_duplicate_detection_modulo_commutativity;
    Alcotest.test_case "nested duplicate reuse" `Quick test_duplicate_detection_nested;
    Alcotest.test_case "promotion shares property identity" `Quick
      test_promotion_shares_identity;
    Alcotest.test_case "union of related classes" `Quick
      test_union_between_related_classes;
    Alcotest.test_case "refine_from validation" `Quick test_refine_from_validation;
    Alcotest.test_case "edge repair removes redundancy" `Quick
      test_edge_repair_removes_redundancy;
    Alcotest.test_case "late classification populates extents" `Quick
      test_classified_class_extents_populated;
    Alcotest.test_case "populate: ancestor guard" `Quick
      test_populate_ancestor_guard;
    Alcotest.test_case "populate: observed-select guard" `Quick
      test_populate_observed_guard;
  ]
