(* Tests for the database kernel: object lifecycle, extents, property
   access, derived membership. *)

open Tse_store
open Tse_schema
open Tse_db

let check = Alcotest.check
let vpp = Alcotest.testable Value.pp Value.equal
let uni () = Tse_workload.University.build ()

let test_create_and_extents () =
  let u = uni () in
  let db = u.db in
  let ta =
    Database.create_object db u.ta
      ~init:[ ("name", Value.String "kim"); ("hours", Value.Int 10) ]
  in
  (* a TA is in the extents of TA, Student, TeachingStaff, Staff, Person *)
  List.iter
    (fun (label, cid) ->
      Alcotest.(check bool) label true (Oid.Set.mem ta (Database.extent db cid)))
    [
      ("in TA", u.ta);
      ("in Student", u.student);
      ("in TeachingStaff", u.teaching_staff);
      ("in Staff", u.staff);
      ("in Person", u.person);
    ];
  Alcotest.(check bool) "not in Grad" false
    (Oid.Set.mem ta (Database.extent db u.grad));
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

let test_property_access () =
  let u = uni () in
  let db = u.db in
  let s =
    Database.create_object db u.student
      ~init:
        [ ("name", Value.String "ann"); ("age", Value.Int 25);
          ("gpa", Value.Float 3.9) ]
  in
  check vpp "inherited attr" (Value.String "ann") (Database.get_prop db s "name");
  check vpp "local attr" (Value.Float 3.9) (Database.get_prop db s "gpa");
  Database.set_attr db s "age" (Value.Int 26);
  check vpp "updated" (Value.Int 26) (Database.get_prop db s "age");
  Alcotest.check_raises "unknown prop" (Expr.Unknown_property "salary")
    (fun () -> ignore (Database.get_prop db s "salary"));
  (try
     Database.set_attr db s "age" (Value.String "old");
     Alcotest.fail "expected type error"
   with Expr.Type_error _ -> ())

let test_method_evaluation () =
  let u = uni () in
  let db = u.db in
  (* add a derived method adult() = age >= 18 to Person *)
  Schema_graph.add_local_prop (Database.graph db) u.person
    (Prop.method_ ~origin:u.person "adult" Expr.(attr "age" >= int 18));
  let p =
    Database.create_object db u.person
      ~init:[ ("name", Value.String "bo"); ("age", Value.Int 12) ]
  in
  check vpp "method false" (Value.Bool false) (Database.get_prop db p "adult");
  Database.set_attr db p "age" (Value.Int 30);
  check vpp "method true" (Value.Bool true) (Database.get_prop db p "adult");
  (* methods are not settable *)
  (try
     Database.set_attr db p "adult" (Value.Bool true);
     Alcotest.fail "expected type error"
   with Expr.Type_error _ -> ())

let test_base_membership_changes () =
  let u = uni () in
  let db = u.db in
  let p = Database.create_object db u.person ~init:[ ("age", Value.Int 20) ] in
  Alcotest.(check bool) "not student" false (Database.is_member db p u.student);
  Database.add_base_membership db p u.student;
  Alcotest.(check bool) "now student" true (Database.is_member db p u.student);
  Alcotest.(check bool) "still person" true (Database.is_member db p u.person);
  Database.set_attr db p "gpa" (Value.Float 3.0);
  check vpp "student attr now usable" (Value.Float 3.0)
    (Database.get_prop db p "gpa");
  Database.remove_base_membership db p u.student;
  Alcotest.(check bool) "student dropped" false (Database.is_member db p u.student);
  Alcotest.(check bool) "person kept" true (Database.is_member db p u.person);
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

let test_membership_closure_on_add () =
  let u = uni () in
  let db = u.db in
  let p = Database.create_object db u.person ~init:[] in
  (* adding to TA pulls in Student, TeachingStaff and Staff *)
  Database.add_base_membership db p u.ta;
  List.iter
    (fun cid ->
      Alcotest.(check bool)
        (Printf.sprintf "member of %s"
           (Schema_graph.name_of (Database.graph db) cid))
        true (Database.is_member db p cid))
    [ u.ta; u.student; u.teaching_staff; u.staff; u.person ];
  (* removing Student also removes TA (its descendant) but keeps Staff *)
  Database.remove_base_membership db p u.student;
  Alcotest.(check bool) "TA dropped" false (Database.is_member db p u.ta);
  Alcotest.(check bool) "Staff kept" true (Database.is_member db p u.staff);
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

let test_select_class_membership () =
  let u = uni () in
  let db = u.db in
  let g = Database.graph db in
  (* a virtual select class: Adult = select from Person where age >= 18,
     linked under Person as the classifier would *)
  let adult =
    Schema_graph.register_virtual g ~name:"Adult"
      (Klass.Select (u.person, Expr.(attr "age" >= int 18)))
      []
  in
  Schema_graph.add_edge g ~sup:u.person ~sub:adult;
  let young = Database.create_object db u.person ~init:[ ("age", Value.Int 10) ] in
  let old = Database.create_object db u.person ~init:[ ("age", Value.Int 40) ] in
  Alcotest.(check bool) "young not adult" false (Database.is_member db young adult);
  Alcotest.(check bool) "old adult" true (Database.is_member db old adult);
  check Alcotest.int "extent size" 1 (Database.extent_size db adult);
  (* updating the attribute reclassifies *)
  Database.set_attr db young "age" (Value.Int 19);
  Alcotest.(check bool) "young grew up" true (Database.is_member db young adult);
  Database.set_attr db old "age" (Value.Int 5);
  Alcotest.(check bool) "old un-classified" false (Database.is_member db old adult);
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

(* Registering, linking and populating a class is the whole protocol:
   the kernel notices the new class through the graph version, even when
   it had derived its order before. *)
let test_new_class_needs_no_announcement () =
  let u = uni () in
  let db = u.db in
  let g = Database.graph db in
  let first =
    Database.create_object db u.person ~init:[ ("age", Value.Int 30) ]
  in
  ignore (Database.derivation_order db);
  let adult =
    Schema_graph.register_virtual g ~name:"Adult"
      (Klass.Select (u.person, Expr.(attr "age" >= int 18)))
      []
  in
  Schema_graph.add_edge g ~sup:u.person ~sub:adult;
  Alcotest.(check bool) "Adult is in the derivation order" true
    (List.exists (Oid.equal adult) (Database.derivation_order db));
  Alcotest.(check (list string)) "unpopulated: the first person is missing"
    [ Printf.sprintf "object %s should be a member of Adult by its derivation"
        (Oid.to_string first) ]
    (Database.check db);
  Database.populate_class db adult;
  let second =
    Database.create_object db u.person ~init:[ ("age", Value.Int 40) ]
  in
  Alcotest.(check bool) "the second person holds" true
    (Database.holds db second Expr.(attr "age" >= int 18));
  Alcotest.(check bool) "the second person is an Adult" true
    (Database.is_member db second adult);
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

let test_refine_class_membership () =
  let u = uni () in
  let db = u.db in
  let g = Database.graph db in
  (* capacity-augmenting refine: Student' = refine register for Student *)
  let register = Prop.stored ~origin:(Oid.of_int 0) "register" Value.TBool in
  let student' =
    Schema_graph.register_virtual g ~name:"Student'"
      (Klass.Refine ([ register ], u.student))
      [ register ]
  in
  Schema_graph.add_edge g ~sup:u.student ~sub:student';
  let s = Database.create_object db u.student ~init:[ ("age", Value.Int 20) ] in
  (* every Student is automatically a member of the refine class *)
  Alcotest.(check bool) "student in Student'" true
    (Database.is_member db s student');
  (* ... and can store the new attribute in its new slice *)
  Database.set_attr db s "register" (Value.Bool true);
  check vpp "register readable" (Value.Bool true)
    (Database.get_prop db s "register");
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

let test_set_ops_membership () =
  let u = uni () in
  let db = u.db in
  let g = Database.graph db in
  let mk name d =
    Schema_graph.register_virtual g ~name d []
  in
  let union = mk "StudentsOrStaff" (Klass.Union (u.student, u.staff)) in
  Schema_graph.add_edge g ~sup:u.person ~sub:union;
  let inter = mk "StudentStaff" (Klass.Intersect (u.student, u.staff)) in
  Schema_graph.add_edge g ~sup:u.student ~sub:inter;
  Schema_graph.add_edge g ~sup:u.staff ~sub:inter;
  let diff = mk "NonStaffStudent" (Klass.Difference (u.student, u.staff)) in
  Schema_graph.add_edge g ~sup:u.student ~sub:diff;
  let pure_student = Database.create_object db u.student ~init:[] in
  let ta = Database.create_object db u.ta ~init:[] in
  let staff_only = Database.create_object db u.support_staff ~init:[] in
  let person = Database.create_object db u.person ~init:[] in
  let mem o c = Database.is_member db o c in
  Alcotest.(check bool) "student in union" true (mem pure_student union);
  Alcotest.(check bool) "staff in union" true (mem staff_only union);
  Alcotest.(check bool) "person not in union" false (mem person union);
  Alcotest.(check bool) "ta in intersect" true (mem ta inter);
  Alcotest.(check bool) "pure student not in intersect" false (mem pure_student inter);
  Alcotest.(check bool) "pure student in difference" true (mem pure_student diff);
  Alcotest.(check bool) "ta not in difference" false (mem ta diff);
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

let test_derived_on_derived () =
  let u = uni () in
  let db = u.db in
  let g = Database.graph db in
  (* select on top of a capacity-augmenting refine: the predicate reads the
     refined attribute, which only exists on the refine slice *)
  let credits = Prop.stored ~origin:(Oid.of_int 0) "credits" Value.TInt ~default:(Value.Int 0) in
  let student' =
    Schema_graph.register_virtual g ~name:"Student'"
      (Klass.Refine ([ credits ], u.student))
      [ credits ]
  in
  Schema_graph.add_edge g ~sup:u.student ~sub:student';
  let heavy =
    Schema_graph.register_virtual g ~name:"HeavyLoad"
      (Klass.Select (student', Expr.(attr "credits" >= int 12)))
      []
  in
  Schema_graph.add_edge g ~sup:student' ~sub:heavy;
  let s = Database.create_object db u.student ~init:[] in
  Alcotest.(check bool) "default 0 credits: not heavy" false
    (Database.is_member db s heavy);
  Database.set_attr db s "credits" (Value.Int 15);
  Alcotest.(check bool) "now heavy" true (Database.is_member db s heavy);
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

let test_destroy_object () =
  let u = uni () in
  let db = u.db in
  let s = Database.create_object db u.student ~init:[] in
  Database.destroy_object db s;
  Alcotest.(check bool) "gone" false (Database.mem_object db s);
  check Alcotest.int "extent empty" 0 (Database.extent_size db u.student);
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

let test_populate_consistency () =
  let u = uni () in
  let objs = Tse_workload.University.populate u ~n:60 in
  check Alcotest.int "created 60" 60 (List.length objs);
  check Alcotest.int "population count" 60 (Database.object_count u.db);
  (* every sixth object lands in each class bucket *)
  check Alcotest.int "persons include everyone" 60
    (Database.extent_size u.db u.person);
  check Alcotest.int "graders" 10 (Database.extent_size u.db u.grader);
  Alcotest.(check (list string)) "consistent" [] (Database.check u.db)

(* --- incremental reclassification engine ---------------------------- *)

let test_zero_eval_on_untouched_attr () =
  let u = uni () in
  let db = u.db in
  (* the contract under test is the incremental engine's, whatever
     DB_FULL_RECLASSIFY says for the rest of the suite *)
  Database.set_full_reclassify db false;
  let senior =
    Tse_algebra.Ops.select db ~name:"Senior" ~src:u.person
      Expr.(attr "age" >= int 65)
  in
  let p =
    Database.create_object db u.person
      ~init:[ ("age", Value.Int 70); ("name", Value.String "pat") ]
  in
  Alcotest.(check bool) "senior" true (Database.is_member db p senior);
  let evals () = Tse_obs.Metrics.find_counter "reclass.formula_evals" in
  let n0 = evals () in
  (* no select predicate reads name or ssn: the writes must short-circuit
     before any formula evaluation *)
  Database.set_attr db p "name" (Value.String "chris");
  Database.set_attr db p "ssn" (Value.Int 7);
  check Alcotest.int "zero evaluations" n0 (evals ());
  Database.set_attr db p "age" (Value.Int 30);
  Alcotest.(check bool) "left Senior" false (Database.is_member db p senior);
  Alcotest.(check bool) "age write evaluated the predicate" true
    (evals () > n0);
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

let counter = Tse_obs.Metrics.find_counter ~labels:[]

let int_attr db o name =
  match Database.get_prop db o name with
  | Value.Int i -> i
  | v -> Alcotest.failf "%s: not an int: %a" name Value.pp v

(* Membership is the verdict: a select populated over existing objects by
   set algebra leaves nothing to prime, so a write the predicate reads
   but whose verdict it leaves alone reclassifies nobody. *)
let test_settled_write_visits_nobody () =
  let u = uni () in
  let db = u.db in
  Database.set_full_reclassify db false;
  ignore (Tse_workload.University.populate u ~n:24);
  let adult =
    Tse_algebra.Ops.select db ~name:"Adult" ~src:u.person
      Expr.(attr "age" >= int 30)
  in
  Alcotest.(check bool) "both sides populated" true
    (Database.extent_size db adult > 0
    && Database.extent_size db adult < Database.extent_size db u.person);
  let v0 = counter "reclass.objects_visited" in
  let s0 = counter "reclass.verdict_noop_skips" in
  (* every age stays on its side of 30 *)
  List.iter
    (fun o ->
      let age = int_attr db o "age" in
      Database.set_attr db o "age"
        (Value.Int (if age >= 30 then age + 1 else age - 1)))
    (Database.extent_list db u.person);
  check Alcotest.int "no object reclassified" v0
    (counter "reclass.objects_visited");
  check Alcotest.int "every write a no-op skip" (s0 + 24)
    (counter "reclass.verdict_noop_skips");
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

(* Item -> Hot -> HotG: writes that keep every verdict visit nobody; a
   write that flips Hot moves the object into or out of both classes,
   exactly as the oracle does. *)
let test_select_chain_matches_oracle () =
  let run ~full =
    let db = Database.create () in
    Database.set_full_reclassify db full;
    let g = Database.graph db in
    let stored = Prop.stored ~origin:(Oid.of_int 0) in
    let item =
      Schema_graph.register_base g ~name:"Item"
        ~props:[ stored "flag" Value.TInt; stored "grp" Value.TInt ]
        ~supers:[]
    in
    let objs =
      List.init 20 (fun i ->
          Database.create_object db item
            ~init:
              [ ("flag", Value.Int (i * 5)); ("grp", Value.Int (i * 37 mod 100)) ])
    in
    let hot =
      Tse_algebra.Ops.select db ~name:"Hot" ~src:item
        Expr.(attr "flag" >= int 50)
    in
    let hotg =
      Tse_algebra.Ops.select db ~name:"HotG" ~src:hot
        Expr.(attr "grp" < int 50)
    in
    let v0 = counter "reclass.objects_visited" in
    List.iter
      (fun o ->
        let grp = int_attr db o "grp" in
        Database.set_attr db o "grp"
          (Value.Int (if grp < 50 then grp + 1 else grp - 1)))
      objs;
    if not full then
      check Alcotest.int "verdict-keeping writes visit nobody" v0
        (counter "reclass.objects_visited");
    List.iter
      (fun o ->
        let was_hot = Database.is_member db o hot in
        let grp = int_attr db o "grp" in
        Database.set_attr db o "flag" (Value.Int (if was_hot then 0 else 99));
        Alcotest.(check bool) "Hot flipped" (not was_hot)
          (Database.is_member db o hot);
        Alcotest.(check bool) "HotG follows Hot" ((not was_hot) && grp < 50)
          (Database.is_member db o hotg))
      objs;
    Alcotest.(check (list string)) "consistent" [] (Database.check db);
    let ints cid = List.map Oid.to_int (Database.extent_list db cid) in
    (ints hot, ints hotg)
  in
  let hot, hotg = run ~full:false in
  let hot', hotg' = run ~full:true in
  Alcotest.(check bool) "some objects in HotG" true (hotg <> []);
  check Alcotest.(list int) "Hot: engine = oracle" hot' hot;
  check Alcotest.(list int) "HotG: engine = oracle" hotg' hotg

let test_nonconvergence_hook () =
  let u = uni () in
  let db = u.db in
  let g = Database.graph db in
  Alcotest.(check bool) "fuel is positive" true (Database.reclassify_fuel > 0);
  let fired = ref 0 in
  Database.set_nonconvergence_hook db (fun _ -> incr fired);
  (* a self-negating derivation: V = select Person where not member_of V.
     Built below the algebra because Ops rejects the forward reference. *)
  let v =
    Schema_graph.register_virtual g ~name:"Oscillator"
      (Klass.Select (u.person, Expr.Not (Expr.In_class "Oscillator")))
      []
  in
  Schema_graph.add_edge g ~sup:u.person ~sub:v;
  ignore (Database.create_object db u.person ~init:[]);
  check Alcotest.int "hook fired" 1 !fired;
  ignore (Database.create_object db u.person ~init:[]);
  check Alcotest.int "hook is one-shot" 1 !fired

let test_membership_delta_events () =
  let u = uni () in
  let db = u.db in
  let senior =
    Tse_algebra.Ops.select db ~name:"Senior" ~src:u.person
      Expr.(attr "age" >= int 65)
  in
  let p = Database.create_object db u.person ~init:[ ("age", Value.Int 30) ] in
  Alcotest.(check bool) "below the threshold: no member" false
    (Oid.Set.mem p (Database.extent db senior));
  Database.set_attr db p "age" (Value.Int 70);
  Alcotest.(check bool) "extent maintained by delta" true
    (Oid.Set.mem p (Database.extent db senior));
  Database.set_attr db p "age" (Value.Int 40);
  Alcotest.(check bool) "extent pruned by delta" false
    (Oid.Set.mem p (Database.extent db senior));
  (* the oracle escape hatch leaves the same extents *)
  Database.set_full_reclassify db true;
  Database.set_attr db p "age" (Value.Int 80);
  Alcotest.(check bool) "oracle extent" true
    (Oid.Set.mem p (Database.extent db senior));
  Alcotest.(check (list string)) "consistent" [] (Database.check db)

(* The change stamp optimistic sessions validate against: each logical
   change moves it exactly once — a write that crosses several class
   predicates at once included — a change that changes nothing moves
   nothing, and populating a new class moves no object's stamp. The
   same holds for the incremental engine and the full-fixpoint oracle. *)
let test_object_version_stamps () =
  let stamps full =
    let u = uni () in
    let db = u.db in
    Database.set_full_reclassify db full;
    let mode = if full then "oracle: " else "engine: " in
    let add_select name threshold =
      ignore
        (Tse_algebra.Ops.select db ~name ~src:u.person
           Expr.(attr "age" >= int threshold))
    in
    add_select "SixtyPlus" 60;
    add_select "SixtyFivePlus" 65;
    let version = Database.object_version db in
    let moved what o before by =
      check Alcotest.int (mode ^ what) (before + by) (version o)
    in
    let witness = Database.create_object db u.person ~init:[] in
    check Alcotest.int (mode ^ "created before the first read: 0") 0
      (version witness);
    let p =
      Database.create_object db u.person
        ~init:[ ("name", Value.String "p"); ("age", Value.Int 30) ]
    in
    moved "create + two init writes" p 0 3;
    let q = Database.create_object db u.person ~init:[ ("age", Value.Int 70) ] in
    moved "create + an init write that joins two selects" q 0 2;
    let v = version p in
    Database.set_attr db p "age" (Value.Int 70);
    moved "a write that joins two selects" p v 1;
    let v = version p in
    Database.set_attr db p "age" (Value.Int 75);
    moved "a write that moves no membership" p v 1;
    let v = version p in
    Database.add_base_membership db p u.staff;
    moved "a base edit" p v 1;
    Database.add_base_membership db p u.staff;
    moved "a no-op base edit" p v 1;
    let v = version p in
    Database.remove_base_membership db p u.staff;
    moved "a base removal" p v 1;
    Database.remove_base_membership db p u.staff;
    moved "a no-op base removal" p v 1;
    check Alcotest.int (mode ^ "others untouched") 0 (version witness);
    ignore
      (Database.create_object db u.student
         ~init:[ ("name", Value.String "s"); ("age", Value.Int 20) ]);
    let all () = List.map (fun o -> (o, version o)) (Database.objects db) in
    let before = all () in
    let young =
      Tse_algebra.Ops.select db ~name:"Young" ~src:u.person
        Expr.(attr "age" < int 25)
    in
    ignore
      (Tse_algebra.Ops.refine db ~name:"Nicknamed"
         ~props:[ Prop.stored ~origin:(Oid.of_int 0) "nickname" Value.TString ]
         ~src:u.student);
    check Alcotest.bool (mode ^ "populated") false
      (Oid.Set.is_empty (Database.extent db young));
    Alcotest.(check bool) (mode ^ "populating moves no stamp") true
      (before = all ());
    let v = version p in
    Database.destroy_object db p;
    moved "destroy" p v 1;
    Alcotest.(check (list string)) (mode ^ "consistent") [] (Database.check db)
  in
  stamps false;
  stamps true

(* The planner reads [extent_size] as a maintained count, never a walk.
   Every path that mutates an extent must keep that count exact; [check]
   compares each class's count with its extent's cardinality, so it runs
   after each path below. *)
let test_extent_counts_maintained () =
  let u = uni () in
  let db = u.db in
  Database.set_full_reclassify db false;
  ignore (Tse_workload.University.populate u ~n:12);
  let senior =
    Tse_algebra.Ops.select db ~name:"Senior" ~src:u.person
      Expr.(attr "age" >= int 60)
  in
  let consistent what =
    Alcotest.(check (list string)) what [] (Database.check db)
  in
  let size what cid n = check Alcotest.int what n (Database.extent_size db cid) in
  let persons = Database.extent_size db u.person in
  let seniors = Database.extent_size db senior in
  (* create *)
  let p =
    Database.create_object db u.student
      ~init:[ ("name", Value.String "p"); ("age", Value.Int 30) ]
  in
  consistent "create";
  size "create: one more person" u.person (persons + 1);
  (* writes that move the object into and out of a select *)
  Database.set_attr db p "age" (Value.Int 70);
  consistent "write into a select";
  size "joined Senior" senior (seniors + 1);
  Database.set_attr db p "age" (Value.Int 71);
  consistent "write inside a select";
  Database.set_attr db p "age" (Value.Int 20);
  consistent "write out of a select";
  size "left Senior" senior seniors;
  (* base-membership edits move extents through the same delta step *)
  Database.add_base_membership db p u.staff;
  consistent "add base membership";
  Database.remove_base_membership db p u.staff;
  consistent "remove base membership";
  (* destroy, incremental path *)
  Database.set_attr db p "age" (Value.Int 65);
  Database.destroy_object db p;
  consistent "destroy (incremental)";
  size "destroyed person gone" u.person persons;
  size "destroyed senior gone" senior seniors;
  (* the oracle path rebuilds memberships with a full per-class sweep *)
  Database.set_full_reclassify db true;
  consistent "set_full_reclassify on";
  let q =
    Database.create_object db u.ta
      ~init:[ ("name", Value.String "q"); ("age", Value.Int 30) ]
  in
  consistent "create (oracle)";
  Database.set_attr db q "age" (Value.Int 80);
  consistent "write into a select (oracle)";
  size "oracle: joined Senior" senior (seniors + 1);
  Database.destroy_object db q;
  consistent "destroy (oracle)";
  size "oracle: destroyed person gone" u.person persons;
  Database.set_full_reclassify db false;
  consistent "set_full_reclassify off";
  Database.reclassify_all db;
  consistent "reclassify_all";
  (* restore re-derives every extent from the snapshot's memberships *)
  let db', _ =
    Tse_views.Catalog.of_string (Tse_views.Catalog.to_string db)
  in
  Alcotest.(check (list string)) "restore" [] (Database.check db');
  List.iter
    (fun (k : Klass.t) ->
      check Alcotest.int
        ("restored count of " ^ k.name)
        (Database.extent_size db k.cid)
        (Database.extent_size db' k.cid))
    (Schema_graph.classes (Database.graph db))

(* Stale twins: generate twin databases from one seed, apply identical
   direct heap slot writes to both (bypassing [Database.set_attr]'s eager
   reclassification, so memberships go stale), then repair one with the
   incremental [reclassify_all] and the other with the full-fixpoint
   oracle.  Both must pass the consistency check and fingerprint equal:
   classes, extents, every slot of every object. *)
let test_stale_twin_reclassify_all () =
  let stale_twin seed =
    let rs =
      Tse_workload.Random_schema.generate ~seed ~classes:5 ~objects:120
        ~virtuals:6 ()
    in
    let heap = Database.heap rs.db in
    (* attribute values live in the per-class implementation objects *)
    let int_slots o =
      List.concat_map
        (fun cid ->
          match Tse_objmodel.Slicing.impl_of (Database.model rs.db) o cid with
          | None -> []
          | Some impl ->
            List.filter_map
              (fun (k, v) ->
                match v with Value.Int _ -> Some (impl, k) | _ -> None)
              (Heap.slots heap impl))
        (Database.member_classes rs.db o)
    in
    List.iteri
      (fun i o ->
        if i mod 3 = 0 then
          match int_slots o with
          | [] -> ()
          | ints ->
            let impl, k = List.nth ints (i mod List.length ints) in
            Heap.set_slot heap impl k (Value.Int (i * 17 mod 100)))
      (Database.objects rs.db);
    rs.db
  in
  let moved = ref 0 in
  let repaired seed ~full =
    let db = stale_twin seed in
    let stale = Tse_core.Verify.db_fingerprint db in
    Database.set_full_reclassify db full;
    Database.reclassify_all db;
    Alcotest.(check (list string))
      (Printf.sprintf "consistent (seed %d, full %b)" seed full)
      [] (Database.check db);
    let fp = Tse_core.Verify.db_fingerprint db in
    if not (String.equal fp stale) then incr moved;
    fp
  in
  List.iter
    (fun seed ->
      check Alcotest.string
        (Printf.sprintf "incremental == oracle (seed %d)" seed)
        (repaired seed ~full:true) (repaired seed ~full:false))
    [ 1; 7; 42; 311; 2026; 9001 ];
  (* the direct writes must leave memberships stale somewhere *)
  check Alcotest.bool "some repair moved a membership" true (!moved > 0)

(* A refine of a class with ancestors: its derivation implies that the
   ancestors already hold every member, so each member gains the one
   slice at the new class and no ancestor is checked or joined. A
   refine_from whose provider is not above the target still needs the
   guard, and the guard still falls back to the fixpoint. *)
let test_populate_one_slice_per_member () =
  let u = uni () in
  Database.set_full_reclassify u.db false;
  ignore (Tse_workload.University.populate u ~n:24);
  let allocs = Tse_obs.Metrics.counter "heap.allocs" in
  let fallbacks = Tse_obs.Metrics.counter "reclass.populate_fallbacks" in
  let a0 = Tse_obs.Metrics.counter_value allocs in
  let f0 = Tse_obs.Metrics.counter_value fallbacks in
  let bonus = Prop.stored ~origin:(Oid.of_int 0) "bonus" Value.TInt in
  let c =
    Tse_algebra.Ops.refine u.db ~name:"BonusGrad" ~props:[ bonus ] ~src:u.grad
  in
  let members = Database.extent_size u.db c in
  Alcotest.(check bool) "the refine has members" true (members > 0);
  Alcotest.(check bool) "grad has ancestors below the root" true
    (Oid.Set.cardinal (Schema_graph.ancestors (Database.graph u.db) u.grad) > 1);
  check Alcotest.int "one heap cell per member" members
    (Tse_obs.Metrics.counter_value allocs - a0);
  check Alcotest.int "no fallback" f0 (Tse_obs.Metrics.counter_value fallbacks);
  ignore
    (Tse_algebra.Ops.refine_from u.db ~name:"PaidGrad" ~src:u.ta
       ~prop_name:"salary" ~target:u.grad);
  check Alcotest.int "the provider side falls back" (f0 + 1)
    (Tse_obs.Metrics.counter_value fallbacks);
  Alcotest.(check (list string)) "consistent" [] (Database.check u.db)

let suite =
  [
    Alcotest.test_case "create + extent closure" `Quick test_create_and_extents;
    Alcotest.test_case "property access" `Quick test_property_access;
    Alcotest.test_case "method evaluation" `Quick test_method_evaluation;
    Alcotest.test_case "base membership add/remove" `Quick
      test_base_membership_changes;
    Alcotest.test_case "membership closure on add" `Quick
      test_membership_closure_on_add;
    Alcotest.test_case "select class membership tracks updates" `Quick
      test_select_class_membership;
    Alcotest.test_case "refine class gives new stored attribute" `Quick
      test_refine_class_membership;
    Alcotest.test_case "union/intersect/difference membership" `Quick
      test_set_ops_membership;
    Alcotest.test_case "select over refine (derived on derived)" `Quick
      test_derived_on_derived;
    Alcotest.test_case "destroy object" `Quick test_destroy_object;
    Alcotest.test_case "populated university is consistent" `Quick
      test_populate_consistency;
    Alcotest.test_case "untouched attribute: zero formula evaluations" `Quick
      test_zero_eval_on_untouched_attr;
    Alcotest.test_case "settled write reclassifies nobody" `Quick
      test_settled_write_visits_nobody;
    Alcotest.test_case "select chain: engine = oracle" `Quick
      test_select_chain_matches_oracle;
    Alcotest.test_case "nonconvergence hook fires once" `Quick
      test_nonconvergence_hook;
    Alcotest.test_case "membership deltas drive extents" `Quick
      test_membership_delta_events;
    Alcotest.test_case "object version moves once per change" `Quick
      test_object_version_stamps;
    Alcotest.test_case "extent counts maintained on every path" `Quick
      test_extent_counts_maintained;
    Alcotest.test_case "stale twins match the oracle" `Quick
      test_stale_twin_reclassify_all;
    Alcotest.test_case "a new class needs no announcement" `Quick
      test_new_class_needs_no_announcement;
    Alcotest.test_case "populating a refine: one slice per member" `Quick
      test_populate_one_slice_per_member;
  ]
