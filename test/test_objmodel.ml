(* Tests for the two multiple-classification architectures (Section 4). *)

open Tse_store
open Tse_schema
open Tse_objmodel

let check = Alcotest.check
let vpp = Alcotest.testable Value.pp Value.equal

let fresh_slicing () =
  let cars = Tse_workload.Cars.build () in
  let stats = Stats.create () in
  cars, Slicing.create ~graph:cars.graph ~heap:cars.heap ~stats

let fresh_intersection () =
  let cars = Tse_workload.Cars.build () in
  let stats = Stats.create () in
  cars, Intersection.create ~graph:cars.graph ~heap:cars.heap ~stats

let test_slicing_create_and_membership () =
  let cars, m = fresh_slicing () in
  let o = Slicing.create_object m cars.jeep in
  Alcotest.(check bool) "member of Jeep" true (Slicing.is_member m o cars.jeep);
  Alcotest.(check bool) "member of Car (ancestor)" true
    (Slicing.is_member m o cars.car);
  Alcotest.(check bool) "not Imported" false (Slicing.is_member m o cars.imported);
  check Alcotest.int "two impls (Car, Jeep)" 2 (Slicing.impl_count m o);
  Alcotest.(check bool) "member of root implicitly" true
    (Slicing.is_member m o (Schema_graph.root cars.graph))

let test_slicing_multiple_classification () =
  let cars, m = fresh_slicing () in
  let o = Slicing.create_object m cars.jeep in
  (* the Figure 5 scenario: o becomes Imported too, without losing Jeep *)
  Slicing.add_to_class m o cars.imported;
  Alcotest.(check bool) "still Jeep" true (Slicing.is_member m o cars.jeep);
  Alcotest.(check bool) "now Imported" true (Slicing.is_member m o cars.imported);
  check Alcotest.int "three impls" 3 (Slicing.impl_count m o);
  (* attributes resolve to the right slice *)
  Slicing.set_attr m o "nation" (Value.String "jp");
  Slicing.set_attr m o "model" (Value.String "x1");
  check vpp "nation on Imported slice" (Value.String "jp")
    (Slicing.get_attr m o "nation");
  check vpp "model on Car slice" (Value.String "x1")
    (Slicing.get_attr m o "model");
  let impl_imported = Option.get (Slicing.impl_of m o cars.imported) in
  let impl_car = Option.get (Slicing.impl_of m o cars.car) in
  Alcotest.(check bool) "slices are distinct cells" false
    (Oid.equal impl_imported impl_car);
  check vpp "nation physically on imported impl" (Value.String "jp")
    (Heap.get_slot cars.heap impl_imported "nation");
  check vpp "model physically on car impl" (Value.String "x1")
    (Heap.get_slot cars.heap impl_car "model")

let test_slicing_dynamic_declassification () =
  let cars, m = fresh_slicing () in
  let o = Slicing.create_object m cars.jeep in
  Slicing.add_to_class m o cars.imported;
  Slicing.set_attr m o "nation" (Value.String "jp");
  Slicing.remove_from_class m o cars.imported;
  Alcotest.(check bool) "lost Imported" false (Slicing.is_member m o cars.imported);
  Alcotest.(check bool) "kept Jeep" true (Slicing.is_member m o cars.jeep);
  (* removing a superclass removes the subclass types too *)
  Slicing.remove_from_class m o cars.car;
  Alcotest.(check bool) "losing Car loses Jeep" false
    (Slicing.is_member m o cars.jeep);
  check Alcotest.int "no impls left" 0 (Slicing.impl_count m o)

let test_slicing_casting () =
  let cars, m = fresh_slicing () in
  let o = Slicing.create_object m cars.jeep in
  Alcotest.(check bool) "cast to Car works" true
    (Slicing.cast m o cars.car <> None);
  Alcotest.(check bool) "cast to Imported fails" true
    (Slicing.cast m o cars.imported = None);
  (* back-pointer from the impl object *)
  let impl = Option.get (Slicing.cast m o cars.jeep) in
  check
    (Alcotest.option (Alcotest.testable Oid.pp Oid.equal))
    "conceptual back-pointer" (Some o)
    (Slicing.conceptual_of m impl)

let test_slicing_storage_accounting () =
  let cars, m = fresh_slicing () in
  let o = Slicing.create_object m cars.jeep in
  ignore o;
  let s = Slicing.stats m in
  (* 1 conceptual + 2 impls (Car, Jeep) *)
  check Alcotest.int "oids" 3 s.Stats.oids_allocated;
  check Alcotest.int "pointers (2 per impl)" 4 s.Stats.pointers;
  check Alcotest.int "managerial bytes" ((3 * 8) + (4 * 8))
    (Stats.managerial_bytes s);
  check (Alcotest.float 0.01) "oids/object = 1 + n_impl" 3.0
    (Stats.oids_per_object s)

let test_slicing_set_membership_exact () =
  let cars, m = fresh_slicing () in
  let o = Slicing.create_object m cars.jeep in
  Slicing.set_membership m o [ cars.car; cars.imported ];
  Alcotest.(check bool) "jeep dropped" false (Slicing.is_member m o cars.jeep);
  Alcotest.(check bool) "imported added" true (Slicing.is_member m o cars.imported);
  check Alcotest.int "exactly two impls" 2 (Slicing.impl_count m o)

(* A slice is one small implementation cell plus one conceptual slot
   naming it. Populating a class with n members may add at most 24 words
   per member to the heap and the model (55 while a cell kept its slots
   in a hash table and every slice built its own two names, 29 while the
   model kept a hash table per object and an owner table), and every
   slice of the class shares one tag and one slot-name string. *)
let test_slicing_slice_cost () =
  let cars, m = fresh_slicing () in
  let n = 2_000 in
  let objs = List.init n (fun _ -> Slicing.create_object m cars.car) in
  let words () = Obj.reachable_words (Obj.repr (cars.heap, m)) in
  let before = words () in
  List.iter (fun o -> Slicing.add_impl m o cars.imported) objs;
  let per_slice = float_of_int (words () - before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per slice <= 24" per_slice)
    true (per_slice <= 24.);
  let impl o = Option.get (Slicing.impl_of m o cars.imported) in
  let tag o = (Heap.find_exn cars.heap (impl o)).tag in
  let slot_name o =
    fst
      (List.find
         (fun (_, v) -> Value.equal v (Value.Ref (impl o)))
         (Heap.slots cars.heap o))
  in
  let o0 = List.hd objs in
  Alcotest.(check bool) "every slice shares one tag string" true
    (List.for_all (fun o -> tag o == tag o0) objs);
  Alcotest.(check bool) "every slice shares one slot-name string" true
    (List.for_all (fun o -> slot_name o == slot_name o0) objs)

let test_intersection_single_class () =
  let cars, m = fresh_intersection () in
  let o = Intersection.create_object m cars.jeep in
  Alcotest.(check bool) "member of Jeep" true (Intersection.is_member m o cars.jeep);
  Alcotest.(check bool) "member of Car" true (Intersection.is_member m o cars.car);
  Alcotest.(check bool) "not Imported" false
    (Intersection.is_member m o cars.imported);
  let s = Intersection.stats m in
  check Alcotest.int "one oid per object" 1 s.Stats.oids_allocated;
  check Alcotest.int "no intersection class yet" 0
    (Intersection.intersection_classes_created m)

let test_intersection_class_creation () =
  let cars, m = fresh_intersection () in
  let before = Schema_graph.size cars.graph in
  let o = Intersection.create_object m cars.jeep in
  Intersection.add_to_class m o cars.imported;
  (* the Jeep&Imported class of Figure 5 (b) *)
  check Alcotest.int "one intersection class" 1
    (Intersection.intersection_classes_created m);
  check Alcotest.int "graph grew by one" (before + 1)
    (Schema_graph.size cars.graph);
  Alcotest.(check bool) "member of both" true
    (Intersection.is_member m o cars.jeep && Intersection.is_member m o cars.imported);
  let cls = Intersection.class_of m o in
  check Alcotest.string "auto class name" "Jeep&Imported"
    (Schema_graph.name_of cars.graph cls);
  (* a second object with the same combination reuses the class *)
  let o2 = Intersection.create_object m cars.jeep in
  Intersection.add_to_class m o2 cars.imported;
  check Alcotest.int "intersection class reused" 1
    (Intersection.intersection_classes_created m);
  (* reclassification paid a copy + identity swap per object *)
  let s = Intersection.stats m in
  check Alcotest.int "copies" 2 s.Stats.copies;
  check Alcotest.int "identity swaps" 2 s.Stats.identity_swaps

let test_intersection_identity_preserved () =
  let cars, m = fresh_intersection () in
  let o = Intersection.create_object m cars.jeep in
  Intersection.set_attr m o "model" (Value.String "x1");
  Intersection.add_to_class m o cars.imported;
  (* same OID, values survived the copy+swap *)
  check vpp "value preserved across reclassification" (Value.String "x1")
    (Intersection.get_attr m o "model");
  Intersection.set_attr m o "nation" (Value.String "de");
  Intersection.remove_from_class m o cars.imported;
  Alcotest.(check bool) "imported dropped" false
    (Intersection.is_member m o cars.imported);
  check Alcotest.string "back to Jeep"
    "Jeep"
    (Schema_graph.name_of cars.graph (Intersection.class_of m o))

let test_intersection_subclass_implies () =
  let cars, m = fresh_intersection () in
  let o = Intersection.create_object m cars.car in
  (* adding Jeep (a subclass of Car) replaces Car in the combination *)
  Intersection.add_to_class m o cars.jeep;
  check Alcotest.string "class is Jeep, not Car&Jeep" "Jeep"
    (Schema_graph.name_of cars.graph (Intersection.class_of m o));
  check Alcotest.int "no intersection class" 0
    (Intersection.intersection_classes_created m)

let test_intersection_remove_to_root () =
  let cars, m = fresh_intersection () in
  let o = Intersection.create_object m cars.jeep in
  Intersection.remove_from_class m o cars.car;
  (* losing Car loses Jeep too; the object survives at the root *)
  Alcotest.(check bool) "not a car" false (Intersection.is_member m o cars.car);
  check Alcotest.string "reclassified to root" "Object"
    (Schema_graph.name_of cars.graph (Intersection.class_of m o))

let test_both_models_agree_on_membership () =
  (* the same classification script must yield the same membership facts
     under both architectures *)
  let script (type s) (module M : Model_sig.S with type t = s) (m : s)
      (cars : Tse_workload.Cars.t) =
    let o = M.create_object m cars.jeep in
    M.add_to_class m o cars.imported;
    M.set_attr m o "nation" (Value.String "it");
    M.remove_from_class m o cars.jeep;
    let mem c = M.is_member m o c in
    (mem cars.car, mem cars.jeep, mem cars.imported, M.get_attr m o "nation")
  in
  let cars1, m1 = fresh_slicing () in
  let r1 = script (module Slicing) m1 cars1 in
  let cars2, m2 = fresh_intersection () in
  let r2 = script (module Intersection) m2 cars2 in
  Alcotest.(check bool) "same observable state" true (r1 = r2);
  let car, jeep, imported, nation = r1 in
  Alcotest.(check bool) "car kept" true car;
  Alcotest.(check bool) "jeep dropped" false jeep;
  Alcotest.(check bool) "imported kept" true imported;
  check vpp "nation kept" (Value.String "it") nation

let suite =
  [
    Alcotest.test_case "slicing: create + membership closure" `Quick
      test_slicing_create_and_membership;
    Alcotest.test_case "slicing: multiple classification (Fig 5)" `Quick
      test_slicing_multiple_classification;
    Alcotest.test_case "slicing: dynamic declassification" `Quick
      test_slicing_dynamic_declassification;
    Alcotest.test_case "slicing: casting" `Quick test_slicing_casting;
    Alcotest.test_case "slicing: Table 1 storage accounting" `Quick
      test_slicing_storage_accounting;
    Alcotest.test_case "slicing: exact membership sync" `Quick
      test_slicing_set_membership_exact;
    Alcotest.test_case "slicing: a slice costs one small cell" `Quick
      test_slicing_slice_cost;
    Alcotest.test_case "intersection: single class" `Quick
      test_intersection_single_class;
    Alcotest.test_case "intersection: auto class creation (Fig 5b)" `Quick
      test_intersection_class_creation;
    Alcotest.test_case "intersection: identity preserved by swap" `Quick
      test_intersection_identity_preserved;
    Alcotest.test_case "intersection: subclass subsumes" `Quick
      test_intersection_subclass_implies;
    Alcotest.test_case "intersection: remove to root" `Quick
      test_intersection_remove_to_root;
    Alcotest.test_case "models agree on observable membership" `Quick
      test_both_models_agree_on_membership;
  ]
