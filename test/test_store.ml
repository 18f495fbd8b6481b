(* Tests for the storage substrate: OIDs, values, heap, txn, index,
   snapshots. *)

open Tse_store

let check = Alcotest.check
let vpp = Alcotest.testable Value.pp Value.equal

let test_oid_gen () =
  let g = Oid.Gen.create () in
  let a = Oid.Gen.fresh g and b = Oid.Gen.fresh g in
  Alcotest.(check bool) "fresh oids differ" false (Oid.equal a b);
  check Alcotest.int "count" 2 (Oid.Gen.count g);
  Oid.Gen.mark_used g (Oid.of_int 100);
  let c = Oid.Gen.fresh g in
  Alcotest.(check bool) "fresh after mark_used skips" true (Oid.to_int c > 100)

let test_value_conforms () =
  let open Value in
  Alcotest.(check bool) "int conforms" true (conforms (Int 3) TInt);
  Alcotest.(check bool) "int conforms float" true (conforms (Int 3) TFloat);
  Alcotest.(check bool) "string not int" false (conforms (String "x") TInt);
  Alcotest.(check bool) "null conforms anything" true (conforms Null TString);
  Alcotest.(check bool) "list of ints" true
    (conforms (List [ Int 1; Int 2 ]) (TList TInt));
  Alcotest.(check bool) "mixed list fails" false
    (conforms (List [ Int 1; String "a" ]) (TList TInt));
  Alcotest.(check bool) "anything conforms TAny" true (conforms (Bool true) TAny)

let test_value_codec () =
  let roundtrip v =
    let buf = Buffer.create 16 in
    Value.encode buf v;
    let v', pos = Value.decode (Buffer.contents buf) 0 in
    check Alcotest.int "consumed all" (Buffer.length buf) pos;
    check vpp "roundtrip" v v'
  in
  List.iter roundtrip
    [
      Value.Null;
      Value.Bool true;
      Value.Bool false;
      Value.Int (-42);
      Value.Float 3.25;
      Value.String "hello world; with: delimiters\nand newline";
      Value.Ref (Oid.of_int 7);
      Value.List [ Value.Int 1; Value.String "x"; Value.List [ Value.Null ] ];
    ]

let test_value_ty_codec () =
  let roundtrip ty =
    let buf = Buffer.create 16 in
    Value.encode_ty buf ty;
    let ty', _ = Value.decode_ty (Buffer.contents buf) 0 in
    Alcotest.(check bool) "ty roundtrip" true (Value.ty_equal ty ty')
  in
  List.iter roundtrip
    Value.[ TAny; TBool; TInt; TFloat; TString; TRef "Person"; TList (TList TInt) ]

let test_heap_basics () =
  let h = Heap.create () in
  let o = Heap.alloc h ~tag:"Person" in
  Alcotest.(check bool) "allocated" true (Heap.mem h o);
  check Alcotest.string "tag" "Person" (Heap.tag_of h o);
  check vpp "missing slot is null" Value.Null (Heap.get_slot h o "age");
  Heap.set_slot h o "age" (Value.Int 30);
  check vpp "read back" (Value.Int 30) (Heap.get_slot h o "age");
  Heap.remove_slot h o "age";
  check vpp "removed" Value.Null (Heap.get_slot h o "age");
  Heap.free h o;
  Alcotest.(check bool) "freed" false (Heap.mem h o)

let test_heap_swap_identity () =
  let h = Heap.create () in
  let a = Heap.alloc_with h ~tag:"A" [ ("x", Value.Int 1) ] in
  let b = Heap.alloc_with h ~tag:"B" [ ("x", Value.Int 2); ("y", Value.Int 3) ] in
  Heap.swap_identity h a b;
  check Alcotest.string "a has b's tag" "B" (Heap.tag_of h a);
  check vpp "a has b's x" (Value.Int 2) (Heap.get_slot h a "x");
  check vpp "a has b's y" (Value.Int 3) (Heap.get_slot h a "y");
  check Alcotest.string "b has a's tag" "A" (Heap.tag_of h b);
  check vpp "b has a's x" (Value.Int 1) (Heap.get_slot h b "x");
  check vpp "b lost y" Value.Null (Heap.get_slot h b "y")

let test_txn_abort () =
  let h = Heap.create () in
  let keep = Heap.alloc_with h ~tag:"K" [ ("v", Value.Int 1) ] in
  let result =
    Txn.with_txn h (fun () ->
        let o = Heap.alloc h ~tag:"T" in
        Heap.set_slot h o "v" (Value.Int 9);
        Heap.set_slot h keep "v" (Value.Int 2);
        Heap.free h keep;
        raise Txn.Abort)
  in
  Alcotest.(check bool) "aborted" true (result = None);
  Alcotest.(check bool) "keep restored" true (Heap.mem h keep);
  check vpp "keep value restored" (Value.Int 1) (Heap.get_slot h keep "v");
  check Alcotest.int "no leaked cells" 1 (Heap.cell_count h);
  check Alcotest.int "journals closed" 0 (Heap.journal_depth h)

let test_txn_commit_and_nesting () =
  let h = Heap.create () in
  let o = Heap.alloc_with h ~tag:"O" [ ("v", Value.Int 0) ] in
  let r =
    Txn.with_txn h (fun () ->
        Heap.set_slot h o "v" (Value.Int 1);
        (* inner committed txn must still be undone by outer abort *)
        ignore (Txn.with_txn h (fun () -> Heap.set_slot h o "v" (Value.Int 2)));
        raise Txn.Abort)
  in
  Alcotest.(check bool) "outer aborted" true (r = None);
  check vpp "inner commit undone by outer abort" (Value.Int 0)
    (Heap.get_slot h o "v");
  ignore (Txn.with_txn h (fun () -> Heap.set_slot h o "v" (Value.Int 5)));
  check vpp "commit sticks" (Value.Int 5) (Heap.get_slot h o "v")

let test_txn_inner_abort_outer_commit () =
  let h = Heap.create () in
  let o = Heap.alloc_with h ~tag:"O" [ ("a", Value.Int 0) ] in
  let r =
    Txn.with_txn h (fun () ->
        Heap.set_slot h o "a" (Value.Int 1);
        (* inner abort must roll back only its own changes *)
        let inner =
          Txn.with_txn h (fun () ->
              Heap.set_slot h o "b" (Value.Int 2);
              Heap.set_tag h o "Rolled";
              raise Txn.Abort)
        in
        Alcotest.(check bool) "inner aborted" true (inner = None);
        Heap.set_slot h o "c" (Value.Int 3);
        ())
  in
  Alcotest.(check bool) "outer committed" true (r = Some ());
  check vpp "outer write before inner" (Value.Int 1) (Heap.get_slot h o "a");
  check vpp "inner write undone" Value.Null (Heap.get_slot h o "b");
  check Alcotest.string "inner tag change undone" "O" (Heap.tag_of h o);
  check vpp "outer write after inner" (Value.Int 3) (Heap.get_slot h o "c");
  check Alcotest.int "journals closed" 0 (Heap.journal_depth h)

let test_txn_rollback_restores_slots_and_tag () =
  let h = Heap.create () in
  let o =
    Heap.alloc_with h ~tag:"Person"
      [ ("name", Value.String "ann"); ("age", Value.Int 30) ]
  in
  let r =
    Txn.with_txn h (fun () ->
        Heap.set_tag h o "Student";
        Heap.set_slot h o "age" (Value.Int 31);
        Heap.remove_slot h o "name";
        Heap.set_slot h o "gpa" (Value.Float 3.5);
        raise Txn.Abort)
  in
  Alcotest.(check bool) "aborted" true (r = None);
  check Alcotest.string "tag restored" "Person" (Heap.tag_of h o);
  check vpp "overwritten slot restored" (Value.Int 30) (Heap.get_slot h o "age");
  check vpp "removed slot restored" (Value.String "ann")
    (Heap.get_slot h o "name");
  check vpp "added slot gone" Value.Null (Heap.get_slot h o "gpa")

let test_txn_rollback_exception () =
  let h = Heap.create () in
  let o = Heap.alloc_with h ~tag:"O" [ ("a", Value.Int 1) ] in
  (* the first undo (of the newest entry) faults; the rest of the
     rollback must still run, the journal stack must stay balanced, and
     the error must surface *)
  Failpoint.arm "txn.rollback" Failpoint.Error_now;
  (try
     ignore
       (Txn.with_txn h (fun () ->
            Heap.set_slot h o "a" (Value.Int 2);
            Heap.set_slot h o "b" (Value.Int 3);
            raise Txn.Abort));
     Alcotest.fail "expected the rollback error to propagate"
   with Failpoint.Io_error _ -> ());
  Failpoint.reset ();
  check Alcotest.int "journals closed" 0 (Heap.journal_depth h);
  check vpp "older entry still undone" (Value.Int 1) (Heap.get_slot h o "a");
  check vpp "faulted entry's change survives" (Value.Int 3)
    (Heap.get_slot h o "b")

let test_index () =
  let idx = Index.create () in
  let o1 = Oid.of_int 1 and o2 = Oid.of_int 2 in
  Index.add idx (Value.Int 30) o1;
  Index.add idx (Value.Int 30) o2;
  Index.add idx (Value.Int 40) o1;
  Index.add idx (Value.Int 30) o1 (* duplicate, ignored *);
  check Alcotest.int "cardinal" 3 (Index.cardinal idx);
  check Alcotest.int "keys" 2 (Index.distinct_keys idx);
  check Alcotest.int "lookup 30" 2
    (Oid.Set.cardinal (Index.lookup idx (Value.Int 30)));
  Index.remove idx (Value.Int 30) o1;
  check Alcotest.int "lookup 30 after remove" 1
    (Oid.Set.cardinal (Index.lookup idx (Value.Int 30)));
  check Alcotest.int "lookup missing" 0
    (Oid.Set.cardinal (Index.lookup idx (Value.Int 99)))

let test_snapshot_roundtrip () =
  let h = Heap.create () in
  let o1 =
    Heap.alloc_with h ~tag:"Person"
      [ ("name", Value.String "ann with spaces"); ("age", Value.Int 30) ]
  in
  let _o2 =
    Heap.alloc_with h ~tag:"weird tag"
      [ ("friend", Value.Ref o1); ("xs", Value.List [ Value.Int 1; Value.Null ]) ]
  in
  let s = Snapshot.to_string h in
  let h' = Snapshot.of_string s in
  Alcotest.(check bool) "roundtrip equal" true (Snapshot.roundtrip_equal h h');
  (* a fresh alloc in the loaded heap must not collide *)
  let o3 = Heap.alloc h' ~tag:"New" in
  Alcotest.(check bool) "no oid collision" true (Oid.to_int o3 > Oid.to_int o1)

let test_snapshot_file () =
  let h = Heap.create () in
  ignore (Heap.alloc_with h ~tag:"T" [ ("x", Value.Int 1) ]);
  let path = Filename.temp_file "tse_snap" ".db" in
  Snapshot.save h path;
  let h' = Snapshot.load path in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip" true (Snapshot.roundtrip_equal h h')

let test_snapshot_malformed () =
  Alcotest.check_raises "missing end" (Failure "Snapshot: missing end marker")
    (fun () -> ignore (Snapshot.of_string "TSE-HEAP 1\ngen 3\n"));
  (* parse errors carry the line number and the offending line *)
  Alcotest.check_raises "bad line is located"
    (Failure "Snapshot: line 3: unrecognized line in \"cell nonsense\"")
    (fun () ->
      ignore (Snapshot.of_string "TSE-HEAP 1\ngen 3\ncell nonsense\nend\n"))

let test_snapshot_load_missing_file () =
  let path = Filename.temp_file "tse_snap" ".gone" in
  Sys.remove path;
  (* the error must name the file *)
  match Snapshot.load path with
  | _ -> Alcotest.fail "expected load of a missing file to fail"
  | exception Failure msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%S mentions the path" msg)
      true
      (String.length msg >= String.length path
      && String.sub msg 0 14 = "Snapshot.load ")

let test_stats () =
  let s = Stats.create () in
  for _ = 1 to 10 do
    Stats.incr_oids s
  done;
  Stats.add_pointers s 4;
  for _ = 1 to 5 do
    Stats.incr_objects s
  done;
  check Alcotest.int "managerial bytes" ((10 * 8) + (4 * 8))
    (Stats.managerial_bytes s);
  check (Alcotest.float 0.001) "oids per object" 2.0 (Stats.oids_per_object s);
  Stats.reset s;
  check Alcotest.int "reset" 0 (Stats.managerial_bytes s)

(* Property tests *)

let value_gen =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let base =
           oneof
             [
               return Value.Null;
               map (fun b -> Value.Bool b) bool;
               map (fun i -> Value.Int i) int;
               map (fun s -> Value.String s) string_printable;
               map (fun i -> Value.Ref (Oid.of_int (abs i + 1))) small_int;
             ]
         in
         if n <= 0 then base
         else
           frequency
             [
               (3, base);
               ( 1,
                 map
                   (fun vs -> Value.List vs)
                   (list_size (int_bound 4) (self (n / 2))) );
             ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

let prop_value_roundtrip =
  QCheck.Test.make ~name:"value codec roundtrips (qcheck)" ~count:500 value_arb
    (fun v ->
      let buf = Buffer.create 16 in
      Value.encode buf v;
      let v', _ = Value.decode (Buffer.contents buf) 0 in
      Value.equal v v')

let prop_value_compare_total =
  QCheck.Test.make ~name:"value compare consistent with equal" ~count:500
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      Value.equal a b = (Value.compare a b = 0))

(* [distinct_keys] is a maintained count; numeric keys share one domain,
   so [Int 3] and [Float 3.0] are one key, and [Null] is a key too. *)
let test_ord_index_distinct_keys () =
  let idx = Ord_index.create () in
  let o = Oid.of_int in
  let counts what ~keys ~entries =
    check Alcotest.int (what ^ ": distinct keys") keys
      (Ord_index.distinct_keys idx);
    check Alcotest.int (what ^ ": entries") entries (Ord_index.cardinal idx)
  in
  counts "empty" ~keys:0 ~entries:0;
  Ord_index.add idx (Value.Int 3) (o 1);
  counts "add" ~keys:1 ~entries:1;
  Ord_index.add idx (Value.Float 3.0) (o 2);
  counts "3.0 shares the key of 3" ~keys:1 ~entries:2;
  Ord_index.add idx (Value.Int 3) (o 1);
  counts "duplicate add" ~keys:1 ~entries:2;
  Ord_index.add idx Value.Null (o 3);
  Ord_index.add idx Value.Null (o 4);
  counts "null keys" ~keys:2 ~entries:4;
  Ord_index.add idx (Value.Int 5) (o 1);
  counts "second numeric key" ~keys:3 ~entries:5;
  Ord_index.remove idx (Value.Int 5) (o 2);
  counts "remove an absent oid" ~keys:3 ~entries:5;
  Ord_index.remove idx (Value.Int 7) (o 1);
  counts "remove under an absent key" ~keys:3 ~entries:5;
  Ord_index.remove idx (Value.Float 3.0) (o 1);
  counts "remove one of two oids" ~keys:3 ~entries:4;
  Ord_index.remove idx (Value.Int 3) (o 2);
  counts "remove the last oid of a key" ~keys:2 ~entries:3;
  Ord_index.remove idx Value.Null (o 3);
  Ord_index.remove idx Value.Null (o 4);
  counts "remove the last null" ~keys:1 ~entries:1;
  Ord_index.clear idx;
  counts "clear" ~keys:0 ~entries:0;
  Ord_index.add idx (Value.Int 3) (o 1);
  counts "add after clear" ~keys:1 ~entries:1;
  let built =
    Ord_index.of_seq
      (List.to_seq
         [
           (Value.Int 3, o 1);
           (Value.Float 3.0, o 2);
           (Value.Null, o 3);
           (Value.Null, o 3);
           (Value.String "a", o 4);
         ])
  in
  check Alcotest.int "of_seq: distinct keys" 3 (Ord_index.distinct_keys built);
  check Alcotest.int "of_seq: entries" 4 (Ord_index.cardinal built)

let suite =
  [
    Alcotest.test_case "oid generator" `Quick test_oid_gen;
    Alcotest.test_case "value conformance" `Quick test_value_conforms;
    Alcotest.test_case "value codec roundtrip" `Quick test_value_codec;
    Alcotest.test_case "value type codec roundtrip" `Quick test_value_ty_codec;
    Alcotest.test_case "heap basics" `Quick test_heap_basics;
    Alcotest.test_case "heap identity swap" `Quick test_heap_swap_identity;
    Alcotest.test_case "txn abort rolls back" `Quick test_txn_abort;
    Alcotest.test_case "txn commit and nesting" `Quick
      test_txn_commit_and_nesting;
    Alcotest.test_case "txn inner abort, outer commit" `Quick
      test_txn_inner_abort_outer_commit;
    Alcotest.test_case "txn rollback restores slots and tag" `Quick
      test_txn_rollback_restores_slots_and_tag;
    Alcotest.test_case "txn rollback survives a faulting undo" `Quick
      test_txn_rollback_exception;
    Alcotest.test_case "hash index" `Quick test_index;
    Alcotest.test_case "ordered index distinct-key count" `Quick
      test_ord_index_distinct_keys;
    Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot file save/load" `Quick test_snapshot_file;
    Alcotest.test_case "snapshot malformed input" `Quick test_snapshot_malformed;
    Alcotest.test_case "snapshot load names missing file" `Quick
      test_snapshot_load_missing_file;
    Alcotest.test_case "storage accounting" `Quick test_stats;
  ]
  @ List.map Qcheck_det.to_alcotest
      [ prop_value_roundtrip; prop_value_compare_total ]
