(* Tests for the storage substrate: OIDs, values, heap, index,
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

let test_index () =
  let idx = Index.create Index.Hash in
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
    (Oid.Set.cardinal (Index.lookup idx (Value.Int 99)));
  check Alcotest.int "lookup 30.0 finds 30" 1
    (Oid.Set.cardinal (Index.lookup idx (Value.Float 30.0)));
  check Alcotest.int "lookup 30.5 finds nothing" 0
    (Oid.Set.cardinal (Index.lookup idx (Value.Float 30.5)))

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

let test_snapshot_malformed () =
  Alcotest.check_raises "missing end" (Failure "Snapshot: missing end marker")
    (fun () -> ignore (Snapshot.of_string "TSE-HEAP 1\ngen 3\n"));
  (* parse errors carry the line number and the offending line *)
  Alcotest.check_raises "bad line is located"
    (Failure "Snapshot: line 3: unrecognized line in \"cell nonsense\"")
    (fun () ->
      ignore (Snapshot.of_string "TSE-HEAP 1\ngen 3\ncell nonsense\nend\n"))

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

(* The heap cell layout against a model: random sequences of the cell
   edits run on a heap and on a map per object. After each edit every
   cell's slots read as the model says, in strictly ascending name
   order, and at the end the image round-trips byte for byte. *)
module Smap = Map.Make (String)

type heap_op =
  | H_alloc of string
  | H_alloc_with of string * (string * Value.t) list
  | H_set of int * string * Value.t
  | H_remove of int * string
  | H_copy of int * int
  | H_swap of int * int

let slot_names = [ "a"; "b"; "c"; "dd"; "__impl:7"; "with space"; "" ]

let heap_op_gen =
  let open QCheck.Gen in
  let name = oneofl slot_names and tag = oneofl [ "@obj"; "@impl:3"; "T" ] in
  let ix = int_bound 7 in
  frequency
    [
      (2, map (fun t -> H_alloc t) tag);
      ( 1,
        map2
          (fun t b -> H_alloc_with (t, b))
          tag
          (list_size (int_bound 4) (pair name value_gen)) );
      (6, map3 (fun i n v -> H_set (i, n, v)) ix name value_gen);
      (3, map2 (fun i n -> H_remove (i, n)) ix name);
      (1, map2 (fun i j -> H_copy (i, j)) ix ix);
      (1, map2 (fun i j -> H_swap (i, j)) ix ix);
    ]

let print_heap_op = function
  | H_alloc t -> Printf.sprintf "alloc %S" t
  | H_alloc_with (t, b) ->
    Printf.sprintf "alloc_with %S [%s]" t
      (String.concat "; "
         (List.map (fun (n, v) -> Printf.sprintf "%S=%s" n (Value.to_string v)) b))
  | H_set (i, n, v) -> Printf.sprintf "set %d %S %s" i n (Value.to_string v)
  | H_remove (i, n) -> Printf.sprintf "remove %d %S" i n
  | H_copy (i, j) -> Printf.sprintf "copy %d -> %d" i j
  | H_swap (i, j) -> Printf.sprintf "swap %d %d" i j

let prop_heap_cells_match_model =
  QCheck.Test.make ~name:"heap cells == map model, sorted, image bytes stable"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map print_heap_op ops))
       QCheck.Gen.(list_size (int_range 1 40) heap_op_gen))
    (fun ops ->
      let heap = Heap.create () in
      (* the model: allocated oids in order, each with its tag and slots *)
      let objs = ref [||] in
      let model = Hashtbl.create 8 in
      let pick i =
        let n = Array.length !objs in
        if n = 0 then None else Some !objs.(i mod n)
      in
      let alloc tag oid bindings =
        objs := Array.append !objs [| oid |];
        Hashtbl.replace model oid
          (tag, List.fold_left (fun m (k, v) -> Smap.add k v m) Smap.empty bindings)
      in
      let apply = function
        | H_alloc tag -> alloc tag (Heap.alloc heap ~tag) []
        | H_alloc_with (tag, b) -> alloc tag (Heap.alloc_with heap ~tag b) b
        | H_set (i, n, v) ->
          Option.iter
            (fun o ->
              Heap.set_slot heap o n v;
              let tag, m = Hashtbl.find model o in
              Hashtbl.replace model o (tag, Smap.add n v m))
            (pick i)
        | H_remove (i, n) ->
          Option.iter
            (fun o ->
              Heap.remove_slot heap o n;
              let tag, m = Hashtbl.find model o in
              Hashtbl.replace model o (tag, Smap.remove n m))
            (pick i)
        | H_copy (i, j) -> (
          match (pick i, pick j) with
          | Some src, Some dst ->
            Heap.copy_slots heap ~src ~dst;
            let _, ms = Hashtbl.find model src in
            let tag, md = Hashtbl.find model dst in
            Hashtbl.replace model dst
              (tag, Smap.union (fun _ v _ -> Some v) ms md)
          | _ -> ())
        | H_swap (i, j) -> (
          match (pick i, pick j) with
          | Some a, Some b ->
            Heap.swap_identity heap a b;
            let ca = Hashtbl.find model a and cb = Hashtbl.find model b in
            Hashtbl.replace model a cb;
            Hashtbl.replace model b ca
          | _ -> ())
      in
      let agrees o =
        let tag, m = Hashtbl.find model o in
        let cell = Heap.find_exn heap o in
        let names = Array.map fst cell.slots in
        let sorted = ref true in
        for k = 1 to Array.length names - 1 do
          if String.compare names.(k - 1) names.(k) >= 0 then sorted := false
        done;
        !sorted
        && String.equal tag (Heap.tag_of heap o)
        && List.equal
             (fun (k, v) (k', v') -> String.equal k k' && Value.equal v v')
             (Heap.slots heap o) (Smap.bindings m)
        && List.for_all
             (fun n ->
               Value.equal (Heap.get_slot heap o n)
                 (Option.value (Smap.find_opt n m) ~default:Value.Null))
             slot_names
      in
      List.iter
        (fun op ->
          apply op;
          Array.iter
            (fun o ->
              if not (agrees o) then
                QCheck.Test.fail_reportf "after %s: cell %s disagrees"
                  (print_heap_op op) (Oid.to_string o))
            !objs)
        ops;
      let image = Snapshot.to_string heap in
      let heap' = Snapshot.of_string image in
      Snapshot.roundtrip_equal heap heap'
      && String.equal image (Snapshot.to_string heap'))

(* [distinct_keys] is a maintained count in either backing; numeric keys
   share one domain, so [Int 3] and [Float 3.0] are one key, and [Null] is
   a key too. A hash index rebuilt as ordered keeps its entries. *)
let test_index_distinct_keys () =
  let o = Oid.of_int in
  List.iter
    (fun kind ->
      let idx = Index.create kind in
      let counts what ~keys ~entries =
        let what =
          Printf.sprintf "%s (%s)" what
            (match kind with Index.Hash -> "hash" | Index.Ordered -> "ordered")
        in
        check Alcotest.int (what ^ ": distinct keys") keys
          (Index.distinct_keys idx);
        check Alcotest.int (what ^ ": entries") entries (Index.cardinal idx)
      in
      counts "empty" ~keys:0 ~entries:0;
      Index.add idx (Value.Int 3) (o 1);
      counts "add" ~keys:1 ~entries:1;
      Index.add idx (Value.Float 3.0) (o 2);
      counts "3.0 shares the key of 3" ~keys:1 ~entries:2;
      Index.add idx (Value.Int 3) (o 1);
      counts "duplicate add" ~keys:1 ~entries:2;
      Index.add idx Value.Null (o 3);
      Index.add idx Value.Null (o 4);
      counts "null keys" ~keys:2 ~entries:4;
      Index.add idx (Value.Int 5) (o 1);
      counts "second numeric key" ~keys:3 ~entries:5;
      Index.remove idx (Value.Int 5) (o 2);
      counts "remove an absent oid" ~keys:3 ~entries:5;
      Index.remove idx (Value.Int 7) (o 1);
      counts "remove under an absent key" ~keys:3 ~entries:5;
      Index.remove idx (Value.Float 3.0) (o 1);
      counts "remove one of two oids" ~keys:3 ~entries:4;
      Index.remove idx (Value.Int 3) (o 2);
      counts "remove the last oid of a key" ~keys:2 ~entries:3;
      Index.remove idx Value.Null (o 3);
      Index.remove idx Value.Null (o 4);
      counts "remove the last null" ~keys:1 ~entries:1)
    [ Index.Hash; Index.Ordered ];
  let idx = Index.create Index.Hash in
  List.iter
    (fun (v, oid) -> Index.add idx v oid)
    [
      (Value.Int 3, o 1);
      (Value.Float 3.0, o 2);
      (Value.Null, o 3);
      (Value.Null, o 3);
      (Value.String "a", o 4);
      (Value.Float 2.5, o 5);
    ];
  Index.make_ordered idx;
  Alcotest.(check bool) "rebuilt as ordered" true (Index.kind idx = Index.Ordered);
  check Alcotest.int "rebuilt: distinct keys" 4 (Index.distinct_keys idx);
  check Alcotest.int "rebuilt: entries" 5 (Index.cardinal idx);
  check Alcotest.int "rebuilt: 3 .. 3.0 by range" 2
    (Oid.Set.cardinal
       (Index.range idx ~lo:(Some (Value.Float 3.0, true))
          ~hi:(Some (Value.Int 3, true))));
  check Alcotest.int "rebuilt: below 3" 1
    (Oid.Set.cardinal (Index.range idx ~lo:None ~hi:(Some (Value.Int 3, false))))

(* --- byte-exact codecs: CRC-32, decimal fields, WAL records ------------- *)

(* The byte-at-a-time table loop the WAL shipped with, kept as the
   reference the sliced implementation must match. *)
let crc32_reference =
  let table =
    Array.init 256 (fun n ->
        let c = ref (Int32.of_int n) in
        for _ = 0 to 7 do
          if Int32.logand !c 1l <> 0l then
            c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else c := Int32.shift_right_logical !c 1
        done;
        !c)
  in
  fun crc s pos len ->
    let crc = ref (Int32.lognot crc) in
    for i = pos to pos + len - 1 do
      let idx =
        Int32.to_int
          (Int32.logand
             (Int32.logxor !crc (Int32.of_int (Char.code s.[i])))
             0xFFl)
      in
      crc := Int32.logxor table.(idx) (Int32.shift_right_logical !crc 8)
    done;
    Int32.lognot !crc

let test_crc32_check_value () =
  check Alcotest.int32 "CRC-32 check value" 0xCBF43926l
    (Crc32.string "123456789");
  check Alcotest.int32 "empty" 0l (Crc32.string "")

(* Lengths 0-17 cover every tail length on both sides of one and two
   8-byte blocks; the generator adds random lengths, a random split
   point and a random seed CRC. *)
let prop_crc32_matches_reference =
  let gen =
    QCheck.Gen.(
      let* len = oneof [ int_bound 17; int_bound 300 ] in
      let* s = string_size ~gen:char (return len) in
      let* k = int_bound len in
      let* seed = map Int32.of_int (int_bound 0x3FFFFFFF) in
      return (s, k, seed))
  in
  QCheck.Test.make ~name:"sliced CRC-32 == byte-at-a-time reference"
    ~count:1000
    (QCheck.make
       ~print:(fun (s, k, seed) -> Printf.sprintf "%S split %d seed %ld" s k seed)
       gen)
    (fun (s, k, seed) ->
      let n = String.length s in
      Int32.equal (Crc32.string s) (crc32_reference 0l s 0 n)
      && Int32.equal
           (Crc32.update (Crc32.update 0l s 0 k) s k (n - k))
           (Crc32.string s)
      && Int32.equal (Crc32.update seed s k (n - k))
           (crc32_reference seed s k (n - k)))

let test_crc32_short_lengths () =
  let s = String.init 40 (fun i -> Char.chr (((i * 37) + 11) land 0xFF)) in
  for pos = 0 to 5 do
    for len = 0 to 17 do
      check Alcotest.int32
        (Printf.sprintf "pos %d len %d" pos len)
        (crc32_reference 0l s pos len)
        (Crc32.update 0l s pos len)
    done
  done

let decimal i =
  let b = Buffer.create 24 in
  Codec.add_decimal b i;
  Buffer.contents b

let test_add_decimal_edges () =
  List.iter
    (fun i -> check Alcotest.string (string_of_int i) (string_of_int i) (decimal i))
    [ 0; 1; -1; 9; 10; -10; 99; 100; max_int; min_int; max_int - 1; min_int + 1 ]

let prop_add_decimal_matches_string_of_int =
  QCheck.Test.make ~name:"add_decimal == string_of_int" ~count:1000
    QCheck.(oneof [ int; small_signed_int ])
    (fun i -> String.equal (decimal i) (string_of_int i))

(* A record of every entry kind, with every value constructor, encoded
   by the build before the decimal and CRC rewrites. Equal bytes mean
   logs written by that build still replay. *)
let golden_record_entries =
  let o = Oid.of_int in
  Wal.
    [
      Op (Heap.Alloc (o 7, "Person"));
      Op (Heap.Set_tag (o 7, "Stu dent\n"));
      Op (Heap.Set_slot (o 7, "age", Value.Int (-42)));
      Op (Heap.Set_slot (o 7, "min", Value.Int min_int));
      Op (Heap.Set_slot (o 7, "max", Value.Int max_int));
      Op (Heap.Set_slot (o 7, "zero", Value.Int 0));
      Op (Heap.Set_slot (o 7, "gpa", Value.Float 3.75));
      Op (Heap.Set_slot (o 7, "neg", Value.Float (-0.1)));
      Op (Heap.Set_slot (o 7, "name", Value.String "a;b:c"));
      Op (Heap.Set_slot (o 7, "ok", Value.Bool true));
      Op (Heap.Set_slot (o 7, "no", Value.Bool false));
      Op (Heap.Set_slot (o 7, "nil", Value.Null));
      Op (Heap.Set_slot (o 7, "boss", Value.Ref (o 1234567)));
      Op
        (Heap.Set_slot
           ( o 7,
             "xs",
             Value.List [ Value.Int (-1); Value.List []; Value.String "" ] ));
      Op (Heap.Remove_slot (o 7, "nil"));
      Op (Heap.Swap (o 7, o 10));
      Op (Heap.Free (o 10));
      Gen 1000001;
      Ext ("schema", "blob\000with\255bytes");
    ]

let golden_record =
  "1\001\000\000\018\230\131\214123456789;19;A7;6:PersonT7;9:Stu \
   dent\nS7;3:ageI-42;S7;3:minI-4611686018427387904;S7;3:maxI4611686018427387903;S7;4:zeroI0;S7;3:gpaD0x1.ep+1;S7;3:negD-0x1.999999999999ap-4;S7;4:nameS5:a;b:cS7;2:okTS7;2:noFS7;3:nilNS7;4:bossR1234567;S7;2:xsL3:I-1;L0:S0:R7;3:nilW7;10;F10;G1000001;X6:schema15:blob\000with\255bytes"

let test_wal_record_golden () =
  check Alcotest.string "record bytes unchanged" golden_record
    (Wal.encode_record ~seq:123456789 golden_record_entries)

let suite =
  [
    Alcotest.test_case "oid generator" `Quick test_oid_gen;
    Alcotest.test_case "value conformance" `Quick test_value_conforms;
    Alcotest.test_case "value codec roundtrip" `Quick test_value_codec;
    Alcotest.test_case "value type codec roundtrip" `Quick test_value_ty_codec;
    Alcotest.test_case "heap basics" `Quick test_heap_basics;
    Alcotest.test_case "heap identity swap" `Quick test_heap_swap_identity;
    Alcotest.test_case "hash index" `Quick test_index;
    Alcotest.test_case "ordered index distinct-key count" `Quick
      test_index_distinct_keys;
    Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot malformed input" `Quick test_snapshot_malformed;
    Alcotest.test_case "storage accounting" `Quick test_stats;
  ]
  @ List.map Qcheck_det.to_alcotest
      [ prop_value_roundtrip; prop_value_compare_total; prop_heap_cells_match_model ]
  @ [
      Alcotest.test_case "crc32 check value" `Quick test_crc32_check_value;
      Alcotest.test_case "crc32 short lengths == reference" `Quick
        test_crc32_short_lengths;
      Qcheck_det.to_alcotest prop_crc32_matches_reference;
      Alcotest.test_case "add_decimal edge values" `Quick test_add_decimal_edges;
      Qcheck_det.to_alcotest prop_add_decimal_matches_string_of_int;
      Alcotest.test_case "wal record bytes == golden" `Quick
        test_wal_record_golden;
    ]
