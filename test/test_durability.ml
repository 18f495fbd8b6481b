(* Tests for the durability layer: WAL framing and scanning, recovery
   replay, durable open/commit/checkpoint, and the fault-injection crash
   matrix that kills writes at every declared failpoint and proves the
   store reopens consistent. *)

open Tse_store
module Prop = Tse_schema.Prop
module Schema_graph = Tse_schema.Schema_graph
module Schema_codec = Tse_schema.Schema_codec
module Database = Tse_db.Database
module Durable = Tse_db.Durable

let check = Alcotest.check

(* ---------------- helpers ---------------- *)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tse_durable_%d_%d" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir
    end;
    dir

(* A deterministic image of everything durability must preserve: the
   schema, the explicit base memberships, and the physical heap. *)
let fingerprint db =
  let bases =
    List.map
      (fun o ->
        Oid.to_string o ^ ":"
        ^ String.concat ","
            (List.map Oid.to_string
               (Oid.Set.elements (Database.base_membership db o))))
      (List.sort Oid.compare (Database.objects db))
  in
  Schema_codec.encode_graph (Database.graph db)
  ^ "\n--\n" ^ String.concat ";" bases ^ "\n--\n"
  ^ Snapshot.to_string (Database.heap db)

let stored = Prop.stored ~origin:(Oid.of_int 0)

let reg db name props supers =
  Schema_graph.register_base (Database.graph db) ~name ~props ~supers

(* Person <- Student plus one person, one student. *)
let build_small db =
  let person =
    reg db "Person" [ stored "name" Value.TString; stored "age" Value.TInt ] []
  in
  let student = reg db "Student" [ stored "gpa" Value.TFloat ] [ person ] in
  let o1 =
    Database.create_object db person
      ~init:[ ("name", Value.String "ann"); ("age", Value.Int 30) ]
  in
  let o2 =
    Database.create_object db student
      ~init:[ ("name", Value.String "bob"); ("gpa", Value.Float 3.5) ]
  in
  (person, student, o1, o2)

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> output_string oc data)

let assert_consistent what db =
  match Database.check db with
  | [] -> ()
  | problems -> Alcotest.failf "%s: inconsistent: %s" what (String.concat "; " problems)

(* ---------------- WAL framing ---------------- *)

let sample_records () =
  let o = Oid.of_int 1 in
  let r1 =
    Wal.encode_record ~seq:1
      [
        Wal.Op (Heap.Alloc (o, "T"));
        Wal.Op (Heap.Set_slot (o, "x", Value.Int 7));
        Wal.Op (Heap.Set_tag (o, "U"));
        Wal.Gen 5;
        Wal.Ext ("schema", "opaque blob \n with newline");
      ]
  in
  let r2 =
    Wal.encode_record ~seq:2
      [ Wal.Op (Heap.Remove_slot (o, "x")); Wal.Op (Heap.Free o) ]
  in
  (r1, r2)

let test_wal_scan_roundtrip () =
  let r1, r2 = sample_records () in
  let scan = Wal.scan_string (r1 ^ r2) in
  check Alcotest.int "two batches" 2 (List.length scan.Wal.batches);
  Alcotest.(check (option string)) "clean tail" None scan.Wal.reason;
  check Alcotest.int "all bytes valid"
    (String.length r1 + String.length r2)
    scan.Wal.valid_len;
  check (Alcotest.list Alcotest.int) "seqs" [ 1; 2 ]
    (List.map (fun b -> b.Wal.seq) scan.Wal.batches);
  (* re-encoding every decoded batch reproduces the exact bytes *)
  let reencoded =
    String.concat ""
      (List.map
         (fun b -> Wal.encode_record ~seq:b.Wal.seq b.Wal.entries)
         scan.Wal.batches)
  in
  check Alcotest.string "decode/encode identity" (r1 ^ r2) reencoded

let test_wal_torn_tail () =
  let r1, r2 = sample_records () in
  let torn = r1 ^ String.sub r2 0 (String.length r2 - 3) in
  let scan = Wal.scan_string torn in
  check Alcotest.int "only the whole record survives" 1
    (List.length scan.Wal.batches);
  check Alcotest.int "valid prefix ends at record boundary"
    (String.length r1) scan.Wal.valid_len;
  Alcotest.(check bool) "has a reason" true (scan.Wal.reason <> None);
  (* a tail torn inside the header is reported too *)
  let torn_header = r1 ^ String.sub r2 0 3 in
  let scan = Wal.scan_string torn_header in
  check Alcotest.int "torn header: record dropped" 1
    (List.length scan.Wal.batches);
  check Alcotest.int "torn header: valid prefix" (String.length r1)
    scan.Wal.valid_len

let test_wal_checksum_corruption () =
  let r1, r2 = sample_records () in
  let s = Bytes.of_string (r1 ^ r2) in
  (* flip a byte inside the second record's payload *)
  let pos = String.length r1 + 8 + 1 in
  Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor 0xff));
  let scan = Wal.scan_string (Bytes.to_string s) in
  check Alcotest.int "corrupt record dropped" 1 (List.length scan.Wal.batches);
  Alcotest.(check (option string)) "checksum mismatch detected"
    (Some "checksum mismatch") scan.Wal.reason;
  check Alcotest.int "valid prefix" (String.length r1) scan.Wal.valid_len

let test_wal_truncate_file () =
  let r1, r2 = sample_records () in
  let path = Filename.temp_file "tse_wal" ".log" in
  let oc = open_out_bin path in
  output_string oc (r1 ^ String.sub r2 0 (String.length r2 - 1));
  close_out oc;
  let scan = Wal.scan_file ~path in
  Alcotest.(check bool) "dirty" true (scan.Wal.reason <> None);
  Wal.truncate_file ~path scan.Wal.valid_len;
  let scan = Wal.scan_file ~path in
  Alcotest.(check (option string)) "clean after truncation" None scan.Wal.reason;
  check Alcotest.int "file cut back" (String.length r1) scan.Wal.file_len;
  Sys.remove path

(* ---------------- durable open/commit/reopen ---------------- *)

let test_durable_roundtrip () =
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ~dir () in
  let db = Durable.db d in
  let _, student, o1, _ = build_small db in
  Database.set_attr db o1 "age" (Value.Int 31);
  Durable.commit d;
  let fp = fingerprint db in
  Durable.close d;
  let d2, report = Durable.open_dir ~dir () in
  let db2 = Durable.db d2 in
  check Alcotest.int "one batch replayed" 1 report.Recovery.batches_applied;
  Alcotest.(check bool) "entries replayed" true
    (report.Recovery.entries_applied > 0);
  check Alcotest.string "state identical" fp (fingerprint db2);
  assert_consistent "reopened" db2;
  check Alcotest.int "student extent survived" 1
    (Database.extent_size db2 student);
  Durable.close d2

let test_durable_uncommitted_lost () =
  let dir = fresh_dir () in
  (* pinned: the assertion is precisely that an Every_commit commit is
     durable the moment it returns; under a grouped policy the same crash
     may also lose the commit itself (covered by the group tests below) *)
  let d, _ = Durable.open_dir ~policy:Durable.Every_commit ~dir () in
  let db = Durable.db d in
  let person, _, o1, _ = build_small db in
  Durable.commit d;
  let committed = fingerprint db in
  (* changes after the last commit must not survive a crash *)
  Database.set_attr db o1 "age" (Value.Int 99);
  ignore (Database.create_object db person ~init:[ ("age", Value.Int 1) ]);
  (* simulate the crash: abandon the handle without closing *)
  let d2, _ = Durable.open_dir ~dir () in
  check Alcotest.string "only the committed state survives" committed
    (fingerprint (Durable.db d2));
  assert_consistent "reopened" (Durable.db d2);
  Durable.close d2

let test_durable_incremental_commits () =
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ~dir () in
  let db = Durable.db d in
  let person, student, o1, o2 = build_small db in
  Durable.commit d;
  (* second commit: schema growth + membership changes + a destroy *)
  let staff = reg db "Staff" [ stored "salary" Value.TInt ] [ person ] in
  Database.add_base_membership db o1 staff;
  Database.set_attr db o1 "salary" (Value.Int 100);
  Database.destroy_object db o2;
  Durable.commit d;
  let fp = fingerprint db in
  Durable.close d;
  let d2, report = Durable.open_dir ~dir () in
  let db2 = Durable.db d2 in
  check Alcotest.int "two batches" 2 report.Recovery.batches_applied;
  check Alcotest.string "state identical" fp (fingerprint db2);
  assert_consistent "reopened" db2;
  Alcotest.(check bool) "destroyed object stays gone" false
    (Database.mem_object db2 o2);
  Alcotest.(check bool) "added membership survives" true
    (Oid.Set.mem staff (Database.base_membership db2 o1));
  check Alcotest.int "staff extent" 1 (Database.extent_size db2 staff);
  Alcotest.(check bool) "schema class survives" true
    (Schema_graph.find_by_name (Database.graph db2) "Staff" <> None);
  (* fresh OIDs must not collide with replayed ones *)
  let o3 = Database.create_object db2 person ~init:[] in
  Alcotest.(check bool) "no oid collision" true
    (List.for_all (fun o -> not (Oid.equal o o3)) [ o1; o2 ]);
  check Alcotest.int "student extent after destroy" 0
    (Database.extent_size db2 student);
  Durable.close d2

let test_durable_checkpoint () =
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ~dir () in
  let db = Durable.db d in
  let person, _, o1, _ = build_small db in
  Durable.commit d;
  Durable.checkpoint d;
  check Alcotest.int "log folded away" 0
    (Unix.stat (Filename.concat dir "wal")).Unix.st_size;
  (* keep writing after the checkpoint *)
  Database.set_attr db o1 "age" (Value.Int 44);
  ignore (Database.create_object db person ~init:[ ("age", Value.Int 9) ]);
  Durable.commit d;
  let fp = fingerprint db in
  Durable.close d;
  let d2, report = Durable.open_dir ~dir () in
  check Alcotest.int "only the post-checkpoint batch replays" 1
    report.Recovery.batches_applied;
  check Alcotest.string "snapshot + tail = full state" fp
    (fingerprint (Durable.db d2));
  assert_consistent "reopened" (Durable.db d2);
  Durable.close d2

(* A checkpoint of a two-class database with one view, pinned byte for
   byte: equal bytes mean the image a catalog shares with the checkpoint
   has not moved. Each object's minimal base set is the [__bases] slot
   of its conceptual cell. *)
let golden_checkpoint =
  "TSE-DB 2\n\
   seq 1\n\
   SCHEMA 97\n\
   1;3;1;6:ObjectB0;0;2;6:PersonB1;1;2;1;4:name2;0ssN02;3:age2;0siN03;7:StudentB1;2;1;3;3:gpa3;0sfN0\n\
   EXT views 30\n\
   1;1:V0;2;2;6:Person3;7:Student\n\
   HEAP\n\
   TSE-HEAP 1\n\
   gen 9\n\
   obj 4 @obj 2\n\
   slot __bases L1:R2;\n\
   slot __impl:2 R5;\n\
   obj 5 @impl:2 3\n\
   slot __conceptual R4;\n\
   slot age I31;\n\
   slot name S3:ann\n\
   obj 6 @obj 3\n\
   slot __bases L1:R3;\n\
   slot __impl:2 R8;\n\
   slot __impl:3 R7;\n\
   obj 7 @impl:3 2\n\
   slot __conceptual R6;\n\
   slot gpa D0x1.cp+1;\n\
   obj 8 @impl:2 2\n\
   slot __conceptual R6;\n\
   slot name S3:bob\n\
   end\n"

(* The same database as format 1 wrote it: the base sets in a BASES
   section beside the heap. *)
let golden_checkpoint_v1 =
  "TSE-DB 1\n\
   seq 1\n\
   SCHEMA 97\n\
   1;3;1;6:ObjectB0;0;2;6:PersonB1;1;2;1;4:name2;0ssN02;3:age2;0siN03;7:StudentB1;2;1;3;3:gpa3;0sfN0\n\
   BASES 14\n\
   2;4;1;2;6;1;3;\n\
   EXT views 30\n\
   1;1:V0;2;2;6:Person3;7:Student\n\
   HEAP\n\
   TSE-HEAP 1\n\
   gen 9\n\
   obj 4 @obj 1\n\
   slot __impl:2 R5;\n\
   obj 5 @impl:2 3\n\
   slot __conceptual R4;\n\
   slot age I31;\n\
   slot name S3:ann\n\
   obj 6 @obj 2\n\
   slot __impl:2 R8;\n\
   slot __impl:3 R7;\n\
   obj 7 @impl:3 2\n\
   slot __conceptual R6;\n\
   slot gpa D0x1.cp+1;\n\
   obj 8 @impl:2 2\n\
   slot __conceptual R6;\n\
   slot name S3:bob\n\
   end\n"

let test_checkpoint_golden () =
  let dir = fresh_dir () in
  let t, _ = Tse_core.Durable_tse.open_dir ~dir () in
  let db = Tse_core.Durable_tse.db t in
  (* fixed property uids: fresh ones come from a process-wide counter *)
  let prop uid name ty = { (stored name ty) with Prop.uid } in
  let person =
    reg db "Person" [ prop 1 "name" Value.TString; prop 2 "age" Value.TInt ] []
  in
  let student = reg db "Student" [ prop 3 "gpa" Value.TFloat ] [ person ] in
  ignore
    (Database.create_object db person
       ~init:[ ("name", Value.String "ann"); ("age", Value.Int 31) ]);
  ignore
    (Database.create_object db student
       ~init:[ ("name", Value.String "bob"); ("gpa", Value.Float 3.5) ]);
  ignore
    (Tse_core.Durable_tse.define_view_by_names t ~name:"V"
       [ "Person"; "Student" ]);
  Tse_core.Durable_tse.checkpoint t;
  Tse_core.Durable_tse.close t;
  check Alcotest.string "checkpoint bytes unchanged" golden_checkpoint
    (Storage.read_file (Filename.concat dir "snapshot"))

(* A format-1 image opens to the state its format-2 rewrite holds. *)
let test_v1_image_opens () =
  let open_image text =
    let _seq, db, exts = Durable.image_of_string text in
    (db, exts)
  in
  let db1, exts1 = open_image golden_checkpoint_v1 in
  let db2, exts2 = open_image golden_checkpoint in
  check Alcotest.string "same fingerprint"
    (Tse_core.Verify.db_fingerprint db2)
    (Tse_core.Verify.db_fingerprint db1);
  check Alcotest.string "same heap, base sets included"
    (Snapshot.to_string (Database.heap db2))
    (Snapshot.to_string (Database.heap db1));
  let bases db =
    List.map
      (fun o ->
        ( Oid.to_int o,
          List.map Oid.to_int
            (Oid.Set.elements (Database.base_membership db o)) ))
      (List.sort Oid.compare (Database.objects db))
  in
  let bases_t = Alcotest.(list (pair int (list int))) in
  check bases_t "v1 base memberships" [ (4, [ 2 ]); (6, [ 3 ]) ] (bases db1);
  check bases_t "same base memberships" (bases db2) (bases db1);
  check Alcotest.(list (pair string string)) "same extension blobs" exts2 exts1;
  assert_consistent "v1 image" db1

(* A decoded heap shares its slot names and tags the way the live one
   does, and one value per repeated scalar, so a reopened database costs
   no more than the one it images did: at most 1% more on a 2 000-person
   University (a private copy of every name in every cell cost 21%
   more). *)
let test_decoded_heap_shares_names () =
  let u = Tse_workload.University.build () in
  ignore (Tse_workload.University.populate u ~n:2_000);
  let words db =
    Obj.reachable_words (Obj.repr (Database.heap db, Database.model db))
  in
  let live = words u.db in
  let text =
    Durable.image_to_string ~seq:0 ~schema:(Schema_codec.encode_graph (Database.graph u.db)) ~exts:[] u.db
  in
  let _seq, reopened, _exts = Durable.image_of_string text in
  let decoded = words reopened in
  Alcotest.(check bool)
    (Printf.sprintf "decoded %d words <= live %d + 1%%" decoded live)
    true
    (float_of_int decoded <= 1.01 *. float_of_int live);
  (* the log's slot writes share their names as well *)
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ~dir () in
  let db = Durable.db d in
  let c = reg db "C" [ stored "name" Value.TString ] [] in
  List.iter
    (fun n ->
      ignore (Database.create_object db c ~init:[ ("name", Value.String n) ]))
    [ "a"; "b" ];
  Durable.close d;
  let d, _ = Durable.open_dir ~dir () in
  let db = Durable.db d in
  let name_slot o =
    let impl = Option.get (Tse_objmodel.Slicing.impl_of (Database.model db) o c) in
    fst (List.find (fun (k, _) -> k = "name") (Heap.slots (Database.heap db) impl))
  in
  (match Database.objects db with
  | [ a; b ] ->
    Alcotest.(check bool) "replayed cells share the slot name" true
      (name_slot a == name_slot b)
  | objs -> Alcotest.failf "replayed %d objects, expected 2" (List.length objs));
  Durable.close d

(* Format 1 logged a commit's base-membership changes as one ["bases"]
   entry after the OID watermark — every object whose set the commit
   wrote, an empty list for one it destroyed — instead of as heap slots.
   A log rewritten into that shape replays to the same state. *)
let test_v1_bases_log_replays () =
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ~policy:Durable.Every_commit ~dir () in
  let db = Durable.db d in
  let person, student, o1, o2 = build_small db in
  Durable.commit d;
  let staff = reg db "Staff" [ stored "salary" Value.TInt ] [ person ] in
  Database.add_base_membership db o1 staff;
  Database.add_base_membership db o2 staff;
  Database.remove_base_membership db o2 student;
  Durable.commit d;
  let o3 = Database.create_object db student ~init:[] in
  Database.destroy_object db o1;
  Durable.commit d;
  let expected = fingerprint db in
  Durable.close d;
  let scan = Wal.scan_file ~path:(Filename.concat dir "wal") in
  let logs_bases (b : Wal.batch) =
    List.exists
      (function Wal.Ext ("bases", _) -> true | _ -> false)
      b.entries
  in
  Alcotest.(check bool) "no commit logs a bases entry" false
    (List.exists logs_bases scan.batches);
  let written = ref Oid.Set.empty in
  let to_v1 (b : Wal.batch) =
    let bases = ref Oid.Map.empty in
    let ops =
      List.filter
        (function
          | Wal.Op (Heap.Set_slot (o, "__bases", Value.List cids)) ->
            let cid = function Value.Ref c -> c | _ -> assert false in
            bases := Oid.Map.add o (List.map cid cids) !bases;
            written := Oid.Set.add o !written;
            false
          | Wal.Op (Heap.Free o) ->
            if Oid.Set.mem o !written then bases := Oid.Map.add o [] !bases;
            true
          | _ -> true)
        b.entries
    in
    let blob =
      let buf = Buffer.create 64 in
      Codec.add_list buf
        (fun buf (o, cids) ->
          Schema_codec.add_cid buf o;
          Codec.add_list buf Schema_codec.add_cid cids)
        (Oid.Map.bindings !bases);
      Buffer.contents buf
    in
    Wal.encode_record ~seq:b.seq
      (List.concat_map
         (function
           | Wal.Gen _ as gen when not (Oid.Map.is_empty !bases) ->
             [ gen; Wal.Ext ("bases", blob) ]
           | e -> [ e ])
         ops)
  in
  let old = List.map to_v1 scan.batches in
  Alcotest.(check bool) "every batch carried a base set" true
    (List.for_all logs_bases (Wal.scan_string (String.concat "" old)).batches);
  let odir = fresh_dir () in
  Unix.mkdir odir 0o755;
  write_file (Filename.concat odir "wal") (String.concat "" old);
  let d2, report = Durable.open_dir ~policy:Durable.Every_commit ~dir:odir () in
  let db2 = Durable.db d2 in
  check Alcotest.int "three batches" 3 report.Recovery.batches_applied;
  check Alcotest.string "the v1 log reopens to the same state" expected
    (fingerprint db2);
  check Alcotest.(list int) "o2's minimal bases" [ Oid.to_int staff ]
    (List.map Oid.to_int (Oid.Set.elements (Database.base_membership db2 o2)));
  Alcotest.(check bool) "o3 lives" true (Database.mem_object db2 o3);
  assert_consistent "v1 log" db2;
  Durable.close d2

let test_durable_empty_commit_writes_nothing () =
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ~dir () in
  ignore (build_small (Durable.db d));
  Durable.commit d;
  let size () = (Unix.stat (Filename.concat dir "wal")).Unix.st_size in
  let before = size () in
  Durable.commit d;
  Durable.commit d;
  check Alcotest.int "no-change commits append nothing" before (size ());
  Durable.close d

(* ---------------- crash matrix ---------------- *)

(* Which state must survive a crash at the failpoint: the commit the
   fault interrupts (Pre = it is lost, Post = it is durable). Faults in
   the checkpoint path are always Post: the data was committed to the log
   before the snapshot write begins. *)
type expect = Pre | Post

(* Every commit reaches the log through append_nosync + sync, so one
   list covers the commit path under every policy: a crash before the
   batch is framed, a torn flush, and a crash between the flush's write
   and its fsync. It runs under Every_commit and under Group 1, where a
   single Durable.commit fills the group and syncs it. *)
let commit_cases =
  [
    ("wal.group.append", Failpoint.Crash_now, Pre);
    ("wal.group.append", Failpoint.Short_write 5, Pre);
    ("wal.group.fsync", Failpoint.Crash_now, Post);
  ]

let checkpoint_cases =
  [
    ("checkpoint.write.before", Failpoint.Crash_now);
    ("checkpoint.write.short", Failpoint.Short_write 7);
    ("checkpoint.fsync", Failpoint.Crash_now);
    ("checkpoint.rename.before", Failpoint.Crash_now);
    ("checkpoint.rename.after", Failpoint.Crash_now);
    ("wal.truncate.before", Failpoint.Crash_now);
  ]

let run_crash_case ?policy ~name ~action ~expect ~op () =
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ?policy ~dir () in
  let db = Durable.db d in
  let _, _, o1, _ = build_small db in
  Durable.commit d;
  Durable.sync d;
  let pre = fingerprint db in
  Database.set_attr db o1 "age" (Value.Int 99);
  let post = fingerprint db in
  let hits0 = Failpoint.hit_count name in
  let trips0 = Failpoint.trip_count name in
  Failpoint.arm name action;
  (try
     op d;
     Alcotest.failf "%s: expected a crash" name
   with Failpoint.Crash _ -> ());
  (* the per-site counters prove the armed failpoint actually fired,
     not that the operation failed for some unrelated reason *)
  check Alcotest.int
    (Printf.sprintf "%s: failpoint tripped exactly once" name)
    (trips0 + 1) (Failpoint.trip_count name);
  check Alcotest.bool
    (Printf.sprintf "%s: site was reached" name)
    true
    (Failpoint.hit_count name > hits0);
  Failpoint.reset ();
  (* the process "died": reopen from disk *)
  let d2, report = Durable.open_dir ?policy ~dir () in
  let db2 = Durable.db d2 in
  check Alcotest.string
    (Printf.sprintf "%s: recovered state" name)
    (match expect with Pre -> pre | Post -> post)
    (fingerprint db2);
  assert_consistent name db2;
  (* and the reopened store must still accept and persist new work *)
  Database.set_attr db2 o1 "name" (Value.String "carol");
  Durable.commit d2;
  let final = fingerprint db2 in
  Durable.close d2;
  let d3, _ = Durable.open_dir ?policy ~dir () in
  check Alcotest.string
    (Printf.sprintf "%s: writable after recovery" name)
    final
    (fingerprint (Durable.db d3));
  Durable.close d3;
  report

let run_commit_cases ~policy cases =
  List.iter
    (fun (name, action, expect) ->
      let report =
        run_crash_case ~policy ~name ~action ~expect ~op:Durable.commit ()
      in
      if expect = Pre && action <> Failpoint.Crash_now then
        Alcotest.(check bool)
          (Printf.sprintf "%s: torn bytes dropped" name)
          true
          (report.Recovery.dropped_bytes > 0))
    cases

let test_crash_matrix_commit () =
  run_commit_cases ~policy:Durable.Every_commit commit_cases

let test_crash_matrix_group_commit () =
  run_commit_cases ~policy:(Durable.Group 1) commit_cases

(* A failed fsync reaches the caller under every policy: the commit that
   runs the barrier raises. Nothing is retried; the contract is to
   abandon the handle and reopen. The flush's write did land, so the
   reopened store is at the post state, and it takes further commits. *)
let test_failed_fsync_propagates () =
  List.iter
    (fun policy ->
      let label = Durable.policy_to_string policy in
      let group = match policy with Durable.Group n -> n | _ -> 1 in
      let dir = fresh_dir () in
      let d, _ = Durable.open_dir ~policy ~dir () in
      let db = Durable.db d in
      let _, _, o1, _ = build_small db in
      Durable.commit d;
      Durable.sync d;
      (* frame all but the last batch of the group; the last commit
         fills it and runs the failing barrier *)
      for i = 1 to group - 1 do
        Database.set_attr db o1 "age" (Value.Int (50 + i));
        Durable.commit d
      done;
      check Alcotest.int (label ^ ": group not yet full") (group - 1)
        (Durable.unsynced_commits d);
      Database.set_attr db o1 "age" (Value.Int 99);
      let post = fingerprint db in
      let trips0 = Failpoint.trip_count "wal.group.fsync" in
      Failpoint.arm "wal.group.fsync" Failpoint.Error_now;
      (match Durable.commit d with
      | () -> Alcotest.failf "%s: expected the fsync error" label
      | exception Failpoint.Io_error _ -> ());
      check Alcotest.int (label ^ ": the fsync failed once") (trips0 + 1)
        (Failpoint.trip_count "wal.group.fsync");
      Failpoint.reset ();
      Durable.abandon d;
      let d2, _ = Durable.open_dir ~policy ~dir () in
      let db2 = Durable.db d2 in
      check Alcotest.string (label ^ ": reopened at the post state") post
        (fingerprint db2);
      assert_consistent label db2;
      Database.set_attr db2 o1 "name" (Value.String "dora");
      Durable.commit d2;
      Durable.sync d2;
      let final = fingerprint db2 in
      Durable.close d2;
      let d3, _ = Durable.open_dir ~policy ~dir () in
      check Alcotest.string (label ^ ": a further commit persists") final
        (fingerprint (Durable.db d3));
      Durable.close d3)
    [ Durable.Every_commit; Durable.Group 2 ]

let test_crash_matrix_checkpoint () =
  List.iter
    (fun (name, action) ->
      let report =
        run_crash_case ~name ~action ~expect:Post
          ~op:(fun d ->
            Durable.commit d;
            Durable.checkpoint d)
          ()
      in
      (* a crash after the snapshot rename but before the log reset must
         make replay skip the already-folded batches *)
      if String.equal name "checkpoint.rename.after" then
        Alcotest.(check bool) "replay skips checkpointed batches" true
          (report.Recovery.batches_skipped > 0))
    checkpoint_cases

(* Crashes inside [Storage.write_atomic] users outside the durable path:
   the target file must hold either the old or the new image, never a
   mix, with the rename the commit point. *)
let atomic_write_cases prefix =
  [
    (prefix ^ ".write.before", Failpoint.Crash_now, false);
    (prefix ^ ".write.short", Failpoint.Short_write 4, false);
    (prefix ^ ".fsync", Failpoint.Crash_now, false);
    (prefix ^ ".rename.before", Failpoint.Crash_now, false);
    (prefix ^ ".rename.after", Failpoint.Crash_now, true);
  ]

let test_atomic_write_crashes () =
  List.iter
    (fun prefix ->
      let path = Filename.temp_file "tse_atomic" ".dat" in
      List.iter
        (fun (name, action, expect_new) ->
          Storage.write_atomic ~fp:prefix ~path "old image";
          Failpoint.arm name action;
          (try
             Storage.write_atomic ~fp:prefix ~path "new image";
             Alcotest.failf "%s: expected a crash" name
           with Failpoint.Crash _ -> ());
          Failpoint.reset ();
          check Alcotest.string name
            (if expect_new then "new image" else "old image")
            (Storage.read_file path))
        (atomic_write_cases prefix);
      Sys.remove path)
    [ "catalog" ]

(* The matrix above and the atomic-write sweep must together exercise
   every failpoint the code declares — a new failpoint without crash
   coverage fails here. *)
let test_matrix_covers_every_failpoint () =
  let covered =
    List.map (fun (n, _, _) -> n) commit_cases
    @ List.map (fun (n, _) -> n) checkpoint_cases
    @ List.concat_map
        (fun p -> List.map (fun (n, _, _) -> n) (atomic_write_cases p))
        [ "catalog" ]
    @ List.map (fun (n, _, _) -> n) (atomic_write_cases "checkpoint")
    @ [
        (* the evolution crash matrix in test_evolution_recovery *)
        "evolve.change"; "evolve.derive"; "evolve.classify";
        "evolve.integrate"; "evolve.reclassify";
      ]
  in
  check
    Alcotest.(list string)
    "every declared failpoint has crash coverage" (Failpoint.all ())
    (List.sort_uniq compare covered)

(* ---------------- group commit ---------------- *)

let wal_size dir = (Unix.stat (Filename.concat dir "wal")).Unix.st_size

let test_group_commit_coalesces () =
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ~policy:(Durable.Group 3) ~dir () in
  let db = Durable.db d in
  let _, _, o1, _ = build_small db in
  (* first two commits are framed, not written: nothing on disk yet *)
  Durable.commit d;
  check Alcotest.int "one unsynced commit" 1 (Durable.unsynced_commits d);
  Database.set_attr db o1 "age" (Value.Int 31);
  Durable.commit d;
  check Alcotest.int "two unsynced commits" 2 (Durable.unsynced_commits d);
  check Alcotest.int "nothing flushed yet" 0 (wal_size dir);
  check Alcotest.int "no fsync yet" 0 (Durable.wal_stats d).Wal.fsyncs;
  (* the third commit completes the group: one write, one fsync *)
  Database.set_attr db o1 "age" (Value.Int 32);
  Durable.commit d;
  check Alcotest.int "group flushed" 0 (Durable.unsynced_commits d);
  Alcotest.(check bool) "group on disk" true (wal_size dir > 0);
  let stats = Durable.wal_stats d in
  check Alcotest.int "one fsync for three commits" 1 stats.Wal.fsyncs;
  check Alcotest.int "three batches framed" 3 stats.Wal.batches_framed;
  check Alcotest.int "batches per sync" 3 stats.Wal.max_batches_per_sync;
  let fp = fingerprint db in
  Durable.close d;
  let d2, report = Durable.open_dir ~dir () in
  check Alcotest.int "all three batches replay" 3
    report.Recovery.batches_applied;
  check Alcotest.string "state identical" fp (fingerprint (Durable.db d2));
  assert_consistent "group reopen" (Durable.db d2);
  Durable.close d2

let test_manual_sync_barrier () =
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ~policy:Durable.Manual ~dir () in
  let db = Durable.db d in
  let _, _, o1, _ = build_small db in
  Durable.commit d;
  Database.set_attr db o1 "age" (Value.Int 41);
  Durable.commit d;
  check Alcotest.int "manual never auto-syncs" 2 (Durable.unsynced_commits d);
  check Alcotest.int "nothing on disk" 0 (wal_size dir);
  Durable.sync d;
  check Alcotest.int "barrier drains" 0 (Durable.unsynced_commits d);
  let synced = fingerprint db in
  (* a commit after the barrier is lost by a crash; the barrier is not *)
  Database.set_attr db o1 "age" (Value.Int 42);
  Durable.commit d;
  let d2, _ = Durable.open_dir ~policy:Durable.Manual ~dir () in
  check Alcotest.string "exactly the synced prefix survives" synced
    (fingerprint (Durable.db d2));
  assert_consistent "manual reopen" (Durable.db d2);
  Durable.close d2

let test_close_and_checkpoint_are_barriers () =
  List.iter
    (fun finishing ->
      let dir = fresh_dir () in
      let d, _ = Durable.open_dir ~policy:Durable.Manual ~dir () in
      let db = Durable.db d in
      let _, _, o1, _ = build_small db in
      Durable.commit d;
      Database.set_attr db o1 "age" (Value.Int 77);
      Durable.commit d;
      let fp = fingerprint db in
      finishing d;
      let d2, _ = Durable.open_dir ~dir () in
      check Alcotest.string "unsynced commits flushed by the barrier" fp
        (fingerprint (Durable.db d2));
      assert_consistent "barrier reopen" (Durable.db d2);
      Durable.close d2)
    [ Durable.close; (fun d -> Durable.checkpoint d; Durable.close d) ]

let test_set_policy_is_barrier () =
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ~policy:Durable.Manual ~dir () in
  let db = Durable.db d in
  ignore (build_small db);
  Durable.commit d;
  check Alcotest.int "buffered" 1 (Durable.unsynced_commits d);
  Durable.set_policy d Durable.Every_commit;
  check Alcotest.int "switch flushed" 0 (Durable.unsynced_commits d);
  Alcotest.(check bool) "on disk" true (wal_size dir > 0);
  Durable.close d

let test_policy_parsing () =
  Alcotest.(check bool) "every" true
    (Durable.policy_of_string "every_commit" = Durable.Every_commit);
  Alcotest.(check bool) "every short" true
    (Durable.policy_of_string "every" = Durable.Every_commit);
  Alcotest.(check bool) "group" true
    (Durable.policy_of_string "group:8" = Durable.Group 8);
  Alcotest.(check bool) "manual" true
    (Durable.policy_of_string "Manual" = Durable.Manual);
  check Alcotest.string "roundtrip" "group:8"
    (Durable.policy_to_string (Durable.policy_of_string "group:8"));
  List.iter
    (fun bad ->
      match Durable.policy_of_string bad with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "policy %S should be rejected" bad)
    [ "group:0"; "group:-1"; "group:x"; "sometimes"; "group" ]

(* A group torn mid-flush must degrade to its longest whole-record
   prefix: commits 1..k of the group survive, k+1.. are truncated away.
   Record offsets are discovered from an identical clean run (the log
   bytes are deterministic for a fixed op sequence on a fresh store). *)
let test_partial_group_flush () =
  let run_ops ~dir ~crash_at =
    let d, _ = Durable.open_dir ~policy:Durable.Manual ~dir () in
    let db = Durable.db d in
    let _, _, o1, _ = build_small db in
    Durable.commit d;
    Durable.sync d;
    let states = ref [ fingerprint db ] in
    List.iter
      (fun age ->
        Database.set_attr db o1 "age" (Value.Int age);
        Durable.commit d;
        states := fingerprint db :: !states)
      [ 41; 42; 43 ];
    (match crash_at with
    | None -> Durable.sync d; Durable.close d
    | Some cut ->
      Failpoint.arm "wal.group.append" (Failpoint.Short_write cut);
      (try
         Durable.sync d;
         Alcotest.fail "expected a crash inside the group flush"
       with Failpoint.Crash _ -> ());
      Failpoint.reset ());
    List.rev !states
  in
  (* clean twin run: find where the group's records start *)
  let clean_dir = fresh_dir () in
  let states = run_ops ~dir:clean_dir ~crash_at:None in
  let scan = Wal.scan_file ~path:(Filename.concat clean_dir "wal") in
  let offsets =
    List.filter_map
      (fun (b : Wal.batch) -> if b.seq >= 2 then Some b.start_off else None)
      scan.Wal.batches
  in
  ignore states;
  let group_base = List.nth offsets 0 in
  (* cut inside the group's THIRD record: two whole batches survive.
     (Relative offsets within the group are deterministic across runs;
     absolute fingerprints are not — a process-global property counter
     leaks into the schema encoding — so the recovered state is compared
     against the crash run's own captured states.) *)
  let cut = List.nth offsets 2 - group_base + 5 in
  let dir = fresh_dir () in
  let states' = run_ops ~dir ~crash_at:(Some cut) in
  let d, report = Durable.open_dir ~dir () in
  check Alcotest.int "two of three grouped batches survive" 3
    report.Recovery.batches_applied;
  Alcotest.(check bool) "torn record truncated" true
    (report.Recovery.dropped_bytes > 0);
  check Alcotest.string "recovered = longest whole-record prefix"
    (List.nth states' 2)
    (fingerprint (Durable.db d));
  assert_consistent "partial group" (Durable.db d);
  Durable.close d

(* ---------------- random corruption property ---------------- *)

(* Any single corrupted byte in the log must leave the store openable,
   consistent, and exactly at one of the states the commit sequence went
   through (a prefix of history — never a crash, never an invented
   state). *)
let prop_wal_corruption =
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ~dir () in
  let db = Durable.db d in
  let states = ref [ fingerprint db ] in
  let snap () = states := fingerprint db :: !states in
  let person, _, o1, o2 = build_small db in
  Durable.commit d;
  snap ();
  Database.set_attr db o1 "age" (Value.Int 41);
  let staff = reg db "Staff" [ stored "salary" Value.TInt ] [ person ] in
  Database.add_base_membership db o1 staff;
  Durable.commit d;
  snap ();
  Database.destroy_object db o2;
  Database.set_attr db o1 "salary" (Value.Int 7);
  Durable.commit d;
  snap ();
  Durable.close d;
  let wal = Storage.read_file (Filename.concat dir "wal") in
  let states = !states in
  QCheck.Test.make ~name:"single-byte WAL corruption never breaks recovery"
    ~count:150
    QCheck.(pair (int_bound (String.length wal - 1)) (int_bound 255))
    (fun (off, byte) ->
      let corrupted = Bytes.of_string wal in
      Bytes.set corrupted off (Char.chr byte);
      let cdir = fresh_dir () in
      Unix.mkdir cdir 0o755;
      let oc = open_out_bin (Filename.concat cdir "wal") in
      output_bytes oc corrupted;
      close_out oc;
      let d, _ = Durable.open_dir ~dir:cdir () in
      let db = Durable.db d in
      let fp = fingerprint db in
      let ok = Database.check db = [] && List.mem fp states in
      Durable.close d;
      ok)

(* ---------------- group-commit prefix-durability property ---------------- *)

(* Random interleavings of writes, commits, explicit sync barriers and
   crashes (handle abandoned without close) under a grouped or manual
   policy. The invariant is prefix durability: the recovered state is
   exactly the last SYNCED commit point — a synced prefix of the commit
   sequence, never a later unsynced commit, never an invented state —
   and the recovered database passes the consistency oracle. This is the
   group-commit twin of the corruption property below. *)
type group_step = Write of int | Commit | Sync | Crash

let prop_group_prefix_durability =
  let step_gen =
    QCheck.Gen.(
      frequency
        [
          (5, map (fun i -> Write i) (int_bound 99));
          (4, return Commit);
          (2, return Sync);
          (2, return Crash);
        ])
  in
  let policy_gen =
    QCheck.Gen.oneofl
      [ Durable.Group 2; Durable.Group 3; Durable.Group 8; Durable.Manual ]
  in
  let print_scenario (policy, steps) =
    Printf.sprintf "%s: %s"
      (Durable.policy_to_string policy)
      (String.concat " "
         (List.map
            (function
              | Write i -> Printf.sprintf "w%d" i
              | Commit -> "commit"
              | Sync -> "sync"
              | Crash -> "CRASH")
            steps))
  in
  let arb =
    QCheck.make ~print:print_scenario
      QCheck.Gen.(pair policy_gen (list_size (int_range 1 40) step_gen))
  in
  QCheck.Test.make
    ~name:"group commit: recovery lands on the last synced commit" ~count:60
    arb
    (fun (policy, steps) ->
      let dir = fresh_dir () in
      let d = ref (fst (Durable.open_dir ~policy ~dir ())) in
      let o =
        let db = Durable.db !d in
        let item =
          reg db "Item" [ stored "n" Value.TInt; stored "s" Value.TString ] []
        in
        Database.create_object db item
          ~init:[ ("n", Value.Int 0); ("s", Value.String "x") ]
      in
      Durable.commit !d;
      Durable.sync !d;
      (* fingerprints by commit index; the synced / committed cursors
         delimit which of them a crash may surface *)
      let states = ref [| fingerprint (Durable.db !d) |] in
      let committed = ref 0 and synced = ref 0 in
      let ok = ref true in
      List.iter
        (fun step ->
          if !ok then
            match step with
            | Write i ->
              Database.set_attr (Durable.db !d) o "n" (Value.Int i)
            | Commit ->
              Durable.commit !d;
              states := Array.append !states [| fingerprint (Durable.db !d) |];
              committed := Array.length !states - 1;
              if Durable.unsynced_commits !d = 0 then synced := !committed
            | Sync ->
              Durable.sync !d;
              synced := !committed
            | Crash ->
              (* abandon the handle: everything past the last barrier is
                 in the doomed in-memory group buffer *)
              let d2, _ = Durable.open_dir ~policy ~dir () in
              d := d2;
              let fp = fingerprint (Durable.db d2) in
              ok :=
                String.equal fp !states.(!synced)
                && Database.check (Durable.db d2) = [];
              (* the recovered prefix is the new history *)
              states := Array.sub !states 0 (!synced + 1);
              committed := !synced)
        steps;
      (* final crash so every scenario ends with a verified recovery *)
      let d2, _ = Durable.open_dir ~policy ~dir () in
      let fp = fingerprint (Durable.db d2) in
      ok :=
        !ok
        && String.equal fp !states.(!synced)
        && Database.check (Durable.db d2) = [];
      Durable.close d2;
      !ok)

(* ---------------- what an evolution logs ---------------- *)

module Durable_tse = Tse_core.Durable_tse
module Change = Tse_core.Change
module History = Tse_views.History
module History_codec = Tse_views.History_codec

let tse_fingerprint t =
  Tse_core.Verify.db_fingerprint ~history:(Durable_tse.history t)
    (Durable_tse.db t)

let evolve t view change =
  match Durable_tse.evolve t ~view change with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "evolution rejected: %s" m

(* Person <- Student under view V, evolved twice *)
let evolved_dir () =
  let dir = fresh_dir () in
  let t, _ = Durable_tse.open_dir ~policy:Durable.Every_commit ~dir () in
  ignore (build_small (Durable_tse.db t));
  ignore (Durable_tse.define_view_by_names t ~name:"V" [ "Person"; "Student" ]);
  evolve t "V"
    (Change.Add_attribute
       { cls = "Student"; def = Change.attr "credits" Value.TInt });
  evolve t "V" (Change.Add_class { cls = "Staff"; connected_to = Some "Person" });
  (dir, t)

(* Logs written before class deltas carried, in every schema-moving
   batch, the whole schema graph and the whole view history. Rewrite a
   log that way (the whole images as of each batch's end, read back by
   opening the log cut there) and reopen it. *)
let test_whole_image_log_replays () =
  let dir, t = evolved_dir () in
  let expected = tse_fingerprint t in
  Durable_tse.close t;
  let wal = Storage.read_file (Filename.concat dir "wal") in
  let scan = Wal.scan_string wal in
  let ends =
    List.map (fun (b : Wal.batch) -> b.start_off) (List.tl scan.batches)
    @ [ scan.valid_len ]
  in
  let whole_at cut =
    let cdir = fresh_dir () in
    Unix.mkdir cdir 0o755;
    write_file (Filename.concat cdir "wal") (String.sub wal 0 cut);
    let d, _ = Durable.open_dir ~policy:Durable.Every_commit ~dir:cdir () in
    let images =
      ( Schema_codec.encode_graph (Database.graph (Durable.db d)),
        Durable.ext d History_codec.tag )
    in
    Durable.abandon d;
    images
  in
  let deltas = ref 0 in
  let old =
    List.map2
      (fun (b : Wal.batch) cut ->
        let schema, views = whole_at cut in
        Wal.encode_record ~seq:b.seq
          (List.map
             (function
               | Wal.Ext ("classes", _) ->
                 incr deltas;
                 Wal.Ext ("schema", schema)
               | Wal.Ext ("+views", _) ->
                 Wal.Ext (History_codec.tag, Option.get views)
               | e -> e)
             b.entries))
      scan.batches ends
  in
  check Alcotest.bool "each evolution logged a class delta" true (!deltas >= 2);
  let odir = fresh_dir () in
  Unix.mkdir odir 0o755;
  write_file (Filename.concat odir "wal") (String.concat "" old);
  let t2, _ = Durable_tse.open_dir ~policy:Durable.Every_commit ~dir:odir () in
  check Alcotest.string "the whole-image log reopens to the same state"
    expected (tse_fingerprint t2);
  Durable_tse.close t2

(* [Durable.checkpoint] alone (as in [tse_cli checkpoint]) never builds a
   [History], yet its image must hold every version the log appended,
   of two views whose versions interleave in the log *)
let test_plain_checkpoint_keeps_versions () =
  let dir, t = evolved_dir () in
  ignore (Durable_tse.define_view_by_names t ~name:"W" [ "Person" ]);
  evolve t "W"
    (Change.Add_attribute { cls = "Person"; def = Change.attr "rank" Value.TInt });
  evolve t "V"
    (Change.Add_attribute { cls = "Staff"; def = Change.attr "desk" Value.TInt });
  let expected = tse_fingerprint t in
  let history = History_codec.encode (Durable_tse.history t) in
  let total = History.total_versions (Durable_tse.history t) in
  Durable_tse.close t;
  let d, _ = Durable.open_dir ~policy:Durable.Every_commit ~dir () in
  Durable.checkpoint d;
  Durable.close d;
  check Alcotest.int "log folded away" 0
    (Unix.stat (Filename.concat dir "wal")).Unix.st_size;
  let t2, _ = Durable_tse.open_dir ~policy:Durable.Every_commit ~dir () in
  check Alcotest.int "every version" total
    (History.total_versions (Durable_tse.history t2));
  check Alcotest.string "the history" history
    (History_codec.encode (Durable_tse.history t2));
  check Alcotest.string "the state" expected (tse_fingerprint t2);
  Durable_tse.close t2

let suite =
  [
    Alcotest.test_case "wal scan roundtrip" `Quick test_wal_scan_roundtrip;
    Alcotest.test_case "wal torn tail" `Quick test_wal_torn_tail;
    Alcotest.test_case "wal checksum corruption" `Quick
      test_wal_checksum_corruption;
    Alcotest.test_case "wal truncate file" `Quick test_wal_truncate_file;
    Alcotest.test_case "durable roundtrip" `Quick test_durable_roundtrip;
    Alcotest.test_case "uncommitted changes lost" `Quick
      test_durable_uncommitted_lost;
    Alcotest.test_case "incremental commits" `Quick
      test_durable_incremental_commits;
    Alcotest.test_case "checkpoint" `Quick test_durable_checkpoint;
    Alcotest.test_case "checkpoint bytes == golden" `Quick
      test_checkpoint_golden;
    Alcotest.test_case "empty commit writes nothing" `Quick
      test_durable_empty_commit_writes_nothing;
    Alcotest.test_case "crash matrix: commit path" `Quick
      test_crash_matrix_commit;
    Alcotest.test_case "crash matrix: group commit path" `Quick
      test_crash_matrix_group_commit;
    Alcotest.test_case "crash matrix: checkpoint path" `Quick
      test_crash_matrix_checkpoint;
    Alcotest.test_case "crash matrix: atomic writes" `Quick
      test_atomic_write_crashes;
    Alcotest.test_case "crash matrix covers every failpoint" `Quick
      test_matrix_covers_every_failpoint;
    Alcotest.test_case "group commit coalesces" `Quick
      test_group_commit_coalesces;
    Alcotest.test_case "manual sync barrier" `Quick test_manual_sync_barrier;
    Alcotest.test_case "close/checkpoint force a barrier" `Quick
      test_close_and_checkpoint_are_barriers;
    Alcotest.test_case "set_policy forces a barrier" `Quick
      test_set_policy_is_barrier;
    Alcotest.test_case "sync policy parsing" `Quick test_policy_parsing;
    Alcotest.test_case "partial group flush truncates to a record boundary"
      `Quick test_partial_group_flush;
    Alcotest.test_case "a whole-image evolution log still replays" `Quick
      test_whole_image_log_replays;
    Alcotest.test_case "a plain checkpoint keeps every appended version"
      `Quick test_plain_checkpoint_keeps_versions;
  ]
  @ List.map Qcheck_det.to_alcotest
      [ prop_wal_corruption; prop_group_prefix_durability ]
  @ [
      Alcotest.test_case "a failed fsync propagates under every policy" `Quick
        test_failed_fsync_propagates;
      Alcotest.test_case "a format-1 image still opens" `Quick
        test_v1_image_opens;
      Alcotest.test_case "a decoded heap shares slot names" `Quick
        test_decoded_heap_shares_names;
      Alcotest.test_case "a format-1 log with bases entries still replays"
        `Quick test_v1_bases_log_replays;
    ]
