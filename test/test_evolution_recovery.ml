(* Crash-atomicity of schema evolution: the crash matrix over every
   evolve-phase failpoint and the write and sync of the effects batch,
   the torn-effects-batch truncation sweep, logs written by older builds
   (evolution intent/decision/done records), and a random-corruption
   property over an evolution-bearing log. All assertions are
   structural: the recovered database is fingerprinted and compared to a
   never-crashed in-memory twin, so it must be exactly the
   pre-evolution or the post-evolution state — never a hybrid. *)

open Tse_store
module Prop = Tse_schema.Prop
module Schema_graph = Tse_schema.Schema_graph
module Database = Tse_db.Database
module Durable = Tse_db.Durable
module Change = Tse_core.Change
module Tsem = Tse_core.Tsem
module Durable_tse = Tse_core.Durable_tse
module Verify = Tse_core.Verify
module View_schema = Tse_views.View_schema
module Occ = Tse_concurrency.Occ
module Indexes = Tse_query.Indexes
module Metrics = Tse_obs.Metrics

let check = Alcotest.check

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tse_evorec_%d_%d" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir
    end;
    dir

let stored = Prop.stored ~origin:(Oid.of_int 0)

(* The build script, applied identically to the durable database and to
   the in-memory twins, so OID streams — and therefore structural
   fingerprints — align. *)
let build_fixture db =
  let reg name props supers =
    Schema_graph.register_base (Database.graph db) ~name ~props ~supers
  in
  let person =
    reg "Person" [ stored "name" Value.TString; stored "age" Value.TInt ] []
  in
  let student = reg "Student" [ stored "gpa" Value.TInt ] [ person ] in
  ignore
    (Database.create_object db person
       ~init:[ ("name", Value.String "ann"); ("age", Value.Int 30) ]);
  ignore
    (Database.create_object db student
       ~init:[ ("name", Value.String "bob"); ("gpa", Value.Int 3); ("age", Value.Int 20) ])

let view = "V"
let view_classes = [ "Person"; "Student" ]

(* A twin that executed the same script in memory, optionally evolved. *)
let twin_fingerprint changes =
  let tsem = Tsem.create () in
  build_fixture (Tsem.db tsem);
  ignore (Tsem.define_view_by_names tsem ~name:view view_classes);
  List.iter (fun c -> ignore (Tsem.evolve tsem ~view c)) changes;
  Verify.db_fingerprint ~history:(Tsem.history tsem) (Tsem.db tsem)

let tse_fingerprint t =
  Verify.db_fingerprint ~history:(Durable_tse.history t) (Durable_tse.db t)

let setup ?policy () =
  let dir = fresh_dir () in
  let t, _ = Durable_tse.open_dir ?policy ~dir () in
  build_fixture (Durable_tse.db t);
  ignore (Durable_tse.define_view_by_names t ~name:view view_classes);
  Durable_tse.commit t;
  Durable_tse.sync t;
  (dir, t)

let changes1 =
  [
    Change.Add_attribute
      { cls = "Student"; def = Change.attr ~default:(Value.Int 0) "credits" Value.TInt };
  ]

let changes2 =
  [
    Change.Add_attribute
      { cls = "Person"; def = Change.attr ~default:(Value.Int 1) "rank" Value.TInt };
    Change.Add_class { cls = "Staff"; connected_to = Some "Person" };
  ]

(* ---------------- the crash matrix ---------------- *)

type expect = Pre | Post

(* Nothing of an evolution is logged until its effects batch, so a crash
   in any phase loses it (Pre), and so does a torn effects batch:
   recovery truncates it away. A crash after the whole batch is written
   but before its fsync finds it on disk (Post). Every policy writes the
   batch through the same append_nosync + sync path, so one list serves
   them all. *)
let evolve_crash_cases =
  [
    ("evolve.change", Failpoint.Crash_now, Pre);
    ("evolve.derive", Failpoint.Crash_now, Pre);
    ("evolve.classify", Failpoint.Crash_now, Pre);
    ("evolve.integrate", Failpoint.Crash_now, Pre);
    ("evolve.reclassify", Failpoint.Crash_now, Pre);
    ("wal.group.append", Failpoint.Short_write 11, Pre);
    ("wal.group.fsync", Failpoint.Crash_now, Post);
  ]

let run_evolve_crash_case ?policy ~name ~action ~expect ~changes () =
  let dir, t = setup ?policy () in
  let pre_fp = twin_fingerprint [] in
  let post_fp = twin_fingerprint changes in
  check Alcotest.string
    (Printf.sprintf "%s: setup matches twin" name)
    pre_fp (tse_fingerprint t);
  let hits0 = Failpoint.hit_count name in
  let trips0 = Failpoint.trip_count name in
  Failpoint.arm name action;
  (match Durable_tse.evolve_many t ~view changes with
  | Ok _ | Error _ -> Alcotest.failf "%s: expected a crash" name
  | exception Failpoint.Crash _ -> ());
  check Alcotest.int
    (Printf.sprintf "%s: failpoint tripped exactly once" name)
    (trips0 + 1) (Failpoint.trip_count name);
  check Alcotest.bool
    (Printf.sprintf "%s: site was reached" name)
    true
    (Failpoint.hit_count name > hits0);
  Failpoint.reset ();
  (* the process "died": drop the handle without flushing, reopen *)
  Durable_tse.abandon t;
  let t2, _ = Durable_tse.open_dir ?policy ~dir () in
  let recovered = tse_fingerprint t2 in
  (* the headline assertion: structurally exactly pre or post, and the
     version is the matching end of the chain — never in between *)
  check Alcotest.string
    (Printf.sprintf "%s: recovered state is exactly %s-evolution" name
       (match expect with Pre -> "pre" | Post -> "post"))
    (match expect with Pre -> pre_fp | Post -> post_fp)
    recovered;
  check Alcotest.int
    (Printf.sprintf "%s: view version" name)
    (match expect with Pre -> 0 | Post -> List.length changes)
    (Durable_tse.current t2 view).View_schema.version;
  (match Database.check (Durable_tse.db t2) with
  | [] -> ()
  | ps -> Alcotest.failf "%s: inconsistent: %s" name (String.concat "; " ps));
  (* the recovered store must still evolve: run the same changes (Pre)
     or a follow-up change (Post) and land on the twin's state *)
  let next =
    match expect with
    | Pre -> changes
    | Post ->
      [
        Change.Add_attribute
          { cls = "Student"; def = Change.attr ~default:(Value.Int 9) "zz" Value.TInt };
      ]
  in
  (match Durable_tse.evolve_many t2 ~view next with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "%s: evolve after recovery failed: %s" name msg);
  let expected_final =
    twin_fingerprint (match expect with Pre -> changes | Post -> changes @ next)
  in
  check Alcotest.string
    (Printf.sprintf "%s: writable after recovery" name)
    expected_final (tse_fingerprint t2);
  Durable_tse.close t2;
  (* and the post-recovery work is itself durable *)
  let t3, _ = Durable_tse.open_dir ?policy ~dir () in
  check Alcotest.string
    (Printf.sprintf "%s: durable after recovery" name)
    expected_final (tse_fingerprint t3);
  Durable_tse.close t3

let test_crash_matrix () =
  List.iter
    (fun (name, action, expect) ->
      run_evolve_crash_case ~policy:Durable.Every_commit ~name ~action ~expect
        ~changes:changes1 ())
    evolve_crash_cases

(* Under a grouped sync policy the effects batch waits in the group
   buffer, and [evolve_many] syncs it before answering. *)
let test_crash_matrix_group_policy () =
  List.iter
    (fun (name, action, expect) ->
      run_evolve_crash_case ~policy:(Durable.Group 4) ~name ~action ~expect
        ~changes:changes1 ())
    evolve_crash_cases

(* A two-change unit must recover to version 0 or version 2 — never the
   version-1 prefix — whichever side of the effects batch the crash
   lands. *)
let test_multi_change_atomicity () =
  List.iter
    (fun (name, action, expect) ->
      run_evolve_crash_case ~policy:Durable.Every_commit ~name ~action
        ~expect ~changes:changes2 ())
    [
      ("evolve.change", Failpoint.Crash_now, Pre);
      ("evolve.reclassify", Failpoint.Crash_now, Pre);
      ("wal.group.fsync", Failpoint.Crash_now, Post);
    ]

(* After a checkpoint the log holds the first evolution's class delta and
   view versions, not whole images, and a crash in the second evolution
   must recover through them to the pre or the post twin. *)
let test_crash_after_checkpoint () =
  List.iter
    (fun (name, action, expect) ->
      let dir, t = setup ~policy:Durable.Every_commit () in
      Durable_tse.checkpoint t;
      (match Durable_tse.evolve_many t ~view changes1 with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: first evolution rejected: %s" name msg);
      Failpoint.arm name action;
      (match Durable_tse.evolve_many t ~view changes2 with
      | Ok _ | Error _ -> Alcotest.failf "%s: expected a crash" name
      | exception Failpoint.Crash _ -> ());
      Failpoint.reset ();
      Durable_tse.abandon t;
      let t2, _ = Durable_tse.open_dir ~policy:Durable.Every_commit ~dir () in
      check Alcotest.string
        (Printf.sprintf "%s: recovered state is exactly %s-evolution" name
           (match expect with Pre -> "pre" | Post -> "post"))
        (twin_fingerprint
           (match expect with Pre -> changes1 | Post -> changes1 @ changes2))
        (tse_fingerprint t2);
      (match Database.check (Durable_tse.db t2) with
      | [] -> ()
      | ps -> Alcotest.failf "%s: inconsistent: %s" name (String.concat "; " ps));
      Durable_tse.close t2)
    [
      ("evolve.integrate", Failpoint.Crash_now, Pre);
      ("wal.group.append", Failpoint.Short_write 11, Pre);
      ("wal.group.fsync", Failpoint.Crash_now, Post);
    ]

(* ---------------- torn effects batch: every truncation offset ------- *)

let copy_dir_truncated src dst cut =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let data = Storage.read_file (Filename.concat src f) in
      let data =
        if String.equal f "wal" then String.sub data 0 cut else data
      in
      let oc = open_out_bin (Filename.concat dst f) in
      output_string oc data;
      close_out oc)
    (Sys.readdir src)

(* Kill the evolution after its effects batch is written but before it
   is fsynced; then re-cut the log at EVERY byte boundary inside that
   batch. Any cut must recover to the pre-evolution twin state (the torn
   batch is truncated away); only the whole batch recovers to the
   post-evolution one. *)
let test_torn_effects_batch_every_offset () =
  let dir, t = setup ~policy:Durable.Every_commit () in
  let wal_path = Filename.concat dir "wal" in
  let len0 = (Unix.stat wal_path).Unix.st_size in
  Failpoint.arm "wal.group.fsync" Failpoint.Crash_now;
  (match Durable_tse.evolve_many t ~view changes1 with
  | Ok _ | Error _ -> Alcotest.fail "expected a crash"
  | exception Failpoint.Crash _ -> ());
  Failpoint.reset ();
  Durable_tse.abandon t;
  let len1 = (Unix.stat wal_path).Unix.st_size in
  check Alcotest.bool "effects batch appended" true (len1 > len0);
  let pre_fp = twin_fingerprint [] in
  let post_fp = twin_fingerprint changes1 in
  for cut = len0 to len1 do
    let whole = cut = len1 in
    let cdir = fresh_dir () in
    copy_dir_truncated dir cdir cut;
    let t2, report = Durable_tse.open_dir ~dir:cdir () in
    check Alcotest.string
      (Printf.sprintf "cut at %d/%d: %s-evolution state" (cut - len0)
         (len1 - len0)
         (if whole then "post" else "pre"))
      (if whole then post_fp else pre_fp)
      (tse_fingerprint t2);
    check Alcotest.int
      (Printf.sprintf "cut at %d: version" (cut - len0))
      (if whole then 1 else 0)
      (Durable_tse.current t2 view).View_schema.version;
    check Alcotest.int
      (Printf.sprintf "cut at %d: torn bytes dropped" (cut - len0))
      (if whole then 0 else cut - len0)
      report.Recovery.dropped_bytes;
    (match Database.check (Durable_tse.db t2) with
    | [] -> ()
    | ps -> Alcotest.failf "cut at %d: inconsistent: %s" cut (String.concat "; " ps));
    Durable_tse.close t2
  done

(* ---------------- logs written by older builds ---------------- *)

(* Frame a record the way older builds did, with entries this build can
   no longer encode: [u32le length | u32le crc32 | seq, entry list]. *)
let legacy_record ~seq entries =
  let payload = Buffer.create 64 in
  Codec.add_int payload seq;
  Codec.add_list payload (fun buf add -> add buf) entries;
  let payload = Buffer.contents payload in
  let u32 v =
    String.init 4 (fun i ->
        Char.chr (Int32.to_int (Int32.shift_right_logical v (i * 8)) land 0xFF))
  in
  u32 (Int32.of_int (String.length payload))
  ^ u32 (Crc32.string payload)
  ^ payload

let legacy_begin ~eid buf =
  Buffer.add_char buf 'B';
  Codec.add_int buf eid;
  Codec.add_str buf view;
  Codec.add_str buf "an encoded change list"

let legacy_commit ~eid buf =
  Buffer.add_char buf 'C';
  Codec.add_int buf eid;
  Codec.add_str buf view

let legacy_done ~eid buf =
  Buffer.add_char buf 'D';
  Codec.add_int buf eid;
  Codec.add_int buf 1

(* An older log holds intent, decision and done records between two data
   batches (and one more intent and decision with no done marker). The
   scanner must decode them and drop them: the later data batch
   survives, nothing is truncated, and no evolution is replayed. *)
let test_legacy_evolution_records_dropped () =
  let dir, t = setup () in
  Durable_tse.close t;
  let wal_path = Filename.concat dir "wal" in
  let before = Storage.read_file wal_path in
  (* a later data batch, written by this build *)
  let t, _ = Durable_tse.open_dir ~dir () in
  let db = Durable_tse.db t in
  let o = List.hd (List.sort Oid.compare (Database.objects db)) in
  Database.set_attr db o "age" (Value.Int 77);
  Durable_tse.commit t;
  let seq = Durable.seq (Durable_tse.durable t) in
  let expected = tse_fingerprint t in
  Durable_tse.close t;
  let later =
    let wal = Storage.read_file wal_path in
    let tail =
      String.sub wal (String.length before)
        (String.length wal - String.length before)
    in
    match (Wal.scan_string tail).Wal.batches with
    | [ b ] -> b.Wal.entries
    | bs -> Alcotest.failf "expected one later batch, got %d" (List.length bs)
  in
  let eid = seq in
  let spliced =
    before
    ^ legacy_record ~seq [ legacy_begin ~eid ]
    ^ legacy_record ~seq:(seq + 1) [ legacy_commit ~eid ]
    ^ legacy_record ~seq:(seq + 2) [ legacy_done ~eid ]
    ^ legacy_record ~seq:(seq + 3) [ legacy_begin ~eid:(seq + 3) ]
    ^ legacy_record ~seq:(seq + 4) [ legacy_commit ~eid:(seq + 3) ]
    ^ Wal.encode_record ~seq:(seq + 5) later
  in
  let oc = open_out_bin wal_path in
  output_string oc spliced;
  close_out oc;
  let t2, report = Durable_tse.open_dir ~dir () in
  check Alcotest.int "nothing dropped" 0 report.Recovery.dropped_bytes;
  check Alcotest.(option string) "no truncation reason" None
    report.Recovery.reason;
  check Alcotest.int "scanned to the last batch" (seq + 5)
    report.Recovery.last_seq;
  check Alcotest.string "later data batch survives, nothing rolled forward"
    expected (tse_fingerprint t2);
  check Alcotest.int "version 0" 0
    (Durable_tse.current t2 view).View_schema.version;
  (* new batches follow the legacy ones in sequence and stay durable *)
  (match Durable_tse.evolve_many t2 ~view changes1 with
  | Ok v -> check Alcotest.int "still evolves" 1 v.View_schema.version
  | Error msg -> Alcotest.failf "evolve after legacy log failed: %s" msg);
  let expected = tse_fingerprint t2 in
  Durable_tse.close t2;
  let t3, _ = Durable_tse.open_dir ~dir () in
  check Alcotest.string "durable after reopen" expected (tse_fingerprint t3);
  Durable_tse.close t3

(* A live rejection must also leave the reopened pre-evolution state and
   a working handle (the whole list is all-or-nothing). *)
let test_live_rejection_is_all_or_nothing () =
  let _dir, t = setup () in
  let pre_fp = twin_fingerprint [] in
  (match
     Durable_tse.evolve_many t ~view
       [
         Change.Add_attribute
           { cls = "Person"; def = Change.attr ~default:(Value.Int 0) "ok1" Value.TInt };
         Change.Delete_attribute { cls = "Student"; attr_name = "nope" };
       ]
   with
  | Ok _ -> Alcotest.fail "expected a rejection"
  | Error _ -> ());
  check Alcotest.string "rejected list fully rolled back" pre_fp
    (tse_fingerprint t);
  check Alcotest.int "version 0" 0 (Durable_tse.current t view).View_schema.version;
  (match Durable_tse.evolve_many t ~view changes1 with
  | Ok v -> check Alcotest.int "handle still evolves" 1 v.View_schema.version
  | Error msg -> Alcotest.failf "evolve after rejection failed: %s" msg);
  Durable_tse.close t

(* ---------------- rejection before logging ---------------- *)

(* Rejected by the precheck: a stale attribute, a self edge, a cycle,
   and a method body the admission gate refuses (E1xx). *)
let prechecked_rejections =
  [
    Change.Delete_attribute { cls = "Student"; attr_name = "nope" };
    Change.Add_edge { sup = "Person"; sub = "Person" };
    Change.Add_edge { sup = "Student"; sub = "Person" };
    Change.Add_method
      { cls = "Person"; method_name = "m"; body = Tse_schema.Expr.attr "nope" };
  ]

let wal_counts t =
  let s = Durable.wal_stats (Durable_tse.durable t) in
  (s.Wal.bytes_framed, s.Wal.fsyncs)

(* A change the precheck rejects writes no WAL byte, takes no fsync and
   keeps the handle: the same database value, in the pre-evolution
   state, before and after a close/reopen. *)
let test_precheck_rejection_logs_nothing () =
  let dir, t = setup () in
  let pre_fp = twin_fingerprint [] in
  let db = Durable_tse.db t in
  let bytes0, fsyncs0 = wal_counts t in
  List.iter
    (fun c ->
      match Durable_tse.evolve t ~view c with
      | Ok _ -> Alcotest.failf "%s: expected a rejection" (Change.to_string c)
      | Error _ -> ())
    prechecked_rejections;
  let bytes1, fsyncs1 = wal_counts t in
  check Alcotest.int "no WAL bytes" bytes0 bytes1;
  check Alcotest.int "no fsync" fsyncs0 fsyncs1;
  check Alcotest.bool "same database value" true (Durable_tse.db t == db);
  check Alcotest.string "pre-evolution state" pre_fp (tse_fingerprint t);
  Durable_tse.close t;
  let t2, _ = Durable_tse.open_dir ~dir () in
  check Alcotest.string "reopened = twin that never tried" pre_fp
    (tse_fingerprint t2);
  Durable_tse.close t2

(* Derived structures built on the database before a prechecked
   rejection keep serving it afterwards: no rebuild needed. *)
let test_rejection_keeps_derived_structures () =
  let _dir, t = setup () in
  let db = Durable_tse.db t in
  let person =
    (Schema_graph.find_by_name_exn (Database.graph db) "Person").Tse_schema.Klass.cid
  in
  let occ = Occ.create db in
  let idx = Indexes.create db in
  Indexes.ensure idx person "age";
  List.iter (fun c -> ignore (Durable_tse.evolve t ~view c)) prechecked_rejections;
  check Alcotest.bool "same database value" true (Durable_tse.db t == db);
  let ann =
    List.find
      (fun o -> Value.equal (Database.get_prop db o "age") (Value.Int 30))
      (Database.objects db)
  in
  (* a reader that saw ann conflicts with a later write: the database
     still moves its change stamps *)
  let reader = Occ.begin_session occ in
  ignore (Occ.read reader ann "age");
  let writer = Occ.begin_session occ in
  Occ.write writer ann "age" (Value.Int 31);
  check Alcotest.bool "writer commits" true (Result.is_ok (Occ.commit writer));
  Occ.write reader ann "name" (Value.String "x");
  check Alcotest.bool "stale reader conflicts" true
    (Result.is_error (Occ.commit reader));
  (* the index followed the committed write *)
  let hits v = Index.lookup (Option.get (Indexes.find idx person "age")) (Value.Int v) in
  check Alcotest.bool "new key indexed" true (Oid.Set.mem ann (hits 31));
  check Alcotest.bool "old key dropped" false (Oid.Set.mem ann (hits 30));
  Durable_tse.commit t;
  Durable_tse.close t

(* A change rejected after the first of a list is past the precheck: the
   first change was applied in memory but nothing was logged, so the
   reopen path restores the pre-evolution state (the list is
   all-or-nothing) without writing a byte, and opens once. *)
let test_later_rejection_reopens () =
  let dir, t = setup () in
  let pre_fp = twin_fingerprint [] in
  let db = Durable_tse.db t in
  let wal_size () = (Unix.stat (Filename.concat dir "wal")).Unix.st_size in
  let size0 = wal_size () in
  let fsyncs0 = Metrics.find_counter "wal.fsyncs" in
  let opens0 = Metrics.find_counter "durable.opens" in
  (match
     Durable_tse.evolve_many t ~view
       [
         List.hd changes1;
         Change.Delete_attribute { cls = "Student"; attr_name = "nope" };
       ]
   with
  | Ok _ -> Alcotest.fail "expected a rejection"
  | Error _ -> ());
  check Alcotest.int "no WAL byte" size0 (wal_size ());
  check Alcotest.int "no fsync" fsyncs0 (Metrics.find_counter "wal.fsyncs");
  check Alcotest.int "opened once" (opens0 + 1)
    (Metrics.find_counter "durable.opens");
  check Alcotest.bool "database reopened" false (Durable_tse.db t == db);
  check Alcotest.string "pre-evolution state" pre_fp (tse_fingerprint t);
  Durable_tse.close t

(* [Ok] means durable under a grouped policy too: a handle dropped right
   after the answer, with no barrier of the caller's own, recovers to the
   post-evolution twin. *)
let test_ok_is_durable_under_group () =
  let dir, t = setup ~policy:(Durable.Group 4) () in
  (match Durable_tse.evolve_many t ~view changes2 with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "evolve failed: %s" msg);
  Durable_tse.abandon t;
  let t2, _ = Durable_tse.open_dir ~policy:(Durable.Group 4) ~dir () in
  check Alcotest.string "post-evolution twin" (twin_fingerprint changes2)
    (tse_fingerprint t2);
  check Alcotest.int "version 2" 2
    (Durable_tse.current t2 view).View_schema.version;
  Durable_tse.close t2

(* Traffic written but not committed before an evolution is made durable
   before the list is applied: a later change's rejection reopens from
   disk, and the traffic is there, under a grouped policy too. *)
let test_pending_traffic_survives_later_rejection () =
  let dir, t = setup ~policy:(Durable.Group 4) () in
  let db = Durable_tse.db t in
  let o = List.hd (List.sort Oid.compare (Database.objects db)) in
  Database.set_attr db o "age" (Value.Int 77);
  (match
     Durable_tse.evolve_many t ~view
       [
         List.hd changes1;
         Change.Delete_attribute { cls = "Student"; attr_name = "nope" };
       ]
   with
  | Ok _ -> Alcotest.fail "expected a rejection"
  | Error _ -> ());
  let age t = Database.get_prop (Durable_tse.db t) o "age" in
  check Alcotest.bool "database reopened" false (Durable_tse.db t == db);
  check Alcotest.bool "traffic survives the reopen" true
    (Value.equal (age t) (Value.Int 77));
  check Alcotest.int "version 0" 0 (Durable_tse.current t view).View_schema.version;
  Durable_tse.abandon t;
  let t2, _ = Durable_tse.open_dir ~policy:(Durable.Group 4) ~dir () in
  check Alcotest.bool "traffic is durable" true
    (Value.equal (age t2) (Value.Int 77));
  Durable_tse.close t2

(* With no pending traffic an accepted evolution is one batch and one
   fsync under the eager policy. *)
let test_evolution_takes_one_fsync () =
  let _dir, t = setup ~policy:Durable.Every_commit () in
  let _, fsyncs0 = wal_counts t in
  (match Durable_tse.evolve_many t ~view changes2 with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "evolve failed: %s" msg);
  let _, fsyncs1 = wal_counts t in
  check Alcotest.int "one fsync" 1 (fsyncs1 - fsyncs0);
  Durable_tse.close t

(* The admission gate runs once per change on the durable path: a
   prechecked change is not admitted a second time when it is applied. *)
let test_durable_gate_checks_once () =
  let _dir, t = setup () in
  let checks () = Metrics.find_counter "analysis.gate_checks" in
  let attempt changes =
    let c0 = checks () in
    ignore (Durable_tse.evolve_many t ~view changes);
    check Alcotest.int
      (String.concat "; " (List.map Change.to_string changes))
      (c0 + List.length changes) (checks ())
  in
  attempt changes1;
  List.iter (fun c -> attempt [ c ]) prechecked_rejections;
  attempt
    [
      Change.Add_attribute
        { cls = "Person"; def = Change.attr ~default:(Value.Int 0) "z1" Value.TInt };
      Change.Add_attribute
        { cls = "Person"; def = Change.attr ~default:(Value.Int 0) "z2" Value.TInt };
    ];
  Durable_tse.close t

(* ---------------- random corruption property ---------------- *)

(* Any single corrupted byte in an evolution-bearing log must leave the
   store openable, consistent, and at one of the states the history went
   through: pre-evolution (the effects batch is cut away),
   post-evolution (the traffic batch is), or post-traffic. *)
let prop_evolution_wal_corruption =
  let dir, t = setup () in
  Durable_tse.checkpoint t;
  let s0 = twin_fingerprint [] in
  (match Durable_tse.evolve_many t ~view changes1 with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  let s1 = tse_fingerprint t in
  let db = Durable_tse.db t in
  let o = List.hd (List.sort Oid.compare (Database.objects db)) in
  Database.set_attr db o "age" (Value.Int 77);
  Durable_tse.commit t;
  Durable_tse.sync t;
  let s2 = tse_fingerprint t in
  Durable_tse.close t;
  let wal = Storage.read_file (Filename.concat dir "wal") in
  let snapshot = Storage.read_file (Filename.concat dir "snapshot") in
  let states = [ s0; s1; s2 ] in
  QCheck.Test.make
    ~name:"single-byte corruption of an evolution log never breaks recovery"
    ~count:120
    QCheck.(pair (int_bound (String.length wal - 1)) (int_bound 255))
    (fun (off, byte) ->
      let corrupted = Bytes.of_string wal in
      Bytes.set corrupted off (Char.chr byte);
      let cdir = fresh_dir () in
      Unix.mkdir cdir 0o755;
      let oc = open_out_bin (Filename.concat cdir "wal") in
      output_bytes oc corrupted;
      close_out oc;
      let oc = open_out_bin (Filename.concat cdir "snapshot") in
      output_string oc snapshot;
      close_out oc;
      let t, _ = Durable_tse.open_dir ~dir:cdir () in
      let fp = tse_fingerprint t in
      let ok =
        Database.check (Durable_tse.db t) = [] && List.mem fp states
      in
      Durable_tse.close t;
      ok)

let suite =
  [
    Alcotest.test_case "evolution crash matrix (every phase + boundaries)"
      `Quick test_crash_matrix;
    Alcotest.test_case "evolution crash matrix under group commit" `Quick
      test_crash_matrix_group_policy;
    Alcotest.test_case "multi-change unit is all-or-nothing under crashes"
      `Quick test_multi_change_atomicity;
    Alcotest.test_case "checkpoint, two evolutions, crash in the second"
      `Quick test_crash_after_checkpoint;
    Alcotest.test_case "torn effects batch: every truncation offset" `Quick
      test_torn_effects_batch_every_offset;
    Alcotest.test_case "legacy intent/decision/done records are dropped"
      `Quick test_legacy_evolution_records_dropped;
    Alcotest.test_case "live rejection is all-or-nothing" `Quick
      test_live_rejection_is_all_or_nothing;
    Alcotest.test_case "precheck rejection logs nothing, keeps the handle"
      `Quick test_precheck_rejection_logs_nothing;
    Alcotest.test_case "rejection keeps Occ and Indexes serving" `Quick
      test_rejection_keeps_derived_structures;
    Alcotest.test_case "later rejection in a list takes the reopen path"
      `Quick test_later_rejection_reopens;
    Alcotest.test_case "durable path admits each change once" `Quick
      test_durable_gate_checks_once;
    Alcotest.test_case "Ok is durable under group commit" `Quick
      test_ok_is_durable_under_group;
    Alcotest.test_case "pending traffic survives a later rejection" `Quick
      test_pending_traffic_survives_later_rejection;
    Alcotest.test_case "accepted evolution takes one fsync" `Quick
      test_evolution_takes_one_fsync;
  ]
  @ [ Qcheck_det.to_alcotest prop_evolution_wal_corruption ]
