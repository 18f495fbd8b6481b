(* Crash-atomicity of schema evolution: the crash matrix over every
   evolve-phase failpoint and both WAL record boundaries of the
   evolution protocol, the torn-begin truncation sweep, roll-forward
   abort on undecodable/rejected intents, and a random-corruption
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
module Change_codec = Tse_core.Change_codec
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
    let cid =
      Schema_graph.register_base (Database.graph db) ~name ~props ~supers
    in
    Database.note_new_class db cid;
    cid
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

(* Crashing before either protocol record is logged loses the evolution
   (Pre); crashing in any phase after the commit record is durable must
   roll it forward (Post). A torn begin record is also Pre: recovery
   truncates it away. *)
let evolve_crash_cases =
  [
    ("evolve.log.begin", Failpoint.Crash_now, Pre);
    ("wal.append.short", Failpoint.Short_write 11, Pre);
    ("evolve.log.commit", Failpoint.Crash_now, Pre);
    ("evolve.change", Failpoint.Crash_now, Post);
    ("evolve.derive", Failpoint.Crash_now, Post);
    ("evolve.classify", Failpoint.Crash_now, Post);
    ("evolve.integrate", Failpoint.Crash_now, Post);
    ("evolve.reclassify", Failpoint.Crash_now, Post);
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
  let t2, report = Durable_tse.open_dir ?policy ~dir () in
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
  (match expect with
  | Post ->
    check Alcotest.bool
      (Printf.sprintf "%s: recovery reports a roll-forward" name)
      true
      (report.Durable_tse.rolled_forward <> [])
  | Pre -> ());
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
      run_evolve_crash_case ~name ~action ~expect ~changes:changes1 ())
    evolve_crash_cases

(* Under a grouped sync policy the effects batch may be lost even
   without a failpoint on it; the commit record is fsynced, so recovery
   still rolls forward. *)
let test_crash_matrix_group_policy () =
  List.iter
    (fun (name, action, expect) ->
      run_evolve_crash_case ~policy:(Durable.Group 4) ~name ~action ~expect
        ~changes:changes1 ())
    evolve_crash_cases

(* A two-change unit must recover to version 0 or version 2 — never the
   version-1 prefix — whichever side of the protocol the crash lands. *)
let test_multi_change_atomicity () =
  List.iter
    (fun (name, action, expect) ->
      run_evolve_crash_case ~name ~action ~expect ~changes:changes2 ())
    [
      ("evolve.log.commit", Failpoint.Crash_now, Pre);
      ("evolve.change", Failpoint.Crash_now, Post);
      ("evolve.reclassify", Failpoint.Crash_now, Post);
    ]

(* ---------------- torn begin record: every truncation offset -------- *)

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

(* Kill the evolution after the begin record is durable but before the
   commit record; then re-cut the log at EVERY byte boundary inside the
   begin record. Whatever the cut, recovery must land on the
   pre-evolution twin state: a torn or dangling begin is discarded. *)
let test_torn_begin_every_offset () =
  let dir, t = setup () in
  let wal_path = Filename.concat dir "wal" in
  let len0 = (Unix.stat wal_path).Unix.st_size in
  Failpoint.arm "evolve.log.commit" Failpoint.Crash_now;
  (match Durable_tse.evolve_many t ~view changes1 with
  | Ok _ | Error _ -> Alcotest.fail "expected a crash"
  | exception Failpoint.Crash _ -> ());
  Failpoint.reset ();
  Durable_tse.abandon t;
  let len1 = (Unix.stat wal_path).Unix.st_size in
  check Alcotest.bool "begin record appended" true (len1 > len0);
  let pre_fp = twin_fingerprint [] in
  for cut = len0 to len1 do
    let cdir = fresh_dir () in
    copy_dir_truncated dir cdir cut;
    let t2, report = Durable_tse.open_dir ~dir:cdir () in
    check Alcotest.string
      (Printf.sprintf "cut at %d/%d: pre-evolution state" (cut - len0)
         (len1 - len0))
      pre_fp (tse_fingerprint t2);
    check Alcotest.int
      (Printf.sprintf "cut at %d: version 0" (cut - len0))
      0
      (Durable_tse.current t2 view).View_schema.version;
    check Alcotest.(list (pair int string))
      (Printf.sprintf "cut at %d: nothing rolled forward" (cut - len0))
      []
      report.Durable_tse.rolled_forward;
    (match Database.check (Durable_tse.db t2) with
    | [] -> ()
    | ps -> Alcotest.failf "cut at %d: inconsistent: %s" cut (String.concat "; " ps));
    Durable_tse.close t2
  done

(* ---------------- roll-forward abort ---------------- *)

(* Splice a committed evolution whose payload is garbage into the log.
   Recovery must durably neutralize it (Evo_done ok=false), keep the
   pre-evolution state, and not see it again at the next open. *)
let append_committed_intent dir ~payload =
  let d, _ = Durable.open_dir ~dir () in
  let seq = Durable.seq d in
  Durable.close d;
  let eid = seq + 1 in
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644 (Filename.concat dir "wal")
  in
  output_string oc
    (Wal.encode_record ~seq:eid [ Wal.Evo_begin { eid; view; payload } ]);
  output_string oc
    (Wal.encode_record ~seq:(eid + 1) [ Wal.Evo_commit { eid; view } ]);
  close_out oc;
  eid

let test_rollforward_abort_garbage_payload () =
  let dir, t = setup () in
  Durable_tse.close t;
  let eid = append_committed_intent dir ~payload:"\x01garbage\xff" in
  let pre_fp = twin_fingerprint [] in
  let t2, report = Durable_tse.open_dir ~dir () in
  check Alcotest.(list int) "aborted exactly the spliced eid" [ eid ]
    report.Durable_tse.aborted;
  check Alcotest.string "pre-evolution state" pre_fp (tse_fingerprint t2);
  Durable_tse.close t2;
  (* the abort is durable: a second open sees nothing pending *)
  let t3, report3 = Durable_tse.open_dir ~dir () in
  check Alcotest.(list int) "abort is durable" [] report3.Durable_tse.aborted;
  check
    Alcotest.(list (pair int string))
    "nothing pending" [] report3.Durable_tse.rolled_forward;
  check Alcotest.string "state unchanged" pre_fp (tse_fingerprint t3);
  Durable_tse.close t3

(* Same, but the payload decodes fine and is deterministically rejected
   by the evolution's own preconditions. *)
let test_rollforward_abort_rejected_change () =
  let dir, t = setup () in
  Durable_tse.close t;
  let payload =
    Change_codec.encode
      [ Change.Delete_attribute { cls = "Student"; attr_name = "nope" } ]
  in
  let eid = append_committed_intent dir ~payload in
  let pre_fp = twin_fingerprint [] in
  let t2, report = Durable_tse.open_dir ~dir () in
  check Alcotest.(list int) "rejected intent aborted" [ eid ]
    report.Durable_tse.aborted;
  check Alcotest.string "pre-evolution state" pre_fp (tse_fingerprint t2);
  Durable_tse.close t2

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

let with_enforced_admission f =
  let module Admission = Tse_core.Admission in
  let saved = Admission.policy () in
  Admission.set_policy Admission.Enforce;
  Fun.protect ~finally:(fun () -> Admission.set_policy saved) f

let wal_counts t =
  let s = Durable.wal_stats (Durable_tse.durable t) in
  (s.Wal.bytes_framed, s.Wal.fsyncs)

(* A change the precheck rejects writes no WAL byte, takes no fsync and
   keeps the handle: the same database value, in the pre-evolution
   state, before and after a close/reopen. *)
let test_precheck_rejection_logs_nothing () =
  with_enforced_admission @@ fun () ->
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
  let t2, report = Durable_tse.open_dir ~dir () in
  check Alcotest.(list int) "nothing to abort" [] report.Durable_tse.aborted;
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
  with_enforced_admission (fun () ->
      List.iter
        (fun c -> ignore (Durable_tse.evolve t ~view c))
        prechecked_rejections);
  check Alcotest.bool "same database value" true (Durable_tse.db t == db);
  let ann =
    List.find
      (fun o -> Value.equal (Database.get_prop db o "age") (Value.Int 30))
      (Database.objects db)
  in
  (* a reader that saw ann conflicts with a later write: the OCC
     listener still tracks versions *)
  let reader = Occ.begin_session occ in
  ignore (Occ.read reader ann "age");
  let writer = Occ.begin_session occ in
  Occ.write writer ann "age" (Value.Int 31);
  check Alcotest.bool "writer commits" true (Result.is_ok (Occ.commit writer));
  Occ.write reader ann "name" (Value.String "x");
  check Alcotest.bool "stale reader conflicts" true
    (Result.is_error (Occ.commit reader));
  (* the index followed the committed write *)
  let hits v = Option.get (Indexes.lookup idx person "age" (Value.Int v)) in
  check Alcotest.bool "new key indexed" true (Oid.Set.mem ann (hits 31));
  check Alcotest.bool "old key dropped" false (Oid.Set.mem ann (hits 30));
  Durable_tse.commit t;
  Durable_tse.close t

(* A change rejected after the first of a list is past the precheck:
   the intent is logged, so the reopen path restores the pre-evolution
   state (the list is all-or-nothing). *)
let test_later_rejection_reopens () =
  let dir, t = setup () in
  let pre_fp = twin_fingerprint [] in
  let db = Durable_tse.db t in
  let wal_size () = (Unix.stat (Filename.concat dir "wal")).Unix.st_size in
  let size0 = wal_size () in
  (match
     Durable_tse.evolve_many t ~view
       [
         List.hd changes1;
         Change.Delete_attribute { cls = "Student"; attr_name = "nope" };
       ]
   with
  | Ok _ -> Alcotest.fail "expected a rejection"
  | Error _ -> ());
  check Alcotest.bool "intent and abort were logged" true (wal_size () > size0);
  check Alcotest.bool "database reopened" false (Durable_tse.db t == db);
  check Alcotest.string "pre-evolution state" pre_fp (tse_fingerprint t);
  Durable_tse.close t

(* The admission gate runs once per change on the durable path: a
   prechecked change is not admitted a second time when it is applied. *)
let test_durable_gate_checks_once () =
  with_enforced_admission @@ fun () ->
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
   through: pre-evolution, post-evolution (roll-forward replays a
   committed intent whose effects batch was lost), or post-traffic. *)
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
    Alcotest.test_case "torn begin record: every truncation offset" `Quick
      test_torn_begin_every_offset;
    Alcotest.test_case "roll-forward abort: garbage payload" `Quick
      test_rollforward_abort_garbage_payload;
    Alcotest.test_case "roll-forward abort: rejected change" `Quick
      test_rollforward_abort_rejected_change;
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
  ]
  @ [ Qcheck_det.to_alcotest prop_evolution_wal_corruption ]
