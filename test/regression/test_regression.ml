(* Regression corpus for the Proposition B / delete_edge bug that was
   pinned here as expected-failures between the seed commit and the
   translator fix (ROADMAP "Known bugs", DESIGN.md §15): the generator
   seeds below used to make the random Proposition B property fail.

   The root cause was [Translator.reaches_avoiding]'s hypothetical: it
   excluded every path through the *whole* derivation source lineage of
   the deleted edge's subclass end, so a legitimate alternate is-a route
   through another view class (e.g. C1 -> C2 -> C6 -> C6') was treated
   as "the deleted edge wearing an older name" and the translator
   manufactured difference classes that contradicted the memberships its
   own stitching implied. The GetPut law harness (test/test_lens.ml)
   localized the disagreement to the translator side; the fix blocks
   only version-to-version edges of the two endpoints. Seed 3153 pinned
   a second bug on the same corpus: add_attribute propagation crashed on
   a subclass that already inherited a same-named property along another
   path. Each seed is now asserted to replay Clean — a reappearance of
   either bug fails this suite.

   The replay runs the body of test/test_property.ml's
   prop_view_independence, from the shared test kit (test/kit), so a seed
   draws the same changes in both binaries.

   The static analyzer runs over every replayed schema and its
   diagnostics are recorded: the corpus demonstrates the historical bug
   was a semantic derivation error (wrong membership after delete_edge),
   not an ill-typed schema — the analyzer finds zero errors.

   Setting PROPB_SWEEP=N additionally replays seeds 0..N-1 and asserts
   zero disagreements — the 10k-seed sweep of the acceptance criterion:

     PROPB_SWEEP=10000 dune exec test/regression/test_regression.exe

   DELETE_EDGE_SWEEP=N likewise runs the old-hierarchy change sequence
   from seeds 0..N-1 (see delete_edge_restore below). *)

open Tse_store
open Tse_schema
open Tse_db
open Tse_core
open Tse_workload

type outcome =
  | Clean  (** Proposition B held *)
  | Violation of string list
      (** property body returned false: fingerprint drift and/or
          consistency-oracle problems *)
  | Crashed of string  (** evolve raised something besides [Rejected] *)

let replay seed =
  match Testkit.view_independence seed with
  | rs, [] -> (Some rs, Clean)
  | rs, issues -> (Some rs, Violation issues)
  | exception e -> (None, Crashed (Printexc.to_string e))

let pp_outcome = function
  | Clean -> "clean"
  | Violation issues -> "violation: " ^ String.concat "; " issues
  | Crashed msg -> "crashed: " ^ msg

(* The analyzer's verdict on the schema the replay left behind: recorded
   (printed) for the corpus, and asserted error-free. *)
let analyze_replayed_schema seed (rs : Random_schema.t) =
  let report = Tse_analysis.Analysis.analyze (Database.graph rs.db) in
  Printf.printf "seed %d analyzer verdict: %d errors, %d warnings over %d \
                 classes / %d exprs\n"
    seed
    (List.length (Tse_analysis.Analysis.errors report))
    (List.length (Tse_analysis.Analysis.warnings report))
    report.Tse_analysis.Analysis.classes_checked
    report.Tse_analysis.Analysis.exprs_checked;
  List.iter
    (fun d ->
      Printf.printf "  %s\n" (Format.asprintf "%a" Tse_analysis.Diagnostic.pp d))
    report.Tse_analysis.Analysis.diagnostics;
  Alcotest.(check int)
    (Printf.sprintf "seed %d: replayed schema has no analyzer errors" seed)
    0
    (List.length (Tse_analysis.Analysis.errors report))

let expect_clean seed () =
  let rs, outcome = replay seed in
  Printf.printf "seed %d: %s\n" seed (pp_outcome outcome);
  (match outcome with
  | Clean -> ()
  | Violation issues ->
    Alcotest.failf
      "seed %d: the Proposition B violation is back (%s) — see DESIGN.md §15"
      seed
      (String.concat "; " issues)
  | Crashed msg -> Alcotest.failf "seed %d crashed: %s" seed msg);
  Option.iter (analyze_replayed_schema seed) rs

(* What the old-hierarchy change sequence from [seed] did wrong, if
   anything: a step that left the database inconsistent, or that passed
   the precheck and then raised. *)
let sequence_fault seed =
  Option.map
    (fun (i, msg) -> Printf.sprintf "step %d: %s" i msg)
    (Testkit.run_sequence seed)

(* A sweep of seeds 0..n-1, asserting that [fault] finds nothing. *)
let sweep ~fault n () =
  let bad = ref [] in
  for seed = 0 to n - 1 do
    Option.iter (fun what -> bad := (seed, what) :: !bad) (fault seed)
  done;
  List.iter
    (fun (seed, what) -> Printf.printf "seed %d: %s\n" seed what)
    (List.rev !bad);
  Alcotest.(check int) (Printf.sprintf "bad seeds of %d" n) 0 (List.length !bad)

(* A sweep runs only when its variable names a seed count, so that
   `dune runtest` stays fast. *)
let gated_sweep var ~fault =
  match Option.bind (Sys.getenv_opt var) int_of_string_opt with
  | Some n when n > 0 ->
    [ Alcotest.test_case (Printf.sprintf "%s: %d seeds" var n) `Slow (sweep ~fault n) ]
  | Some _ | None -> []

(* Listener leak. Index sets used to be held by the database they
   maintain for its whole life, so every set a program created and
   dropped — one per rejected evolution in the benchmark, which rebuilt
   its Occ and Indexes after each rejection — kept refreshing its
   entries on every write. The database now keeps the indexes itself,
   one per key however many sets select it, so without any collection
   only one index maintains. *)
let listener_leak () =
  let db = Database.create () in
  let graph = Database.graph db in
  let c =
    Schema_graph.register_base graph ~name:"C"
      ~props:[ Prop.stored ~origin:(Oid.of_int 0) "a" Value.TInt ]
      ~supers:[]
  in
  let objs =
    List.init 10 (fun i -> Database.create_object db c ~init:[ ("a", Value.Int i) ])
  in
  let dropped () =
    let idx = Tse_query.Indexes.create db in
    Tse_query.Indexes.ensure idx c "a"
  in
  for _ = 1 to 20 do
    dropped ()
  done;
  let live = Tse_query.Indexes.create db in
  Tse_query.Indexes.ensure live c "a";
  let refreshes () = Tse_obs.Metrics.find_counter "query.index_refreshes" in
  let r0 = refreshes () in
  Database.set_attr db (List.hd objs) "a" (Value.Int 99);
  Alcotest.(check int) "one write, one refresh: the live index's" (r0 + 1)
    (refreshes ());
  Alcotest.(check bool) "live index maintained" true
    (Oid.Set.mem (List.hd objs)
       (Index.lookup (Option.get (Tse_query.Indexes.find live c "a")) (Value.Int 99)))

(* Unknown view on the durable path. [Durable_tse.evolve_many] answered
   an empty change list for a view that does not exist by raising
   [Invalid_argument] (through [History.current_exn]), while a non-empty
   list for the same view returned [Error]. Both are [Error] now. *)
let unknown_view () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tse_regress_view_%d" (Unix.getpid ()))
  in
  let t, _ = Durable_tse.open_dir ~policy:Durable.Every_commit ~dir () in
  let change = Change.Add_class { cls = "K"; connected_to = None } in
  List.iter
    (fun changes ->
      match Durable_tse.evolve_many t ~view:"nope" changes with
      | Ok _ -> Alcotest.fail "expected an error"
      | Error msg ->
        Alcotest.(check string)
          (Printf.sprintf "%d change(s)" (List.length changes))
          "no view named nope" msg)
    [ []; [ change ] ];
  Durable_tse.close t;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* delete_edge reattachment. Deleting Staff-SupportStaff with
   [connected_to = Person] subtracted SupportStaff from every class above
   Staff, Person included, and then linked SupportStaff back under the
   reduced Person: the derivation of Person' excluded objects its new
   subclass forced into it. [Database.check] reported each of them, and
   the view compared equal to the direct oracle only because a later
   re-fixpoint of every member pushed them in through the is-a closure.
   The reattachment class and its ancestors now keep C_sub's instances. *)
let delete_edge_reattach () =
  let build () =
    let uni = University.build () in
    ignore (University.populate uni ~n:24);
    let tsem = Tsem.of_database uni.db in
    let view =
      Tsem.define_view_by_names tsem ~name:"VS"
        [ "Person"; "Staff"; "SupportStaff" ]
    in
    (uni, tsem, view)
  in
  let change =
    Change.Delete_edge
      { sup = "Staff"; sub = "SupportStaff"; connected_to = Some "Person" }
  in
  let uni, tsem, _ = build () in
  let evolved = Tsem.evolve tsem ~view:"VS" change in
  let oracle, _, oracle_view = build () in
  let direct = Direct.apply oracle.db oracle_view change in
  Alcotest.(check (list string)) "consistent" [] (Database.check uni.db);
  Alcotest.(check (list string)) "S'' = S'" []
    (Verify.diff_views (uni.db, evolved) (oracle.db, direct))

(* A non-boolean constant conjunct. [Expr_compile.compile_bool] called
   [as_bool] on a [Const] while compiling, so [select ... where age >= 0
   and 3] raised [Type_error] from [Engine.select], [Engine.count] and
   [Database.compile_pred], while [Database.holds] answered false for
   every object. The error now surfaces where the constant is evaluated,
   and the holds contract absorbs it there. *)
let constant_conjunct () =
  let uni = University.build () in
  ignore (University.populate uni ~n:24);
  let db = uni.db in
  let cls = uni.person in
  let plain = Tse_query.Indexes.create db in
  let indexed = Tse_query.Indexes.create db in
  Tse_query.Indexes.ensure ~kind:Tse_query.Indexes.Ordered indexed cls "age";
  let three = Expr.Const (Value.Int 3) in
  List.iter
    (fun (what, pred) ->
      let extent = Database.extent db cls in
      let oracle = Oid.Set.filter (fun o -> Database.holds db o pred) extent in
      Alcotest.(check int) (what ^ ": holds answers false") 0
        (Oid.Set.cardinal oracle);
      let compiled = Database.compile_pred db pred in
      Alcotest.(check bool) (what ^ ": compile_pred == holds") true
        (Oid.Set.for_all
           (fun o -> Bool.equal (compiled o) (Database.holds db o pred))
           extent);
      List.iter
        (fun (how, idx) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: select == holds (%s)" what how)
            true
            (Oid.Set.equal (Tse_query.Engine.select db idx cls pred) oracle);
          Alcotest.(check int)
            (Printf.sprintf "%s: count == holds (%s)" what how)
            (Oid.Set.cardinal oracle)
            (Tse_query.Engine.count db idx cls pred))
        [ ("scan", plain); ("age index", indexed) ])
    Expr.
      [
        ("age >= 0 and 3", attr "age" >= int 0 && three);
        ("3", three);
        ("age >= 0 and not 3", attr "age" >= int 0 && Not three);
        ("3 or age >= 0", three || attr "age" >= int 0);
      ]

(* Partial OCC commit. [Occ.commit] applied a session's buffered writes
   one [set_attr] at a time, so a session that wrote [o1.age 99] and then
   a non-integer age on [o2] raised [Type_error] with [o1.age] already 99
   and its heap ops waiting in [Durable]'s pending list for the next
   commit. Every write is now checked before any is applied: the raised
   commit leaves the database, the log and a reopen as they were. *)
let occ_partial_commit () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tse_regress_occ_%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end;
  Unix.mkdir dir 0o755;
  let uni = University.build () in
  let o1, o2 =
    match University.populate uni ~n:4 with
    | o1 :: o2 :: _ -> (o1, o2)
    | _ -> assert false
  in
  ignore
    (Tse_algebra.Ops.select uni.db ~name:"Adult" ~src:uni.person
       Expr.(attr "age" >= int 30));
  let image db =
    Durable.image_to_string ~seq:0
      ~schema:(Schema_codec.encode_graph (Database.graph db))
      ~exts:[] db
  in
  Out_channel.with_open_bin (Filename.concat dir "snapshot") (fun oc ->
      output_string oc (image uni.db));
  let d, _ = Durable.open_dir ~dir () in
  let db = Durable.db d in
  let before = image db in
  let s = Tse_concurrency.Occ.begin_session (Tse_concurrency.Occ.create db) in
  Tse_concurrency.Occ.write s o1 "age" (Value.Int 99);
  Tse_concurrency.Occ.write s o2 "age" (Value.String "not an int");
  (match Tse_concurrency.Occ.commit s with
  | _ -> Alcotest.fail "expected the nonconforming write to raise"
  | exception Expr.Type_error _ -> ());
  Alcotest.(check bool) "session closed" false (Tse_concurrency.Occ.is_active s);
  Alcotest.check
    (Alcotest.testable Value.pp Value.equal)
    "o1.age untouched" (Value.Int 18) (Database.get_prop db o1 "age");
  Alcotest.(check (list string)) "consistent" [] (Database.check db);
  let seq = Durable.seq d in
  Durable.commit d;
  Alcotest.(check int) "nothing pending to log" seq (Durable.seq d);
  Durable.close d;
  let d2, _ = Durable.open_dir ~dir () in
  Alcotest.(check bool) "reopen matches the image before the session" true
    (String.equal before (image (Durable.db d2)));
  Durable.close d2;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* A hash index keyed on structural equality. [Value.conforms] lets a
   [TFloat] attribute hold [Int 3], and [Expr.eval_cmp] says [Int 3 =
   Float 3.0], so [select x = 3.0] holds for the object; but the hash
   index filed it under [Int 3] and probed [Float 3.0], and the query
   returned 0 rows (plan "index lookup (hash) on x") where the scan and
   an ordered index returned 1. The hash backing now files an integral
   [Float] under its equal [Int]. *)
let float_key_hash () =
  let db = Database.create () in
  let cls =
    Schema_graph.register_base (Database.graph db) ~name:"N"
      ~props:[ Prop.stored ~origin:(Oid.of_int 0) "x" Value.TFloat ]
      ~supers:[]
  in
  let o = Database.create_object db cls ~init:[ ("x", Value.Int 3) ] in
  ignore (Database.create_object db cls ~init:[ ("x", Value.Float 3.5) ]);
  let pred = Expr.(Cmp (Eq, attr "x", Const (Value.Float 3.0))) in
  let answer idx = Tse_query.Engine.select db idx cls pred in
  let scan = Tse_query.Indexes.create db in
  Alcotest.(check bool) "scan returns the object" true
    (Oid.Set.equal (answer scan) (Oid.Set.singleton o));
  let idx = Tse_query.Indexes.create db in
  Tse_query.Indexes.ensure ~kind:Tse_query.Indexes.Hash idx cls "x";
  Alcotest.(check string) "hash plan" "index lookup (hash) on x"
    (Format.asprintf "%a" Tse_query.Engine.pp_plan
       (Tse_query.Engine.plan db idx cls pred));
  Alcotest.(check bool) "hash index returns the object" true
    (Oid.Set.equal (answer idx) (Oid.Set.singleton o));
  Tse_query.Indexes.ensure ~kind:Tse_query.Indexes.Ordered idx cls "x";
  Alcotest.(check string) "ordered plan" "index lookup (range) on x"
    (Format.asprintf "%a" Tse_query.Engine.pp_plan
       (Tse_query.Engine.plan db idx cls pred));
  Alcotest.(check bool) "ordered index returns the object" true
    (Oid.Set.equal (answer idx) (Oid.Set.singleton o))

(* A write that moves the object out of the class storing a later write.
   [Badged] refines the select [Adult] with [badge]. A session wrote
   [age := 5] and then [badge := 7] on a person aged 30: every write
   checked against the starting state, then [age := 5] moved the person
   out of [Adult] and [Badged], and [badge := 7] raised
   [Unknown_property "badge"] with [age = 5] applied. The commit now
   rejects that order before applying anything: the database, the
   object's stamp and the durable log are as they were. The other order
   commits. [store] builds the classes over [Person] and returns the one
   storing [later]. *)
let occ_write_order ~tag ~store ~later () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tse_regress_%s_%d" tag (Unix.getpid ()))
  in
  let clear () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  clear ();
  Unix.mkdir dir 0o755;
  let d, _ = Durable.open_dir ~dir () in
  let db = Durable.db d in
  let g = Database.graph db in
  let o0 = Oid.of_int 0 in
  let person =
    Schema_graph.register_base g ~name:"Person"
      ~props:[ Prop.stored ~origin:o0 "age" Value.TInt ]
      ~supers:[]
  in
  let adult =
    Tse_algebra.Ops.select db ~name:"Adult" ~src:person
      Expr.(attr "age" >= int 18)
  in
  let stored = store db ~person ~adult in
  let o = Database.create_object db person ~init:[ ("age", Value.Int 30) ] in
  Durable.commit d;
  let module Occ = Tse_concurrency.Occ in
  let occ = Occ.create db in
  let stamp = Database.object_version db o in
  let seq = Durable.seq d in
  let s = Occ.begin_session occ in
  Occ.write s o "age" (Value.Int 5);
  Occ.write s o later (Value.Int 7);
  (match Occ.commit s with
  | _ -> Alcotest.fail "expected the write order to be rejected"
  | exception Occ.Unsafe_write_order { obj; earlier; later = l } ->
    Alcotest.(check bool) "the object" true (Oid.equal obj o);
    Alcotest.(check (pair string string)) "the two attributes" ("age", later)
      (earlier, l));
  Alcotest.(check bool) "session closed" false (Occ.is_active s);
  Alcotest.check
    (Alcotest.testable Value.pp Value.equal)
    "age untouched" (Value.Int 30) (Database.get_prop db o "age");
  Alcotest.(check bool) "still stored" true (Database.is_member db o stored);
  Alcotest.(check int) "stamp unchanged" stamp (Database.object_version db o);
  Durable.commit d;
  Alcotest.(check int) "nothing pending to log" seq (Durable.seq d);
  Alcotest.(check (list string)) "consistent" [] (Database.check db);
  let s = Occ.begin_session occ in
  Occ.write s o later (Value.Int 7);
  Occ.write s o "age" (Value.Int 5);
  Alcotest.(check bool) "the other order commits" true (Occ.commit s = Ok ());
  Alcotest.(check bool) "no longer stored" false (Database.is_member db o stored);
  Alcotest.(check (list string)) "consistent after" [] (Database.check db);
  Durable.close d;
  clear ()

let occ_refine_write =
  occ_write_order ~tag:"occ_refine" ~later:"badge" ~store:(fun db ~person:_ ~adult ->
      Tse_algebra.Ops.refine db ~name:"Badged"
        ~props:[ Prop.stored ~origin:(Oid.of_int 0) "badge" Value.TInt ]
        ~src:adult)

(* The same loss one select further away. [Foo] selects the people in
   [Adult] through an [In_class] test, and [Bar] refines [Foo] with
   [bar]. The order check walked [Bar]'s derivation sources (Foo,
   Person) and never met [Adult], which [age] feeds: [age := 5] then
   [bar := 7] took the person out of [Adult], [Foo] and [Bar] and raised
   [Unknown_property "bar"] with the age write applied. The check now
   follows the selects observing a moved class. *)
let occ_in_class_write =
  occ_write_order ~tag:"occ_in_class" ~later:"bar" ~store:(fun db ~person ~adult:_ ->
      let foo =
        Tse_algebra.Ops.select db ~name:"Foo" ~src:person (Expr.In_class "Adult")
      in
      Tse_algebra.Ops.refine db ~name:"Bar"
        ~props:[ Prop.stored ~origin:(Oid.of_int 0) "bar" Value.TInt ]
        ~src:foo)

(* Partial object creation. [Database.create_object ~init] created and
   classified the object, then applied the init writes one [set_attr] at
   a time, so an init list whose second write did not conform raised
   [Type_error] with the object alive, its first write applied and its
   heap ops waiting in [Durable]'s pending list for the next commit. A
   write that raises now destroys the new object before the exception
   escapes: the count, the consistency check and a reopen are as they
   were before the call. *)
let create_init_partial () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tse_regress_create_%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end;
  Unix.mkdir dir 0o755;
  let uni = University.build () in
  ignore (University.populate uni ~n:4);
  Out_channel.with_open_bin (Filename.concat dir "snapshot") (fun oc ->
      output_string oc
        (Durable.image_to_string ~seq:0
           ~schema:(Schema_codec.encode_graph (Database.graph uni.db))
           ~exts:[] uni.db));
  let d, _ = Durable.open_dir ~dir () in
  let db = Durable.db d in
  let before = Verify.db_fingerprint db in
  (match
     Database.create_object db uni.person
       ~init:[ ("age", Value.Int 5); ("name", Value.Int 3) ]
   with
  | _ -> Alcotest.fail "expected the nonconforming name to raise"
  | exception Expr.Type_error _ -> ());
  Alcotest.(check int) "object count" 4 (Database.object_count db);
  Alcotest.(check (list string)) "consistent" [] (Database.check db);
  Durable.commit d;
  Durable.close d;
  let d2, _ = Durable.open_dir ~dir () in
  Alcotest.(check string) "reopen matches the state before the call" before
    (Verify.db_fingerprint (Durable.db d2));
  Durable.close d2;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* insert_class I575 between C3-C4, step 17 of the old-hierarchy
   property's change sequence at seed 763, passed the precheck and then
   raised [Ops.Error "hide: a6 is not defined for I575$r$16"] with 20
   classes created. The failing step was add_class's replay of C3's
   derivation over fresh base classes: C3 showed a6 only through an is-a
   edge the translator had drawn to another class, the replayed source
   had no such edge, and the replayed hide of a6 raised. A replayed hide
   now drops the properties its source does not show. The change is
   admitted, the database stays consistent, and the view equals the
   direct oracle's (Proposition A). *)
let insert_class_replay () =
  let seed = 763 in
  let run () =
    let s = Testkit.sequence seed in
    for i = 0 to 16 do
      match Testkit.step s (Testkit.change_at s i) with
      | Ok () -> ()
      | Error m -> Alcotest.failf "step %d: %s" i m
    done;
    (s, Testkit.change_at s 17)
  in
  let s, change = run () in
  Alcotest.(check string) "the replayed change"
    "insert_class I575 between C3-C4" (Change.to_string change);
  let view = Tsem.evolve_checked s.tsem (Tsem.precheck s.tsem ~view:"V" change) in
  Alcotest.(check (list string)) "consistent" [] (Database.check s.rs.db);
  let twin, _ = run () in
  let direct = Direct.apply twin.rs.db (Tsem.current twin.tsem "V") change in
  Alcotest.(check (list string)) "S'' = S'" []
    (Verify.diff_views (s.rs.db, view) (twin.rs.db, direct))

(* delete_edge phase A. Removing C_sub's instances from C_sup and its
   view ancestors, the translator restored to each such class v only the
   view classes below both v and C_sub (commonSub). A view subclass of v
   that held C_sub's objects through a class outside the view lost them
   from v', and the replacement hierarchy then hung that subclass below
   the shrunken v'. Seed 20 met it at step 9, delete_class_2 C0
   ("extent(C6') not a subset of extent(C0'')"); seeds 151 and 1385 at a
   plain delete_edge (steps 24 and 14). v' now gets back every greatest
   view class d below it once the edge is gone, as d ∩ C_sub unless d is
   below C_sub. Each whole 30-step sequence stays consistent. *)
let delete_edge_restore seed () =
  match sequence_fault seed with
  | None -> ()
  | Some what -> Alcotest.failf "seed %d, %s" seed what

(* Seed 20's failing step also equals the direct oracle (Proposition A). *)
let delete_edge_restore_direct () =
  let run () =
    let s = Testkit.sequence 20 in
    for i = 0 to 8 do
      ignore (Testkit.step s (Testkit.change_at s i))
    done;
    (s, Testkit.change_at s 9)
  in
  let s, change = run () in
  Alcotest.(check string) "the replayed change" "delete_class_2 C0"
    (Change.to_string change);
  let view = Tsem.evolve s.tsem ~view:"V" change in
  Alcotest.(check (list string)) "consistent" [] (Database.check s.rs.db);
  let twin, _ = run () in
  let direct = Direct.apply twin.rs.db (Tsem.current twin.tsem "V") change in
  Alcotest.(check (list string)) "S'' = S'" []
    (Verify.diff_views (s.rs.db, view) (twin.rs.db, direct))

(* A database image lists one slot per line, but a string value is
   length-prefixed and written raw, so it may hold a newline. The heap
   decoder split the image into lines first: a name with a newline cut
   its slot line in two, and the image of that database no longer
   loaded ("Value.decode: truncated string"). The decoder now reads each
   value in place and resumes after it. *)
let newline_in_string () =
  let uni = University.build () in
  let objs = University.populate uni ~n:4 in
  let o = List.hd objs in
  Database.set_attr uni.db o "name" (Value.String "two\nlines\n");
  let image =
    Durable.image_to_string ~seq:7
      ~schema:(Schema_codec.encode_graph (Database.graph uni.db))
      ~exts:[] uni.db
  in
  let seq, db, _ = Durable.image_of_string image in
  Alcotest.(check int) "seq" 7 seq;
  Alcotest.(check string) "the value survives"
    "two\nlines\n"
    (match Database.get_prop db o "name" with
    | Value.String s -> s
    | v -> Value.to_string v);
  Alcotest.(check string) "the database survives"
    (Verify.db_fingerprint uni.db) (Verify.db_fingerprint db)

(* The TSE_TRACE sink wrote through a buffered out_channel, which flushes
   whenever its buffer fills, mid-line. Two processes tracing to one file
   (dune runtest runs the test and regression binaries at once) then
   interleaved pieces of lines, and the trace held lines that were not
   JSON. The sink now buffers whole lines and hands each flushed chunk to
   one write on an O_APPEND descriptor. Two sinks on one file stand in
   for the two processes: each flushes several times while their emits
   interleave, and the file must parse with no damage and hold every
   line of both. *)
let trace_shared_file () =
  let module Trace = Tse_obs.Trace in
  let path = Filename.temp_file "tse_trace_shared" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let sinks = [| Trace.file_sink path; Trace.file_sink path |] in
      let per_sink = 3000 in
      for i = 0 to (2 * per_sink) - 1 do
        let emit, _ = sinks.(i mod 2) in
        (* uneven lengths, so chunk ends never line up between sinks *)
        emit
          (Printf.sprintf
             "{\"name\":\"shared.%d\",\"start_us\":%d,\"dur_us\":0,\"sid\":%d,\"attrs\":{\"pad\":\"%s\"}}"
             (i mod 2) i (i + 1)
             (String.make (i * 37 mod 113) 'x'))
      done;
      Array.iter (fun (_, flush) -> flush ()) sinks;
      let bytes = (Unix.stat path).Unix.st_size in
      Alcotest.(check bool) "emits crossed the flush size" true
        (bytes > 4 * 65536);
      match Trace.parse_file path with
      | Error msg -> Alcotest.fail ("parse_file: " ^ msg)
      | Ok (spans, damage) ->
        Alcotest.(check bool) "no damage" true (damage = None);
        Alcotest.(check int) "every line of both sinks" (2 * per_sink)
          (List.length spans);
        List.iter
          (fun sink ->
            let name = Printf.sprintf "shared.%d" sink in
            let sids =
              List.filter_map
                (fun s ->
                  if String.equal s.Trace.name name then Some s.Trace.sid
                  else None)
                spans
            in
            Alcotest.(check bool)
              (name ^ ": its lines in emit order")
              true
              (List.sort compare sids = sids && List.length sids = per_sink))
          [ 0; 1 ])

let () =
  let corpus =
    [
      Alcotest.test_case "seed 260 (delete_edge membership)" `Quick
        (expect_clean 260);
      Alcotest.test_case "seed 50 (delete_edge membership)" `Quick
        (expect_clean 50);
      Alcotest.test_case "seed 88 (delete_edge membership)" `Quick
        (expect_clean 88);
      Alcotest.test_case "seed 8041 (delete_edge membership)" `Quick
        (expect_clean 8041);
      Alcotest.test_case "seed 3153 (refine_from name collision)" `Quick
        (expect_clean 3153);
    ]
  in
  Alcotest.run "tse-regression"
    [
      ( "proposition-b-corpus",
        corpus
        @ gated_sweep "PROPB_SWEEP" ~fault:(fun seed ->
              match replay seed with
              | _, Clean -> None
              | _, outcome -> Some (pp_outcome outcome)) );
      ( "delete-edge-restore",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "seed %d: every step leaves the database consistent" seed)
              `Quick (delete_edge_restore seed))
          [ 20; 151; 1385 ]
        @ [
            Alcotest.test_case "seed 20: delete_class_2 C0 equals the direct oracle"
              `Quick delete_edge_restore_direct;
          ]
        @ gated_sweep "DELETE_EDGE_SWEEP" ~fault:sequence_fault );
      ( "listener-leak",
        [ Alcotest.test_case "dropped index sets stop maintaining" `Quick
            listener_leak ] );
      ( "delete-edge-reattach",
        [ Alcotest.test_case "connected_to keeps C_sub below the target"
            `Quick delete_edge_reattach ] );
      ( "durable-evolve",
        [ Alcotest.test_case "unknown view is an error, empty list too"
            `Quick unknown_view ] );
      ( "constant-conjunct",
        [ Alcotest.test_case "a non-boolean constant reads false everywhere"
            `Quick constant_conjunct ] );
      ( "occ-partial-commit",
        [ Alcotest.test_case "a raised commit applies none of its writes"
            `Quick occ_partial_commit ] );
      ( "float-key-hash",
        [ Alcotest.test_case "select x = 3.0 finds Int 3 through every path"
            `Quick float_key_hash ] );
      ( "occ-refine-write",
        [ Alcotest.test_case "a write order that loses its store is rejected"
            `Quick occ_refine_write ] );
      ( "occ-in-class-write",
        [ Alcotest.test_case "a loss through an In_class select is rejected"
            `Quick occ_in_class_write ] );
      ( "create-init-partial",
        [ Alcotest.test_case "a raised init write leaves no object" `Quick
            create_init_partial ] );
      ( "insert-class-replay",
        [ Alcotest.test_case "seed 763: a replayed hide drops what is not shown"
            `Quick insert_class_replay ] );
      ( "newline-in-string",
        [ Alcotest.test_case "an image with a newline in a string loads"
            `Quick newline_in_string ] );
      ( "trace-shared-file",
        [ Alcotest.test_case "two file sinks on one file keep lines whole"
            `Quick trace_shared_file ] );
    ]
