(* Tests for the optimistic-concurrency session layer. *)

open Tse_store
open Tse_db
open Tse_concurrency

let check = Alcotest.check
let vpp = Alcotest.testable Value.pp Value.equal

let fixture () =
  let u = Tse_workload.University.build () in
  let occ = Occ.create u.db in
  let o =
    Database.create_object u.db u.student
      ~init:[ ("name", Value.String "ada"); ("age", Value.Int 20) ]
  in
  (u, occ, o)

let test_commit_applies_writes () =
  let u, occ, o = fixture () in
  let s = Occ.begin_session occ in
  check vpp "read through session" (Value.Int 20) (Occ.read s o "age");
  Occ.write s o "age" (Value.Int 21);
  (* buffered: not yet visible outside *)
  check vpp "invisible before commit" (Value.Int 20) (Database.get_prop u.db o "age");
  (* ... but visible to the session itself *)
  check vpp "own write visible" (Value.Int 21) (Occ.read s o "age");
  (match Occ.commit s with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "unexpected conflict");
  check vpp "applied" (Value.Int 21) (Database.get_prop u.db o "age");
  Alcotest.(check bool) "session closed" false (Occ.is_active s)

let test_first_committer_wins () =
  let _u, occ, o = fixture () in
  let s1 = Occ.begin_session occ in
  let s2 = Occ.begin_session occ in
  ignore (Occ.read s1 o "age");
  ignore (Occ.read s2 o "age");
  Occ.write s1 o "age" (Value.Int 30);
  Occ.write s2 o "age" (Value.Int 40);
  (match Occ.commit s1 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first committer must succeed");
  match Occ.commit s2 with
  | Ok () -> Alcotest.fail "second committer must conflict"
  | Error { objects } ->
    check Alcotest.int "conflicting object reported" 1 (List.length objects)

let test_disjoint_sessions_both_commit () =
  let u, occ, o = fixture () in
  let o2 =
    Database.create_object u.db u.student ~init:[ ("age", Value.Int 30) ]
  in
  let s1 = Occ.begin_session occ in
  let s2 = Occ.begin_session occ in
  Occ.write s1 o "age" (Value.Int 21);
  Occ.write s2 o2 "age" (Value.Int 31);
  Alcotest.(check bool) "s1 commits" true (Result.is_ok (Occ.commit s1));
  Alcotest.(check bool) "s2 commits (disjoint)" true (Result.is_ok (Occ.commit s2))

let test_direct_update_invalidates_reader () =
  let u, occ, o = fixture () in
  let s = Occ.begin_session occ in
  ignore (Occ.read s o "age");
  (* a non-session program writes directly *)
  Database.set_attr u.db o "age" (Value.Int 99);
  Occ.write s o "name" (Value.String "eve");
  match Occ.commit s with
  | Ok () -> Alcotest.fail "stale read must conflict"
  | Error _ -> ()

let test_read_only_session_never_conflicts_itself () =
  let u, occ, o = fixture () in
  ignore u;
  let s = Occ.begin_session occ in
  ignore (Occ.read s o "age");
  ignore (Occ.read s o "name");
  check Alcotest.int "one object in read set" 1 (Occ.reads s);
  Alcotest.(check bool) "read-only commits" true (Result.is_ok (Occ.commit s))

let test_abort_discards () =
  let u, occ, o = fixture () in
  let s = Occ.begin_session occ in
  Occ.write s o "age" (Value.Int 77);
  Occ.abort s;
  check vpp "nothing applied" (Value.Int 20) (Database.get_prop u.db o "age");
  try
    ignore (Occ.read s o "age");
    Alcotest.fail "finished session must not be reusable"
  with Invalid_argument _ -> ()

let test_write_skew_excluded () =
  (* classic write skew: s1 reads x writes y, s2 reads y writes x; under
     our scheme writes join the read set, so one of them must abort *)
  let u, occ, _ = fixture () in
  let x = Database.create_object u.db u.person ~init:[ ("age", Value.Int 1) ] in
  let y = Database.create_object u.db u.person ~init:[ ("age", Value.Int 1) ] in
  let s1 = Occ.begin_session occ in
  let s2 = Occ.begin_session occ in
  ignore (Occ.read s1 x "age");
  Occ.write s1 y "age" (Value.Int 0);
  ignore (Occ.read s2 y "age");
  Occ.write s2 x "age" (Value.Int 0);
  let r1 = Occ.commit s1 and r2 = Occ.commit s2 in
  Alcotest.(check bool) "not both committed" false
    (Result.is_ok r1 && Result.is_ok r2)

let test_sessions_across_schema_change () =
  (* a session reading through an old view is invalidated by a conflicting
     write even when the writer goes through an evolved view *)
  let u = Tse_workload.University.build () in
  let occ = Occ.create u.db in
  let tsem = Tse_core.Tsem.of_database u.db in
  ignore (Tse_core.Tsem.define_view_by_names tsem ~name:"VS" [ "Person"; "Student" ]);
  let o = Database.create_object u.db u.student ~init:[ ("age", Value.Int 20) ] in
  let s = Occ.begin_session occ in
  ignore (Occ.read s o "age");
  ignore
    (Tse_core.Tsem.evolve tsem ~view:"VS"
       (Tse_core.Change.Add_attribute
          { cls = "Student"; def = Tse_core.Change.attr "email" Value.TString }));
  (* the new-view program updates the shared object *)
  Database.set_attr u.db o "email" (Value.String "a@x");
  Occ.write s o "age" (Value.Int 21);
  match Occ.commit s with
  | Ok () -> Alcotest.fail "expected conflict across the schema change"
  | Error _ -> ()

let test_retry_first_attempt () =
  let u, occ, o = fixture () in
  let v, attempt =
    Occ.commit_with_retry occ (fun s ->
        let age = Occ.read s o "age" in
        Occ.write s o "age" (Value.Int 21);
        age)
  in
  check vpp "body result returned" (Value.Int 20) v;
  check Alcotest.int "no conflicts" 1 attempt;
  check vpp "write applied" (Value.Int 21) (Database.get_prop u.db o "age")

let test_retry_after_conflict () =
  let u, occ, o = fixture () in
  let tries = ref 0 in
  let v, attempt =
    Occ.commit_with_retry ~backoff:0. occ (fun s ->
        incr tries;
        let age = Occ.read s o "age" in
        (* a rival commits between our read and our commit — once *)
        if !tries = 1 then Database.set_attr u.db o "age" (Value.Int 50);
        Occ.write s o "name" (Value.String "eve");
        age)
  in
  check Alcotest.int "committed on the retry" 2 attempt;
  (* the retry re-read through a fresh session and saw the rival's write *)
  check vpp "fresh read on retry" (Value.Int 50) v;
  check vpp "write applied" (Value.String "eve")
    (Database.get_prop u.db o "name")

let test_retry_gives_up () =
  let u, occ, o = fixture () in
  let tries = ref 0 in
  (try
     ignore
       (Occ.commit_with_retry ~attempts:3 ~backoff:0. occ (fun s ->
            incr tries;
            ignore (Occ.read s o "age");
            (* every attempt loses the race *)
            Database.set_attr u.db o "age" (Value.Int (100 + !tries));
            Occ.write s o "name" (Value.String "never")));
     Alcotest.fail "expected Too_many_conflicts"
   with Occ.Too_many_conflicts { objects } ->
     check Alcotest.int "conflicting object reported" 1 (List.length objects));
  check Alcotest.int "bounded attempts" 3 !tries;
  check vpp "no attempt's write leaked" (Value.String "ada")
    (Database.get_prop u.db o "name")

let test_retry_exhausted_counter () =
  let _u, occ, o = fixture () in
  let before = Tse_obs.Metrics.find_counter "occ.retry_exhausted" in
  (try
     ignore
       (Occ.commit_with_retry ~attempts:2 ~backoff:0. occ (fun s ->
            ignore (Occ.read s o "age");
            Database.set_attr _u.db o "age" (Value.Int 1);
            Occ.write s o "name" (Value.String "never")));
     Alcotest.fail "expected Too_many_conflicts"
   with Occ.Too_many_conflicts _ -> ());
  check Alcotest.int "occ.retry_exhausted bumped once" (before + 1)
    (Tse_obs.Metrics.find_counter "occ.retry_exhausted")

(* Retry schedules are a pure function of the supplied jitter state: two
   runs with equal seeds commit on the same attempt, and an explicit
   state isolates the test from the process-wide default. *)
let test_retry_jitter_seeded () =
  let run seed =
    let u, occ, o = fixture () in
    let tries = ref 0 in
    let _, attempt =
      Occ.commit_with_retry ~backoff:0.0001
        ~jitter:(Random.State.make [| seed |])
        occ
        (fun s ->
          incr tries;
          ignore (Occ.read s o "age");
          if !tries <= 2 then Database.set_attr u.db o "age" (Value.Int !tries);
          Occ.write s o "name" (Value.String "jit"))
    in
    attempt
  in
  check Alcotest.int "same seed, same schedule" (run 11) (run 11);
  check Alcotest.int "conflicts resolved on third attempt" 3 (run 12)

let test_retry_propagates_exceptions () =
  let _u, occ, o = fixture () in
  let tries = ref 0 in
  (try
     ignore
       (Occ.commit_with_retry occ (fun s ->
            incr tries;
            ignore (Occ.read s o "age");
            failwith "body blew up"));
     Alcotest.fail "expected the body's exception"
   with Failure m -> check Alcotest.string "original exception" "body blew up" m);
  check Alcotest.int "no retry on exception" 1 !tries

let test_retry_commits_through_durable () =
  (* winners of the OCC race flow to the durable layer through the sync
     policy: Manual buffers the batch until an explicit barrier, and the
     write survives a close/reopen afterwards *)
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tse_occ_durable_%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end;
  let module Durable = Tse_db.Durable in
  let d, _ = Durable.open_dir ~policy:Durable.Manual ~dir () in
  let db = Durable.db d in
  let person =
    Tse_schema.Schema_graph.register_base (Database.graph db) ~name:"Person"
      ~props:[ Tse_schema.Prop.stored ~origin:(Oid.of_int 0) "age" Value.TInt ]
      ~supers:[]
  in
  let o = Database.create_object db person ~init:[ ("age", Value.Int 1) ] in
  let occ = Occ.create db in
  let v, attempt =
    Occ.commit_with_retry ~durable:d occ (fun s ->
        let age = Occ.read s o "age" in
        Occ.write s o "age" (Value.Int 2);
        age)
  in
  check vpp "body result" (Value.Int 1) v;
  check Alcotest.int "first attempt" 1 attempt;
  (* the winning commit was forwarded, but Manual defers the barrier *)
  check Alcotest.int "buffered under Manual" 1 (Durable.unsynced_commits d);
  Durable.sync d;
  check Alcotest.int "barrier drains the group" 0 (Durable.unsynced_commits d);
  Durable.close d;
  let d2, _ = Durable.open_dir ~dir () in
  check vpp "write survived reopen" (Value.Int 2)
    (Database.get_prop (Durable.db d2) o "age");
  Durable.close d2

(* All or nothing. Random sessions on a populated University with an
   age-driven select class [Adult], a refine [Badged] of it that stores
   [badge], a select [Foo] of the people in [Adult] (an [In_class] test)
   and a refine [Bar] of [Foo] that stores [bar] mix valid writes with
   nonconforming values, a method name, unknown attributes and [badge]
   and [bar] writes. A [badge] ([bar]) write is valid when the object is
   in [Badged] ([Bar]) and no earlier write of the session sets its age,
   which could move it out of that class ([Occ.Unsafe_write_order]).
   A commit either raises with none of its writes visible, or returns
   with all of them (a later age write may move the object out of
   [Badged] and [Bar], which drops the badge and the bar); the database
   stays consistent either way, and a reader of a failed commit's object
   still validates. *)
type write_kind = Age | Name | Gpa | Bad_age | Method | Unknown | Badge | Bar

let prop_commit_all_or_nothing =
  let kind_gen =
    QCheck.Gen.frequencyl
      [
        (3, Age); (1, Name); (1, Gpa); (1, Bad_age); (1, Method); (1, Unknown);
        (2, Badge); (2, Bar);
      ]
  in
  (* half the writes of a session go to one object, so an age write and
     a later badge or bar write often meet *)
  let session_gen =
    QCheck.Gen.(
      int_bound 11 >>= fun focus ->
      list_size (int_range 1 5)
        (triple (oneof [ int_bound 11; return focus ]) kind_gen (int_bound 80)))
  in
  let print_write (i, k, n) =
    let what =
      match k with
      | Age -> "age"
      | Name -> "name"
      | Gpa -> "gpa"
      | Bad_age -> "age:string"
      | Method -> "method"
      | Unknown -> "nosuch"
      | Badge -> "badge"
      | Bar -> "bar"
    in
    Printf.sprintf "o%d.%s=%d" i what n
  in
  let print sessions =
    String.concat " | "
      (List.map (fun ws -> String.concat " " (List.map print_write ws)) sessions)
  in
  QCheck.Test.make ~name:"an OCC commit is all or nothing" ~count:100
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 1 6) session_gen))
    (fun sessions ->
      let u = Tse_workload.University.build () in
      let db = u.db in
      Tse_schema.Schema_graph.add_local_prop (Database.graph db) u.person
        (Tse_schema.Prop.method_ ~origin:u.person "next_age"
           (Tse_schema.Expr.int 1));
      let objs = Array.of_list (Tse_workload.University.populate u ~n:12) in
      (* half the people start as adults, so in Badged and Bar *)
      Array.iteri
        (fun i o -> if i mod 2 = 0 then Database.set_attr db o "age" (Value.Int (30 + i)))
        objs;
      let adult =
        Tse_algebra.Ops.select db ~name:"Adult" ~src:u.person
          Tse_schema.Expr.(attr "age" >= int 30)
      in
      let badged =
        Tse_algebra.Ops.refine db ~name:"Badged"
          ~props:[ Tse_schema.Prop.stored ~origin:adult "badge" Value.TInt ]
          ~src:adult
      in
      let foo =
        Tse_algebra.Ops.select db ~name:"Foo" ~src:u.person
          (Tse_schema.Expr.In_class "Adult")
      in
      let bar =
        Tse_algebra.Ops.refine db ~name:"Bar"
          ~props:[ Tse_schema.Prop.stored ~origin:foo "bar" Value.TInt ]
          ~src:foo
      in
      let occ = Occ.create db in
      let peek o name =
        match Database.get_prop db o name with
        | v -> Some v
        | exception _ -> None
      in
      let write_of earlier (i, k, n) =
        let o = objs.(i) in
        let name, v =
          match k with
          | Age -> ("age", Value.Int n)
          | Name -> ("name", Value.String (Printf.sprintf "n%d" n))
          | Gpa -> ("gpa", Value.Float (float_of_int n /. 20.))
          | Bad_age -> ("age", Value.String "not an int")
          | Method -> ("next_age", Value.Int n)
          | Unknown -> ("nosuch", Value.Int n)
          | Badge -> ("badge", Value.Int n)
          | Bar -> ("bar", Value.Int n)
        in
        let valid =
          match k with
          | Age | Name -> true
          | Gpa -> Database.is_member db o u.student
          | Bad_age | Method | Unknown -> false
          | Badge | Bar ->
            Database.is_member db o (if k = Badge then badged else bar)
            && not
                 (List.exists
                    (fun (i', k', _) -> i' = i && (k' = Age || k' = Bad_age))
                    earlier)
        in
        (o, name, v, valid)
      in
      List.for_all
        (fun ws ->
          let ws = List.mapi (fun j w -> write_of (List.filteri (fun j' _ -> j' < j) ws) w) ws in
          let before = List.map (fun (o, name, _, _) -> peek o name) ws in
          let s = Occ.begin_session occ in
          List.iter (fun (o, name, v, _) -> Occ.write s o name v) ws;
          let reader = Occ.begin_session occ in
          (match ws with
          | (o, _, _, _) :: _ -> ignore (Occ.read reader o "age")
          | [] -> ());
          let committed =
            match Occ.commit s with
            | Ok () -> true
            | Error _ -> QCheck.Test.fail_report "unexpected conflict"
            | exception _ -> false
          in
          (* the newest write of each (object, name) is what a commit
             leaves visible *)
          let newest o name =
            List.fold_left
              (fun acc (o', n, v, _) ->
                if Oid.equal o o' && String.equal n name then Some v else acc)
              None ws
          in
          let visible =
            if committed then
              List.for_all Fun.id
                (List.mapi
                   (fun j (o, name, _, _) ->
                     Option.equal Value.equal (peek o name) (newest o name)
                     || List.mem name [ "badge"; "bar" ]
                        && List.exists
                             (fun (o', name', _, _) ->
                               Oid.equal o o' && String.equal name' "age")
                             (List.filteri (fun j' _ -> j' > j) ws))
                   ws)
            else
              List.for_all2
                (fun (o, name, _, _) was ->
                  Option.equal Value.equal (peek o name) was)
                ws before
          in
          let reader_validates = Result.is_ok (Occ.commit reader) in
          Bool.equal committed (List.for_all (fun (_, _, _, ok) -> ok) ws)
          && visible
          && (not (Occ.is_active s))
          && Database.check db = []
          && (committed || reader_validates))
        sessions)

(* All or nothing over random schemas. [Random_schema] draws bases and
   selects (some with [In_class] tests); each select [V<i>] gets a
   refine [R<i>] storing [r<i>], and a select [O<i>] of the root base's
   members in [V<i>] gets a refine [RO<i>] storing [ro<i>], so a write
   can move the object out of a class storing a later write's attribute
   directly or through an observer. Sessions write random attributes of
   one object that resolve for it, with values of their declared types.
   A commit that raises leaves every attribute of every object and every
   stamp as it was. *)
let prop_commit_all_or_nothing_random =
  let module Rs = Tse_workload.Random_schema in
  let module Prop = Tse_schema.Prop in
  let session_gen =
    QCheck.Gen.(
      pair (int_bound 1000)
        (list_size (int_range 2 5) (pair (int_bound 1000) (int_bound 99))))
  in
  let print (seed, sessions) =
    Printf.sprintf "seed %d: %s" seed
      (String.concat " | "
         (List.map
            (fun (o, ws) ->
              Printf.sprintf "o%d %s" o
                (String.concat " "
                   (List.map (fun (a, v) -> Printf.sprintf "#%d=%d" a v) ws)))
            sessions))
  in
  QCheck.Test.make ~name:"an OCC commit over a random schema is all or nothing"
    ~count:150
    (QCheck.make ~print
       QCheck.Gen.(pair (int_bound 10_000) (list_size (int_range 1 8) session_gen)))
    (fun (seed, sessions) ->
      let rs = Rs.generate ~seed ~classes:6 ~objects:16 ~virtuals:6 () in
      let db = rs.db in
      let g = Database.graph db in
      let root_base = List.hd rs.classes in
      let refine name attr src =
        Tse_algebra.Ops.refine db ~name
          ~props:[ Prop.stored ~origin:src attr Value.TInt ]
          ~src
        |> ignore
      in
      List.iteri
        (fun i v ->
          refine (Printf.sprintf "R%d" i) (Printf.sprintf "r%d" i) v;
          let observer =
            Tse_algebra.Ops.select db ~name:(Printf.sprintf "O%d" i) ~src:root_base
              (Tse_schema.Expr.In_class (Tse_schema.Schema_graph.name_of g v))
          in
          refine (Printf.sprintf "RO%d" i) (Printf.sprintf "ro%d" i) observer)
        rs.virtuals;
      (* every stored attribute name with its declared type *)
      let attrs =
        List.concat_map
          (fun (k : Tse_schema.Klass.t) ->
            List.filter_map
              (fun (p : Prop.t) ->
                match p.body with
                | Prop.Stored { ty; _ } -> Some (p.name, ty)
                | Prop.Method _ -> None)
              k.local_props)
          (Tse_schema.Schema_graph.classes g)
        |> List.sort_uniq compare |> Array.of_list
      in
      let objs = Array.of_list (Database.objects db) in
      let value ty n =
        match ty with
        | Value.TInt -> Value.Int n
        | Value.TBool -> Value.Bool (n mod 2 = 0)
        | _ -> Value.String (Printf.sprintf "v%d" n)
      in
      let snapshot () =
        Array.map
          (fun o ->
            ( Database.object_version db o,
              Array.map
                (fun (a, _) ->
                  match Database.get_prop db o a with
                  | v -> Some v
                  | exception _ -> None)
                attrs ))
          objs
      in
      let occ = Occ.create db in
      List.for_all
        (fun (oi, ws) ->
          let o = objs.(oi mod Array.length objs) in
          (* the attributes that resolve for the object *)
          let usable =
            Array.of_list
              (List.filter
                 (fun (a, _) ->
                   match Database.get_prop db o a with
                   | _ -> true
                   | exception _ -> false)
                 (Array.to_list attrs))
          in
          let s = Occ.begin_session occ in
          List.iter
            (fun (ai, n) ->
              let a, ty = usable.(ai mod Array.length usable) in
              Occ.write s o a (value ty n))
            ws;
          let before = snapshot () in
          let unchanged =
            match Occ.commit s with
            | Ok () -> true
            | Error _ -> QCheck.Test.fail_report "unexpected conflict"
            | exception _ -> snapshot () = before
          in
          unchanged && Database.check db = [])
        sessions)

(* A base-membership edit is a committed change of the object: a
   session that read and wrote it must fail validation, after an add and
   again after a remove. *)
let test_base_edit_invalidates_session () =
  let u, occ, o = fixture () in
  let stale edit =
    let s = Occ.begin_session occ in
    ignore (Occ.read s o "age");
    Occ.write s o "age" (Value.Int 22);
    edit ();
    Result.is_error (Occ.commit s)
  in
  Alcotest.(check bool) "add_base_membership conflicts" true
    (stale (fun () -> Database.add_base_membership u.db o u.staff));
  Alcotest.(check bool) "remove_base_membership conflicts" true
    (stale (fun () -> Database.remove_base_membership u.db o u.staff));
  check vpp "neither stale write applied" (Value.Int 20)
    (Database.get_prop u.db o "age")

let suite =
  [
    Alcotest.test_case "commit applies buffered writes" `Quick
      test_commit_applies_writes;
    Alcotest.test_case "first committer wins" `Quick test_first_committer_wins;
    Alcotest.test_case "disjoint sessions both commit" `Quick
      test_disjoint_sessions_both_commit;
    Alcotest.test_case "direct update invalidates reader" `Quick
      test_direct_update_invalidates_reader;
    Alcotest.test_case "read-only session commits" `Quick
      test_read_only_session_never_conflicts_itself;
    Alcotest.test_case "abort discards" `Quick test_abort_discards;
    Alcotest.test_case "write skew excluded" `Quick test_write_skew_excluded;
    Alcotest.test_case "conflicts across schema evolution" `Quick
      test_sessions_across_schema_change;
    Alcotest.test_case "retry: clean first attempt" `Quick
      test_retry_first_attempt;
    Alcotest.test_case "retry: succeeds after conflict" `Quick
      test_retry_after_conflict;
    Alcotest.test_case "retry: bounded attempts" `Quick test_retry_gives_up;
    Alcotest.test_case "retry: exhaustion counted" `Quick
      test_retry_exhausted_counter;
    Alcotest.test_case "retry: jitter is seeded" `Quick
      test_retry_jitter_seeded;
    Alcotest.test_case "retry: exceptions propagate" `Quick
      test_retry_propagates_exceptions;
    Alcotest.test_case "retry: winners reach the durable layer" `Quick
      test_retry_commits_through_durable;
    Qcheck_det.to_alcotest prop_commit_all_or_nothing;
    Qcheck_det.to_alcotest prop_commit_all_or_nothing_random;
    Alcotest.test_case "base-membership edits invalidate sessions" `Quick
      test_base_edit_invalidates_session;
  ]
