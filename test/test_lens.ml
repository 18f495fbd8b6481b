(* The lens-law harness: the static translatability verdicts of
   Tse_analysis.Lens checked against the real put path
   (Tse_update.Generic over Tse_db.Database).

   The lens frame: a view class's derivation is [get], Generic update
   propagation is [put]. The laws checked here:
   - PutGet — after a successful put through the view, the view shows
     exactly the written state: a created/added object is in the extent,
     written attribute values read back, and the consistency oracle
     (Database.check) is clean;
   - GetPut — putting back what get shows is a no-op: writing an
     attribute's current value is always accepted and changes nothing.

   The soundness oracle cross-validates the static verdicts:
   - Translatable  => the put is never rejected and the laws hold;
   - Conditional c => if the put is accepted, the laws hold and [c]
     evaluates true on the post-state object; a rejection is allowed
     (and must leave the database unchanged);
   - Rejected _    => no law obligation, but the database must stay
     consistent whatever the runtime does.

   A statically-Translatable update that fails a law at runtime is
   exactly the class of bug that pinned Proposition B for five PRs
   (DESIGN.md Section 15) — this harness is the tripwire. *)

open Tse_store
open Tse_schema
open Tse_db
open Tse_update
module Ops = Tse_algebra.Ops
module Lens = Tse_analysis.Lens
module University = Tse_workload.University

let o0 = Oid.of_int 0
let stored = Prop.stored ~origin:o0

let fresh_db () =
  let db = Database.create () in
  let reg name props supers =
    Schema_graph.register_base (Database.graph db) ~name ~props ~supers
  in
  (db, reg)

let classify db cid u = Lens.classify (Database.graph db) cid u

let check_verdict what expected got =
  Alcotest.(check string) what expected (Lens.verdict_to_string got)

let rejected_with code = function
  | Lens.Rejected c -> String.equal c code
  | Lens.Translatable | Lens.Conditional _ -> false

let conditional = function Lens.Conditional _ -> true | _ -> false

let expect_generic_rejected what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Generic.Rejected" what
  | exception Generic.Rejected _ -> ()

let check_clean db what =
  Alcotest.(check (list string)) (what ^ ": consistency oracle clean") []
    (Database.check db)

(* ---------------- crafted verdicts per operator ---------------- *)

let test_select_verdicts () =
  let db, reg = fresh_db () in
  let b = reg "B" [ stored "a" Value.TInt; stored "s" Value.TString ] [] in
  let pred = Expr.(attr "a" >= int 5) in
  let v = Ops.select db ~name:"V" ~src:b pred in
  check_verdict "create through select" "conditional on (a >= 5)"
    (classify db v Lens.Create);
  check_verdict "add through select" "conditional on (a >= 5)"
    (classify db v Lens.Add);
  check_verdict "delete through select" "translatable"
    (classify db v Lens.Delete);
  check_verdict "remove through select" "translatable"
    (classify db v Lens.Remove);
  check_verdict "set of predicate-read attr" "conditional on (a >= 5)"
    (classify db v (Lens.Set "a"));
  check_verdict "set of unread attr" "translatable"
    (classify db v (Lens.Set "s"));
  (* the translator's identity selects: a constant-true predicate
     imposes no condition *)
  let id = Ops.select db ~name:"Vid" ~src:b (Expr.bool true) in
  check_verdict "create through identity select" "translatable"
    (classify db id Lens.Create)

let test_select_false_e123 () =
  let db, reg = fresh_db () in
  let b = reg "B" [ stored "a" Value.TInt ] [] in
  let v = Ops.select db ~name:"Empty" ~src:b (Expr.bool false) in
  Alcotest.(check bool) "create rejected E123" true
    (rejected_with "E123" (classify db v Lens.Create));
  Alcotest.(check bool) "add rejected E123" true
    (rejected_with "E123" (classify db v Lens.Add));
  Alcotest.(check bool) "set rejected E123" true
    (rejected_with "E123" (classify db v (Lens.Set "a")));
  (* runtime agreement: no create can land in the empty view *)
  expect_generic_rejected "create through Empty" (fun () ->
      Generic.create db v ~init:[ ("a", Value.Int 1) ]);
  check_clean db "after rejected create"

let test_hide_e120 () =
  let db, reg = fresh_db () in
  let b =
    reg "B"
      [ stored "a" Value.TInt; stored ~required:true "key" Value.TInt ]
      []
  in
  let v = Ops.hide db ~name:"NoKey" ~props:[ "key" ] ~src:b in
  (* create cannot initialise the required, default-less hidden attr *)
  Alcotest.(check bool) "create rejected E120" true
    (rejected_with "E120" (classify db v Lens.Create));
  (* a set of the hidden attr could never be read back through the view *)
  Alcotest.(check bool) "set hidden rejected E120" true
    (rejected_with "E120" (classify db v (Lens.Set "key")));
  (* adding an existing object needs no initialiser: translatable *)
  check_verdict "add through hide" "translatable" (classify db v Lens.Add);
  check_verdict "set visible attr" "translatable"
    (classify db v (Lens.Set "a"));
  (* runtime agreement: the required hidden attribute is not assignable
     through the view, so every create is refused *)
  expect_generic_rejected "create without key" (fun () ->
      Generic.create db v ~init:[ ("a", Value.Int 1) ]);
  expect_generic_rejected "create with key" (fun () ->
      Generic.create db v ~init:[ ("key", Value.Int 1) ]);
  (* with a default the hidden attr is initialisable: translatable *)
  let b2 =
    reg "B2" [ stored ~default:(Value.Int 0) ~required:true "k2" Value.TInt ] []
  in
  let v2 = Ops.hide db ~name:"NoK2" ~props:[ "k2" ] ~src:b2 in
  check_verdict "hide of defaulted attr" "translatable"
    (classify db v2 Lens.Create)

let test_union_w212 () =
  let db, reg = fresh_db () in
  let a = reg "A" [ stored "x" Value.TInt ] [] in
  let b = reg "B" [ stored "x" Value.TInt ] [] in
  ignore b;
  let u = Ops.union db ~name:"U" a (Schema_graph.find_by_name_exn
                                      (Database.graph db) "B").Klass.cid in
  check_verdict "create through union targets first operand"
    "conditional on in_class(A)" (classify db u Lens.Create);
  check_verdict "add through union" "conditional on in_class(A)"
    (classify db u Lens.Add);
  check_verdict "remove through union" "translatable"
    (classify db u Lens.Remove);
  (* runtime agreement with the Section 6.5.4 rule: the created object
     lands in the first operand *)
  let o = Generic.create db u ~init:[ ("x", Value.Int 1) ] in
  Alcotest.(check bool) "in first operand" true (Database.is_member db o a);
  Alcotest.(check bool) "in union" true (Database.is_member db o u);
  check_clean db "after union create"

let test_intersect_transitive () =
  let db, reg = fresh_db () in
  let b = reg "B" [ stored "a" Value.TInt; stored "c" Value.TInt ] [] in
  let s1 = Ops.select db ~name:"S1" ~src:b Expr.(attr "a" >= int 5) in
  let s2 = Ops.select db ~name:"S2" ~src:b Expr.(attr "c" < int 3) in
  let i = Ops.intersect db ~name:"I" s1 s2 in
  (* verdicts are transitive over the derivation chain: the intersect
     inherits both select conditions *)
  check_verdict "create through intersect of selects"
    "conditional on ((a >= 5) and (c < 3))" (classify db i Lens.Create);
  Alcotest.(check bool) "set a conditional" true
    (conditional (classify db i (Lens.Set "a")));
  Alcotest.(check bool) "set c conditional" true
    (conditional (classify db i (Lens.Set "c")));
  (* runtime agreement *)
  let o =
    Generic.create db i ~init:[ ("a", Value.Int 9); ("c", Value.Int 0) ]
  in
  Alcotest.(check bool) "in intersect" true (Database.is_member db o i);
  expect_generic_rejected "create violating one conjunct" (fun () ->
      Generic.create db i ~init:[ ("a", Value.Int 9); ("c", Value.Int 9) ]);
  check_clean db "after intersect updates"

let test_intersect_conflict_e121 () =
  let db, reg = fresh_db () in
  (* same attribute name, two distinct property identities *)
  let a = reg "A" [ stored "x" Value.TInt ] [] in
  let b = reg "B" [ stored "x" Value.TInt ] [] in
  let i = Ops.intersect db ~name:"I" a b in
  Alcotest.(check bool) "create rejected E121" true
    (rejected_with "E121" (classify db i Lens.Create));
  Alcotest.(check bool) "set of ambiguous name rejected E121" true
    (rejected_with "E121" (classify db i (Lens.Set "x")))

let test_difference_verdicts () =
  let db, reg = fresh_db () in
  let b0 = reg "B0" [ stored "a" Value.TInt ] [] in
  let b1 = reg "B1" [ stored "b" Value.TInt ] [] in
  let b2 = reg "B2" [ stored "c" Value.TInt ] [ b0 ] in
  let d = Ops.difference db ~name:"D" b0 b1 in
  check_verdict "create through difference" "conditional on not(in_class(B1))"
    (classify db d Lens.Create);
  check_verdict "remove through difference" "translatable"
    (classify db d Lens.Remove);
  (* subtrahend is an ancestor of the minuend: statically empty *)
  let e = Ops.difference db ~name:"E" b2 b0 in
  Alcotest.(check bool) "create rejected E122" true
    (rejected_with "E122" (classify db e Lens.Create));
  Alcotest.(check bool) "add rejected E122" true
    (rejected_with "E122" (classify db e Lens.Add));
  (* runtime agreement: a create through the empty difference is undone
     by get, so the Reject policy refuses it *)
  expect_generic_rejected "create through empty difference" (fun () ->
      Generic.create db e ~init:[ ("a", Value.Int 1); ("c", Value.Int 2) ]);
  check_clean db "after difference updates"

let test_membership_reads_methods () =
  let db, reg = fresh_db () in
  let b =
    reg "B"
      [
        stored "base_pay" Value.TInt;
        stored "bonus" Value.TInt;
        stored "other" Value.TInt;
        Prop.method_ ~origin:o0 "pay"
          Expr.(Arith (Add, attr "base_pay", attr "bonus"));
      ]
      []
  in
  let v = Ops.select db ~name:"WellPaid" ~src:b Expr.(attr "pay" >= int 100) in
  let g = Database.graph db in
  Alcotest.(check (list string))
    "membership reads expand the method body"
    [ "base_pay"; "bonus" ]
    (Lens.membership_reads g v);
  (* setting an attribute the predicate reads only through the derived
     method is still conditional *)
  Alcotest.(check bool) "set base_pay conditional (W211)" true
    (conditional (classify db v (Lens.Set "base_pay")));
  check_verdict "set unread attr" "translatable"
    (classify db v (Lens.Set "other"))

let test_entries_and_json () =
  let db, reg = fresh_db () in
  let b = reg "B" [ stored "a" Value.TInt; stored "s" Value.TString ] [] in
  let v = Ops.select db ~name:"V" ~src:b Expr.(attr "a" >= int 5) in
  let g = Database.graph db in
  let entries = Lens.class_entries g v in
  (* four membership updates plus the one interesting set *)
  Alcotest.(check int) "entry count" 5 (List.length entries);
  let find u =
    List.find (fun (e : Lens.entry) -> e.Lens.update = u) entries
  in
  let create = find Lens.Create in
  Alcotest.(check string) "operator" "select" create.Lens.operator;
  (match create.Lens.diag with
  | Some d ->
      Alcotest.(check string) "conditional diagnostic code" "W210"
        d.Tse_analysis.Diagnostic.code
  | None -> Alcotest.fail "conditional entry carries a diagnostic");
  let json = Lens.entry_to_json create in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "json has %s" needle)
        true
        (let nl = String.length needle and hl = String.length json in
         let rec go i =
           i + nl <= hl && (String.sub json i nl = needle || go (i + 1))
         in
         go 0))
    [ "\"class\":\"V\""; "\"update\":\"create\""; "\"verdict\":\"conditional\"";
      "\"condition\":\"(a >= 5)\"" ];
  (* the report embeds the entries, sorted by class then update *)
  let report = Tse_analysis.Analysis.analyze g in
  Alcotest.(check int) "report lens entries" 5
    (List.length report.Tse_analysis.Analysis.lens)

(* ---------------- deterministic GetPut/PutGet units ---------------- *)

let test_laws_select_roundtrip () =
  let u = University.build () in
  let adult =
    Ops.select u.db ~name:"Adult" ~src:u.person Expr.(attr "age" >= int 18)
  in
  let o = Generic.create u.db adult ~init:[ ("age", Value.Int 30) ] in
  (* PutGet: the view shows exactly the written state *)
  Alcotest.(check bool) "PutGet: member" true (Database.is_member u.db o adult);
  Alcotest.(check bool) "PutGet: value" true
    (Value.equal (Value.Int 30) (Database.get_prop u.db o "age"));
  (* GetPut: writing back the current value changes nothing *)
  let before = Database.member_classes u.db o in
  Generic.set ~through:adult u.db [ o ] [ ("age", Database.get_prop u.db o "age") ];
  Alcotest.(check bool) "GetPut: membership unchanged" true
    (List.for_all (fun c -> Database.is_member u.db o c) before
    && List.length before = List.length (Database.member_classes u.db o));
  (* an evicting write is rolled back whole (Conditional verdict, the
     condition fails on the post-state, so the put must not commit) *)
  expect_generic_rejected "evicting set" (fun () ->
      Generic.set ~through:adult u.db [ o ] [ ("age", Value.Int 10) ]);
  Alcotest.(check bool) "rollback restored the slot" true
    (Value.equal (Value.Int 30) (Database.get_prop u.db o "age"));
  check_clean u.db "after roundtrips"

(* ---------------- the qcheck soundness oracle ---------------- *)

(* Random schemas: three base classes and a random stack of derivation
   operators over them; random updates of every kind against every
   derived class, each checked against its static verdict. *)

let random_value rng = function
  | Value.TInt -> Value.Int (Random.State.int rng 20 - 5)
  | Value.TFloat -> Value.Float (float_of_int (Random.State.int rng 10))
  | Value.TString ->
      Value.String (Printf.sprintf "v%d" (Random.State.int rng 5))
  | Value.TBool -> Value.Bool (Random.State.bool rng)
  | _ -> Value.Null

let random_init rng g cid =
  List.filter_map
    (fun (p : Prop.t) ->
      match p.Prop.body with
      | Prop.Stored { ty; _ } -> Some (p.Prop.name, random_value rng ty)
      | Prop.Method _ -> None)
    (Type_info.stored_attrs g cid)

let random_pred rng g src =
  let ints =
    List.filter
      (fun (p : Prop.t) ->
        match p.Prop.body with
        | Prop.Stored { ty = Value.TInt; _ } -> true
        | _ -> false)
      (Type_info.stored_attrs g src)
  in
  match ints with
  | [] -> Expr.bool true
  | _ ->
      let pick () =
        let p = List.nth ints (Random.State.int rng (List.length ints)) in
        let k = Expr.int (Random.State.int rng 12 - 3) in
        if Random.State.bool rng then Expr.(attr p.Prop.name >= k)
        else Expr.(attr p.Prop.name < k)
      in
      let c = pick () in
      if Random.State.int rng 3 = 0 then Expr.(c && pick ()) else c

let build_random_schema rng =
  let db, reg = fresh_db () in
  let b0 =
    reg "B0" [ stored "a" Value.TInt; stored "s" Value.TString ] []
  in
  let b1 = reg "B1" [ stored "b" Value.TInt ] [] in
  let b2 = reg "B2" [ stored "c" Value.TInt ] [ b0 ] in
  let g = Database.graph db in
  let classes = ref [ b0; b1; b2 ] in
  let derived = ref [] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let n_ops = 1 + Random.State.int rng 3 in
  for i = 0 to n_ops - 1 do
    let name = Printf.sprintf "D%d" i in
    match
      (match Random.State.int rng 8 with
      | 0 | 1 | 2 ->
          let src = pick !classes in
          Some (Ops.select db ~name ~src (random_pred rng g src))
      | 3 ->
          let src = pick !classes in
          let hideable =
            List.filter
              (fun (p : Prop.t) ->
                match p.Prop.body with
                | Prop.Stored { required; _ } -> not required
                | Prop.Method _ -> false)
              (Type_info.stored_attrs g src)
          in
          if hideable = [] then None
          else
            Some
              (Ops.hide db ~name
                 ~props:[ (pick hideable).Prop.name ]
                 ~src)
      | 4 ->
          let src = pick !classes in
          Some
            (Ops.refine db ~name
               ~props:
                 [
                   Prop.stored ~default:(Value.Int 0) ~origin:o0
                     (Printf.sprintf "r%d" i) Value.TInt;
                 ]
               ~src)
      | 5 -> Some (Ops.union db ~name (pick !classes) (pick !classes))
      | 6 -> Some (Ops.intersect db ~name (pick !classes) (pick !classes))
      | _ -> Some (Ops.difference db ~name (pick !classes) (pick !classes))
      [@warning "-57"])
    with
    | Some cid ->
        classes := cid :: !classes;
        derived := cid :: !derived
    | None -> ()
    | exception _ ->
        (* the algebra refused the operands (duplicate class, invalid
           predicate, ...): skip this operator *)
        ()
  done;
  (* population through the base classes *)
  for _ = 1 to 8 do
    let b = pick [ b0; b1; b2 ] in
    ignore (Generic.create db b ~init:(random_init rng g b))
  done;
  (db, List.rev !derived)

let fail_law fmt = Printf.ksprintf (fun m -> Alcotest.fail m) fmt

let assert_clean db what =
  match Database.check db with
  | [] -> ()
  | probs -> fail_law "%s: oracle found %s" what (String.concat "; " probs)

let cond_holds db o cond =
  match Expr.eval_bool (Database.env db o) cond with
  | b -> b
  | exception _ -> false

(* One update attempt, checked against its static verdict. [run] performs
   the put and returns the object to check the laws on; [laws] receives
   it on success. *)
let check_update db what verdict ~run ~laws =
  match run () with
  | o -> begin
      laws o;
      assert_clean db what;
      match verdict with
      | Lens.Translatable -> ()
      | Lens.Conditional cond ->
          if not (cond_holds db o cond) then
            fail_law
              "%s: accepted but the side-condition %s is false on the \
               post-state"
              what (Expr.to_string cond)
      | Lens.Rejected _ ->
          (* the runtime may still accept (e.g. a set of a hidden slot):
             no law obligation beyond consistency *)
          ()
    end
  | exception Generic.Rejected _ -> begin
      assert_clean db (what ^ " (rejected)");
      match verdict with
      | Lens.Translatable ->
          fail_law "%s: statically Translatable but rejected at runtime" what
      | Lens.Conditional _ | Lens.Rejected _ -> ()
    end

let exercise_class rng db t =
  let g = Database.graph db in
  let name = Schema_graph.name_of g t in
  (* create *)
  let init = random_init rng g t in
  check_update db
    (Printf.sprintf "create through %s" name)
    (classify db t Lens.Create)
    ~run:(fun () -> Generic.create db t ~init)
    ~laws:(fun o ->
      if not (Database.is_member db o t) then
        fail_law "create through %s: PutGet broken, object not in extent"
          name;
      List.iter
        (fun (n, v) ->
          if not (Value.equal v (Database.get_prop db o n)) then
            fail_law "create through %s: PutGet broken, %s does not read back"
              name n)
        init);
  (* add: an object of the first origin base *)
  (match Generic.origin_bases db t with
  | base :: _ ->
      let o =
        match Database.extent_list db base with
        | o :: _ -> o
        | [] -> Generic.create db base ~init:(random_init rng g base)
      in
      check_update db
        (Printf.sprintf "add to %s" name)
        (classify db t Lens.Add)
        ~run:(fun () ->
          Generic.add db [ o ] t;
          o)
        ~laws:(fun o ->
          if not (Database.is_member db o t) then
            fail_law "add to %s: PutGet broken, object not in extent" name)
  | [] -> ());
  (* set / GetPut / remove / delete against a member, when one exists *)
  match Database.extent_list db t with
  | [] -> ()
  | o :: _ -> begin
      (match Type_info.stored_attrs g t with
      | [] -> ()
      | attrs ->
          let p = List.nth attrs (Random.State.int rng (List.length attrs)) in
          let ty =
            match p.Prop.body with
            | Prop.Stored { ty; _ } -> ty
            | Prop.Method _ -> assert false
          in
          let attr = p.Prop.name in
          (* GetPut: writing the current value back is a no-op *)
          let current = Database.get_prop db o attr in
          let members_before = Database.member_classes db o in
          (match
             Generic.set ~through:t db [ o ] [ (attr, current) ]
           with
          | () ->
              if
                not
                  (List.length members_before
                   = List.length (Database.member_classes db o)
                  && List.for_all
                       (fun c -> Database.is_member db o c)
                       members_before)
              then
                fail_law "set %s.%s: GetPut broken, no-op write moved the \
                          object" name attr
          | exception Generic.Rejected _ ->
              fail_law "set %s.%s: GetPut broken, no-op write rejected" name
                attr);
          (* PutGet on a random value *)
          let v = random_value rng ty in
          let old = Database.get_prop db o attr in
          check_update db
            (Printf.sprintf "set %s.%s" name attr)
            (classify db t (Lens.Set attr))
            ~run:(fun () ->
              Generic.set ~through:t db [ o ] [ (attr, v) ];
              o)
            ~laws:(fun o ->
              if not (Value.equal v (Database.get_prop db o attr)) then
                fail_law "set %s.%s: PutGet broken, value does not read back"
                  name attr;
              if not (Database.is_member db o t) then
                fail_law "set %s.%s: accepted but evicted from the view"
                  name attr);
          (match Generic.set ~through:t db [ o ] [ (attr, old) ] with
          | () -> ()
          | exception Generic.Rejected _ -> ()));
      (* remove, then delete on whatever member remains *)
      check_update db
        (Printf.sprintf "remove from %s" name)
        (classify db t Lens.Remove)
        ~run:(fun () ->
          Generic.remove db [ o ] t;
          o)
        ~laws:(fun o ->
          if Database.is_member db o t then
            fail_law "remove from %s: PutGet broken, object still in extent"
              name);
      match Database.extent_list db t with
      | [] -> ()
      | o :: _ ->
          check_update db
            (Printf.sprintf "delete through %s" name)
            (classify db t Lens.Delete)
            ~run:(fun () ->
              Generic.delete db [ o ];
              o)
            ~laws:(fun o ->
              if Database.mem_object db o then
                fail_law "delete through %s: object survived" name)
    end

let prop_lens_soundness =
  QCheck.Test.make ~count:120 ~name:"lens verdicts sound vs Generic (laws)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 77 |] in
      let db, derived = build_random_schema rng in
      assert_clean db "after schema build";
      List.iter (fun t -> exercise_class rng db t) derived;
      true)

let suite =
  [
    Alcotest.test_case "select: verdict table" `Quick test_select_verdicts;
    Alcotest.test_case "select false: E123" `Quick test_select_false_e123;
    Alcotest.test_case "hide: E120" `Quick test_hide_e120;
    Alcotest.test_case "union: W212 (Section 6.5.4)" `Quick test_union_w212;
    Alcotest.test_case "intersect: transitive conditions" `Quick
      test_intersect_transitive;
    Alcotest.test_case "intersect: E121 conflict" `Quick
      test_intersect_conflict_e121;
    Alcotest.test_case "difference: W213 and E122" `Quick
      test_difference_verdicts;
    Alcotest.test_case "membership reads expand methods" `Quick
      test_membership_reads_methods;
    Alcotest.test_case "entries and JSON shape" `Quick test_entries_and_json;
    Alcotest.test_case "GetPut/PutGet roundtrip units" `Quick
      test_laws_select_roundtrip;
    Qcheck_det.to_alcotest prop_lens_soundness;
  ]
