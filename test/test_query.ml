(* Tests for maintained indexes and the query engine. *)

open Tse_store
open Tse_schema
open Tse_db
open Tse_query

let check = Alcotest.check
let uni () = Tse_workload.University.build ()

(* probes of the index a handle selected on (class, attr), if any *)
let lookup idx cid attr v =
  Option.map (fun ix -> Index.lookup ix v) (Indexes.find idx cid attr)

let range_lookup idx cid attr ~lo ~hi =
  Option.map (Index.range ~lo ~hi) (Indexes.find idx cid attr)

let fixture () =
  let u = uni () in
  let idx = Indexes.create u.db in
  ignore (Tse_workload.University.populate u ~n:30);
  (u, idx)

let test_index_build_and_lookup () =
  let u, idx = fixture () in
  Indexes.ensure idx u.person "age";
  Alcotest.(check bool) "indexed" true (Indexes.indexed idx u.person "age");
  let some_age =
    match Database.get_prop u.db (List.hd (Database.extent_list u.db u.person)) "age" with
    | v -> v
  in
  let hits = Option.get (lookup idx u.person "age" some_age) in
  Alcotest.(check bool) "non-empty lookup" true (not (Oid.Set.is_empty hits));
  (* all hits genuinely carry the value *)
  Oid.Set.iter
    (fun o ->
      Alcotest.(check bool) "hit has value" true
        (Value.equal (Database.get_prop u.db o "age") some_age))
    hits;
  Alcotest.(check bool) "overhead accounted" true (Indexes.overhead_bytes idx > 0)

let test_index_maintenance () =
  let u, idx = fixture () in
  Indexes.ensure idx u.person "age";
  let o = Database.create_object u.db u.person ~init:[ ("age", Value.Int 999) ] in
  (* creation indexed *)
  check Alcotest.int "new object indexed" 1
    (Oid.Set.cardinal (Option.get (lookup idx u.person "age" (Value.Int 999))));
  (* update moves the entry *)
  Database.set_attr u.db o "age" (Value.Int 998);
  check Alcotest.int "old key empty" 0
    (Oid.Set.cardinal (Option.get (lookup idx u.person "age" (Value.Int 999))));
  check Alcotest.int "new key hit" 1
    (Oid.Set.cardinal (Option.get (lookup idx u.person "age" (Value.Int 998))));
  (* destruction unindexes *)
  Database.destroy_object u.db o;
  check Alcotest.int "destroyed unindexed" 0
    (Oid.Set.cardinal (Option.get (lookup idx u.person "age" (Value.Int 998))))

let test_index_on_virtual_class () =
  (* indexes work on select classes too: membership changes maintain them *)
  let u, idx = fixture () in
  let adult =
    Tse_algebra.Ops.select u.db ~name:"Adult" ~src:u.person
      Expr.(attr "age" >= int 18)
  in
  Indexes.ensure idx adult "age";
  let o = Database.create_object u.db u.person ~init:[ ("age", Value.Int 50) ] in
  check Alcotest.int "adult indexed" 1
    (Oid.Set.cardinal (Option.get (lookup idx adult "age" (Value.Int 50))));
  (* leaving the class unindexes, without destroying the object *)
  Database.set_attr u.db o "age" (Value.Int 10);
  check Alcotest.int "left the class" 0
    (Oid.Set.cardinal (Option.get (lookup idx adult "age" (Value.Int 10))))

let test_engine_plans () =
  let u, idx = fixture () in
  Indexes.ensure idx u.person "age";
  let p1 = Engine.plan u.db idx u.person Expr.(attr "age" === int 30) in
  (match p1 with
  | Engine.Index_lookup { attr = "age"; kind = Indexes.Hash; residual = false } -> ()
  | _ -> Alcotest.fail "expected pure index lookup");
  let p2 =
    Engine.plan u.db idx u.person
      Expr.(attr "age" === int 30 && (attr "name" <> str "x"))
  in
  (match p2 with
  | Engine.Index_lookup { attr = "age"; kind = Indexes.Hash; residual = true } -> ()
  | _ -> Alcotest.fail "expected index + residual");
  let p3 = Engine.plan u.db idx u.person Expr.(attr "age" >= int 30) in
  (match p3 with
  | Engine.Extent_scan -> ()
  | _ -> Alcotest.fail "ranges scan");
  let p4 = Engine.plan u.db idx u.person Expr.(attr "name" === str "x") in
  match p4 with
  | Engine.Extent_scan -> ()
  | _ -> Alcotest.fail "unindexed attr scans"

let test_planner_prefers_selective_index () =
  (* two usable equality indexes: the planner must pick the one with the
     higher key cardinality, not merely the first conjunct in predicate
     order — first-pick and best-pick scan different candidate counts *)
  let u = uni () in
  let idx = Indexes.create u.db in
  for i = 0 to 11 do
    ignore
      (Database.create_object u.db u.person
         ~init:
           [
             ("name", Value.String (Printf.sprintf "p%d" i));
             ("age", Value.Int 30);
             ("ssn", Value.Int (7000 + i));
           ])
  done;
  Indexes.ensure idx u.person "age";
  Indexes.ensure idx u.person "ssn";
  check Alcotest.(option int) "age index has one key" (Some 1)
    (Indexes.key_cardinality idx u.person "age");
  check Alcotest.(option int) "ssn index has twelve keys" (Some 12)
    (Indexes.key_cardinality idx u.person "ssn");
  (* the low-cardinality conjunct comes FIRST in the predicate *)
  let pred = Expr.(attr "age" === int 30 && (attr "ssn" === int 7003)) in
  (match Engine.plan u.db idx u.person pred with
  | Engine.Index_lookup { attr = "ssn"; kind = Indexes.Hash; residual = true } -> ()
  | p ->
    Alcotest.failf "expected ssn lookup + residual, got %a" Engine.pp_plan p);
  (* the choice matters: the rejected first conjunct enumerates the whole
     population, the selected one touches a single bucket *)
  let candidates a v =
    Oid.Set.cardinal (Option.get (lookup idx u.person a v))
  in
  check Alcotest.int "first-pick candidates" 12 (candidates "age" (Value.Int 30));
  check Alcotest.int "best-pick candidates" 1
    (candidates "ssn" (Value.Int 7003));
  let hits = Engine.select u.db idx u.person pred in
  check Alcotest.int "one match" 1 (Oid.Set.cardinal hits)

let test_engine_results_agree () =
  let u, idx = fixture () in
  Indexes.ensure idx u.person "age";
  let preds =
    Expr.
      [
        attr "age" === int 30;
        attr "age" === int 30 && (attr "ssn" > int 10010);
        attr "age" >= int 40;
        bool false;
      ]
  in
  List.iter
    (fun pred ->
      let indexed = Engine.select u.db idx u.person pred in
      (* ground truth: a plain scan *)
      let scanned =
        Oid.Set.filter (fun o -> Database.holds u.db o pred)
          (Database.extent u.db u.person)
      in
      Alcotest.(check bool)
        (Format.asprintf "results agree for %a" Expr.pp pred)
        true
        (Oid.Set.equal indexed scanned))
    preds

let test_engine_after_evolution () =
  (* the engine keeps working on the primed classes a schema change makes *)
  let u, idx = fixture () in
  let tsem = Tse_core.Tsem.of_database u.db in
  ignore (Tse_core.Tsem.define_view_by_names tsem ~name:"VS" [ "Person"; "Student" ]);
  let v1 =
    Tse_core.Tsem.evolve tsem ~view:"VS"
      (Tse_core.Change.Add_attribute
         { cls = "Student"; def = Tse_core.Change.attr "credits" Value.TInt })
  in
  let student' = Tse_views.View_schema.cid_of_exn v1 "Student" in
  Indexes.ensure idx student' "credits";
  let o =
    Tse_update.Generic.create u.db student'
      ~init:[ ("credits", Value.Int 12); ("age", Value.Int 20) ]
  in
  let hits = Engine.select u.db idx student' Expr.(attr "credits" === int 12) in
  Alcotest.(check bool) "indexed select on evolved class" true
    (Oid.Set.mem o hits);
  Alcotest.(check (list string)) "consistent" [] (Database.check u.db)

(* --- range indexes ------------------------------------------------------- *)

let test_range_index_lookup_and_maintenance () =
  let u, idx = fixture () in
  Indexes.ensure ~kind:Indexes.Ordered idx u.person "age";
  check Alcotest.(option (of_pp Fmt.nop)) "ordered kind"
    (Some Indexes.Ordered)
    (Indexes.kind_of idx u.person "age");
  let range ~lo ~hi = Option.get (range_lookup idx u.person "age" ~lo ~hi) in
  let scan_range lo_incl hi_excl =
    Oid.Set.filter
      (fun o ->
        match Database.get_prop u.db o "age" with
        | Value.Int a -> a >= lo_incl && a < hi_excl
        | _ -> false)
      (Database.extent u.db u.person)
  in
  (* boxed window [20, 40) *)
  let boxed =
    range ~lo:(Some (Value.Int 20, true)) ~hi:(Some (Value.Int 40, false))
  in
  Alcotest.(check bool) "boxed window" true
    (Oid.Set.equal boxed (scan_range 20 40));
  (* one-sided: everything >= 40 *)
  let above = range ~lo:(Some (Value.Int 40, true)) ~hi:None in
  Alcotest.(check bool) "open upper side" true
    (Oid.Set.equal above (scan_range 40 max_int));
  (* equality probes still answered by the ordered backing *)
  (match lookup idx u.person "age" (Value.Int 30) with
  | Some hits ->
    Oid.Set.iter
      (fun o ->
        Alcotest.(check bool) "eq probe exact" true
          (Value.equal (Database.get_prop u.db o "age") (Value.Int 30)))
      hits
  | None -> Alcotest.fail "ordered index must answer equality probes");
  (* maintenance: writes move entries between keys *)
  let o = Database.create_object u.db u.person ~init:[ ("age", Value.Int 77) ] in
  let at v =
    Option.get
      (range_lookup idx u.person "age" ~lo:(Some (Value.Int v, true))
         ~hi:(Some (Value.Int v, true)))
  in
  Alcotest.(check bool) "new object in range" true (Oid.Set.mem o (at 77));
  Database.set_attr u.db o "age" (Value.Int 78);
  Alcotest.(check bool) "moved off old key" false (Oid.Set.mem o (at 77));
  Alcotest.(check bool) "moved to new key" true (Oid.Set.mem o (at 78));
  Database.destroy_object u.db o;
  Alcotest.(check bool) "destroyed unindexed" false (Oid.Set.mem o (at 78))

let test_range_plan_and_explain () =
  let u, idx = fixture () in
  Indexes.ensure ~kind:Indexes.Ordered idx u.person "age";
  let pred = Expr.(attr "age" >= int 25 && (attr "age" < int 35)) in
  let ex, hits = Engine.select_explain u.db idx u.person pred in
  (match ex.Engine.ex_plan with
  | Engine.Range_scan { attr = "age"; _ } -> ()
  | p -> Alcotest.failf "expected range scan, got %a" Engine.pp_plan p);
  check Alcotest.(option string) "chosen index" (Some "age")
    ex.Engine.chosen_index;
  Alcotest.(check bool) "conjunct order reported" true
    (List.length ex.Engine.conjunct_order = 2);
  let scanned =
    Oid.Set.filter (fun o -> Database.holds u.db o pred)
      (Database.extent u.db u.person)
  in
  Alcotest.(check bool) "range results == scan results" true
    (Oid.Set.equal hits scanned);
  (* candidates for the boxed window stay below the full extent *)
  Alcotest.(check bool) "index pruned the scan" true
    (ex.Engine.rows_scanned
    < Oid.Set.cardinal (Database.extent u.db u.person))

(* --- planner units: sargable extraction and index-vs-scan ---------------- *)

let test_sarg_extraction () =
  let module C = Tse_query.Compile in
  (match C.sarg_of Expr.(attr "age" === int 30) with
  | Some (C.Sarg_eq ("age", Value.Int 30)) -> ()
  | _ -> Alcotest.fail "eq sarg");
  (match C.sarg_of Expr.(attr "age" >= int 21) with
  | Some (C.Sarg_cmp ("age", Expr.Ge, Value.Int 21)) -> ()
  | _ -> Alcotest.fail "range sarg");
  (* constant on the left flips the comparison onto the attribute *)
  (match C.sarg_of Expr.(int 21 < attr "age") with
  | Some (C.Sarg_cmp ("age", Expr.Gt, Value.Int 21)) -> ()
  | _ -> Alcotest.fail "flipped range sarg");
  (match C.sarg_of Expr.(int 30 === attr "age") with
  | Some (C.Sarg_eq ("age", Value.Int 30)) -> ()
  | _ -> Alcotest.fail "flipped eq sarg");
  (* not sargable: attr-attr, arithmetic, inequality *)
  Alcotest.(check bool) "attr-attr not sargable" true
    (C.sarg_of Expr.(attr "age" < attr "ssn") = None);
  Alcotest.(check bool) "arith not sargable" true
    (C.sarg_of Expr.(Arith (Add, attr "age", int 1) === int 30) = None);
  Alcotest.(check bool) "Ne not sargable" true
    (C.sarg_of Expr.(attr "age" <> int 30) = None)

let test_index_vs_scan_choice () =
  (* an ancestor index whose estimated bucket exceeds the queried extent
     must lose to the extent scan *)
  let u = uni () in
  let idx = Indexes.create u.db in
  for i = 0 to 49 do
    ignore
      (Database.create_object u.db u.person
         ~init:[ ("name", Value.String (Printf.sprintf "p%d" i)); ("age", Value.Int 30) ])
  done;
  (* a tiny derived class: 5 members *)
  let five =
    Tse_algebra.Ops.select u.db ~name:"FiveNames" ~src:u.person
      Expr.(attr "name" < str "p13")
  in
  Alcotest.(check int) "five members" 5 (Oid.Set.cardinal (Database.extent u.db five));
  Indexes.ensure idx u.person "age";
  (* every Person has age 30: the pushed-down bucket estimate (50) dwarfs
     the 5-object extent *)
  (match Engine.plan u.db idx five Expr.(attr "age" === int 30) with
  | Engine.Extent_scan -> ()
  | p -> Alcotest.failf "expected extent scan, got %a" Engine.pp_plan p);
  (* but a selective ancestor index wins *)
  Indexes.ensure idx u.person "name";
  (match Engine.plan u.db idx five Expr.(attr "name" === str "p7") with
  | Engine.Index_lookup { attr = "name"; _ } -> ()
  | p -> Alcotest.failf "expected name lookup, got %a" Engine.pp_plan p)

let test_pushdown_through_selects () =
  let u, idx = fixture () in
  let adult =
    Tse_algebra.Ops.select u.db ~name:"Adult" ~src:u.person
      Expr.(attr "age" >= int 18)
  in
  Indexes.ensure idx u.person "ssn";
  let some_adult = Oid.Set.min_elt (Database.extent u.db adult) in
  let ssn = Database.get_prop u.db some_adult "ssn" in
  let pred = Expr.(attr "ssn" === Expr.Const ssn) in
  let ex, hits = Engine.select_explain u.db idx adult pred in
  (match ex.Engine.ex_plan with
  | Engine.Index_lookup { attr = "ssn"; _ } -> ()
  | p -> Alcotest.failf "expected pushed-down ssn lookup, got %a" Engine.pp_plan p);
  check Alcotest.int "pushed one derivation level" 1 ex.Engine.pushdown_depth;
  let scanned =
    Oid.Set.filter (fun o -> Database.holds u.db o pred)
      (Database.extent u.db adult)
  in
  Alcotest.(check bool) "pushdown results == scan results" true
    (Oid.Set.equal hits scanned);
  Alcotest.(check bool) "found the adult" true (Oid.Set.mem some_adult hits)

(* --- a query after an evolution sees the new schema -------------------- *)

let test_select_sees_evolved_schema () =
  let u, idx = fixture () in
  let agrees name cls pred =
    let oracle =
      Oid.Set.filter (fun o -> Database.holds u.db o pred) (Database.extent u.db cls)
    in
    let got = Engine.select u.db idx cls pred in
    Alcotest.(check bool) (name ^ ": select == oracle") true (Oid.Set.equal got oracle);
    check Alcotest.int (name ^ ": count == oracle") (Oid.Set.cardinal oracle)
      (Engine.count u.db idx cls pred);
    got
  in
  let age = Expr.(attr "age" >= int 21) in
  let badge = Expr.(attr "badge" === int 7) in
  let before = agrees "age, before" u.person age in
  Alcotest.(check bool) "no badge before the evolution" true
    (Oid.Set.is_empty (agrees "badge, before" u.person badge));
  let stamp0 = Schema_graph.version (Database.graph u.db) in
  (* evolve the queried class: the new version of Person carries badge *)
  let tsem = Tse_core.Tsem.of_database u.db in
  ignore (Tse_core.Tsem.define_view_by_names tsem ~name:"VQ" [ "Person" ]);
  let v =
    Tse_core.Tsem.evolve tsem ~view:"VQ"
      (Tse_core.Change.Add_attribute
         { cls = "Person"; def = Tse_core.Change.attr "badge" Value.TInt })
  in
  Alcotest.(check bool) "schema state moved" true
    (Schema_graph.version (Database.graph u.db) > stamp0);
  let person' = Tse_views.View_schema.cid_of_exn v "Person" in
  List.iteri
    (fun i o -> if i mod 3 = 0 then Database.set_attr u.db o "badge" (Value.Int 7))
    (Database.extent_list u.db person');
  Alcotest.(check bool) "badge visible after the evolution" false
    (Oid.Set.is_empty (agrees "badge, after" person' badge));
  ignore (agrees "badge on the base class, after" u.person badge);
  let after = agrees "age, after" u.person age in
  Alcotest.(check bool) "same members satisfy the age predicate" true
    (Oid.Set.equal before after)

(* --- count without materialization --------------------------------------- *)

let test_count_agrees_with_select () =
  let u, idx = fixture () in
  Indexes.ensure idx u.person "age";
  Indexes.ensure ~kind:Indexes.Ordered idx u.person "ssn";
  let preds =
    Expr.
      [
        attr "age" === int 30; (* hash probe *)
        attr "ssn" >= int 10005 && (attr "ssn" < int 10020); (* range scan *)
        attr "age" >= int 40; (* extent scan *)
        bool false;
      ]
  in
  List.iter
    (fun pred ->
      check Alcotest.int
        (Format.asprintf "count == |select| for %a" Expr.pp pred)
        (Oid.Set.cardinal (Engine.select u.db idx u.person pred))
        (Engine.count u.db idx u.person pred))
    preds

(* --- compiled == interpreted (property) ---------------------------------- *)

let gen_pred st sch cls =
  let module RS = Tse_workload.Random_schema in
  let attr_leaf () =
    let name =
      if Random.State.int st 8 = 0 then "ghost_attr"
      else
        match RS.random_attr st sch cls with
        | Some a -> a
        | None -> "ghost_attr"
    in
    let const =
      match Random.State.int st 4 with
      | 0 -> Expr.int (Random.State.int st 50)
      | 1 -> Expr.str "x"
      | 2 -> Expr.bool (Random.State.bool st)
      | _ -> Expr.Const Value.Null
    in
    let a = Expr.attr name in
    match Random.State.int st 6 with
    | 0 -> Expr.(a === const)
    | 1 -> Expr.(a < const)
    | 2 -> Expr.(a >= const)
    | 3 -> Expr.(a <> const)
    | 4 -> Expr.Is_null a
    | _ -> Expr.(Arith (Add, a, int 1) > const)
  in
  let class_leaf () =
    let name =
      match RS.class_names sch with
      | [] -> "Ghost"
      | names -> List.nth names (Random.State.int st (List.length names))
    in
    Expr.In_class name
  in
  let rec go depth =
    if depth = 0 then if Random.State.int st 5 = 0 then class_leaf () else attr_leaf ()
    else
      match Random.State.int st 5 with
      | 0 -> Expr.(go (depth - 1) && go (depth - 1))
      | 1 -> Expr.(go (depth - 1) || go (depth - 1))
      | 2 -> Expr.Not (go (depth - 1))
      | 3 -> Expr.If (go (depth - 1), go (depth - 1), go (depth - 1))
      | _ -> go 0
  in
  go (1 + Random.State.int st 3)

let prop_compiled_matches_interpreted =
  QCheck.Test.make ~name:"compiled predicate == interpreted oracle" ~count:40
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000))
    (fun seed ->
      let module RS = Tse_workload.Random_schema in
      let st = Random.State.make [| seed |] in
      let sch =
        RS.generate ~seed ~classes:6 ~attrs_per_class:3 ~objects:40 ~virtuals:3
          ()
      in
      let db = sch.RS.db in
      (* the engine against the oracle: select and count *)
      let engine_agrees idx cls pred =
        let oracle =
          Oid.Set.filter (fun o -> Database.holds db o pred) (Database.extent db cls)
        in
        let ex, got = Engine.select_explain db idx cls pred in
        let n = Engine.count db idx cls pred in
        if not (Oid.Set.equal got oracle && n = Oid.Set.cardinal oracle) then
          QCheck.Test.fail_reportf "%a on %a: select %d rows, count %d, oracle %d"
            Engine.pp_plan ex.Engine.ex_plan Expr.pp pred (Oid.Set.cardinal got) n
            (Oid.Set.cardinal oracle)
      in
      (* an index on one attribute of [cls] (a sargable one of [pred] when
         it has one), and a leaf that probes it with a value a member holds *)
      let index_for cls pred =
        let idx = Indexes.create db in
        let sargable =
          List.find_map
            (fun c ->
              match Compile.sarg_of c with
              | Some (Compile.Sarg_eq (a, _) | Compile.Sarg_cmp (a, _, _)) -> Some a
              | None -> None)
            (Expr_compile.conjuncts pred)
        in
        let attr = if sargable = None then RS.random_attr st sch cls else sargable in
        let leaf a kind =
          match Oid.Set.choose_opt (Database.extent db cls) with
          | None -> None
          | Some o -> (
            match Database.get_prop db o a with
            | v ->
              let op = if kind = Indexes.Hash then Expr.Eq else Expr.Ge in
              Some (Expr.Cmp (op, Expr.attr a, Expr.Const v))
            | exception _ -> None)
        in
        let probe =
          Option.bind attr (fun a ->
              let kind = if Random.State.bool st then Indexes.Hash else Indexes.Ordered in
              match Indexes.ensure ~kind idx cls a with
              | () -> leaf a kind
              | exception Invalid_argument _ -> None)
        in
        (idx, probe)
      in
      List.iter
        (fun _ ->
          let cls = RS.random_class st sch in
          let pred = gen_pred st sch cls in
          let compiled = Database.compile_pred db pred in
          Oid.Set.iter
            (fun o ->
              let interpreted = Database.holds db o pred in
              if compiled o <> interpreted then
                QCheck.Test.fail_reportf
                  "compiled %b <> interpreted %b for %a on %s" (compiled o)
                  interpreted Expr.pp pred (Oid.to_string o))
            (Database.extent db cls);
          (* no index: the extent scan; then the index, and a probe of it
             whose residual is the whole predicate *)
          engine_agrees (Indexes.create db) cls pred;
          let idx, probe = index_for cls pred in
          engine_agrees idx cls pred;
          Option.iter (fun leaf -> engine_agrees idx cls Expr.(leaf && pred)) probe)
        (List.init 8 Fun.id);
      true)

(* --- counted statistics choose the walked-statistics plans ---------------

   The planner reads the maintained extent and distinct-key counts. A
   reference planner fed statistics obtained by walking the sets (the
   extent's [Oid.Set.cardinal], the distinct values actually indexed) must
   pick the same plan and pushdown depth as every executed query, while
   writes keep moving objects across a two-level select chain. The sizes
   keep index estimates and extent sizes close, so a count off by one
   can flip a plan. *)

let prop_counted_stats_match_walked =
  QCheck.Test.make ~name:"counted statistics pick the walked-statistics plans"
    ~count:30
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let rint n = Value.Int (Random.State.int st n) in
      let db = Database.create () in
      let graph = Database.graph db in
      let stored = Prop.stored ~origin:(Oid.of_int 0) in
      let item =
        Schema_graph.register_base graph ~name:"Item"
          ~props:
            [
              stored "k" Value.TInt;
              stored "score" Value.TInt;
              stored "flag" Value.TInt;
              stored "grp" Value.TInt;
            ]
          ~supers:[]
      in
      let fresh () =
        Database.create_object db item
          ~init:
            [
              ("k", rint 8);
              ("score", rint 40);
              ("flag", rint 100);
              ("grp", rint 100);
            ]
      in
      let objs = ref (List.init 40 (fun _ -> fresh ())) in
      let hot =
        Tse_algebra.Ops.select db ~name:"Hot" ~src:item
          Expr.(attr "flag" >= int 50)
      in
      let hotg =
        Tse_algebra.Ops.select db ~name:"HotG" ~src:hot
          Expr.(attr "grp" < int 50)
      in
      let idx = Indexes.create db in
      Indexes.ensure idx item "k";
      Indexes.ensure ~kind:Indexes.Ordered idx item "score";
      Indexes.ensure idx hot "grp";
      let walked_keys cls attr =
        Option.map
          (fun _ ->
            Database.extent db cls |> Oid.Set.elements
            |> List.map (fun o -> Database.get_prop db o attr)
            |> List.sort_uniq Value.compare |> List.length)
          (Indexes.kind_of idx cls attr)
      in
      let leaf () =
        let c = Random.State.int st 50 in
        match Random.State.int st 9 with
        | 0 -> Expr.(attr "k" === int (c mod 9))
        | 1 -> Expr.(attr "score" >= int c)
        | 2 -> Expr.(attr "score" < int c)
        | 3 -> Expr.(attr "score" > int c)
        | 4 -> Expr.(attr "score" === int c)
        | 5 -> Expr.(attr "grp" < int (2 * c))
        | 6 -> Expr.(attr "grp" === int (2 * c))
        | 7 -> Expr.(attr "flag" >= int (2 * c))
        | _ -> Expr.(attr "k" <> int (c mod 9))
      in
      let query () =
        let cls = [| item; hot; hotg |].(Random.State.int st 3) in
        let pred =
          List.fold_left
            (fun acc _ -> Expr.(acc && leaf ()))
            (leaf ())
            (List.init (Random.State.int st 3) Fun.id)
        in
        let ex, got = Engine.select_explain db idx cls pred in
        let plan, depth =
          Engine.choose
            ~scan_cost:(Oid.Set.cardinal (Database.extent db cls))
            ~key_cardinality:walked_keys db idx cls pred
        in
        if ex.Engine.ex_plan <> plan || ex.Engine.pushdown_depth <> depth then
          QCheck.Test.fail_reportf
            "%a on %s: ran %a at depth %d, walked statistics pick %a at \
             depth %d"
            Expr.pp pred
            (Schema_graph.name_of graph cls)
            Engine.pp_plan ex.Engine.ex_plan ex.Engine.pushdown_depth
            Engine.pp_plan plan depth;
        let oracle =
          Oid.Set.filter (fun o -> Database.holds db o pred)
            (Database.extent db cls)
        in
        if not (Oid.Set.equal got oracle) then
          QCheck.Test.fail_reportf "%a on %s: wrong answer" Expr.pp pred
            (Schema_graph.name_of graph cls)
      in
      let write () =
        let pick () = List.nth !objs (Random.State.int st (List.length !objs)) in
        match Random.State.int st 6 with
        | 0 -> Database.set_attr db (pick ()) "flag" (rint 100)
        | 1 -> Database.set_attr db (pick ()) "grp" (rint 100)
        | 2 -> Database.set_attr db (pick ()) "score" (rint 40)
        | 3 -> Database.set_attr db (pick ()) "k" (rint 8)
        | 4 -> objs := fresh () :: !objs
        | _ ->
          let o = pick () in
          Database.destroy_object db o;
          objs := List.filter (fun o' -> not (Oid.equal o o')) !objs
      in
      for _ = 1 to 40 do
        write ();
        query ();
        query ()
      done;
      true)

(* --- maintenance: several sets, delta filter, random histories ------------ *)

(* [idx] holds exactly the (value, object) pairs a build from scratch
   would: every member of the class for which the attribute resolves,
   under its current value, and nothing else. Recomputed from the extent
   and [get_prop], since a second handle on the key shares the
   maintained index. *)
let agrees_with_fresh db idx (cid, attr) =
  let expected =
    Oid.Set.fold
      (fun o acc ->
        match Database.get_prop db o attr with
        | v -> (o, v) :: acc
        | exception _ -> acc)
      (Database.extent db cid) []
  in
  Indexes.entry_count idx cid attr = Some (List.length expected)
  && List.for_all
       (fun (o, v) ->
         match lookup idx cid attr v with
         | Some s -> Oid.Set.mem o s
         | None -> false)
       expected

(* The database keeps one index per key, however many handles select
   it: a write refreshes it once. *)
let test_handles_share_one_index () =
  let u, _ = fixture () in
  let handles =
    List.init 1000 (fun _ ->
        let idx = Indexes.create u.db in
        Indexes.ensure idx u.person "age";
        idx)
  in
  let o = List.hd (Database.extent_list u.db u.person) in
  let refreshes () = Tse_obs.Metrics.find_counter "query.index_refreshes" in
  let r0 = refreshes () in
  Database.set_attr u.db o "age" (Value.Int 4321);
  check Alcotest.int "one write, one refresh" (r0 + 1) (refreshes ());
  check Alcotest.bool "every handle sees the write" true
    (List.for_all
       (fun idx ->
         lookup idx u.person "age" (Value.Int 4321)
         = Some (Oid.Set.singleton o))
       handles)

(* Hash then Ordered on one key leaves one maintained index, upgraded in
   place: one write refreshes one index, and a handle that asked for Hash
   answers ranges too. *)
let test_hash_then_ordered_one_index () =
  List.iter
    (fun two_handles ->
      let u, a = fixture () in
      let b = if two_handles then Indexes.create u.db else a in
      Indexes.ensure ~kind:Indexes.Hash a u.person "age";
      Indexes.ensure ~kind:Indexes.Ordered b u.person "age";
      let o = List.hd (Database.extent_list u.db u.person) in
      let refreshes () = Tse_obs.Metrics.find_counter "query.index_refreshes" in
      let r0 = refreshes () in
      Database.set_attr u.db o "age" (Value.Int 4321);
      check Alcotest.int "one write, one refresh" (r0 + 1) (refreshes ());
      List.iter
        (fun idx ->
          check Alcotest.bool "ordered for every handle" true
            (Indexes.kind_of idx u.person "age" = Some Indexes.Ordered);
          check Alcotest.bool "every handle answers a range" true
            (range_lookup idx u.person "age"
               ~lo:(Some (Value.Int 4321, true)) ~hi:None
             = Some (Oid.Set.singleton o)))
        [ a; b ])
    [ false; true ]

(* Equality and range probes answer what the predicate answers, with a
   hash index, an ordered index and none, over a float attribute holding
   Int and Float values, integral or not (Int 3 = Float 3.0 under
   Expr.eval_cmp). *)
let prop_probe_equals_predicate =
  let num_gen =
    QCheck.Gen.(
      map2
        (fun tag n ->
          match tag with
          | 0 -> Value.Int n
          | 1 -> Value.Float (float_of_int n)
          | _ -> Value.Float (float_of_int n +. 0.5))
        (int_bound 2) (int_range (-3) 3))
  in
  let op_gen = QCheck.Gen.oneofl Expr.[ Eq; Lt; Le; Gt; Ge ] in
  let gen =
    QCheck.Gen.(
      pair (list_size (int_range 0 25) num_gen) (list_size (int_range 1 8) (pair op_gen num_gen)))
  in
  let print (xs, qs) =
    Printf.sprintf "values [%s]; queries [%s]"
      (String.concat "; " (List.map Value.to_string xs))
      (String.concat "; "
         (List.map
            (fun (op, v) ->
              Expr.to_string (Expr.Cmp (op, Expr.Attr "x", Expr.Const v)))
            qs))
  in
  QCheck.Test.make ~name:"an index probe answers what the predicate answers"
    ~count:200 (QCheck.make ~print gen) (fun (xs, qs) ->
      let db = Database.create () in
      let cls =
        Schema_graph.register_base (Database.graph db) ~name:"N"
          ~props:[ Prop.stored ~origin:(Oid.of_int 0) "x" Value.TFloat ]
          ~supers:[]
      in
      List.iter
        (fun v -> ignore (Database.create_object db cls ~init:[ ("x", v) ]))
        xs;
      let agrees idx =
        List.for_all
          (fun (op, v) ->
            let pred = Expr.Cmp (op, Expr.Attr "x", Expr.Const v) in
            let expected =
              Oid.Set.filter (fun o -> Database.holds db o pred) (Database.extent db cls)
            in
            Oid.Set.equal (Engine.select db idx cls pred) expected
            || QCheck.Test.fail_reportf "%s: %s disagrees with the predicate"
                 (Expr.to_string pred)
                 (Format.asprintf "%a" Engine.pp_plan (Engine.plan db idx cls pred)))
          qs
      in
      let idx = Indexes.create db in
      agrees idx
      && (Indexes.ensure ~kind:Indexes.Hash idx cls "x";
          agrees idx)
      && (Indexes.ensure ~kind:Indexes.Ordered idx cls "x";
          agrees idx))

let test_two_index_sets_maintained () =
  let u, a = fixture () in
  let b = Indexes.create u.db in
  Indexes.ensure a u.person "age";
  Indexes.ensure ~kind:Indexes.Ordered b u.person "age";
  let o = Database.create_object u.db u.person ~init:[ ("age", Value.Int 777) ] in
  Database.set_attr u.db o "age" (Value.Int 778);
  List.iter
    (fun idx ->
      check Alcotest.bool "both sets follow the write" true
        (Oid.Set.mem o (Option.get (lookup idx u.person "age" (Value.Int 778))));
      check Alcotest.bool "both sets agree with a fresh build" true
        (agrees_with_fresh u.db idx (u.person, "age")))
    [ a; b ]

(* The object stays in the indexed class and joins a class that declares
   the indexed attribute locally: the class is not in the membership
   delta's extent test, but what the attribute resolves to changes —
   here it becomes ambiguous, so the object must leave the index. *)
let test_delta_into_local_declaration () =
  let u, idx = fixture () in
  let stored name default =
    Prop.stored ~origin:(Oid.of_int 0) ~default name Value.TInt
  in
  let ranked =
    Tse_algebra.Ops.refine u.db ~name:"Ranked" ~src:u.person
      ~props:[ stored "rank" (Value.Int 5) ]
  in
  let senior =
    Tse_algebra.Ops.select u.db ~name:"Senior" ~src:u.person
      Expr.(attr "age" >= int 65)
  in
  ignore
    (Tse_algebra.Ops.refine u.db ~name:"RankedSenior" ~src:senior
       ~props:[ stored "rank" (Value.Int 9) ]);
  Indexes.ensure idx ranked "rank";
  let o = Database.create_object u.db u.person ~init:[ ("age", Value.Int 30) ] in
  let indexed () =
    match lookup idx ranked "rank" (Value.Int 5) with
    | Some s -> Oid.Set.mem o s
    | None -> false
  in
  check Alcotest.bool "indexed under the default" true (indexed ());
  Database.set_attr u.db o "age" (Value.Int 70);
  check Alcotest.bool "still a member of the indexed class" true
    (Oid.Set.mem o (Database.extent u.db ranked));
  check Alcotest.bool "re-resolved on joining the declaring class" false
    (indexed ());
  check Alcotest.bool "agrees with a fresh build" true
    (agrees_with_fresh u.db idx (ranked, "rank"))

(* A class populated by set algebra declares the indexed attribute
   locally: one test per index stands for every member's delta, and the
   index must refresh all of them, since the attribute now resolves
   ambiguously for each. Probes on the maintained index must match a
   build from scratch and the [Database.holds] filter. *)
let test_populated_local_declaration () =
  let u, idx = fixture () in
  let stored name default =
    Prop.stored ~origin:(Oid.of_int 0) ~default name Value.TInt
  in
  let ranked =
    Tse_algebra.Ops.refine u.db ~name:"Ranked" ~src:u.person
      ~props:[ stored "rank" (Value.Int 5) ]
  in
  let senior =
    Tse_algebra.Ops.select u.db ~name:"Senior" ~src:u.person
      Expr.(attr "age" >= int 65)
  in
  List.iter
    (fun age ->
      ignore
        (Database.create_object u.db u.person ~init:[ ("age", Value.Int age) ]))
    [ 30; 66; 70; 81 ];
  Indexes.ensure idx ranked "rank";
  let counter = Tse_obs.Metrics.find_counter in
  let fallbacks = counter "reclass.populate_fallbacks" in
  let populated = counter "reclass.populated_objects" in
  ignore
    (Tse_algebra.Ops.refine u.db ~name:"RankedSenior" ~src:senior
       ~props:[ stored "rank" (Value.Int 9) ]);
  (* the oracle mode populates through the per-object fixpoint instead *)
  if Database.full_reclassify u.db then
    check Alcotest.int "populated by the fixpoint" (fallbacks + 1)
      (counter "reclass.populate_fallbacks")
  else begin
    check Alcotest.int "populated by set algebra" fallbacks
      (counter "reclass.populate_fallbacks");
    check Alcotest.int "every senior joined at once"
      (populated + Oid.Set.cardinal (Database.extent u.db senior))
      (counter "reclass.populated_objects")
  end;
  List.iter
    (fun v ->
      let probe idx =
        Option.value ~default:Oid.Set.empty
          (lookup idx ranked "rank" (Value.Int v))
      in
      let pred = Expr.(attr "rank" === int v) in
      let oracle =
        Oid.Set.filter (fun o -> Database.holds u.db o pred)
          (Database.extent u.db ranked)
      in
      check Alcotest.bool
        (Printf.sprintf "rank = %d: maintained probe == holds filter" v)
        true
        (Oid.Set.equal (probe idx) oracle);
      check Alcotest.bool
        (Printf.sprintf "rank = %d: indexed select == holds filter" v)
        true
        (Oid.Set.equal (Engine.select u.db idx ranked pred) oracle))
    [ 5; 9 ];
  check Alcotest.bool "seniors left the index" true
    (Oid.Set.is_empty
       (Oid.Set.inter (Database.extent u.db senior)
          (Option.value ~default:Oid.Set.empty
             (lookup idx ranked "rank" (Value.Int 5)))));
  check Alcotest.bool "agrees with a fresh build" true
    (agrees_with_fresh u.db idx (ranked, "rank"))

let prop_maintained_equals_fresh =
  QCheck.Test.make ~name:"maintained indexes == freshly built, across evolution"
    ~count:25
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000))
    (fun seed ->
      let module RS = Tse_workload.Random_schema in
      let module Tsem = Tse_core.Tsem in
      let rng = Random.State.make [| seed; 41 |] in
      let rs = RS.generate ~seed ~classes:8 ~objects:24 ~virtuals:4 () in
      let db = rs.RS.db in
      let graph = Database.graph db in
      let tsem = Tsem.of_database db in
      ignore (Tsem.define_view_by_names tsem ~name:"V" (RS.class_names rs));
      let sets = [ Indexes.create db; Indexes.create db ] in
      let keys = ref [] in
      let index_some cid =
        match RS.random_attr rng rs cid with
        | Some attr ->
          let idx = List.nth sets (Random.State.int rng 2) in
          Indexes.ensure idx cid attr;
          keys := (idx, (cid, attr)) :: !keys
        | None -> ()
      in
      List.iter index_some (rs.RS.classes @ rs.RS.virtuals);
      let random_value = function
        | Value.TInt -> Value.Int (Random.State.int rng 100)
        | Value.TBool -> Value.Bool (Random.State.bool rng)
        | _ -> Value.String (string_of_int (Random.State.int rng 5))
      in
      let write () =
        match Database.objects db with
        | [] -> ()
        | objs -> (
          let o = List.nth objs (Random.State.int rng (List.length objs)) in
          let base () = List.nth rs.RS.classes (Random.State.int rng 8) in
          match Random.State.int rng 10 with
          | 0 -> Database.destroy_object db o
          | 1 -> ignore (Database.create_object db (base ()) ~init:[])
          | 2 -> Database.add_base_membership db o (base ())
          | 3 -> Database.remove_base_membership db o (base ())
          | _ -> (
            let cids =
              List.filter
                (fun c -> Oid.Set.mem o (Database.extent db c))
                (List.map (fun (_, (c, _)) -> c) !keys)
            in
            match cids with
            | [] -> ()
            | _ -> (
              let cid = List.nth cids (Random.State.int rng (List.length cids)) in
              match Type_info.stored_attrs graph cid with
              | [] -> ()
              | attrs -> (
                let p = List.nth attrs (Random.State.int rng (List.length attrs)) in
                match p.Prop.body with
                | Prop.Stored { ty; _ } -> (
                  try Database.set_attr db o p.Prop.name (random_value ty)
                  with _ -> ())
                | _ -> ()))))
      in
      for _ = 1 to 6 do
        (match Tsem.evolve tsem ~view:"V" (Testkit.random_change rng rs) with
        | v ->
          let members = v.Tse_views.View_schema.members in
          index_some (fst (List.nth members (Random.State.int rng (List.length members))))
        | exception _ -> ());
        for _ = 1 to 8 do
          write ()
        done
      done;
      List.for_all
        (fun (idx, key) ->
          agrees_with_fresh db idx key
          || QCheck.Test.fail_reportf "index on (%s, %s) drifted"
               (Schema_graph.name_of graph (fst key)) (snd key))
        !keys)

let suite =
  [
    Alcotest.test_case "index build + lookup" `Quick test_index_build_and_lookup;
    Alcotest.test_case "index maintenance on events" `Quick
      test_index_maintenance;
    Alcotest.test_case "index on a virtual class" `Quick
      test_index_on_virtual_class;
    Alcotest.test_case "planner decisions" `Quick test_engine_plans;
    Alcotest.test_case "planner prefers the selective index" `Quick
      test_planner_prefers_selective_index;
    Alcotest.test_case "indexed results == scan results" `Quick
      test_engine_results_agree;
    Alcotest.test_case "engine across schema evolution" `Quick
      test_engine_after_evolution;
    Alcotest.test_case "range index: lookups + maintenance" `Quick
      test_range_index_lookup_and_maintenance;
    Alcotest.test_case "range plan + explain" `Quick test_range_plan_and_explain;
    Alcotest.test_case "sargable conjunct extraction" `Quick test_sarg_extraction;
    Alcotest.test_case "index-vs-scan choice" `Quick test_index_vs_scan_choice;
    Alcotest.test_case "pushdown through select derivation" `Quick
      test_pushdown_through_selects;
    Alcotest.test_case "select sees evolved schema" `Quick
      test_select_sees_evolved_schema;
    Alcotest.test_case "count == select cardinality" `Quick
      test_count_agrees_with_select;
    QCheck_alcotest.to_alcotest prop_compiled_matches_interpreted;
    Qcheck_det.to_alcotest prop_counted_stats_match_walked;
    Alcotest.test_case "two index sets on one database" `Quick
      test_two_index_sets_maintained;
    Alcotest.test_case "handles share one maintained index" `Quick
      test_handles_share_one_index;
    Alcotest.test_case "hash then ordered keeps one index" `Quick
      test_hash_then_ordered_one_index;
    Qcheck_det.to_alcotest prop_probe_equals_predicate;
    Alcotest.test_case "delta into a local declaration refreshes" `Quick
      test_delta_into_local_declaration;
    Qcheck_det.to_alcotest prop_maintained_equals_fresh;
    Alcotest.test_case "populating a local declaration refreshes" `Quick
      test_populated_local_declaration;
  ]
