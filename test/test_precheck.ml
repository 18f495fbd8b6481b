(* Tsem.precheck against the translator. The precheck (admission +
   Translator.validate) runs before a durable evolution logs anything, so
   it must be pure, must agree with the evolution it stands in front of,
   and must catch every rejection the translator raises before touching
   the schema — otherwise such a rejection would be logged, fsynced and
   answered with a reopen from disk. *)

open Tse_store
open Tse_schema
open Tse_db
open Tse_core
open Tse_workload

let view = "V"

let fingerprint tsem =
  Verify.db_fingerprint ~history:(Tsem.history tsem) (Tsem.db tsem)

(* Everything a mutation would move: the structural fingerprint (classes,
   edges, extents, objects, every view version), the graph version and
   the OID generator. *)
let state tsem =
  let db = Tsem.db tsem in
  ( fingerprint tsem,
    Schema_graph.version (Database.graph db),
    Oid.Gen.count (Heap.gen (Database.heap db)) )

(* Testkit.random_change plus the shapes that are rejected by
   design: a stale attribute name, a self edge, a cyclic edge, a name
   already taken, and a partition over an undefined attribute. *)
let gen_change rng (rs : Random_schema.t) tsem step =
  let v = Tsem.current tsem view in
  let graph = Database.graph rs.db in
  let names = List.map snd v.Tse_views.View_schema.members in
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  let cls = pick names in
  match Random.State.int rng 14 with
  | 0 -> Change.Delete_attribute { cls; attr_name = Printf.sprintf "zz%d" step }
  | 1 -> Change.Delete_method { cls; method_name = Printf.sprintf "zz%d" step }
  | 2 -> Change.Add_edge { sup = cls; sub = cls }
  | 3 -> (
    let pairs =
      List.concat_map
        (fun (d, dn) ->
          List.filter_map
            (fun (a, an) ->
              if Schema_graph.is_strict_ancestor graph ~anc:a ~desc:d then
                Some (dn, an)
              else None)
            v.Tse_views.View_schema.members)
        v.Tse_views.View_schema.members
    in
    match pairs with
    | [] -> Change.Add_edge { sup = cls; sub = cls }
    | _ ->
      let desc, anc = pick pairs in
      Change.Add_edge { sup = desc; sub = anc })
  | 4 ->
    let fresh = Random.State.bool rng in
    Change.Rename_class
      {
        old_name = cls;
        new_name = (if fresh then Printf.sprintf "R%d" step else pick names);
      }
  | 5 ->
    let valid = Random.State.bool rng in
    Change.Partition_class
      {
        cls;
        predicate =
          (if valid then Expr.bool true
           else Expr.(attr (Printf.sprintf "zz%d" step) >= int 1));
        into_true = Printf.sprintf "P%dt" step;
        into_false =
          (if Random.State.bool rng then Printf.sprintf "P%df" step
           else pick names);
      }
  | 6 -> Change.Insert_class { cls = pick names; sup = cls; sub = pick names }
  | 7 -> Change.Coalesce_classes { a = cls; b = pick names; as_name = pick names }
  | _ -> Testkit.random_change rng rs

let outcome f =
  match f () with
  | _ -> `Accepted
  | exception Change.Rejected m -> `Rejected m
  | exception e -> `Failed (Printexc.to_string e)

(* Two twins step through one random history. At each step [t1] is
   prechecked, [t2] evolved; then [t1] evolves too, so the twins stay
   identical. *)
let prop_precheck_matches_translator =
  QCheck.Test.make ~name:"precheck is pure and agrees with the translator"
    ~count:60 Test_property.seed_arb (fun seed ->
      let rng = Random.State.make [| seed; 31 |] in
      let mk () =
        let rs = Random_schema.generate ~seed ~classes:8 ~objects:16 () in
        let tsem = Tsem.of_database rs.db in
        ignore
          (Tsem.define_view_by_names tsem ~name:view
             (Random_schema.class_names rs));
        (rs, tsem)
      in
      let rs1, t1 = mk () in
      let _, t2 = mk () in
      for step = 1 to 8 do
        let change = gen_change rng rs1 t1 step in
        let show = Change.to_string change in
        let ((fp0, _, _) as before) = state t1 in
        let pre = outcome (fun () -> Tsem.precheck t1 ~view change) in
        if state t1 <> before then
          QCheck.Test.fail_reportf "step %d: precheck of %s mutated the database"
            step show;
        let ev = outcome (fun () -> Tsem.evolve t2 ~view change) in
        (match (pre, ev) with
        | `Rejected m, `Rejected m' when String.equal m m' -> ()
        | `Rejected m, _ ->
          QCheck.Test.fail_reportf
            "step %d: precheck rejected %s (%s) but evolve did not agree" step
            show m
        | `Failed e, _ ->
          QCheck.Test.fail_reportf "step %d: precheck of %s raised %s" step show
            e
        | `Accepted, `Rejected m when String.equal (fingerprint t2) fp0 ->
          QCheck.Test.fail_reportf
            "step %d: evolve rejected %s before touching anything (%s), but \
             precheck accepted it"
            step show m
        | `Accepted, _ -> ());
        ignore (outcome (fun () -> Tsem.evolve t1 ~view change));
        if not (String.equal (fingerprint t1) (fingerprint t2)) then
          QCheck.Test.fail_reportf "step %d: twins diverged after %s" step show
      done;
      Database.check rs1.db = [])

(* A precheck vouches for the schema it ran against only. *)
let test_stale_precheck_refused () =
  let rs = Random_schema.generate ~seed:7 ~classes:4 () in
  let tsem = Tsem.of_database rs.db in
  let names = Random_schema.class_names rs in
  ignore (Tsem.define_view_by_names tsem ~name:view names);
  let add name =
    Change.Add_class { cls = name; connected_to = Some (List.hd names) }
  in
  let checked = Tsem.precheck tsem ~view (add "Late") in
  ignore (Tsem.evolve tsem ~view (add "Early"));
  Alcotest.check_raises "stale precheck"
    (Invalid_argument "Tsem.evolve_checked: the schema changed after precheck")
    (fun () -> ignore (Tsem.evolve_checked tsem checked))

(* In-place surgery edits a class through the graph, so it moves the
   graph version the precheck vouches for. *)
let test_direct_surgery_refused () =
  let rs = Random_schema.generate ~seed:7 ~classes:4 () in
  let tsem = Tsem.of_database rs.db in
  let names = Random_schema.class_names rs in
  let v = Tsem.define_view_by_names tsem ~name:view names in
  let checked =
    Tsem.precheck tsem ~view
      (Change.Add_class { cls = "Late"; connected_to = Some (List.hd names) })
  in
  let version = Schema_graph.version (Database.graph rs.db) in
  ignore
    (Direct.apply rs.db v
       (Change.Add_attribute
          { cls = List.hd names; def = Change.attr "surgery" Value.TInt }));
  Alcotest.(check bool) "surgery moves the graph version" true
    (Schema_graph.version (Database.graph rs.db) > version);
  Alcotest.check_raises "precheck before surgery"
    (Invalid_argument "Tsem.evolve_checked: the schema changed after precheck")
    (fun () -> ignore (Tsem.evolve_checked tsem checked))

let suite =
  [
    Qcheck_det.to_alcotest prop_precheck_matches_translator;
    Alcotest.test_case "a stale precheck is refused" `Quick
      test_stale_precheck_refused;
    Alcotest.test_case "direct surgery after precheck is refused" `Quick
      test_direct_surgery_refused;
  ]
