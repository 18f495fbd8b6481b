(* Property-based tests: randomized schemas, populations and evolution
   traces, checked against the consistency oracle, the direct-modification
   oracle (Proposition A), view independence (Proposition B) and
   updatability (Theorem 1). *)

open Tse_store
open Tse_schema
open Tse_db
open Tse_core
open Tse_workload

(* Seeds; the change generators are in test/kit, shared with the
   regression binary. *)
let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000)

(* -------------------------------------------------------------- *)
(* Properties                                                      *)
(* -------------------------------------------------------------- *)

let prop_random_schema_consistent =
  QCheck.Test.make ~name:"random schema + population is consistent" ~count:25
    seed_arb (fun seed ->
      let rs = Random_schema.generate ~seed ~classes:12 ~objects:30 () in
      Database.check rs.db = [])

let prop_tse_equals_direct =
  QCheck.Test.make
    ~name:"TSE translation == direct modification (Proposition A, random)"
    ~count:40 seed_arb (fun seed ->
      let rng = Random.State.make [| seed; 17 |] in
      let mk () = Random_schema.generate ~seed ~classes:8 ~objects:16 () in
      let rs1 = mk () and rs2 = mk () in
      let names = Random_schema.class_names rs1 in
      (* a random subset of classes forms the view (always at least 2) *)
      let view_names =
        List.filteri (fun i _ -> i < 2 || Random.State.bool rng) names
      in
      let mk_view (rs : Random_schema.t) =
        let g = Database.graph rs.db in
        Tse_views.View_schema.make ~name:"V" ~version:0 g
          (List.map
             (fun n -> (Schema_graph.find_by_name_exn g n).Klass.cid)
             view_names)
      in
      let v1 = mk_view rs1 and v2 = mk_view rs2 in
      let change = Testkit.random_change rng rs1 in
      let r1 =
        match Translator.apply rs1.db v1 change with
        | v -> Ok v
        | exception Change.Rejected m -> Error m
      in
      let r2 =
        match Direct.apply rs2.db v2 change with
        | v -> Ok v
        | exception Change.Rejected m -> Error m
      in
      let oracle_limitation m =
        (* TSE can delete a view-relative-local attribute by hiding it;
           the destructive oracle cannot express that and says so *)
        String.length m >= 24 && String.sub m 0 24 = "direct oracle limitation"
      in
      match r1, r2 with
      | Error _, Error _ -> true
      | Ok _, Error m when oracle_limitation m -> true
      | Ok nv1, Ok nv2 ->
        let diff = Verify.diff_views (rs1.db, nv1) (rs2.db, nv2) in
        if diff <> [] then
          QCheck.Test.fail_reportf "S'' <> S' for %s:@.%s"
            (Change.to_string change)
            (String.concat "\n" diff)
        else Database.check rs1.db = []
      | Ok _, Error m ->
        QCheck.Test.fail_reportf "TSE accepted, direct rejected (%s): %s"
          (Change.to_string change) m
      | Error m, Ok _ ->
        QCheck.Test.fail_reportf "TSE rejected (%s), direct accepted: %s"
          (Change.to_string change) m)

let prop_view_independence =
  QCheck.Test.make
    ~name:"other views keep their fingerprints (Proposition B, random)"
    ~count:25 seed_arb (fun seed -> snd (Testkit.view_independence seed) = [])

(* The translator reads the old view's generated hierarchy once, before
   it adds a class, and walks it while the graph grows. That is sound
   because no change alters it: a sequence that runs through every
   Section 6 change leaves the signature of each pre-change view as it
   was. A change is rejected by the precheck or not at all: once it
   passes, the translation must not raise, and it must leave the
   database consistent. *)
let prop_old_hierarchy_fixed =
  QCheck.Test.make
    ~name:"a change leaves the old view's hierarchy as it was (random)"
    ~count:25 seed_arb (fun seed ->
      let s = Testkit.sequence seed in
      let graph = Database.graph s.rs.db in
      for i = 0 to 29 do
        let change = Testkit.change_at s i in
        let view = Tsem.current s.tsem "V" in
        let before = Tse_views.Generation.edges_signature graph view in
        (match Testkit.step s change with
        | Ok () -> ()
        | Error m -> QCheck.Test.fail_report m);
        let after = Tse_views.Generation.edges_signature graph view in
        if not (String.equal before after) then
          QCheck.Test.fail_reportf "%s moved the old hierarchy:@.%s@.%s"
            (Change.to_string change) before after
      done;
      true)

let prop_updatability_preserved =
  QCheck.Test.make
    ~name:"every evolved view stays updatable (Theorem 1, random)" ~count:25
    seed_arb (fun seed ->
      let rng = Random.State.make [| seed; 31 |] in
      let rs = Random_schema.generate ~seed ~classes:8 ~objects:10 () in
      let tsem = Tsem.of_database rs.db in
      ignore
        (Tsem.define_view_by_names tsem ~name:"V" (Random_schema.class_names rs));
      for _ = 1 to 6 do
        try ignore (Tsem.evolve tsem ~view:"V" (Testkit.random_change rng rs))
        with Change.Rejected _ -> ()
      done;
      Verify.all_updatable rs.db (Tsem.current tsem "V"))

let prop_history_monotone =
  QCheck.Test.make ~name:"history keeps every version readable" ~count:20
    seed_arb (fun seed ->
      let rng = Random.State.make [| seed; 41 |] in
      let rs = Random_schema.generate ~seed ~classes:6 ~objects:6 () in
      let tsem = Tsem.of_database rs.db in
      ignore
        (Tsem.define_view_by_names tsem ~name:"V" (Random_schema.class_names rs));
      let fingerprints = ref [] in
      let record () =
        let v = Tsem.current tsem "V" in
        fingerprints :=
          (v.Tse_views.View_schema.version, Verify.view_fingerprint rs.db v)
          :: !fingerprints
      in
      record ();
      for _ = 1 to 4 do
        (try ignore (Tsem.evolve tsem ~view:"V" (Testkit.random_change rng rs))
         with Change.Rejected _ -> ());
        record ()
      done;
      (* every snapshot of a version taken when it was current must still
         hold now: old views are never mutated *)
      List.for_all
        (fun (version, fp) ->
          match
            Tse_views.History.version (Tsem.history tsem) "V" version
          with
          | Some v -> String.equal fp (Verify.view_fingerprint rs.db v)
          | None -> false)
        !fingerprints)

let prop_trace_calibration =
  QCheck.Test.make ~name:"evolution traces match the cited statistics"
    ~count:10 seed_arb (fun seed ->
      let initial_classes = 10 and initial_attrs = 30 in
      let trace =
        Evolution_trace.generate ~seed ~months:18 ~initial_classes
          ~initial_attrs
      in
      let s = Evolution_trace.summarize trace in
      let cg, ag, ac = Evolution_trace.ratios s ~initial_classes ~initial_attrs in
      (* within 15% of the cited 139% / 274% / 59% *)
      Float.abs (cg -. 1.39) < 0.2
      && Float.abs (ag -. 2.74) < 0.4
      && Float.abs (ac -. 0.59) < 0.15)

let prop_trace_replay_consistent =
  QCheck.Test.make ~name:"replaying a trace keeps the database consistent"
    ~count:6 seed_arb (fun seed ->
      let rs = Random_schema.generate ~seed ~classes:6 ~objects:12 () in
      let tsem = Tsem.of_database rs.db in
      ignore
        (Tsem.define_view_by_names tsem ~name:"V" (Random_schema.class_names rs));
      let trace =
        Evolution_trace.generate ~seed ~months:6 ~initial_classes:6
          ~initial_attrs:18
      in
      let applied = ref 0 and rejected = ref 0 in
      Evolution_trace.replay tsem ~view:"V" trace ~applied ~rejected;
      !applied > 0 && Database.check rs.db = [])

(* The two Section 4 object models must agree on every observable
   membership fact under arbitrary classification scripts. *)
let prop_models_agree =
  QCheck.Test.make ~name:"slicing == intersection on random scripts" ~count:50
    seed_arb (fun seed ->
      let rng = Random.State.make [| seed; 99 |] in
      let run (type m) (module M : Tse_objmodel.Model_sig.S with type t = m) =
        let cars = Cars.build () in
        let stats = Tse_store.Stats.create () in
        let m = M.create ~graph:cars.graph ~heap:cars.heap ~stats in
        let classes = [| cars.car; cars.jeep; cars.imported |] in
        let local = Random.State.copy rng in
        let objs =
          Array.init 5 (fun _ ->
              M.create_object m classes.(Random.State.int local 3))
        in
        (* a random script of add/remove/set operations *)
        for _ = 1 to 30 do
          let o = objs.(Random.State.int local 5) in
          let c = classes.(Random.State.int local 3) in
          match Random.State.int local 3 with
          | 0 -> M.add_to_class m o c
          | 1 ->
            if not (Tse_store.Oid.equal c cars.car) then M.remove_from_class m o c
          | _ -> (
            try M.set_attr m o "model" (Value.String "x")
            with Expr.Unknown_property _ -> ())
        done;
        (* observable state: the membership matrix *)
        Array.to_list objs
        |> List.concat_map (fun o ->
               List.map (fun c -> M.is_member m o c) (Array.to_list classes))
      in
      run (module Tse_objmodel.Slicing) = run (module Tse_objmodel.Intersection))

let prop_catalog_roundtrip =
  QCheck.Test.make ~name:"catalog roundtrips randomly evolved databases"
    ~count:10 seed_arb (fun seed ->
      let rng = Random.State.make [| seed; 77 |] in
      let rs = Random_schema.generate ~seed ~classes:8 ~objects:16 () in
      let tsem = Tsem.of_database rs.db in
      ignore
        (Tsem.define_view_by_names tsem ~name:"V" (Random_schema.class_names rs));
      for _ = 1 to 4 do
        try ignore (Tsem.evolve tsem ~view:"V" (Testkit.random_change rng rs))
        with Change.Rejected _ -> ()
      done;
      let text = Tse_views.Catalog.to_string ~history:(Tsem.history tsem) rs.db in
      let db', history' = Tse_views.Catalog.of_string text in
      let fp db v = Verify.view_fingerprint db v in
      let ok_views =
        List.for_all
          (fun name ->
            List.for_all
              (fun (v : Tse_views.View_schema.t) ->
                match
                  Tse_views.History.version history' name
                    v.Tse_views.View_schema.version
                with
                | Some v' -> String.equal (fp rs.db v) (fp db' v')
                | None -> false)
              (Tse_views.History.versions (Tsem.history tsem) name))
          (Tse_views.History.view_names (Tsem.history tsem))
      in
      ok_views && Database.check db' = [])

(* The incremental reclassification engine must be observationally equal
   to the full-fixpoint oracle: twin databases built from one seed — one
   per mode — are driven through the same random trace of attribute
   writes, base-membership changes and mid-trace view derivations, then
   compared fact by fact. *)
let prop_incremental_equals_oracle =
  QCheck.Test.make
    ~name:"incremental reclassification == full-fixpoint oracle" ~count:30
    seed_arb (fun seed ->
      let mk full =
        Random_schema.generate ~seed ~classes:8 ~objects:16 ~virtuals:6
          ~full_reclassify:full ()
      in
      let inc = mk false and ora = mk true in
      if not (Database.full_reclassify ora.db && not (Database.full_reclassify inc.db))
      then QCheck.Test.fail_report "modes not set as requested";
      let rng = Random.State.make [| seed; 55 |] in
      let attr_pool = Array.init 24 (fun i -> Printf.sprintf "a%d" (i + 1)) in
      let objs = Array.of_list (List.sort Oid.compare (Database.objects inc.db)) in
      if Array.length objs = 0 then true
      else begin
        (* the op list is drawn once, then replayed on both twins *)
        let steps =
          List.init 60 (fun i ->
              let o = Random.State.int rng (Array.length objs) in
              match Random.State.int rng 6 with
              | 0 | 1 | 2 ->
                let a = attr_pool.(Random.State.int rng (Array.length attr_pool)) in
                let v =
                  match Random.State.int rng 3 with
                  | 0 -> Value.Int (Random.State.int rng 100)
                  | 1 -> Value.Bool (Random.State.bool rng)
                  | _ -> Value.String (Printf.sprintf "v%d" (Random.State.int rng 8))
                in
                `Write (o, a, v)
              | 3 -> `Add_base (o, Random.State.int rng 8)
              | 4 -> `Remove_base (o, Random.State.int rng 8)
              | _ ->
                `Derive (i, Random.State.int rng 8, Random.State.int rng 100))
        in
        let apply (rs : Random_schema.t) step =
          let db = rs.db in
          let class_at i = List.nth rs.classes (i mod List.length rs.classes) in
          match step with
          | `Write (o, a, v) -> begin
            try Database.set_attr db objs.(o) a v
            with Expr.Unknown_property _ | Expr.Type_error _ -> ()
          end
          | `Add_base (o, c) -> Database.add_base_membership db objs.(o) (class_at c)
          | `Remove_base (o, c) ->
            Database.remove_base_membership db objs.(o) (class_at c)
          | `Derive (i, c, bound) -> begin
            let src = class_at c in
            match
              Random_schema.random_attr (Random.State.make [| seed; i |]) rs src
            with
            | None -> ()
            | Some a -> (
              try
                ignore
                  (Tse_algebra.Ops.select db ~name:(Printf.sprintf "W%d" i)
                     ~src Expr.(attr a >= int bound))
              with Tse_algebra.Ops.Error _ -> ())
          end
        in
        List.iter (fun s -> apply inc s; apply ora s) steps;
        (* identical seeds and identical op streams allocate identical
           oids, so facts compare directly *)
        let facts (rs : Random_schema.t) =
          let db = rs.db in
          let g = Database.graph db in
          let cids = List.sort Oid.compare (Schema_graph.cids g) in
          List.map
            (fun o ->
              List.map
                (fun c ->
                  ( Database.is_member db o c,
                    Oid.Set.mem o (Database.extent db c) ))
                cids)
            (List.sort Oid.compare (Database.objects db))
        in
        let props (rs : Random_schema.t) =
          List.map
            (fun o ->
              Array.to_list attr_pool
              |> List.map (fun a ->
                     match Database.get_prop rs.db o a with
                     | v -> Fmt.str "%a" Value.pp v
                     | exception Expr.Unknown_property _ -> "?"
                     | exception Expr.Type_error _ -> "!"))
            (List.sort Oid.compare (Database.objects rs.db))
        in
        if facts inc <> facts ora then
          QCheck.Test.fail_report "membership/extent facts diverged"
        else if props inc <> props ora then
          QCheck.Test.fail_report "property reads diverged"
        else
          match Database.check inc.db, Database.check ora.db with
          | [], [] -> true
          | p, p' ->
            QCheck.Test.fail_reportf "inconsistent:@.%s"
              (String.concat "\n" (p @ p'))
      end)

(* Populating a new class by set algebra must agree with the fixpoint
   oracle for every derivation kind. Twin universities, one per engine,
   replay the same random algebra ops. The op mix includes refine_from
   with a provider unrelated to the target, refines that add a name a
   select reads, and attribute writes after a population. After every op
   the default twin must report no consistency problem the oracle does
   not, and while the oracle is consistent every object must have the
   same member classes in both.

   The oracle is not always consistent: its pass over the derivation
   order misses a membership that an ancestor edge its formula does not
   imply (refine_from with an unrelated provider) adds after a formula
   reading that ancestor was evaluated. Once the oracle reports a problem
   it stops judging, and the rest of the sequence is not compared. *)
type pop_op =
  | P_select of int * string * int  (* source, attribute, threshold *)
  | P_select_in of int * int  (* source, class it must be a member of *)
  | P_hide of int * string
  | P_refine of int * string  (* source, new stored attribute *)
  | P_refine_read of int * int  (* source, index into the names selects read *)
  | P_refine_from of int * string * int  (* provider, property, target *)
  | P_union of int * int
  | P_intersect of int * int
  | P_difference of int * int
  | P_write of int * string * int  (* object, attribute, value *)

let pop_int_attrs = [| "age"; "salary"; "hours"; "x" |]
let pop_str_attrs = [| "lecture"; "boss"; "name" |]
let pop_attrs = Array.append pop_int_attrs pop_str_attrs
let pop_is_int a = Array.mem a pop_int_attrs

let pop_op_to_string = function
  | P_select (c, a, k) -> Printf.sprintf "select(%d, %s, %d)" c a k
  | P_select_in (c, m) -> Printf.sprintf "select_in(%d, %d)" c m
  | P_hide (c, a) -> Printf.sprintf "hide(%d, %s)" c a
  | P_refine (c, a) -> Printf.sprintf "refine(%d, %s)" c a
  | P_refine_read (c, i) -> Printf.sprintf "refine_read(%d, %d)" c i
  | P_refine_from (s, a, t) -> Printf.sprintf "refine_from(%d, %s, %d)" s a t
  | P_union (a, b) -> Printf.sprintf "union(%d, %d)" a b
  | P_intersect (a, b) -> Printf.sprintf "intersect(%d, %d)" a b
  | P_difference (a, b) -> Printf.sprintf "difference(%d, %d)" a b
  | P_write (o, a, v) -> Printf.sprintf "write(%d, %s, %d)" o a v

let pop_op_gen =
  let open QCheck.Gen in
  let cls = int_bound 40 and attr = oneofa pop_attrs in
  oneof
    [
      map3 (fun c a k -> P_select (c, a, k)) cls attr (int_bound 60);
      map2 (fun c m -> P_select_in (c, m)) cls cls;
      map2 (fun c a -> P_hide (c, a)) cls attr;
      map2 (fun c a -> P_refine (c, a)) cls attr;
      map2 (fun c i -> P_refine_read (c, i)) cls (int_bound 10);
      map3 (fun s a t -> P_refine_from (s, a, t)) cls attr cls;
      map2 (fun a b -> P_union (a, b)) cls cls;
      map2 (fun a b -> P_intersect (a, b)) cls cls;
      map2 (fun a b -> P_difference (a, b)) cls cls;
      map3 (fun o a v -> P_write (o, a, v)) (int_bound 30) attr (int_bound 60);
    ]

let prop_populate_equals_oracle =
  QCheck.Test.make ~name:"set-algebra population == full-fixpoint oracle"
    ~count:40
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pop_op_to_string ops))
       QCheck.Gen.(list_size (int_range 1 10) pop_op_gen))
    (fun ops ->
      let mk full =
        let u = University.build () in
        Database.set_full_reclassify u.db full;
        ignore (University.populate u ~n:24);
        u.db
      in
      let inc = mk false and ora = mk true in
      let apply step db op =
        let g = Database.graph db in
        let classes =
          List.filter
            (fun c -> not (Oid.equal c (Database.root db)))
            (List.sort Oid.compare (Schema_graph.cids g))
        in
        let pick among i = List.nth among (i mod List.length among) in
        let cls = pick classes in
        (* most ops are drawn among the classes they are valid for, so few
           sequences degenerate into rejected ops *)
        let cls_where keep i =
          match List.filter keep classes with [] -> cls i | among -> pick among i
        in
        let having a = cls_where (fun c -> Type_info.has_prop g c a) in
        let lacking a = cls_where (fun c -> not (Type_info.has_prop g c a)) in
        let name = Printf.sprintf "P%d" step in
        let value a v =
          if pop_is_int a then Value.Int v
          else Value.String (if v mod 2 = 0 then "db101" else "dean")
        in
        let pred a k =
          if pop_is_int a then Expr.(attr a >= int k)
          else Expr.(attr a === str (if k mod 2 = 0 then "db101" else "dean"))
        in
        let ty a = if pop_is_int a then Value.TInt else Value.TString in
        let refine_with c a =
          Tse_algebra.Ops.refine db ~name
            ~props:[ Prop.stored ~origin:(Oid.of_int 0) a (ty a) ]
            ~src:(lacking a c)
        in
        let open Tse_algebra.Ops in
        match op with
        | P_select (c, a, k) -> Ok (select db ~name ~src:(having a c) (pred a k))
        | P_select_in (c, m) ->
          Ok
            (select db ~name ~src:(cls c)
               (Expr.In_class (Schema_graph.name_of g (cls m))))
        | P_hide (c, a) -> Ok (hide db ~name ~props:[ a ] ~src:(having a c))
        | P_refine (c, a) -> Ok (refine_with c a)
        | P_refine_read (c, i) ->
          let read =
            List.concat_map
              (fun (k : Klass.t) ->
                match k.kind with
                | Klass.Virtual (Klass.Select (_, p)) -> Expr.free_attrs p
                | Klass.Base | Klass.Virtual _ -> [])
              (Schema_graph.classes g)
            |> List.sort_uniq String.compare
          in
          Ok (refine_with c (match read with [] -> "x" | _ -> pick read i))
        | P_refine_from (s, a, t) ->
          Ok
            (refine_from db ~name ~src:(having a s) ~prop_name:a
               ~target:(lacking a t))
        | P_union (a, b) -> Ok (union db ~name (cls a) (cls b))
        | P_intersect (a, b) -> Ok (intersect db ~name (cls a) (cls b))
        | P_difference (a, b) -> Ok (difference db ~name (cls a) (cls b))
        | P_write (o, a, v) ->
          let o = pick (List.sort Oid.compare (Database.objects db)) o in
          Database.set_attr db o a (value a v);
          Ok o
      in
      let outcome step db op =
        match apply step db op with
        | r -> r
        | exception
            ( Tse_algebra.Ops.Error m
            | Expr.Unknown_property m
            | Expr.Type_error m
            | Invalid_argument m ) ->
          Error m
      in
      let memberships db =
        List.map (Database.member_classes db)
          (List.sort Oid.compare (Database.objects db))
      in
      let rec judge = function
        | [] -> true
        | (step, op) :: rest ->
          let r = outcome step inc op and r' = outcome step ora op in
          let what = pop_op_to_string op in
          let problems = Database.check inc and oracle = Database.check ora in
          if Result.is_ok r <> Result.is_ok r' then
            QCheck.Test.fail_reportf "%s: outcomes differ" what
          else if List.exists (fun p -> not (List.mem p oracle)) problems then
            QCheck.Test.fail_reportf "%s: inconsistent:@.%s" what
              (String.concat "\n" problems)
          else if oracle <> [] then true
          else if memberships inc <> memberships ora then
            QCheck.Test.fail_reportf "%s: member classes diverged" what
          else judge rest
      in
      judge (List.mapi (fun i op -> (i, op)) ops))

(* Property resolution reads the schema's declarer table. The reference
   here resolves the way the database did before it had one: filter the
   object's member classes, in their order, for a local definition, then
   apply the same priority rule (most specific, then promoted, then one
   uid or an ambiguity). Method bodies read through the reference too. *)
let rec reference_get db o name =
  let g = Database.graph db in
  let candidates =
    List.filter_map
      (fun cid ->
        Option.map
          (fun p -> (cid, p))
          (Klass.local_prop (Schema_graph.find_exn g cid) name))
      (Database.member_classes db o)
  in
  let not_overridden (cid, _) =
    not
      (List.exists
         (fun (other, _) ->
           (not (Oid.equal other cid))
           && Schema_graph.is_strict_ancestor g ~anc:cid ~desc:other)
         candidates)
  in
  let chosen =
    match List.filter not_overridden candidates with
    | [] -> None
    | [ c ] -> Some c
    | minimal -> (
      match List.filter (fun (_, (p : Prop.t)) -> p.promoted) minimal with
      | [ c ] -> Some c
      | _ ->
        let uids =
          List.sort_uniq Int.compare
            (List.map (fun (_, (p : Prop.t)) -> p.uid) minimal)
        in
        if List.length uids <= 1 then Some (List.hd minimal)
        else
          raise
            (Expr.Type_error
               (Printf.sprintf "ambiguous property %s (rename to disambiguate)"
                  name)))
  in
  match chosen with
  | None -> raise (Expr.Unknown_property name)
  | Some (_, p) -> (
    match p.body with
    | Prop.Stored _ -> Tse_objmodel.Slicing.get_attr (Database.model db) o name
    | Prop.Method e ->
      Expr.eval
        {
          Expr.self = o;
          get = reference_get db o;
          member_of =
            (fun cname ->
              match Schema_graph.find_by_name g cname with
              | Some k -> Database.is_member db o k.cid
              | None -> false);
        }
        e)

(* For every object and every name one of its member classes declares,
   [Database.get_prop] reads what the reference reads, or raises the same
   exception, across random evolutions. Added names come from a small
   pool so several classes declare one name, and add_edge unions promote
   property copies. *)
let prop_resolution_equals_member_scan =
  QCheck.Test.make
    ~name:"property resolution == member-class scan (random evolutions)"
    ~count:25 seed_arb (fun seed ->
      let rng = Random.State.make [| seed; 71 |] in
      let rs =
        Random_schema.generate ~seed ~classes:8 ~objects:16 ~virtuals:3 ()
      in
      let db = rs.db in
      let g = Database.graph db in
      let tsem = Tsem.of_database db in
      ignore
        (Tsem.define_view_by_names tsem ~name:"V" (Random_schema.class_names rs));
      let pool = [| "p"; "q"; "r" |] in
      let pick () = pool.(Random.State.int rng (Array.length pool)) in
      let outcome f =
        match f () with
        | v -> Ok v
        | exception (Expr.Unknown_property _ as e) -> Error e
        | exception (Expr.Type_error _ as e) -> Error e
      in
      let same a b =
        match (a, b) with
        | Ok v, Ok v' -> Value.equal v v'
        | Error e, Error e' -> e = e'
        | _ -> false
      in
      let judge what =
        List.iter
          (fun o ->
            let names =
              List.concat_map
                (fun cid ->
                  List.map
                    (fun (p : Prop.t) -> p.name)
                    (Schema_graph.find_exn g cid).local_props)
                (Database.member_classes db o)
              |> List.sort_uniq String.compare
            in
            List.iter
              (fun name ->
                let got = outcome (fun () -> Database.get_prop db o name) in
                let want = outcome (fun () -> reference_get db o name) in
                if not (same got want) then
                  QCheck.Test.fail_reportf "after %s, %s.%s differs" what
                    (Oid.to_string o) name)
              names)
          (Database.objects db)
      in
      judge "generation";
      for i = 0 to 23 do
        let cls () =
          Schema_graph.name_of g (Random_schema.random_class rng rs)
        in
        let change =
          match i mod 4 with
          | 0 ->
            Change.Add_attribute
              { cls = cls (); def = Change.attr (pick ()) Value.TInt }
          | 1 ->
            Change.Add_method
              { cls = cls (); method_name = pick (); body = Expr.int i }
          | 2 -> Testkit.random_change ~kind:3 rng rs
          | _ -> Testkit.random_change rng rs
        in
        (match Tsem.evolve tsem ~view:"V" change with
        | _ -> ()
        | exception Change.Rejected _ -> ());
        List.iter
          (fun o ->
            try Database.set_attr db o (pick ()) (Value.Int i)
            with Expr.Unknown_property _ | Expr.Type_error _ -> ())
          (Database.objects db);
        judge (Change.to_string change)
      done;
      true)

let suite =
  List.map Qcheck_det.to_alcotest
    [
      prop_models_agree;
      prop_incremental_equals_oracle;
      prop_populate_equals_oracle;
      prop_catalog_roundtrip;
      prop_random_schema_consistent;
      prop_tse_equals_direct;
      prop_view_independence;
      prop_old_hierarchy_fixed;
      prop_updatability_preserved;
      prop_history_monotone;
      prop_trace_calibration;
      prop_trace_replay_consistent;
      prop_resolution_equals_member_scan;
    ]
