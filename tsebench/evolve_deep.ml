(* evolve_deep: one schema designer evolves view "main" through a long
   seeded change history while programs keep writing through OCC and
   reading through classes of randomly pinned older versions. The only
   workload whose cost is dominated by the evolution layers: admission,
   translator, derive/classify/integrate/reclassify, history staging,
   the evolution WAL records, and the reopen-from-disk path a rejected
   change takes. Every evolution also flushes the plan cache the pinned
   readers use. *)

open Common
module Value = Tse_store.Value
module Oid = Tse_store.Oid
module Expr = Tse_schema.Expr
module Prop = Tse_schema.Prop
module Schema_graph = Tse_schema.Schema_graph
module Schema_codec = Tse_schema.Schema_codec
module Type_info = Tse_schema.Type_info
module Database = Tse_db.Database
module Durable = Tse_db.Durable
module Occ = Tse_concurrency.Occ
module Engine = Tse_query.Engine
module Indexes = Tse_query.Indexes
module History = Tse_views.History
module History_codec = Tse_views.History_codec
module View_schema = Tse_views.View_schema
module Change = Tse_core.Change
module Durable_tse = Tse_core.Durable_tse
module Verify = Tse_core.Verify

type config = {
  steps : int;  (* evolution attempts per round; a multiple of 20 *)
  classes : int;  (* base classes C0.. *)
  objects : int;
  writers : int;  (* OCC write transactions per step *)
  readers : int;  (* pinned-version indexed selects per step *)
  checkpoint_every : int;  (* steps *)
}

let full =
  {
    steps = 100;
    classes = 8;
    objects = 1000;
    writers = 4;
    readers = 4;
    checkpoint_every = 20;
  }

let smoke =
  { steps = 20; classes = 8; objects = 200; writers = 2; readers = 2;
    checkpoint_every = 5 }

let view_name = "main"

(* One block of 20 steps; 3 of 20 (15%) are rejected by design. *)
type plan =
  | Add_attr
  | Add_meth
  | Add_cls
  | Rename
  | Partition
  | Stale_delete  (* delete an attribute that was never added *)
  | Self_edge
  | Cyclic_edge  (* add_edge from a class to one of its ancestors *)

let block =
  List.concat
    [
      List.init 7 (fun _ -> Add_attr);
      List.init 4 (fun _ -> Add_meth);
      List.init 2 (fun _ -> Add_cls);
      List.init 2 (fun _ -> Rename);
      List.init 2 (fun _ -> Partition);
      [ Stale_delete; Self_edge; Cyclic_edge ];
    ]

let plan_name = function
  | Add_attr -> "add_attr"
  | Add_meth -> "add_meth"
  | Add_cls -> "add_cls"
  | Rename -> "rename"
  | Partition -> "partition"
  | Stale_delete -> "stale_delete"
  | Self_edge -> "self_edge"
  | Cyclic_edge -> "cyclic_edge"

let rejected_by_design = function
  | Stale_delete | Self_edge | Cyclic_edge -> true
  | _ -> false

let schedule shape steps =
  Array.concat
    (List.init (steps / 20) (fun _ -> shuffle shape (Array.of_list block)))

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

(* [shape] draws every choice of the change; see [round]. *)
let gen_change shape t step plan =
  let view = Durable_tse.current t view_name in
  let graph = Database.graph (Durable_tse.db t) in
  let members = view.View_schema.members in
  let cls = snd (pick shape members) in
  let add_attr () =
    Change.Add_attribute
      {
        cls;
        def =
          Change.attr ~default:(Value.Int 0) (Printf.sprintf "x%d" step)
            Value.TInt;
      }
  in
  match plan with
  | Add_attr -> add_attr ()
  | Add_meth ->
    Change.Add_method
      { cls; method_name = Printf.sprintf "m%d" step; body = Expr.int step }
  | Add_cls ->
    Change.Add_class { cls = Printf.sprintf "K%d" step; connected_to = None }
  | Rename ->
    Change.Rename_class { old_name = cls; new_name = Printf.sprintf "R%d" step }
  | Partition -> (
    let int_attr (cid, _) =
      Type_info.stored_attrs graph cid
      |> List.filter (fun (p : Prop.t) ->
             match p.Prop.body with
             | Prop.Stored { ty = Value.TInt; _ } -> true
             | _ -> false)
      |> List.map (fun (p : Prop.t) -> p.Prop.name)
    in
    match int_attr (View_schema.cid_of_exn view cls, cls) with
    | [] -> add_attr ()
    | attrs ->
      let a = pick shape attrs in
      Change.Partition_class
        {
          cls;
          predicate = Expr.(attr a >= int (Random.State.int shape 1000));
          into_true = Printf.sprintf "P%dt" step;
          into_false = Printf.sprintf "P%df" step;
        })
  | Stale_delete ->
    Change.Delete_attribute { cls; attr_name = Printf.sprintf "zz%d" step }
  | Self_edge -> Change.Add_edge { sup = cls; sub = cls }
  | Cyclic_edge -> (
    let pairs =
      List.concat_map
        (fun (d, dn) ->
          List.filter_map
            (fun (a, an) ->
              if Schema_graph.is_strict_ancestor graph ~anc:a ~desc:d then
                Some (dn, an)
              else None)
            members)
        members
    in
    match pairs with
    | [] -> Change.Add_edge { sup = cls; sub = cls }
    | _ ->
      let desc, anc = pick shape pairs in
      Change.Add_edge { sup = desc; sub = anc })

type state = {
  mutable t : Durable_tse.t;
  mutable occ : Occ.t;
  mutable idx : Indexes.t;
  base : Oid.t array;  (* cid of C<i> *)
  oids : Oid.t array array;  (* objects created in C<i> *)
}

let attach st =
  let db = Durable_tse.db st.t in
  st.occ <- Occ.create db;
  st.idx <- Indexes.create db;
  Array.iteri
    (fun i c -> Indexes.ensure st.idx c (Printf.sprintf "a%d" i))
    st.base

let stored = Prop.stored ~origin:(Oid.of_int 0)

let setup cfg ~dir rng =
  let t, _ = Durable_tse.open_dir ~policy:Durable.Every_commit ~dir () in
  let db = Durable_tse.db t in
  let graph = Database.graph db in
  let base =
    Array.make cfg.classes (Schema_graph.root graph)
  in
  for i = 0 to cfg.classes - 1 do
    let supers = if i mod 3 <> 0 then [ base.(i - 1) ] else [] in
    let cid =
      Schema_graph.register_base graph
        ~name:(Printf.sprintf "C%d" i)
        ~props:
          [
            stored (Printf.sprintf "a%d" i) Value.TInt;
            stored (Printf.sprintf "s%d" i) Value.TString;
          ]
        ~supers
    in
    Database.note_new_class db cid;
    base.(i) <- cid
  done;
  let per = Array.make cfg.classes [] in
  for j = 0 to cfg.objects - 1 do
    let i = j mod cfg.classes in
    let o =
      Database.create_object db base.(i)
        ~init:
          [
            (Printf.sprintf "a%d" i, Value.Int (Random.State.int rng 1000));
            (Printf.sprintf "s%d" i, Value.String (Printf.sprintf "o%d" j));
          ]
    in
    per.(i) <- o :: per.(i)
  done;
  ignore
    (Durable_tse.define_view_by_names t ~name:view_name
       (List.init cfg.classes (Printf.sprintf "C%d")));
  Durable_tse.checkpoint t;
  let st =
    {
      t;
      occ = Occ.create db;
      idx = Indexes.create db;
      base;
      oids = Array.map (fun l -> Array.of_list (List.rev l)) per;
    }
  in
  attach st;
  st

let write_txn r st rng =
  let i = Random.State.int rng (Array.length st.base) in
  let objs = st.oids.(i) in
  let o = objs.(Random.State.int rng (Array.length objs)) in
  let a = Printf.sprintf "a%d" i and s = Printf.sprintf "s%d" i in
  let v = Random.State.int rng 1000 in
  ignore
    (op r ~span:"commit" ~classify:(fun _ -> "commit") (fun () ->
         Occ.commit_with_retry ~durable:(Durable_tse.durable st.t) st.occ
           (fun sess ->
             ignore (Occ.read sess o a);
             Occ.write sess o a (Value.Int v);
             Occ.write sess o s (Value.String (Printf.sprintf "w%d" v)))))

(* An indexed select through a base class as a randomly pinned older
   version of the view names it. *)
let pinned_read r st rng =
  let versions = History.versions (Durable_tse.history st.t) view_name in
  let v = pick rng versions in
  let base_of cid =
    let rec go i =
      if i = Array.length st.base then None
      else if Oid.equal st.base.(i) cid then Some i
      else go (i + 1)
    in
    go 0
  in
  let indexed =
    List.filter_map (fun (cid, _) -> base_of cid) v.View_schema.members
  in
  let i = match indexed with [] -> 0 | l -> pick rng l in
  let pred = Expr.(attr (Printf.sprintf "a%d" i) === int (Random.State.int rng 1000)) in
  let db = Durable_tse.db st.t in
  ignore
    (op r ~span:"lookup" ~classify:(fun _ -> "lookup") (fun () ->
         Engine.select db st.idx st.base.(i) pred));
  probe r "plan" (fun () -> ignore (Engine.plan db st.idx st.base.(i) pred))

let round cfg ~seed ~round ~dir ~traced =
  let r = recorder ~traced in
  let rng = Random.State.make [| seed; round; 1 |] in
  let traffic = Random.State.make [| seed; round; 2 |] in
  let t0 = now () in
  let st = setup cfg ~dir rng in
  let setup_s = now () -. t0 in
  (* The change history (which change, on which class, in which order,
     with which partition constant) is the same for every seed and
     round: the cost of an evolution depends on the extent and
     derivation chain of its target, so different histories are not
     comparable runs. The seed draws the data, the OCC traffic and the
     pinned reads. *)
  let shape = Random.State.make [| 0x5eed |] in
  let plans = schedule shape cfg.steps in
  let accepted = ref 0 and rejected = ref 0 and commits = ref 0 in
  let phase () =
    Array.iteri
      (fun step plan ->
        for _ = 1 to cfg.writers do
          write_txn r st traffic;
          incr commits;
          if !commits mod 16 = 0 then
            probe r "encode_graph" (fun () ->
                ignore
                  (Schema_codec.encode_graph
                     (Database.graph (Durable_tse.db st.t))))
        done;
        for _ = 1 to cfg.readers do
          pinned_read r st traffic
        done;
        let change = gen_change shape st.t step plan in
        let changes = [ change ] in
        let expect_reject = rejected_by_design plan in
        let res =
          op r ~span:"evolve_many"
            ~classify:(function
              | Ok _ when not expect_reject -> "evolve." ^ plan_name plan
              | Error _ when expect_reject -> "reject." ^ plan_name plan
              | _ -> "unexpected")
            (fun () -> Durable_tse.evolve_many st.t ~view:view_name changes)
        in
        (match res with
        | Some (Ok _) when not expect_reject ->
          incr accepted;
          probe r "history_encode" (fun () ->
              ignore (History_codec.encode (Durable_tse.history st.t)))
        | Some (Error _) when expect_reject ->
          incr rejected;
          (* the rejection reopened the database from disk *)
          attach st
        | Some (Ok _) ->
          incr accepted;
          check r false "step %d: %s accepted, expected a rejection" step
            (Change.to_string (List.hd changes))
        | Some (Error msg) ->
          incr rejected;
          attach st;
          check r false "step %d: %s rejected: %s" step
            (Change.to_string (List.hd changes))
            msg
        | None -> attach st);
        if (step + 1) mod cfg.checkpoint_every = 0 then
          ignore
            (op r ~span:"checkpoint" ~classify:(fun _ -> "checkpoint")
               (fun () -> Durable_tse.checkpoint st.t)))
      plans
  in
  let m = Round.measure r phase in
  (* output checks, untimed *)
  let version = (Durable_tse.current st.t view_name).View_schema.version in
  check r (version = !accepted) "view version %d, %d evolutions accepted"
    version !accepted;
  let db = Durable_tse.db st.t in
  let classes = Schema_graph.size (Database.graph db) in
  let fp = Verify.db_fingerprint ~history:(Durable_tse.history st.t) db in
  Durable_tse.close st.t;
  let t2, _ = Durable_tse.open_dir ~policy:Durable.Every_commit ~dir () in
  let db2 = Durable_tse.db t2 in
  check r
    (String.equal fp
       (Verify.db_fingerprint ~history:(Durable_tse.history t2) db2))
    "reopened database fingerprint differs";
  Round.consistent r db2;
  Durable_tse.close t2;
  r.counts <-
    [
      ("evolutions_accepted", !accepted);
      ("evolutions_rejected", !rejected);
      ("classes", classes);
      ("commits", !commits);
    ]
    @ m.Round.totals;
  { m with Round.setup_s }
