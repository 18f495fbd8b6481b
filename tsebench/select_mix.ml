(* select_mix: in-memory, read-mostly query traffic over one base class
   with a two-level select derivation (Hot of Item, HotG of Hot), a hash
   index and an ordered index. It isolates the query layer (plan cache,
   planner, index probe, compiled scan) and write-side reclassification
   and index maintenance, with no durability and no evolution: the
   "no change expected" workload for the other two.

   Lookup shapes are mixed so that the median falls inside the cheap
   point/pushdown shapes and the 90th percentile inside the range
   shape, never on the boundary between two shapes. *)

open Common
module Value = Tse_store.Value
module Oid = Tse_store.Oid
module Expr = Tse_schema.Expr
module Prop = Tse_schema.Prop
module Schema_graph = Tse_schema.Schema_graph
module Database = Tse_db.Database
module Ops = Tse_algebra.Ops
module Engine = Tse_query.Engine
module Indexes = Tse_query.Indexes

type config = {
  objects : int;
  blocks : int;  (* blocks of 100 ops per round *)
  check_every : int;  (* ops between interpreted cross-checks *)
}

let full = { objects = 5_000; blocks = 20; check_every = 250 }
let smoke = { objects = 3_000; blocks = 6; check_every = 50 }

(* per 100 ops: 80 index-answerable lookups, 12 scans, 8 writes *)
type shape = Point | Pushdown | Range | Scan | Write_flag | Write_score

let block =
  List.concat
    [
      List.init 36 (fun _ -> Point);
      List.init 16 (fun _ -> Pushdown);
      List.init 28 (fun _ -> Range);
      List.init 12 (fun _ -> Scan);
      List.init 4 (fun _ -> Write_flag);
      List.init 4 (fun _ -> Write_score);
    ]

let keys = 10_000
let scores = 100_000
let hot_keys = 200  (* point constants: fits the 512-entry plan cache *)

let stored = Prop.stored ~origin:(Oid.of_int 0)

let setup cfg rng =
  let db = Database.create () in
  let graph = Database.graph db in
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
  Database.note_new_class db item;
  let oids =
    Array.init cfg.objects (fun _ ->
        Database.create_object db item
          ~init:
            [
              ("k", Value.Int (Random.State.int rng keys));
              ("score", Value.Int (Random.State.int rng scores));
              ("flag", Value.Int (Random.State.int rng 100));
              ("grp", Value.Int (Random.State.int rng 100));
            ])
  in
  let hot = Ops.select db ~name:"Hot" ~src:item Expr.(attr "flag" >= int 50) in
  let hotg = Ops.select db ~name:"HotG" ~src:hot Expr.(attr "grp" < int 50) in
  let idx = Indexes.create db in
  Indexes.ensure ~kind:Indexes.Hash idx item "k";
  Indexes.ensure ~kind:Indexes.Ordered idx item "score";
  let hot_set = Array.init hot_keys (fun _ -> Random.State.int rng keys) in
  (db, idx, item, hot, hotg, oids, hot_set)

let round cfg ~seed ~round ~dir:_ ~traced =
  let r = recorder ~traced in
  let rng = Random.State.make [| seed; round; 1 |] in
  let traffic = Random.State.make [| seed; round; 2 |] in
  let t0 = now () in
  let db, idx, item, hot, hotg, oids, hot_set = setup cfg rng in
  let setup_s = now () -. t0 in
  let n = ref 0 and checked = ref 0 in
  let cross_check cid pred got =
    incr checked;
    let expect =
      Oid.Set.filter (fun o -> Database.holds db o pred) (Database.extent db cid)
    in
    check r (Oid.Set.equal expect got)
      "select %s: engine %d rows, interpreted %d" (Expr.to_string pred)
      (Oid.Set.cardinal got) (Oid.Set.cardinal expect)
  in
  (* Engine.select, not Engine.count: only select feeds the query.*
     counters and the query.select span the per-layer table reads *)
  let query kind cid pred =
    match
      op r
        ~span:(List.hd (String.split_on_char '.' kind))
        ~classify:(fun _ -> kind)
        (fun () ->
          Engine.select db idx cid pred)
    with
    | Some got ->
      if within "lookup" kind then
        probe r "plan" (fun () -> ignore (Engine.plan db idx cid pred));
      if !n mod cfg.check_every = 0 then cross_check cid pred got
    | None -> ()
  in
  let write attr v =
    let o = oids.(Random.State.int traffic (Array.length oids)) in
    ignore
      (op r ~span:"write" ~classify:(fun _ -> "write") (fun () ->
           Database.set_attr db o attr (Value.Int v)))
  in
  let hot_key () = hot_set.(Random.State.int traffic hot_keys) in
  let phase () =
    for _ = 1 to cfg.blocks do
      let shapes = shuffle traffic (Array.of_list block) in
      Array.iter
        (fun shape ->
          incr n;
          match shape with
          | Point ->
            query "lookup.point" item
              Expr.(attr "k" === int (hot_key ()) && (attr "flag" >= int 20))
          | Pushdown ->
            query "lookup.pushdown" hotg Expr.(attr "k" === int (hot_key ()))
          | Range ->
            let x = Random.State.int traffic (scores - 100) in
            query "lookup.range" item
              Expr.(attr "score" >= int x && (attr "score" < int (x + 100)))
          | Scan ->
            query "scan" hot
              Expr.(
                Arith (Add, attr "grp", attr "flag")
                === int (50 + Random.State.int traffic 100))
          | Write_flag -> write "flag" (Random.State.int traffic 100)
          | Write_score -> write "score" (Random.State.int traffic scores))
        shapes
    done
  in
  let m = Round.measure r phase in
  check r (!checked > 0) "no interpreted cross-check ran";
  Round.consistent r db;
  r.counts <-
    [ ("classes", Schema_graph.size (Database.graph db)); ("cross_checks", !checked) ]
    @ m.Round.totals;
  { m with Round.setup_s }
