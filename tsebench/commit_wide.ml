(* commit_wide: many small OCC write transactions, each committed
   durably, against a wide and stable schema (hundreds of base classes
   plus a hundred derived select classes) with no evolutions. It
   isolates the durable commit path: OCC validation, heap logging,
   reclassification of the written object, the whole-schema encode a
   durable commit runs, and the WAL append and fsync. It bypasses the
   evolution and query layers: an evolution-side change must show no
   change here. *)

open Common
module Value = Tse_store.Value
module Oid = Tse_store.Oid
module Expr = Tse_schema.Expr
module Prop = Tse_schema.Prop
module Schema_graph = Tse_schema.Schema_graph
module Schema_codec = Tse_schema.Schema_codec
module Database = Tse_db.Database
module Durable = Tse_db.Durable
module Occ = Tse_concurrency.Occ
module Ops = Tse_algebra.Ops

type config = {
  classes : int;  (* base classes B0.. *)
  derived : int;  (* select classes S<j> over B<3j>; classes >= 3 * derived *)
  objects : int;
  commits : int;  (* transactions per round *)
}

let full = { classes = 300; derived = 100; objects = 6_000; commits = 1_000 }
let smoke = { classes = 30; derived = 10; objects = 600; commits = 200 }

let threshold = 500
let stored = Prop.stored ~origin:(Oid.of_int 0)

let setup cfg ~dir rng =
  let d, _ = Durable.open_dir ~policy:Durable.Every_commit ~dir () in
  let db = Durable.db d in
  let graph = Database.graph db in
  let base =
    Array.init cfg.classes (fun i ->
        let cid =
          Schema_graph.register_base graph
            ~name:(Printf.sprintf "B%d" i)
            ~props:
              [
                stored (Printf.sprintf "p%d" i) Value.TInt;
                stored (Printf.sprintf "q%d" i) Value.TInt;
                stored (Printf.sprintf "r%d" i) Value.TString;
              ]
            ~supers:[]
        in
        Database.note_new_class db cid;
        cid)
  in
  let per = Array.make cfg.classes [] in
  for n = 0 to cfg.objects - 1 do
    let i = n mod cfg.classes in
    let o =
      Database.create_object db base.(i)
        ~init:
          [
            (Printf.sprintf "p%d" i, Value.Int (Random.State.int rng 1000));
            (Printf.sprintf "q%d" i, Value.Int 0);
            (Printf.sprintf "r%d" i, Value.String (Printf.sprintf "o%d" n));
          ]
    in
    per.(i) <- o :: per.(i)
  done;
  for j = 0 to cfg.derived - 1 do
    let i = 3 * j in
    ignore
      (Ops.select db
         ~name:(Printf.sprintf "S%d" j)
         ~src:base.(i)
         Expr.(attr (Printf.sprintf "p%d" i) >= int threshold))
  done;
  Durable.checkpoint d;
  (* transactions target the classes a derived predicate reads *)
  let targets =
    Array.init cfg.derived (fun j -> (3 * j, Array.of_list (List.rev per.(3 * j))))
  in
  (d, targets)

let round cfg ~seed ~round ~dir ~traced =
  let r = recorder ~traced in
  let rng = Random.State.make [| seed; round; 1 |] in
  let traffic = Random.State.make [| seed; round; 2 |] in
  let t0 = now () in
  let d, targets = setup cfg ~dir rng in
  let occ = Occ.create (Durable.db d) in
  let setup_s = now () -. t0 in
  let last = Hashtbl.create 1024 in
  let phase () =
    for n = 1 to cfg.commits do
      let i, objs = targets.(Random.State.int traffic (Array.length targets)) in
      let o = objs.(Random.State.int traffic (Array.length objs)) in
      let p = Printf.sprintf "p%d" i and q = Printf.sprintf "q%d" i in
      let pv = Random.State.int traffic 1000 in
      let was =
        match Database.get_prop (Durable.db d) o p with
        | Value.Int v -> v
        | _ -> 0
      in
      let kind =
        if was >= threshold = (pv >= threshold) then "commit.stay"
        else "commit.move"
      in
      let res =
        op r ~span:"commit" ~classify:(fun _ -> kind) (fun () ->
            Occ.commit_with_retry ~durable:d occ (fun sess ->
                ignore (Occ.read sess o q);
                Occ.write sess o p (Value.Int pv);
                Occ.write sess o q (Value.Int n)))
      in
      if res <> None then Hashtbl.replace last (o, p, q) (pv, n);
      if n mod 16 = 0 then
        probe r "encode_graph" (fun () ->
            ignore (Schema_codec.encode_graph (Database.graph (Durable.db d))))
    done
  in
  let m = Round.measure r phase in
  let classes = Schema_graph.size (Database.graph (Durable.db d)) in
  (* output checks, untimed: every last-written value survives a reopen *)
  Durable.close d;
  let d2, _ = Durable.open_dir ~policy:Durable.Every_commit ~dir () in
  let db2 = Durable.db d2 in
  let wrong = ref 0 in
  Hashtbl.iter
    (fun (o, p, q) (pv, qv) ->
      let ok =
        Value.equal (Database.get_prop db2 o p) (Value.Int pv)
        && Value.equal (Database.get_prop db2 o q) (Value.Int qv)
      in
      if not ok then incr wrong)
    last;
  check r (!wrong = 0) "%d of %d written objects lost their last write"
    !wrong (Hashtbl.length last);
  Round.consistent r db2;
  Durable.close d2;
  r.counts <- [ ("classes", classes); ("objects_written", Hashtbl.length last) ]
              @ m.Round.totals;
  { m with Round.setup_s }
