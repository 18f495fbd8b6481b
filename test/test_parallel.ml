(* The sharded snapshot encode: [Snapshot.to_string] renders OID-range
   chunks across the global pool and concatenates them in chunk order,
   so its bytes must not depend on the pool size.  Every heap is encoded
   on a size-1 pool (one inline chunk) and again at each larger domain
   count. *)

open Tse_store
module Pool = Tse_pool.Pool
module Database = Tse_db.Database
module Random_schema = Tse_workload.Random_schema

let domain_counts = [ 2; 3; 4 ]

(* [to_string heap] at size 1, then at each of [domain_counts], restoring
   the global pool afterwards. *)
let encodes heap =
  Fun.protect
    ~finally:(fun () -> Pool.set_global_size (Pool.default_domains ()))
    (fun () ->
      Pool.set_global_size 1;
      let baseline = Snapshot.to_string heap in
      ( baseline,
        List.map
          (fun d ->
            Pool.set_global_size d;
            (d, Snapshot.to_string heap))
          domain_counts ))

let same_bytes what heap =
  let baseline, sharded = encodes heap in
  List.for_all
    (fun (d, s) ->
      if not (String.equal s baseline) then
        QCheck.Test.fail_reportf "%s: encode diverged at %d domains" what d;
      true)
    sharded

let test_empty_heap () =
  Alcotest.(check bool) "empty heap" true (same_bytes "empty" (Heap.create ()))

let test_one_cell () =
  let heap = Heap.create () in
  ignore (Heap.alloc_with heap ~tag:"cell" [ ("a", Value.Int 1) ]);
  Alcotest.(check bool) "one cell" true (same_bytes "one cell" heap)

(* Random heaps, with every fifth object destroyed so the cell array has
   holes that chunk boundaries fall into. *)
let prop_random_heaps =
  QCheck.Test.make ~name:"encode bytes: random heaps" ~count:10
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000))
    (fun seed ->
      let rs =
        Random_schema.generate ~seed ~classes:4 ~objects:200 ~virtuals:3 ()
      in
      List.iteri
        (fun i o -> if i mod 5 = 0 then Database.destroy_object rs.db o)
        (Database.objects rs.db);
      same_bytes (Printf.sprintf "seed %d" seed) (Database.heap rs.db))

let suite =
  [
    Alcotest.test_case "encode bytes: empty heap" `Quick test_empty_heap;
    Alcotest.test_case "encode bytes: one-cell heap" `Quick test_one_cell;
    Qcheck_det.to_alcotest prop_random_heaps;
  ]
