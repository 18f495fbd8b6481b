(* Domain pool: chunk decomposition, exactly-once execution, result
   ordering, exception propagation (pool stays usable afterwards), and a
   multi-domain hammer over the atomic metrics registry asserting no
   lost increments. *)

module Pool = Tse_pool.Pool
module Metrics = Tse_obs.Metrics

let test_chunk_ranges () =
  (* every decomposition covers [0, n) exactly, contiguous ascending *)
  List.iter
    (fun (size, n) ->
      let chunks = Pool.chunk_ranges ~size ~n in
      let expect_start = ref 0 in
      List.iter
        (fun (lo, hi) ->
          Alcotest.(check int)
            (Printf.sprintf "contiguous at %d (size=%d n=%d)" lo size n)
            !expect_start lo;
          Alcotest.(check bool)
            "nonempty chunk" true (hi > lo);
          expect_start := hi)
        chunks;
      Alcotest.(check int)
        (Printf.sprintf "covers n (size=%d n=%d)" size n)
        n !expect_start)
    [ (1, 10); (2, 10); (4, 100); (8, 7); (3, 1); (7, 1000); (64, 65) ];
  (* size 1 must be a single chunk: the inline sequential path *)
  Alcotest.(check (list (pair int int)))
    "size 1 is one chunk" [ (0, 42) ]
    (Pool.chunk_ranges ~size:1 ~n:42);
  Alcotest.(check (list (pair int int)))
    "n = 0 is no chunks" [] (Pool.chunk_ranges ~size:4 ~n:0)

let test_run_exactly_once () =
  let pool = Pool.create 4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let n = 10_000 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      Pool.run pool ~n (fun ~lo ~hi ->
          for i = lo to hi - 1 do
            Atomic.incr hits.(i)
          done);
      Array.iteri
        (fun i c ->
          if Atomic.get c <> 1 then
            Alcotest.failf "index %d executed %d times" i (Atomic.get c))
        hits)

let test_map_chunks_ordered () =
  let pool = Pool.create 4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      for _ = 1 to 20 do
        let chunks = Pool.map_chunks pool ~n:1_000 (fun ~lo ~hi -> (lo, hi)) in
        Alcotest.(check (list (pair int int)))
          "results come back in ascending chunk order"
          (Pool.chunk_ranges ~size:4 ~n:1_000)
          chunks
      done)

let test_exception_propagates () =
  let pool = Pool.create 3 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let ran = Atomic.make 0 in
      (match
         Pool.run pool ~n:5_000 (fun ~lo ~hi ->
             ignore (hi : int);
             Atomic.incr ran;
             if lo = 0 then failwith "boom")
       with
      | () -> Alcotest.fail "expected the chunk exception to re-raise"
      | exception Failure m -> Alcotest.(check string) "message" "boom" m);
      (* all chunks still ran: the failure did not abandon work *)
      Alcotest.(check int)
        "every chunk executed despite the failure"
        (List.length (Pool.chunk_ranges ~size:3 ~n:5_000))
        (Atomic.get ran);
      (* and the pool is reusable afterwards *)
      let total = Atomic.make 0 in
      Pool.run pool ~n:5_000 (fun ~lo ~hi ->
          ignore (Atomic.fetch_and_add total (hi - lo)));
      Alcotest.(check int) "pool reusable after exception" 5_000
        (Atomic.get total))

let test_size_one_inline () =
  let pool = Pool.create 1 in
  Alcotest.(check int) "size clamps to 1" 1 (Pool.size pool);
  (* a size-1 pool runs on the caller's domain: effects are immediately
     visible without any synchronization *)
  let acc = ref [] in
  Pool.run pool ~n:10 (fun ~lo ~hi -> acc := (lo, hi) :: !acc);
  Alcotest.(check (list (pair int int))) "single inline chunk" [ (0, 10) ] !acc;
  Pool.shutdown pool

let test_metrics_hammer () =
  (* Satellite (a): hammer one counter, one labeled counter and one
     histogram from every domain of a pool and assert no increment is
     lost — every counter is one atomic cell, not lock-per-update. *)
  let pool = Pool.create 4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let c = Metrics.counter "test_pool.hammer" in
      let lab = Metrics.counter ~labels:[ ("k", "v") ] "test_pool.hammer_l" in
      let h = Metrics.histogram ~buckets:[ 1.0; 10.0 ] "test_pool.hammer_h" in
      let c0 = Metrics.counter_value c in
      let l0 = Metrics.counter_value lab in
      let n = 100_000 in
      Pool.run pool ~n (fun ~lo ~hi ->
          for i = lo to hi - 1 do
            Metrics.incr c;
            if i land 1 = 0 then Metrics.incr lab;
            if i land 1023 = 0 then Metrics.observe h 5.0
          done);
      Alcotest.(check int) "no lost counter increments" (c0 + n)
        (Metrics.counter_value c);
      Alcotest.(check int)
        "no lost labeled increments" (l0 + (n / 2))
        (Metrics.counter_value lab))

let suite =
  [
    Alcotest.test_case "chunk_ranges covers [0,n)" `Quick test_chunk_ranges;
    Alcotest.test_case "run executes each index once" `Quick
      test_run_exactly_once;
    Alcotest.test_case "map_chunks is chunk-ordered" `Quick
      test_map_chunks_ordered;
    Alcotest.test_case "exceptions re-raise, pool survives" `Quick
      test_exception_propagates;
    Alcotest.test_case "size-1 pool is inline" `Quick test_size_one_inline;
    Alcotest.test_case "metrics survive a multi-domain hammer" `Quick
      test_metrics_hammer;
  ]
