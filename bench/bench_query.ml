(* Query-pipeline benchmark: million-object extent scans, interpreted
   vs compiled predicate evaluation, and index-assisted plans (hash
   equality probe, ordered range scan). Emits BENCH_query.json with a
   metrics section (rows scanned and returned) so CI can assert the
   compiled-pipeline speedups. *)

open Tse_store
open Tse_schema
open Tse_db
module Metrics = Tse_obs.Metrics
module Timeseries = Tse_obs.Timeseries
module Telemetry_server = Tse_obs.Telemetry_server
module Engine = Tse_query.Engine
module Indexes = Tse_query.Indexes
module Pool = Tse_pool.Pool

let score_mod = 100_000

(* One base class, no virtuals: object creation stays cheap at 10^6 and
   every measured cost is query-side. [grp] has 100 distinct values
   (equality probes), [score] sweeps 0..99999 (range windows). *)
let mk_fixture ~objects =
  let db = Database.create () in
  let g = Database.graph db in
  let props =
    [
      Prop.stored ~origin:(Oid.of_int 0) "grp" Value.TInt;
      Prop.stored ~origin:(Oid.of_int 0) "score" Value.TInt;
    ]
  in
  let item = Schema_graph.register_base g ~name:"Item" ~props ~supers:[] in
  for j = 0 to objects - 1 do
    ignore
      (Database.create_object db item
         ~init:
           [
             ("grp", Value.Int (j mod 100));
             ("score", Value.Int (j * 7919 mod score_mod));
           ])
  done;
  (db, item)

let time_ns f =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best *. 1e9

(* Per-run latencies (ms) over [runs] repetitions, folded into a
   quantile snapshot — the table the report carries instead of a bare
   best-of mean. *)
let latency_quantiles ~runs f =
  let obs =
    List.init runs (fun _ ->
        let t0 = Unix.gettimeofday () in
        f ();
        (Unix.gettimeofday () -. t0) *. 1000.)
  in
  Metrics.Histogram.of_observations
    ~buckets:[ 0.1; 0.25; 0.5; 1.; 2.; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000. ]
    obs

let quantiles_json (h : Metrics.hist_snapshot) =
  Printf.sprintf
    "{\"count\": %d, \"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f}"
    h.Metrics.h_count h.Metrics.h_p50 h.Metrics.h_p95 h.Metrics.h_p99

(* The telemetry-plane overhead measurement: the same best-of compiled
   scan, once quiet and once with the full live plane attached — the
   sampler ticking fast (25ms), the stats endpoint serving, and a
   client domain scraping /metrics in a loop. *)
let measure_sampler_overhead work =
  let baseline_ns = time_ns work in
  let ts = Timeseries.create () in
  Timeseries.start ~interval_ms:25 ts;
  let server = Telemetry_server.start ~addr:"127.0.0.1:0" ~ts () in
  let stop_poll = Atomic.make false in
  let poller =
    match server with
    | Error _ -> None (* sandbox without sockets: sampler-only overhead *)
    | Ok srv ->
      Some
        (Domain.spawn (fun () ->
             let addr = Telemetry_server.addr srv in
             while not (Atomic.get stop_poll) do
               ignore (Telemetry_server.fetch ~addr ~path:"/metrics");
               ignore (Unix.select [] [] [] 0.025)
             done))
  in
  let live_ns = time_ns work in
  Atomic.set stop_poll true;
  Option.iter Domain.join poller;
  (match server with Ok srv -> Telemetry_server.stop srv | Error _ -> ());
  Timeseries.stop ts;
  let served = match server with Ok _ -> true | Error _ -> false in
  ((live_ns -. baseline_ns) /. baseline_ns *. 100., served)

let json_of ~smoke ~objects ~rows ~latency fields =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Printf.bprintf b "  \"benchmark\": \"query\",\n";
  Printf.bprintf b "  \"smoke\": %b,\n" smoke;
  Printf.bprintf b "  \"objects\": %d,\n" objects;
  Printf.bprintf b "  \"domains\": %d,\n" (Pool.size (Pool.global ()));
  Printf.bprintf b "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ());
  Printf.bprintf b "  \"latency_ms\": {%s},\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) latency));
  Printf.bprintf b "  \"results\": {\n";
  List.iteri
    (fun i (k, v) ->
      Printf.bprintf b "    \"%s\": %s%s\n" k v
        (if i = List.length fields - 1 then "" else ","))
    fields;
  Printf.bprintf b "  },\n";
  Printf.bprintf b "  \"rows\": {%s},\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) rows));
  Printf.bprintf b "  \"metrics\": {\n";
  Printf.bprintf b "    \"rows_scanned_total\": %d,\n"
    (Metrics.find_counter "query.rows_scanned");
  Printf.bprintf b "    \"rows_returned_total\": %d,\n"
    (Metrics.find_counter "query.rows_returned");
  Printf.bprintf b "    \"registry\": %s\n"
    (Metrics.to_json (Metrics.nonzero (Metrics.snapshot ())));
  Printf.bprintf b "  }\n}\n";
  Buffer.contents b

let run ~smoke () =
  Metrics.reset ();
  let objects =
    match Sys.getenv_opt "BENCH_QUERY_OBJECTS" with
    | Some s -> int_of_string s
    | None -> if smoke then 20_000 else 1_000_000
  in
  Printf.printf "query pipeline: %d-object extent\n%!" objects;
  let db, item = mk_fixture ~objects in
  let indexes = Indexes.create db in
  let no_idx = Indexes.create db in
  (* moderately selective two-conjunct predicate for the scan comparison;
     the compiled pipeline orders the equality conjunct first *)
  let scan_pred = Expr.(attr "score" >= int 50_000 && (attr "grp" === int 7)) in
  (* highly selective range window (~0.1% of the extent) *)
  let sel_pred =
    Expr.(attr "score" >= int 99_000 && (attr "score" < int 99_100))
  in
  let interpreted pred () =
    ignore
      (Oid.Set.filter (fun o -> Database.holds db o pred)
         (Database.extent db item))
  in
  let engine idx pred () = ignore (Engine.select db idx item pred) in

  (* ground truth for the timed plans *)
  let base_rows pred = Oid.Set.cardinal (Engine.select db no_idx item pred) in
  let scan_rows = base_rows scan_pred in
  let sel_rows = base_rows sel_pred in

  let interpreted_scan_ns = time_ns (interpreted scan_pred) in
  let compiled_scan_ns = time_ns (engine no_idx scan_pred) in
  let interpreted_sel_ns = time_ns (interpreted sel_pred) in
  let compiled_sel_ns = time_ns (engine no_idx sel_pred) in

  Indexes.ensure indexes item "grp";
  Indexes.ensure ~kind:Indexes.Ordered indexes item "score";

  (* result-set agreement before trusting the timings *)
  let check name pred expected =
    let ex, hits = Engine.select_explain db indexes item pred in
    if Oid.Set.cardinal hits <> expected then begin
      Printf.printf "FAIL: %s returned %d rows, scan returned %d\n" name
        (Oid.Set.cardinal hits) expected;
      exit 1
    end;
    ex
  in
  let hash_ex = check "hash-index plan" scan_pred scan_rows in
  let range_ex = check "range-index plan" sel_pred sel_rows in
  (match hash_ex.Engine.ex_plan with
  | Engine.Index_lookup { kind = Indexes.Hash; _ } -> ()
  | p ->
    Format.printf "FAIL: expected hash index plan, got %a@." Engine.pp_plan p;
    exit 1);
  (match range_ex.Engine.ex_plan with
  | Engine.Range_scan _ -> ()
  | p ->
    Format.printf "FAIL: expected range scan plan, got %a@." Engine.pp_plan p;
    exit 1);

  let hash_index_ns = time_ns (engine indexes scan_pred) in
  let range_index_ns = time_ns (engine indexes sel_pred) in

  (* Per-run latency quantiles over repeated executions (what a client
     would see call after call), and the live-telemetry overhead. *)
  let runs = if smoke then 10 else 30 in
  let lat_compiled = latency_quantiles ~runs (engine no_idx scan_pred) in
  let lat_range = latency_quantiles ~runs (engine indexes sel_pred) in
  let sampler_overhead_pct, overhead_served =
    measure_sampler_overhead (engine no_idx scan_pred)
  in

  let per_row ns = ns /. float_of_int objects in
  let speedup = interpreted_scan_ns /. compiled_scan_ns in
  Printf.printf
    "  scan pred   : interpreted %10.0f ns  (%6.1f ns/row)   compiled \
     %10.0f ns  (%6.1f ns/row)   speedup %.2fx\n"
    interpreted_scan_ns
    (per_row interpreted_scan_ns)
    compiled_scan_ns (per_row compiled_scan_ns) speedup;
  Printf.printf "  hash index  : %10.0f ns  (%d candidates, %d rows)\n"
    hash_index_ns hash_ex.Engine.rows_scanned hash_ex.Engine.rows_returned;
  Printf.printf
    "  range pred  : interpreted %10.0f ns   compiled %10.0f ns   range \
     index %10.0f ns  (%d candidates, %d rows)\n"
    interpreted_sel_ns compiled_sel_ns range_index_ns
    range_ex.Engine.rows_scanned range_ex.Engine.rows_returned;
  Printf.printf
    "  compiled scan latency (%d runs): p50 %.3fms  p95 %.3fms  p99 %.3fms\n"
    runs lat_compiled.Metrics.h_p50 lat_compiled.Metrics.h_p95
    lat_compiled.Metrics.h_p99;
  Printf.printf
    "  range plan latency    (%d runs): p50 %.3fms  p95 %.3fms  p99 %.3fms\n"
    runs lat_range.Metrics.h_p50 lat_range.Metrics.h_p95
    lat_range.Metrics.h_p99;
  Printf.printf "  live telemetry overhead: %+.2f%% (%s)\n" sampler_overhead_pct
    (if overhead_served then "sampler + endpoint + scraper"
     else "sampler only, no sockets here");

  let f v = Printf.sprintf "%.0f" v in
  let json =
    json_of ~smoke ~objects
      ~latency:
        [
          ("compiled_scan", quantiles_json lat_compiled);
          ("range_plan", quantiles_json lat_range);
        ]
      ~rows:
        [
          ("scan_pred", scan_rows);
          ("selective_pred", sel_rows);
          ("hash_candidates", hash_ex.Engine.rows_scanned);
          ("range_candidates", range_ex.Engine.rows_scanned);
        ]
      [
        ("interpreted_scan_ns", f interpreted_scan_ns);
        ("compiled_scan_ns", f compiled_scan_ns);
        ("compiled_speedup", Printf.sprintf "%.2f" speedup);
        ("hash_index_ns", f hash_index_ns);
        ("interpreted_selective_ns", f interpreted_sel_ns);
        ("compiled_selective_ns", f compiled_sel_ns);
        ("range_index_ns", f range_index_ns);
        ( "range_speedup_vs_interpreted",
          Printf.sprintf "%.2f" (interpreted_sel_ns /. range_index_ns) );
        ( "range_speedup_vs_compiled",
          Printf.sprintf "%.2f" (compiled_sel_ns /. range_index_ns) );
        ("sampler_overhead_pct", Printf.sprintf "%.2f" sampler_overhead_pct);
      ]
  in
  let oc = open_out "BENCH_query.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_query.json\n";
  (* the headline claims, enforced where the numbers are produced *)
  if (not smoke) && speedup < 3.0 then begin
    Printf.printf "FAIL: compiled scan below 3x over interpreted\n";
    exit 1
  end;
  if
    (not smoke)
    && (range_index_ns >= interpreted_sel_ns || range_index_ns >= compiled_sel_ns)
  then begin
    Printf.printf "FAIL: range-index plan did not beat both scans\n";
    exit 1
  end;
  if smoke && speedup < 1.0 then begin
    Printf.printf "FAIL: compiled scan slower than interpreted\n";
    exit 1
  end;
  (* Telemetry must be effectively free.  At full scale the scans are
     long enough for best-of timing to resolve 1%; smoke runs are
     millisecond-sized and timer noise dominates, so the floor there
     only catches something catastrophic. *)
  let overhead_cap = if smoke then 25.0 else 1.0 in
  if sampler_overhead_pct >= overhead_cap then begin
    Printf.printf
      "FAIL: live telemetry overhead %.2f%% on the compiled scan (cap %.1f%%)\n"
      sampler_overhead_pct overhead_cap;
    exit 1
  end
