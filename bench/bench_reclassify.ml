(* Write-heavy reclassification benchmark: the incremental
   dependency-driven engine against the full-fixpoint oracle
   (DB_FULL_RECLASSIFY semantics), at 1 / 10 / 100 virtual classes.
   Emits machine-readable BENCH_reclassify.json alongside the printed
   table so CI and the driver can assert the speedup. *)

open Tse_store
open Tse_schema
open Tse_db
module Metrics = Tse_obs.Metrics
module Pool = Tse_pool.Pool

let attr_slots = 10

(* One base class with [attr_slots] predicate-visible int attributes and
   one attribute no predicate reads, [n] select classes spread over the
   visible attributes, [objects] members with deterministic values. *)
let mk_fixture ~full ~objects n =
  let db = Database.create () in
  Database.set_full_reclassify db full;
  let g = Database.graph db in
  let props =
    Prop.stored ~origin:(Oid.of_int 0) "quiet" Value.TInt
    :: List.init attr_slots (fun i ->
           Prop.stored ~origin:(Oid.of_int 0)
             (Printf.sprintf "f%d" i)
             Value.TInt)
  in
  let item = Schema_graph.register_base g ~name:"Item" ~props ~supers:[] in
  for i = 0 to n - 1 do
    ignore
      (Tse_algebra.Ops.select db
         ~name:(Printf.sprintf "V%d" i)
         ~src:item
         Expr.(attr (Printf.sprintf "f%d" (i mod attr_slots)) >= int (i * 7 mod 100)))
  done;
  let objs =
    Array.init objects (fun j ->
        let init =
          ("quiet", Value.Int 0)
          :: List.init attr_slots (fun i ->
                 (Printf.sprintf "f%d" i, Value.Int ((j + (i * 37)) mod 100)))
        in
        Database.create_object db item ~init)
  in
  (db, objs)

(* The measured trace: round-robin objects, cycling attributes, values
   sweeping 0..99 so select thresholds are crossed regularly. *)
let run_writes db objs ~writes ~attr_of =
  for s = 0 to writes - 1 do
    let o = objs.(s mod Array.length objs) in
    Database.set_attr db o (attr_of s) (Value.Int (s * 13 mod 100))
  done

(* Repeat [f] until at least [budget_s] of wall time has passed (and at
   least [min_trials] times) and report the median trial in ns per op:
   a best-of over a few millisecond-sized runs swings more than the
   differences the groups are meant to show. *)
let budget_s = 0.2
let min_trials = 5

let time_ns_per_op f ~ops =
  let start = Unix.gettimeofday () in
  let rec trials acc n =
    if n >= min_trials && Unix.gettimeofday () -. start >= budget_s then acc
    else begin
      let t0 = Unix.gettimeofday () in
      f ();
      trials ((Unix.gettimeofday () -. t0) :: acc) (n + 1)
    end
  in
  let sorted = Array.of_list (trials [] 0) in
  Array.sort Float.compare sorted;
  sorted.(Array.length sorted / 2) *. 1e9 /. float_of_int ops

type group = {
  virtuals : int;
  incr_ns : float;
  oracle_ns : float;
  incr_evals : int;
  oracle_evals : int;
  quiet_ns : float;
  quiet_evals : int;
}

(* Per-write latency distribution on the incremental side: a separate
   instrumented pass (clock reads around every write would distort the
   timed trials above), folded into a quantile snapshot. *)
let write_latency_quantiles ~objects ~writes n =
  let hot s = Printf.sprintf "f%d" (s mod attr_slots) in
  let db, objs = mk_fixture ~full:false ~objects n in
  let obs = ref [] in
  for s = 0 to writes - 1 do
    let o = objs.(s mod Array.length objs) in
    let t0 = Unix.gettimeofday () in
    Database.set_attr db o (hot s) (Value.Int (s * 13 mod 100));
    obs := ((Unix.gettimeofday () -. t0) *. 1e6) :: !obs
  done;
  Metrics.Histogram.of_observations
    ~buckets:[ 0.5; 1.; 2.; 5.; 10.; 25.; 50.; 100.; 250.; 1000.; 10000. ]
    (List.rev !obs)

let quantiles_json (h : Metrics.hist_snapshot) =
  Printf.sprintf
    "{\"count\": %d, \"p50_us\": %.2f, \"p95_us\": %.2f, \"p99_us\": %.2f}"
    h.Metrics.h_count h.Metrics.h_p50 h.Metrics.h_p95 h.Metrics.h_p99

let measure_group ~objects ~writes n =
  let hot s = Printf.sprintf "f%d" (s mod attr_slots) in
  let side full attr_of =
    let db, objs = mk_fixture ~full ~objects n in
    let run () = run_writes db objs ~writes ~attr_of in
    (* evaluations are counted over three passes on the fresh fixture,
       apart from the timing loop, whose trial count varies *)
    let e0 = Metrics.find_counter "reclass.formula_evals" in
    for _ = 1 to 3 do
      run ()
    done;
    let evals = Metrics.find_counter "reclass.formula_evals" - e0 in
    let ns = time_ns_per_op run ~ops:writes in
    (match Database.check db with
    | [] -> ()
    | p -> failwith ("bench fixture inconsistent: " ^ String.concat "; " p));
    (ns, evals)
  in
  let incr_ns, incr_evals = side false hot in
  let oracle_ns, oracle_evals = side true hot in
  let quiet_ns, quiet_evals = side false (fun _ -> "quiet") in
  { virtuals = n; incr_ns; oracle_ns; incr_evals; oracle_evals;
    quiet_ns; quiet_evals }

(* Exercise the query engine on the bench fixture so the registry's
   query.* counters are populated: one indexed equality lookup and one
   full extent scan over the same class. *)
let query_phase ~objects =
  let db, _objs = mk_fixture ~full:false ~objects 10 in
  let g = Database.graph db in
  let item = (Schema_graph.find_by_name_exn g "Item").Klass.cid in
  let indexes = Tse_query.Indexes.create db in
  Tse_query.Indexes.ensure indexes item "f0";
  let indexed, _ =
    Tse_query.Engine.select_explain db indexes item
      Expr.(attr "f0" === int ((0 + (0 * 37)) mod 100))
  in
  let scanned, _ =
    Tse_query.Engine.select_explain db indexes item
      Expr.(attr "f1" >= int 50)
  in
  (indexed, scanned)

let json_of groups ~smoke ~objects ~writes ~indexed ~scanned ~latency =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Printf.bprintf b "  \"benchmark\": \"reclassify\",\n";
  Printf.bprintf b "  \"smoke\": %b,\n" smoke;
  Printf.bprintf b "  \"objects\": %d,\n" objects;
  Printf.bprintf b "  \"writes\": %d,\n" writes;
  Printf.bprintf b "  \"write_latency_us\": {%s},\n"
    (String.concat ", "
       (List.map
          (fun (n, h) ->
            Printf.sprintf "\"virtuals_%d\": %s" n (quantiles_json h))
          latency));
  Printf.bprintf b "  \"domains\": %d,\n" (Pool.size (Pool.global ()));
  Printf.bprintf b "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ());
  (* registry totals across every side of every group, plus the derived
     ratios CI tooling reads without recomputing *)
  Printf.bprintf b "  \"metrics\": {\n";
  Printf.bprintf b "    \"objects_visited_total\": %d,\n"
    (Metrics.find_counter "reclass.objects_visited");
  Printf.bprintf b "    \"compiled_evals_total\": %d,\n"
    (Metrics.find_counter "reclass.compiled_evals");
  Printf.bprintf b "    \"pred_compiles_total\": %d,\n"
    (Metrics.find_counter "reclass.pred_compiles");
  Printf.bprintf b "    \"untouched_attr_skips_total\": %d,\n"
    (Metrics.find_counter "reclass.untouched_attr_skips");
  Printf.bprintf b
    "    \"query\": {\"indexed_rows_scanned\": %d, \
     \"indexed_rows_returned\": %d, \"scan_rows_scanned\": %d, \
     \"scan_rows_returned\": %d},\n"
    indexed.Tse_query.Engine.rows_scanned
    indexed.Tse_query.Engine.rows_returned
    scanned.Tse_query.Engine.rows_scanned
    scanned.Tse_query.Engine.rows_returned;
  Printf.bprintf b "    \"registry\": %s\n"
    (Metrics.to_json (Metrics.nonzero (Metrics.snapshot ())));
  Printf.bprintf b "  },\n";
  Buffer.add_string b "  \"groups\": [\n";
  List.iteri
    (fun i g ->
      Printf.bprintf b
        "    {\"virtual_classes\": %d, \"incremental_ns_per_op\": %.1f, \
         \"oracle_ns_per_op\": %.1f, \"speedup\": %.2f, \
         \"incremental_evals\": %d, \"oracle_evals\": %d, \
         \"quiet_attr_ns_per_op\": %.1f, \"quiet_attr_evals\": %d}%s\n"
        g.virtuals g.incr_ns g.oracle_ns (g.oracle_ns /. g.incr_ns)
        g.incr_evals g.oracle_evals g.quiet_ns g.quiet_evals
        (if i = List.length groups - 1 then "" else ","))
    groups;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let run ~smoke () =
  (* scope the registry to this run so the metrics section is readable *)
  Metrics.reset ();
  (* BENCH_RECLASS_OBJECTS scales the population without a rebuild *)
  let objects =
    match Sys.getenv_opt "BENCH_RECLASS_OBJECTS" with
    | Some s -> int_of_string s
    | None -> if smoke then 40 else 300
  in
  let writes = if smoke then 400 else 4000 in
  Printf.printf
    "reclassification: write-heavy, %d objects, %d writes per side\n%!"
    objects writes;
  let groups = List.map (measure_group ~objects ~writes) [ 1; 10; 100 ] in
  List.iter
    (fun g ->
      Printf.printf
        "  virtuals=%3d  incremental %10.1f ns/op (%6d evals)   oracle \
         %10.1f ns/op (%7d evals)   speedup %6.2fx   quiet-attr %8.1f \
         ns/op (%d evals)\n"
        g.virtuals g.incr_ns g.incr_evals g.oracle_ns g.oracle_evals
        (g.oracle_ns /. g.incr_ns) g.quiet_ns g.quiet_evals)
    groups;
  let latency =
    List.map
      (fun n -> (n, write_latency_quantiles ~objects ~writes n))
      [ 1; 10; 100 ]
  in
  List.iter
    (fun (n, h) ->
      Printf.printf
        "  virtuals=%3d  per-write latency: p50 %8.2fus  p95 %8.2fus  p99 \
         %8.2fus\n"
        n h.Metrics.h_p50 h.Metrics.h_p95 h.Metrics.h_p99)
    latency;
  let indexed, scanned = query_phase ~objects in
  let json =
    json_of groups ~smoke ~objects ~writes ~indexed ~scanned ~latency
  in
  let oc = open_out "BENCH_reclassify.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_reclassify.json\n";
  (* the headline claim, enforced where the numbers are produced *)
  let g100 = List.find (fun g -> g.virtuals = 100) groups in
  if g100.quiet_evals <> 0 then begin
    Printf.printf "FAIL: quiet-attribute writes evaluated %d formulas\n"
      g100.quiet_evals;
    exit 1
  end;
  if (not smoke) && g100.oracle_ns /. g100.incr_ns < 5.0 then begin
    Printf.printf "FAIL: speedup below 5x at 100 virtual classes\n";
    exit 1
  end
