(* The TSE benchmark's entry point.

     tsebench --workload evolve_deep|commit_wide|select_mix --seed N
              --seconds S --trace 0|1
     tsebench --selftest

   A run repeats rounds of the workload (fresh set-up, one seeded op
   sequence, untimed output checks) until [--seconds] have elapsed,
   with at least three rounds. [--trace 0] reports the end-to-end
   metrics; [--trace 1] alternates untraced and traced rounds and
   reports the per-layer metrics folded from the first traced round's
   spans and counters, plus the tracing overhead. The last line of
   standard output is one JSON object; the lines before it are the
   readable report (see README.md). *)

open Common

type workload = {
  name : string;
  main_kind : string;  (* the kind whose latency is the headline *)
  run : seed:int -> round:int -> dir:string -> traced:bool -> Round.t;
  smoke : seed:int -> round:int -> dir:string -> traced:bool -> Round.t;
}

let workloads =
  [
    {
      name = "evolve_deep";
      main_kind = "evolve";
      run = Evolve_deep.round Evolve_deep.full;
      smoke = Evolve_deep.round Evolve_deep.smoke;
    };
    {
      name = "commit_wide";
      main_kind = "commit";
      run = Commit_wide.round Commit_wide.full;
      smoke = Commit_wide.round Commit_wide.smoke;
    };
    {
      name = "select_mix";
      main_kind = "lookup";
      run = Select_mix.round Select_mix.full;
      smoke = Select_mix.round Select_mix.smoke;
    };
  ]

let min_rounds = 3

(* ---------------- aggregation ---------------- *)

let ops (rd : Round.t) = rd.Round.r.attempted - rd.Round.r.failed

let ops_per_s (rd : Round.t) = float_of_int (ops rd) /. rd.Round.phase_s

let pooled rounds kind =
  List.concat_map (fun (rd : Round.t) -> latencies rd.Round.r kind) rounds

(* A percentile is reported only with at least ten samples beyond it. *)
let reportable xs p =
  let v, beyond = percentile xs p in
  if beyond >= 10 then Some (v, beyond) else None

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

let end_to_end w rounds =
  let main = pooled rounds w.main_kind in
  [
    ("setup_s", "s", median (List.map (fun rd -> rd.Round.setup_s) rounds));
    ("ops_per_s", "1/s", median (List.map ops_per_s rounds));
    ( "live_heap_mb",
      "MB",
      median (List.map (fun rd -> mb rd.Round.live_words) rounds) );
    ("main_p50_us", "us", fst (percentile main 0.5));
    ("main_p90_us", "us", fst (percentile main 0.9));
  ]

(* Every per-layer metric, for every workload; a layer the workload does
   not exercise reads 0. Times are per op of the kind named. *)
let per_layer (rd : Round.t) =
  let r = rd.Round.r in
  let ly = Option.get rd.Round.layers in
  let n = kind_count r in
  let d = delta r in
  let self root name = float_of_int (self_us ly ~root name) in
  let ev = n "evolve" and rj = n "reject" in
  let attempts = ev + rj in
  let evo name = ratio_f (self "evolve_many" name) attempts /. 1000. in
  let both name = d "evolve" name + d "reject" name in
  let commits = n "commit" and lookups = n "lookup" and scans = n "scan" in
  let writes = n "write" in
  let all name = Hashtbl.fold (fun _ a acc -> acc + a.(counter_index name)) r.deltas 0 in
  let probe_med name =
    match Hashtbl.find_opt r.probes name with
    | Some xs -> median xs
    | None -> 0.
  in
  let memo = all "reclass.verdict_memo_hits" in
  let hits = d "lookup" "query.plan_cache_hits" in
  let fsync_sum, fsync_n = rd.Round.fsync_ms in
  let commit_durable = self "commit" "durable.commit" in
  [
    ("core.admission_ms", "ms", evo "evolve.analyze");
    ("core.translator_ms", "ms", evo "evolve.change");
    ("algebra.derive_ms", "ms", evo "evolve.derive");
    ("classifier.classify_ms", "ms", evo "evolve.classify");
    ("classifier.integrate_ms", "ms", evo "evolve.integrate");
    ("classifier.reclassify_ms", "ms", evo "evolve.reclassify");
    ("core.evolve_rejects", "count", float_of_int rj);
    ( "db.reclass_objects_per_evolve",
      "count",
      ratio (d "evolve" "reclass.objects_visited") ev );
    ( "db.verdict_memo_hit_ratio",
      "ratio",
      ratio memo (memo + all "reclass.formula_evals") );
    ( "db.reopen_ms",
      "ms",
      ratio_f
        (self "evolve_many" "durable.open"
        +. self "evolve_many" "recovery.replay"
        +. self "evolve_many" "snapshot.decode")
        rj
      /. 1000. );
    ("db.durable_commit_us", "us", ratio_f commit_durable commits);
    ( "db.reclass_objects_per_commit",
      "count",
      ratio (d "commit" "reclass.objects_visited") commits );
    ( "db.reclass_formula_evals_per_write",
      "count",
      ratio (d "write" "reclass.formula_evals") writes );
    ( "db.reclass_objects_per_write",
      "count",
      ratio (d "write" "reclass.objects_visited") writes );
    ("views.history_encode_ms", "ms", probe_med "history_encode" /. 1000.);
    ("schema.encode_graph_us", "us", probe_med "encode_graph");
    ( "schema.classes",
      "count",
      float_of_int (Option.value ~default:0 (List.assoc_opt "classes" r.counts))
    );
    ("store.wal_bytes_per_evolve", "B", ratio (both "wal.bytes_framed") attempts);
    ("store.fsyncs_per_evolve", "count", ratio (both "wal.fsyncs") attempts);
    ( "store.wal_bytes_per_commit",
      "B",
      ratio (d "commit" "wal.bytes_framed") commits );
    ("store.fsyncs_per_commit", "count", ratio (d "commit" "wal.fsyncs") commits);
    ("store.fsync_us_mean", "us", ratio_f (fsync_sum *. 1000.) fsync_n);
    ( "store.snapshot_encode_ms",
      "ms",
      ratio_f (self "checkpoint" "snapshot.encode") (n "checkpoint") /. 1000. );
    ( "store.slot_reads_per_scan",
      "count",
      ratio (d "scan" "heap.slot_reads") scans );
    ( "concurrency.occ_us",
      "us",
      ratio_f (float_of_int (root_us ly "commit") -. commit_durable) commits );
    ( "concurrency.occ_retries_per_commit",
      "count",
      ratio (d "commit" "occ.retries") commits );
    ( "query.plan_cache_hit_ratio",
      "ratio",
      ratio hits (hits + d "lookup" "query.plan_cache_misses") );
    ("query.plan_us", "us", probe_med "plan");
    ("query.select_us", "us", ratio_f (self "lookup" "query.select") lookups);
    ( "query.rows_scanned_per_lookup",
      "count",
      ratio (d "lookup" "query.rows_scanned") lookups );
    ( "query.pushdowns_per_lookup",
      "count",
      ratio (d "lookup" "query.pushdowns") lookups );
    ( "query.rows_scanned_per_scan",
      "count",
      ratio (d "scan" "query.rows_scanned") scans );
    ("pool.par_chunks", "count", ratio (d "scan" "pool.par_chunks") scans);
    ("gc.alloc_kb_per_op", "KB", ratio_f rd.Round.alloc_kb (ops rd));
    ("gc.major_collections", "count", float_of_int rd.Round.majors);
  ]

(* ---------------- output ---------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let metrics_json ms =
  String.concat ", "
    (List.map
       (fun (name, unit, v) ->
         Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
           (json_number v) unit)
       ms)

let mounted_tmpfs dir =
  (* the longest mount point containing [dir], from this process's view *)
  let abs =
    if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir
  in
  match open_in "/proc/self/mountinfo" with
  | exception Sys_error _ -> false
  | ic ->
    let best = ref ("", false) in
    (try
       while true do
         match String.split_on_char ' ' (input_line ic) with
         | _ :: _ :: _ :: _ :: mnt :: rest ->
           let fstype =
             match List.find_index (String.equal "-") rest with
             | Some i -> List.nth rest (i + 1)
             | None -> ""
           in
           let prefix = if mnt = "/" then "/" else mnt ^ "/" in
           if
             String.starts_with ~prefix abs
             && String.length mnt >= String.length (fst !best)
           then best := (mnt, String.equal fstype "tmpfs")
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic;
    snd !best

let context w ~seed ~dir ~rounds =
  Printf.sprintf
    "{\"workload\": \"%s\", \"seed\": %d, \"rounds\": %d, \"nproc\": %d, \
     \"pool_domains\": %d, \"sync_policy\": \"%s\", \"data_dir\": \"%s\", \
     \"data_dir_tmpfs\": %b, \"ocaml\": \"%s\"}"
    w.name seed rounds
    (Domain.recommended_domain_count ())
    (Tse_pool.Pool.size (Tse_pool.Pool.global ()))
    (Tse_db.Durable.policy_to_string Tse_db.Durable.Every_commit)
    (Metrics.json_escape dir) (mounted_tmpfs dir) Sys.ocaml_version

let print_kinds rounds =
  let kinds =
    List.sort_uniq compare
      (List.concat_map
         (fun (rd : Round.t) ->
           Hashtbl.fold
             (fun k _ acc ->
               match String.index_opt k '.' with
               | Some i -> k :: String.sub k 0 i :: acc
               | None -> k :: acc)
             rd.Round.r.lat [])
         rounds)
  in
  Printf.printf "%-11s %8s  %s\n" "kind" "samples"
    "latency_us percentile (samples beyond it)";
  List.iter
    (fun kind ->
      let xs = pooled rounds kind in
      let cells =
        List.map
          (fun (label, p) ->
            match reportable xs p with
            | Some (v, beyond) -> Printf.sprintf "%s %.1f (%d)" label v beyond
            | None -> Printf.sprintf "%s -" label)
          [ ("p50", 0.5); ("p90", 0.9); ("p95", 0.95); ("p99", 0.99) ]
      in
      Printf.printf "%-11s %8d  %s\n" kind (List.length xs)
        (String.concat "  " cells))
    kinds

let run w ~seed ~seconds ~traced_mode =
  let dir =
    Filename.concat ".bench_build"
      (Printf.sprintf "tsebench-%s-%d" w.name (Unix.getpid ()))
  in
  if not (Sys.file_exists ".bench_build") then Sys.mkdir ".bench_build" 0o755;
  let t0 = now () in
  let rounds = ref [] and i = ref 0 in
  while !i < min_rounds || now () -. t0 < seconds do
    let traced = traced_mode && !i mod 2 = 1 in
    Round.remove_tree dir;
    (* the round's own state: what it holds live beyond what the process
       held before it *)
    let base = Round.live_words () in
    let rd = w.run ~seed ~round:!i ~dir ~traced in
    let rd = { rd with Round.live_words = rd.Round.live_words - base } in
    Round.remove_tree dir;
    rounds := rd :: !rounds;
    incr i
  done;
  let rounds = List.rev !rounds in
  let attempted = List.fold_left (fun a rd -> a + rd.Round.r.attempted) 0 rounds in
  let failed = List.fold_left (fun a rd -> a + rd.Round.r.failed) 0 rounds in
  let problems = List.concat_map (fun rd -> List.rev rd.Round.r.problems) rounds in
  List.iter (fun p -> Printf.eprintf "tsebench: %s\n" p) problems;
  Printf.printf "context: %s\n" (context w ~seed ~dir ~rounds:(List.length rounds));
  let plain = List.filter (fun rd -> rd.Round.layers = None) rounds in
  let traced = List.filter (fun rd -> rd.Round.layers <> None) rounds in
  print_kinds plain;
  List.iteri
    (fun i (rd : Round.t) ->
      Printf.printf "round %d%s: setup %.3f s, %.1f ops/s, %.1f ops/cpu-s, %s p50 %.1f us\n" i
        (if rd.Round.layers = None then "" else " (traced)")
        rd.Round.setup_s (ops_per_s rd) (float_of_int (ops rd) /. rd.Round.cpu_s) w.main_kind
        (fst (percentile (latencies rd.Round.r w.main_kind) 0.5)))
    rounds;
  let metrics =
    if not traced_mode then end_to_end w plain
    else begin
      (* the first traced round is the second round of every run, so its
         counts repeat exactly across runs with one seed *)
      let layer = per_layer (List.hd traced) in
      let plain_rate = List.map ops_per_s plain in
      let traced_rate = median (List.map ops_per_s traced) in
      let overhead = (median plain_rate /. traced_rate -. 1.) *. 100. in
      let lo = List.fold_left Float.min infinity plain_rate in
      let hi = List.fold_left Float.max 0. plain_rate in
      let noise = (hi -. lo) /. median plain_rate *. 100. in
      Printf.printf "tracing overhead: %.2f%% ops/s (%s; untraced spread %.2f%%)\n"
        overhead
        (if Float.abs overhead <= noise then "below noise" else "above noise")
        noise;
      List.iter
        (fun (name, unit, v) -> Printf.printf "  %-38s %14.4f %s\n" name v unit)
        layer;
      layer @ [ ("trace.overhead_pct", "%", overhead) ]
    end
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0 && problems = [])
    attempted failed (metrics_json metrics)

(* ---------------- self-test ---------------- *)

let smoke_round w ~seed ~traced =
  let dir = Printf.sprintf "selftest-%s-%d" w.name (Unix.getpid ()) in
  Round.remove_tree dir;
  let rd = w.smoke ~seed ~round:0 ~dir ~traced in
  Round.remove_tree dir;
  rd

(* The counts of one untraced smoke round, one "name value" per line. *)
let print_counts w ~seed =
  let rd = smoke_round w ~seed ~traced:false in
  List.iter (fun (k, v) -> Printf.printf "%s %d\n" k v) rd.Round.r.counts;
  List.iter (Printf.printf "problem %s\n") rd.Round.r.problems

(* Runs are compared as separate processes: property identities are
   process-wide, so a second round in one process encodes larger ids. *)
let counts_of_run w ~seed =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--counts"; "--workload"; w.name; "--seed";
         string_of_int seed |]
  in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> "failed: " ^ out

let selftest () =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  (match reportable (List.init 100 float_of_int) 0.9 with
  | Some (_, beyond) when beyond >= 10 -> ()
  | _ -> fail "p90 of 100 samples should be reportable");
  if reportable (List.init 100 float_of_int) 0.95 <> None then
    fail "p95 of 100 samples has 5 beyond it and must not be reported";
  List.iter
    (fun w ->
      let a = counts_of_run w ~seed:1 and b = counts_of_run w ~seed:1 in
      let c = counts_of_run w ~seed:2 in
      if a <> b then fail "%s: one seed, two runs:\n%s---\n%s" w.name a b;
      if a = c then fail "%s: two seeds gave identical counts" w.name;
      let t = smoke_round w ~seed:1 ~traced:true in
      List.iter (fail "%s: %s" w.name) t.Round.r.problems;
      if t.Round.r.failed <> 0 then
        fail "%s: %d failed ops" w.name t.Round.r.failed;
      List.iter
        (fun (name, _, v) ->
          if Float.is_nan v || v < 0. then fail "%s: %s = %g" w.name name v)
        (per_layer t))
    workloads;
  match !errors with
  | [] -> exit 0
  | es ->
    List.iter (Printf.eprintf "tsebench selftest: %s\n") (List.rev es);
    exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and self = ref false and counts = ref false in
  Arg.parse
    [
      ("--counts", Arg.Set counts, " print one smoke round's counts (selftest)");
      ("--workload", Arg.Set_string workload, "NAME evolve_deep|commit_wide|select_mix");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--selftest", Arg.Set self, " smoke-size determinism checks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "tsebench --workload NAME --seed N --seconds S --trace 0|1";
  (* every rejected-by-design evolution logs a recovery warning; keep
     that stderr write out of the timed ops *)
  Tse_obs.Log.set_level Tse_obs.Log.Error;
  if !self then selftest ()
  else
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None ->
      Printf.eprintf "tsebench: unknown workload %S\n" !workload;
      exit 2
    | Some w when !counts -> print_counts w ~seed:!seed
    | Some w when !trace = 0 || !trace = 1 ->
      run w ~seed:!seed ~seconds:!seconds ~traced_mode:(!trace = 1)
    | Some _ ->
      prerr_endline "tsebench: --trace takes 0 or 1";
      exit 2
