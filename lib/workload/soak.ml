module Value = Tse_store.Value
module Oid = Tse_store.Oid
module Heap = Tse_store.Heap
module Failpoint = Tse_store.Failpoint
module Prop = Tse_schema.Prop
module Expr = Tse_schema.Expr
module Type_info = Tse_schema.Type_info
module Schema_graph = Tse_schema.Schema_graph
module Invariants = Tse_schema.Invariants
module Database = Tse_db.Database
module Durable = Tse_db.Durable
module Analysis = Tse_analysis.Analysis
module Occ = Tse_concurrency.Occ
module History = Tse_views.History
module View_schema = Tse_views.View_schema
module Change = Tse_core.Change
module Tsem = Tse_core.Tsem
module Durable_tse = Tse_core.Durable_tse
module Verify = Tse_core.Verify
module Metrics = Tse_obs.Metrics
module Timeseries = Tse_obs.Timeseries
module Trace = Tse_obs.Trace

(* Chaos soak: a seeded scenario generator drives hundreds of view
   evolutions (long version chains) against a durable database while OCC
   writers and old-version readers run alongside, and a crash is
   injected mid-evolution — at a random evolve phase or inside the write
   of the effects batch — every few steps. A never-crashed in-memory twin (the
   oracle) executes exactly the same logical operations; after every
   recovery the harness asserts schema invariants, analyzer cleanliness
   and structural twin equivalence. Any discrepancy is a violation, and
   violations are the harness's verdict. *)

type config = {
  seed : int;
  steps : int;  (* evolution attempts *)
  crashes : int;  (* injected crash/recover cycles (best effort target) *)
  dir : string;
  policy : Durable.sync_policy option;
  classes : int;
  objects : int;
  writers : int;  (* OCC writer transactions per step *)
  checkpoint_every : int;  (* steps between checkpoints; 0 = never *)
  sampler : Timeseries.t option;
      (* externally-owned sampler (serve-stats passes the one its
         endpoint serves); [None] means the run creates a private one *)
}

let default ~dir =
  {
    seed = 42;
    steps = 300;
    crashes = 30;
    dir;
    policy = None;
    classes = 6;
    objects = 30;
    writers = 3;
    checkpoint_every = 20;
    sampler = None;
  }

type outcome = {
  steps_run : int;
  evolutions_applied : int;
  evolutions_rejected : int;
  crashes_injected : int;
  recoveries : int;
  rolled_forward : int;
  rolled_back : int;
  final_version : int;
  total_versions : int;
  occ_commits : int;
  occ_retries : int;
  reads : int;
  recovery_ms : float list;  (* one entry per crash recovery, in order *)
  violations : string list;
  timeseries : Timeseries.t;  (* one tick per step *)
}

let view_name = "main"

let recovery_hist =
  Metrics.histogram
    ~buckets:[ 0.5; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000. ]
    "soak.recovery_ms"

(* crash sites: every evolve phase (nothing logged yet: pre-evolution),
   a torn write of the effects batch (pre), and a crash after the whole
   batch is written but before its fsync, which recovers to the
   post-evolution state. Every sync policy flushes the effects batch
   through the same group path, so each site is reached under each. *)
let crash_sites =
  [|
    ("evolve.change", Failpoint.Crash_now);
    ("evolve.derive", Failpoint.Crash_now);
    ("evolve.classify", Failpoint.Crash_now);
    ("evolve.integrate", Failpoint.Crash_now);
    ("evolve.reclassify", Failpoint.Crash_now);
    ("wal.group.append", Failpoint.Short_write 11);
    ("wal.group.fsync", Failpoint.Crash_now);
  |]

(* ---------------- deterministic base population ---------------- *)

let stored = Prop.stored ~origin:(Oid.of_int 0)

let build_base ~classes ~objects db =
  let graph = Database.graph db in
  let made = ref [] in
  for i = 0 to classes - 1 do
    let props =
      [
        stored (Printf.sprintf "a%d" i) Value.TInt;
        stored (Printf.sprintf "s%d" i) Value.TString;
      ]
    in
    let supers =
      match !made with prev :: _ when i mod 3 <> 0 -> [ prev ] | _ -> []
    in
    let cid =
      Schema_graph.register_base graph
        ~name:(Printf.sprintf "C%d" i)
        ~props ~supers
    in
    made := cid :: !made
  done;
  let arr = Array.of_list (List.rev !made) in
  for j = 0 to objects - 1 do
    let i = j mod classes in
    ignore
      (Database.create_object db arr.(i)
         ~init:
           [
             (Printf.sprintf "a%d" i, Value.Int (j * 7));
             (Printf.sprintf "s%d" i, Value.String (Printf.sprintf "o%d" j));
           ])
  done

(* ---------------- change generation ---------------- *)

(* Generated against the oracle's current view (identical to the durable
   one by the twin invariant). Most changes are accepted; a deliberate
   minority reference stale names and get rejected. Alone, such a change
   fails the precheck and is answered without logging; second in a
   two-change unit (see [gen_changes]) it is rejected after the first
   change was applied in memory, exercising the reopen path. *)
let gen_change rng oracle step =
  let view = Tsem.current oracle view_name in
  let members = view.View_schema.members in
  let locals = List.map snd members in
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  let cls = pick locals in
  match Random.State.int rng 100 with
  | n when n < 38 ->
    Change.Add_attribute
      {
        cls;
        def =
          Change.attr ~default:(Value.Int 0)
            (Printf.sprintf "x%d" step)
            Value.TInt;
      }
  | n when n < 52 ->
    Change.Add_method
      {
        cls;
        method_name = Printf.sprintf "m%d" step;
        body = Expr.int (step + 1);
      }
  | n when n < 62 ->
    (* may reference an attribute that was never added, or was added to
       a different class: a deterministic rejection *)
    Change.Delete_attribute
      { cls; attr_name = Printf.sprintf "x%d" (Random.State.int rng (step + 1)) }
  | n when n < 72 ->
    (* unanchored: anchoring to an evolved class replays its whole
       derivation chain, which makes late soak steps arbitrarily slow;
       the crash-matrix unit tests cover the anchored form *)
    Change.Add_class { cls = Printf.sprintf "K%d" step; connected_to = None }
  | n when n < 80 ->
    Change.Rename_class { old_name = cls; new_name = Printf.sprintf "R%d" step }
  | n when n < 86 -> Change.Delete_method { cls; method_name = Printf.sprintf "m%d" (Random.State.int rng (step + 1)) }
  | n when n < 92 ->
    let sup = pick locals and sub = pick locals in
    Change.Add_edge { sup; sub }
  | n when n < 96 -> Change.Delete_class { cls }
  | _ -> (
    (* partition on a stored int attribute of the member class *)
    let cid = fst (List.find (fun (_, l) -> String.equal l cls) members) in
    let graph = Database.graph (Tsem.db oracle) in
    let int_attrs =
      if Schema_graph.mem graph cid then
        Type_info.stored_attrs graph cid
        |> List.filter (fun (p : Prop.t) ->
               match p.body with
               | Prop.Stored { ty = Value.TInt; _ } -> true
               | _ -> false)
      else []
    in
    match int_attrs with
    | [] ->
      Change.Add_attribute
        {
          cls;
          def =
            Change.attr ~default:(Value.Int 1)
              (Printf.sprintf "x%d" step)
              Value.TInt;
        }
    | attrs ->
      let a = (pick attrs).Prop.name in
      Change.Partition_class
        {
          cls;
          predicate = Expr.(attr a >= int (Random.State.int rng 150));
          into_true = Printf.sprintf "P%dt" step;
          into_false = Printf.sprintf "P%df" step;
        })

let gen_changes rng oracle step =
  let change = gen_change rng oracle step in
  (* occasionally a two-change unit, proving list atomicity: the
     generated change goes second, so a rejection of it lands after the
     first change was applied in memory *)
  if Random.State.int rng 5 = 0 then
    [
      Change.Add_attribute
        {
          cls = List.nth (List.map snd (Tsem.current oracle view_name).View_schema.members) 0;
          def =
            Change.attr ~default:(Value.Int 0)
              (Printf.sprintf "y%d" step)
              Value.TInt;
        };
      change;
    ]
  else [ change ]

(* ---------------- runtime state ---------------- *)

type state = {
  mutable t : Durable_tse.t;
  mutable occ : Occ.t;
  oracle : Tsem.t;
  rng : Random.State.t;
  traffic_rng : Random.State.t;
  mutable violations : string list;
  mutable occ_commits : int;
  mutable occ_retries_seen : int;
  mutable reads : int;
  mutable recovery_ms : float list;
}

let violate st fmt =
  Printf.ksprintf
    (fun msg ->
      Tse_obs.Log.warn "soak" "violation: %s" msg;
      st.violations <- msg :: st.violations)
    fmt

let fingerprint_of t =
  Verify.db_fingerprint ~history:(Durable_tse.history t) (Durable_tse.db t)

let oracle_fingerprint oracle =
  Verify.db_fingerprint ~history:(Tsem.history oracle) (Tsem.db oracle)

(* Everything the ISSUE demands after a recovery: schema invariants,
   database consistency, analyzer cleanliness, and structural twin
   equivalence against the never-crashed oracle. *)
let post_recovery_checks st ctx =
  let db = Durable_tse.db st.t in
  (match Database.check db with
  | [] -> ()
  | ps -> violate st "%s: Database.check: %s" ctx (String.concat "; " ps));
  (match Invariants.check (Database.graph db) with
  | [] -> ()
  | ps -> violate st "%s: Invariants.check: %s" ctx (String.concat "; " ps));
  let report = Analysis.analyze (Database.graph db) in
  if not (Analysis.is_clean report) then
    violate st "%s: analyzer errors: %d" ctx (List.length (Analysis.errors report));
  let fp_d = fingerprint_of st.t in
  let fp_o = oracle_fingerprint st.oracle in
  if not (String.equal fp_d fp_o) then
    violate st "%s: twin divergence (recovered state differs from oracle)" ctx

(* The OCC manager follows the current database value. [Occ.create]
   keeps nothing of its own (the stamps live in the database), so a new
   one is free. *)
let reattach st = st.occ <- Occ.create (Durable_tse.db st.t)

let recover st ~policy ctx =
  let t0 = Trace.now_us () in
  let t, report = Durable_tse.open_dir ?policy ~dir:(Durable_tse.dir st.t) () in
  let ms = float_of_int (Trace.now_us () - t0) /. 1000. in
  Metrics.observe recovery_hist ms;
  st.recovery_ms <- ms :: st.recovery_ms;
  st.t <- t;
  reattach st;
  (report, ms, ctx)

(* ---------------- traffic ---------------- *)

(* Writers target the seed attributes (a<i>/s<i> of base class C<i>) —
   these exist on both twins for the whole run, whatever the view
   evolution does on top. The write goes through an OCC session against
   the durable database and is mirrored onto the oracle only after the
   session validates. *)
let writer_traffic st ~writers ~classes =
  let rng = st.traffic_rng in
  let odb = Tsem.db st.oracle in
  let ograph = Database.graph odb in
  for _w = 1 to writers do
    let i = Random.State.int rng classes in
    match Schema_graph.find_by_name ograph (Printf.sprintf "C%d" i) with
    | None -> ()
    | Some k -> (
      let members = Database.extent_list odb k.Tse_schema.Klass.cid in
      match members with
      | [] -> ()
      | _ -> (
        let o = List.nth members (Random.State.int rng (List.length members)) in
        let name, v =
          if Random.State.bool rng then
            (Printf.sprintf "a%d" i, Value.Int (Random.State.int rng 1000))
          else
            ( Printf.sprintf "s%d" i,
              Value.String (Printf.sprintf "w%d" (Random.State.int rng 1000)) )
        in
        match
          Occ.commit_with_retry ~jitter:rng
            ~durable:(Durable_tse.durable st.t) st.occ (fun sess ->
              st.reads <- st.reads + 1;
              ignore (Occ.read sess o name);
              Occ.write sess o name v)
        with
        | (), _attempt ->
          st.occ_commits <- st.occ_commits + 1;
          Database.set_attr odb o name v
        | exception Occ.Too_many_conflicts _ ->
          (* single-threaded harness: cannot happen, but keep the twin
             honest if it ever does *)
          ()))
  done

(* Readers pinned to historical view versions: every class of a randomly
   chosen old version must still resolve and its extent must agree with
   the oracle's. *)
let reader_traffic st =
  let rng = st.traffic_rng in
  let hist = Durable_tse.history st.t in
  let versions = History.versions hist view_name in
  if versions <> [] then begin
    let v = List.nth versions (Random.State.int rng (List.length versions)) in
    let db = Durable_tse.db st.t in
    let odb = Tsem.db st.oracle in
    let graph = Database.graph db in
    List.iter
      (fun (cid, lname) ->
        if Schema_graph.mem graph cid then begin
          st.reads <- st.reads + 1;
          let sz = Database.extent_size db cid in
          let osz =
            if Schema_graph.mem (Database.graph odb) cid then
              Database.extent_size odb cid
            else -1
          in
          if sz <> osz then
            violate st
              "pinned reader: extent of %s (v%d) differs: durable %d oracle %d"
              lname v.View_schema.version sz osz
        end)
      v.View_schema.members
  end

(* ---------------- the soak loop ---------------- *)

let run cfg =
  let rng = Random.State.make [| cfg.seed |] in
  let ts =
    match cfg.sampler with Some ts -> ts | None -> Timeseries.create ()
  in
  Failpoint.reset ();
  let t, _ = Durable_tse.open_dir ?policy:cfg.policy ~dir:cfg.dir () in
  let oracle = Tsem.create () in
  build_base ~classes:cfg.classes ~objects:cfg.objects (Durable_tse.db t);
  build_base ~classes:cfg.classes ~objects:cfg.objects (Tsem.db oracle);
  let _v =
    Durable_tse.define_view_by_names t ~name:view_name
      (List.init cfg.classes (Printf.sprintf "C%d"))
  in
  let _ov =
    Tsem.define_view_by_names oracle ~name:view_name
      (List.init cfg.classes (Printf.sprintf "C%d"))
  in
  Durable_tse.commit t;
  Durable_tse.sync t;
  let st =
    {
      t;
      occ = Occ.create (Durable_tse.db t);
      oracle;
      rng;
      traffic_rng = Random.State.make [| cfg.seed; 0xbee |];
      violations = [];
      occ_commits = 0;
      occ_retries_seen = 0;
      reads = 0;
      recovery_ms = [];
    }
  in
  (* initial twin check: both sides must agree before any chaos *)
  if not (String.equal (fingerprint_of st.t) (oracle_fingerprint oracle)) then
    violate st "setup: twin divergence before any evolution";
  let applied = ref 0 and rejected = ref 0 in
  let crashes_done = ref 0 and recoveries = ref 0 in
  let forward = ref 0 and back = ref 0 in
  let retries0 = Metrics.find_counter "occ.retries" in
  Timeseries.sample ts (* baseline tick: rates start from step 0 *);
  for step = 0 to cfg.steps - 1 do
    (* 1. concurrent traffic, synced so a later crash cannot lose state
       the oracle already mirrors *)
    writer_traffic st ~writers:cfg.writers ~classes:cfg.classes;
    reader_traffic st;
    Durable_tse.commit st.t;
    Durable_tse.sync st.t;
    (* 2. decide whether this step crashes mid-evolution. A unit whose
       first change fails the precheck is answered before any write or
       evolve phase, so no crash site could fire: inject only into units
       that pass it. *)
    let changes = gen_changes rng oracle step in
    let passes =
      match Tsem.precheck oracle ~view:view_name (List.hd changes) with
      | _ -> true
      | exception Change.Rejected _ -> false
    in
    let remaining_steps = cfg.steps - step in
    let remaining_crashes = cfg.crashes - !crashes_done in
    let inject =
      passes
      && remaining_crashes > 0
      && (remaining_steps <= remaining_crashes
         || Random.State.float rng 1.0
            < (1.4 *. float_of_int cfg.crashes /. float_of_int cfg.steps))
    in
    let site =
      if inject then begin
        let name, action =
          crash_sites.(Random.State.int rng (Array.length crash_sites))
        in
        Failpoint.arm name action;
        Some name
      end
      else None
    in
    (* 3. one evolution attempt *)
    let pre_version = (Tsem.current oracle view_name).View_schema.version in
    (match Durable_tse.evolve_many st.t ~view:view_name changes with
    | Ok v ->
      Option.iter (fun _ -> Failpoint.reset ()) site;
      incr applied;
      (* mirror on the twin; it executed the same prefix of history, so
         the same changes must succeed with the same resulting version *)
      (match Tsem.evolve_many oracle ~view:view_name changes with
      | ov ->
        if ov.View_schema.version <> v.View_schema.version then
          violate st "step %d: version skew: durable v%d oracle v%d" step
            v.View_schema.version ov.View_schema.version
      | exception e ->
        violate st "step %d: oracle rejected what durable applied: %s" step
          (Printexc.to_string e))
    | Error _msg ->
      Option.iter (fun _ -> Failpoint.reset ()) site;
      incr rejected;
      (* a later change of a two-change unit that fails reopens the
         database inside evolve_many; a precheck rejection keeps it *)
      reattach st;
      post_recovery_checks st (Printf.sprintf "step %d (rejected)" step)
    | exception Failpoint.Crash where ->
      incr crashes_done;
      Failpoint.reset ();
      Durable_tse.abandon st.t;
      let report, _ms, _ = recover st ~policy:cfg.policy
          (Printf.sprintf "step %d crash at %s" step where) in
      incr recoveries;
      let post_version =
        (Durable_tse.current st.t view_name).View_schema.version
      in
      let expected_forward = pre_version + List.length changes in
      if post_version = expected_forward then begin
        incr forward;
        incr applied;
        (* the effects batch reached the disk before the crash: bring
           the twin up to date before comparing *)
        match Tsem.evolve_many oracle ~view:view_name changes with
        | _ -> ()
        | exception e ->
          violate st "step %d: oracle cannot follow the recovered evolution: %s" step
            (Printexc.to_string e)
      end
      else if post_version = pre_version then begin
        incr back;
        incr rejected
      end
      else
        violate st
          "step %d: hybrid state after crash at %s: v%d not in {v%d, v%d}"
          step where post_version pre_version expected_forward;
      ignore report;
      post_recovery_checks st
        (Printf.sprintf "step %d crash at %s" step where));
    (* 4. periodic checkpoint bounds recovery time *)
    if cfg.checkpoint_every > 0 && (step + 1) mod cfg.checkpoint_every = 0 then
      Durable_tse.checkpoint st.t;
    (* 5. one sampler tick per step — ops/s and quantile series over
       the life of the run, embedded in the JSON report *)
    Timeseries.sample ts
  done;
  (* final shutdown/reopen cycle: the surviving state must be readable
     cold and still equivalent to the twin *)
  Durable_tse.close st.t;
  let t, _ = Durable_tse.open_dir ?policy:cfg.policy ~dir:cfg.dir () in
  st.t <- t;
  incr recoveries;
  reattach st;
  post_recovery_checks st "final reopen";
  let final_version =
    (Durable_tse.current st.t view_name).View_schema.version
  in
  let total_versions = History.total_versions (Durable_tse.history st.t) in
  st.occ_retries_seen <- Metrics.find_counter "occ.retries" - retries0;
  Durable_tse.close st.t;
  {
    steps_run = cfg.steps;
    evolutions_applied = !applied;
    evolutions_rejected = !rejected;
    crashes_injected = !crashes_done;
    recoveries = !recoveries;
    rolled_forward = !forward;
    rolled_back = !back;
    final_version;
    total_versions;
    occ_commits = st.occ_commits;
    occ_retries = st.occ_retries_seen;
    reads = st.reads;
    recovery_ms = List.rev st.recovery_ms;
    violations = List.rev st.violations;
    timeseries = ts;
  }

(* ---------------- reporting ---------------- *)

(* The headline series embedded in the report — the full sampler dump
   (every registry metric) stays behind the /series endpoint. *)
let embedded_series =
  [
    "occ.commits";  (* ops/s *)
    "wal.fsyncs";
    "evolve.ms.rate";  (* evolutions/s *)
    "soak.recovery_ms.p50";
    "soak.recovery_ms.p99";
  ]

let to_json cfg (o : outcome) =
  let buf = Buffer.create 1024 in
  let hist_buckets = [ 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000. ] in
  let rh = Metrics.Histogram.of_observations ~buckets:hist_buckets o.recovery_ms in
  (* bucket interpolation can estimate past the true extreme; the exact
     max is known here, so clamp the reported quantiles to it *)
  let rmax = List.fold_left Float.max 0. o.recovery_ms in
  let q v = Float.min v rmax in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"bench\": \"scenarios\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"domains\": %d,\n"
       (Tse_pool.Pool.size (Tse_pool.Pool.global ())));
  Buffer.add_string buf
    (Printf.sprintf "  \"host_cores\": %d,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"config\": {\"seed\": %d, \"steps\": %d, \"crashes\": %d, \
        \"classes\": %d, \"objects\": %d, \"writers\": %d, \
        \"checkpoint_every\": %d, \"policy\": \"%s\"},\n"
       cfg.seed cfg.steps cfg.crashes cfg.classes cfg.objects cfg.writers
       cfg.checkpoint_every
       (match cfg.policy with
       | None -> "default"
       | Some p -> Durable.policy_to_string p));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"results\": {\"steps\": %d, \"evolutions_applied\": %d, \
        \"evolutions_rejected\": %d, \"crashes_injected\": %d, \
        \"recoveries\": %d, \"rolled_forward\": %d, \"rolled_back\": %d, \
        \"final_version\": %d, \"total_versions\": %d, \"occ_commits\": %d, \
        \"occ_retries\": %d, \"reads\": %d},\n"
       o.steps_run o.evolutions_applied o.evolutions_rejected
       o.crashes_injected o.recoveries o.rolled_forward o.rolled_back
       o.final_version o.total_versions o.occ_commits o.occ_retries o.reads);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"recovery_latency_ms\": {\"count\": %d, \"p50\": %.3f, \"p95\": \
        %.3f, \"p99\": %.3f, \"max\": %.3f, \"buckets_ms\": [%s], \
        \"cumulative_counts\": [%s]},\n"
       rh.Metrics.h_count (q rh.Metrics.h_p50) (q rh.Metrics.h_p95)
       (q rh.Metrics.h_p99) rmax
       (String.concat ", " (List.map (Printf.sprintf "%g") hist_buckets))
       (String.concat ", "
          (List.map (fun (_, c) -> string_of_int c) rh.Metrics.h_buckets)));
  Buffer.add_string buf
    (Printf.sprintf "  \"timeseries\": {\"interval_ms\": %d, \"series\": [%s]},\n"
       (Timeseries.interval_ms o.timeseries)
       (String.concat ", "
          (List.filter_map
             (fun name ->
               match Timeseries.points o.timeseries name with
               | [] -> None
               | pts ->
                 Some
                   (Printf.sprintf "{\"name\": \"%s\", \"points\": [%s]}"
                      (Metrics.json_escape name)
                      (String.concat ", "
                         (List.map
                            (fun (t, v) -> Printf.sprintf "[%d, %.6g]" t v)
                            pts))))
             embedded_series)));
  Buffer.add_string buf
    (Printf.sprintf "  \"violations\": [%s],\n"
       (String.concat ", "
          (List.map
             (fun v -> "\"" ^ Metrics.json_escape v ^ "\"")
             o.violations)));
  Buffer.add_string buf
    (Printf.sprintf "  \"pass\": %b\n" (o.violations = []));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp_outcome ppf (o : outcome) =
  Format.fprintf ppf
    "@[<v>soak: %d steps, %d applied, %d rejected, %d crash(es), %d \
     recover(ies) (%d forward / %d back)@ view chain: v%d current, %d \
     versions total@ occ: %d commits, %d retries, %d reads@ violations: %d%s@]"
    o.steps_run o.evolutions_applied o.evolutions_rejected o.crashes_injected
    o.recoveries o.rolled_forward o.rolled_back o.final_version
    o.total_versions o.occ_commits o.occ_retries o.reads
    (List.length o.violations)
    (match o.violations with
    | [] -> ""
    | vs -> "\n  " ^ String.concat "\n  " vs)
