let env_ms name default =
  match Sys.getenv_opt name with
  | Some s -> (
    match float_of_string_opt s with Some f when f > 0. -> f | _ -> default)
  | None -> default

(* Thresholds are process-wide and test-overridable; atomics rather
   than refs because stalls are observed from worker domains. *)
let fsync_stall = Atomic.make (env_ms "TSE_STALL_FSYNC_MS" 100.)
let evolve_budget = Atomic.make (env_ms "TSE_EVOLVE_BUDGET_MS" 500.)

let set_fsync_stall_ms v = Atomic.set fsync_stall v
let set_evolve_budget_ms v = Atomic.set evolve_budget v
let fsync_stall_ms () = Atomic.get fsync_stall
let evolve_budget_ms () = Atomic.get evolve_budget

let ms_buckets = [ 0.25; 0.5; 1.; 2.; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000. ]

let m_fsync_stalls = Metrics.counter "watchdog.fsync_stalls"
let m_slow_evolutions = Metrics.counter "watchdog.slow_evolutions"
let m_fuel_pressure = Metrics.counter "watchdog.fuel_pressure"
let h_fsync_ms = Metrics.histogram ~buckets:ms_buckets "wal.fsync_ms"
let h_evolve_ms = Metrics.histogram ~buckets:ms_buckets "evolve.ms"

let observe_fsync ~ms =
  Metrics.observe h_fsync_ms ms;
  if ms > Atomic.get fsync_stall then begin
    Metrics.incr m_fsync_stalls;
    Log.warn "watchdog" "W301: fsync stalled %.1fms (threshold %.0fms)" ms
      (Atomic.get fsync_stall)
  end

let time_evolution ~view f =
  let t0 = Trace.now_us () in
  let record () =
    let ms = float_of_int (Trace.now_us () - t0) /. 1000. in
    Metrics.observe h_evolve_ms ms;
    if ms > Atomic.get evolve_budget then begin
      Metrics.incr m_slow_evolutions;
      Log.warn "watchdog" "W302: evolution of %s took %.1fms (budget %.0fms)"
        view ms
        (Atomic.get evolve_budget)
    end
  in
  match f () with
  | v ->
    record ();
    v
  | exception e ->
    record ();
    raise e

let fuel_pressure ~what =
  Metrics.incr m_fuel_pressure;
  Log.warn "watchdog" "W303: reclassify fuel exhausted (%s), full fixpoint"
    what
