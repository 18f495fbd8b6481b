(** Chaos soak harness: seeded end-to-end crash/recovery scenarios.

    One [run] drives hundreds of view evolutions (a long version chain)
    against a {!Tse_core.Durable_tse} database while OCC writers and
    readers pinned to historical view versions run alongside. Crashes
    are injected mid-evolution — at every evolve phase failpoint, in a
    torn write of the effects batch, and between that write and its
    fsync — and after {e every} recovery the harness asserts:

    - {!Tse_db.Database.check} and {!Tse_schema.Invariants.check} hold;
    - the static analyzer ({!Tse_analysis.Analysis}) reports no errors;
    - the recovered state is structurally identical
      ({!Tse_core.Verify.db_fingerprint}) to a never-crashed in-memory
      twin that executed the same logical operations;
    - the view version is exactly pre- or post-evolution, never a
      hybrid.

    Failed assertions become [violations] in the {!outcome}; an empty
    list is the pass verdict. The whole run is deterministic in
    [config.seed]. *)

type config = {
  seed : int;
  steps : int;  (** evolution attempts *)
  crashes : int;  (** target number of injected crash/recover cycles *)
  dir : string;  (** database directory (created if absent) *)
  policy : Tse_db.Durable.sync_policy option;
  classes : int;  (** base classes in the seed schema *)
  objects : int;  (** objects populated at setup *)
  writers : int;  (** OCC writer transactions per step *)
  checkpoint_every : int;  (** steps between checkpoints; 0 = never *)
  sampler : Tse_obs.Timeseries.t option;
      (** sampler ticked once per step; [Some] lets a live stats
          endpoint serve the same ring buffers the run fills, [None]
          gives the run a private one (reported either way) *)
}

val default : dir:string -> config
(** 300 steps, 30 crashes, seed 42. *)

type outcome = {
  steps_run : int;
  evolutions_applied : int;
  evolutions_rejected : int;
  crashes_injected : int;
  recoveries : int;
  rolled_forward : int;
      (** crashes recovered to the post-evolution version *)
  rolled_back : int;  (** crashes recovered to the pre-evolution version *)
  final_version : int;
  total_versions : int;
  occ_commits : int;
  occ_retries : int;
  reads : int;
  recovery_ms : float list;  (** per crash recovery, in order *)
  violations : string list;  (** empty = pass *)
  timeseries : Tse_obs.Timeseries.t;
      (** the run's sampler — ops/s, fsync and evolution rates,
          recovery-latency quantiles, one point per step *)
}

val run : config -> outcome
(** Also feeds the [soak.recovery_ms] metrics histogram. *)

val to_json : config -> outcome -> string
(** The BENCH_scenarios.json document: config, results, recovery-latency
    quantile table, embedded headline time-series, violations, pass
    verdict. *)

val pp_outcome : Format.formatter -> outcome -> unit
