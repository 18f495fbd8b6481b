(** Stall watchdog: stable-coded warnings for latency pathologies.

    Three conditions, each with a fixed code so log scrapers can match
    on it, a counter, and a latency histogram where timing is involved:

    - [W301] — a WAL fsync took longer than [TSE_STALL_FSYNC_MS]
      (default 100); counter [watchdog.fsync_stalls], histogram
      [wal.fsync_ms].
    - [W302] — a schema evolution ran past [TSE_EVOLVE_BUDGET_MS]
      (default 500); counter [watchdog.slow_evolutions], histogram
      [evolve.ms].
    - [W303] — incremental reclassification exhausted its fuel and
      fell back to a full fixpoint; counter [watchdog.fuel_pressure].

    Warnings go through [Log.warn]; thresholds are read from the
    environment once and overridable in-process for tests. *)

val observe_fsync : ms:float -> unit
(** Record one fsync duration; warn [W301] when over threshold. *)

val time_evolution : view:string -> (unit -> 'a) -> 'a
(** Run an evolution thunk under {!Trace.now_us}; record its duration
    and warn [W302] when over budget.  Lives here so [lib/core] needs
    no Unix dependency — exceptions propagate after recording. *)

val fuel_pressure : what:string -> unit
(** Note one fuel-exhausted fallback; warns [W303] with [what]
    identifying the reclassification site. *)

val set_fsync_stall_ms : float -> unit
(** Override the [W301] threshold (tests). *)

val set_evolve_budget_ms : float -> unit
(** Override the [W302] threshold (tests). *)

val fsync_stall_ms : unit -> float
val evolve_budget_ms : unit -> float
