(** Process-wide metrics registry.

    Zero-dependency counters, gauges and histograms, registered once by
    name (plus optional labels) and mutated through pre-resolved handles
    so hot paths pay a single atomic update — no hashtable lookup, no
    allocation.  Every handle is domain-safe: counters and gauges are
    each a single atomic cell, histograms and the registry itself are
    mutex-guarded.  The registry is global: every subsystem contributes
    to one namespace ("wal.fsyncs", "reclass.formula_evals", ...) and a
    snapshot can be rendered as JSON or human-readable text. *)

type counter
(** Monotonically increasing integer. *)

type gauge
(** Instantaneous float value (may go up or down). *)

type histogram
(** Fixed-boundary cumulative histogram over float observations. *)

val counter : ?labels:(string * string) list -> string -> counter
(** [counter name] registers (or retrieves) the counter [name].
    Registration is idempotent: the same (name, labels) pair always
    returns the same handle.  Raises [Invalid_argument] if [name] is
    already registered as a different metric kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : ?labels:(string * string) list -> string -> gauge
val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram :
  ?labels:(string * string) list -> ?buckets:float list -> string -> histogram
(** [histogram ?buckets name] registers a histogram with the given
    upper-bound boundaries (sorted ascending; an implicit +inf bucket is
    always appended).  [buckets] defaults to powers of two from 1 to
    4096 — suitable for batch/group sizes.  On re-registration the
    existing handle is returned and [buckets] is ignored. *)

val observe : histogram -> float -> unit

type hist_snapshot = {
  h_buckets : (float * int) list;  (** (upper_bound, cumulative count) *)
  h_inf : int;  (** observations above the last boundary *)
  h_count : int;
  h_sum : float;
  h_p50 : float;  (** bucket-interpolated quantiles, 0. when empty *)
  h_p95 : float;
  h_p99 : float;
}

module Histogram : sig
  val percentile : histogram -> float -> float
  (** [percentile h p] ([p] in [0,1]) estimates the [p]-quantile of the
      observations from cumulative bucket counts, interpolating
      linearly inside the bucket the quantile lands in.  Quantiles in
      the +inf bucket report the last finite bound (a lower bound on
      the truth); an empty histogram reports 0. *)

  val percentile_of : hist_snapshot -> float -> float
  (** Same estimate over an already-taken snapshot. *)

  val of_observations : ?buckets:float list -> float list -> hist_snapshot
  (** Fold raw observations into a snapshot (with quantile fields)
      without registering anything — the uniform way for benches to
      build a quantile table from collected latencies. *)
end

type value = Counter of int | Gauge of float | Histogram of hist_snapshot

type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_value : value;
}

val snapshot : unit -> sample list
(** All registered metrics, sorted by name then labels. *)

val key_of : sample -> string
(** Canonical display key: the name, plus [{k=v,...}] when labeled.
    Stable — the sampler and exposition endpoints key series by it. *)

val find_counter : ?labels:(string * string) list -> string -> int
(** Current value of a counter, or 0 if it was never registered. *)

val reset : unit -> unit
(** Zero every registered metric (registration survives).  Used by the
    benchmarks to scope the registry to a single run. *)

val nonzero : sample list -> sample list
(** Drop samples whose value is identically zero (counter 0, gauge 0.,
    empty histogram).  Used by the benchmarks to keep the embedded
    registry section down to metrics that actually fired. *)

val to_json : sample list -> string
(** One JSON object; histogram values become nested objects. *)

val pp_text : Format.formatter -> sample list -> unit
(** Human-readable rendering, one metric per line. *)

val json_escape : string -> string
(** JSON string-body escaping, shared with the tracer. *)
