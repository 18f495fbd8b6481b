(** Scrapeable stats endpoint — the repo's first wire protocol.

    A deliberately tiny HTTP/1.0 listener (TCP or Unix socket) run on
    one background domain, serving three read-only routes:

    - [/metrics] — Prometheus-style text exposition of the whole
      metrics registry ([tse_]-prefixed, dots mangled to underscores,
      histograms as [_bucket]/[_sum]/[_count] families);
    - [/series]  — the attached {!Timeseries} sampler's ring buffers
      as JSON ([{"interval_ms":...,"series":[...]}]);
    - [/rates]   — a pre-rendered plain-text table of live headline
      rates (ops/s, fsyncs/commit, formula evals/s, pool utilization),
      which is what [tse_cli top] polls.

    Addresses are ["HOST:PORT"] (numeric host, port 0 lets the kernel
    pick — {!addr} reports the real one) or ["unix:PATH"]; the default
    comes from [TSE_STATS_ADDR], else [127.0.0.1:9464].  Requests are
    handled one at a time — scrape traffic, not a web server. *)

type t

val default_addr : unit -> string

val start : ?addr:string -> ?ts:Timeseries.t -> unit -> (t, string) result
(** Bind, listen, and spawn the accept domain.  [Error] (rather than
    an exception) when the bind fails — sandboxes without network
    access are an expected environment. *)

val addr : t -> string
(** Actually-bound address, in the same syntax [start] accepts. *)

val stop : t -> unit
(** Shut the listener down and join its domain; Unix-socket paths are
    unlinked. *)

val render_metrics : unit -> string
(** The [/metrics] body (also usable without a running server). *)

val render_rates : Timeseries.t option -> string
(** The [/rates] body. *)

val fetch : addr:string -> path:string -> (string, string) result
(** One-shot HTTP/1.0 GET against [addr]; [Ok body] on a 200.  The
    client side of the protocol, used by [tse_cli top] and the CI
    smoke leg's assertions. *)
