(** Fixed-size domain pool with chunked work-sharing.

    The substrate for the sharded snapshot encode
    ([Tse_store.Snapshot.to_string], the one caller): a pool owns
    [size - 1] persistent worker domains (the caller's domain is the
    coordinator and always participates), and [run]/[map_chunks] split
    an index range [0, n) into contiguous chunks that workers claim
    from a shared atomic cursor.  Chunks are contiguous and ascending,
    so per-chunk results concatenated in chunk order reproduce the
    sequential ascending-OID order — determinism never depends on
    which domain ran which chunk.

    A pool of size 1 spawns no domains and executes its single chunk
    inline on the caller's domain; that is the default
    [TSE_DOMAINS=1]. *)

type t

val create : int -> t
(** [create size] makes a pool running work on [size] domains total
    (the coordinator plus [size - 1] spawned workers).  [size] is
    clamped to [1, 64]. *)

val size : t -> int

val shutdown : t -> unit
(** Join all worker domains.  The pool must be idle.  Idempotent. *)

val run : t -> n:int -> (lo:int -> hi:int -> unit) -> unit
(** [run t ~n f] partitions [0, n) into contiguous chunks and calls
    [f ~lo ~hi] once per chunk (half-open [lo, hi)), spread across all
    domains of the pool.  Returns once every chunk has completed.  If
    any chunk raises, one of the raised exceptions is re-raised on the
    caller's domain — after all remaining chunks have still run, so
    the pool stays reusable.  [f] must not touch shared mutable state
    unless that state is domain-safe.  Not reentrant: [f] must not
    call back into the same pool. *)

val map_chunks : t -> n:int -> (lo:int -> hi:int -> 'a) -> 'a list
(** [map_chunks t ~n f] is [run] but collects each chunk's result,
    returned in ascending chunk order (ascending [lo]) regardless of
    which domain computed what. *)

val chunk_ranges : size:int -> n:int -> (int * int) list
(** The chunk decomposition [run] uses: contiguous half-open ranges
    covering [0, n) in ascending order.  Exposed for tests and for
    callers that need to pre-size per-chunk buffers. *)

val default_domains : unit -> int
(** The pool size requested by the environment: [TSE_DOMAINS], default
    1, clamped to [1, 64]. *)

val global : unit -> t
(** The process-wide pool, created on first use with
    [default_domains ()] domains. *)

val set_global_size : int -> unit
(** Replace the global pool with one of the given size (shutting the
    old one down).  Used by tests and benchmarks to sweep domain
    counts; production code sizes the pool once via [TSE_DOMAINS]. *)
