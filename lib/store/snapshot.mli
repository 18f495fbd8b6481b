(** Text snapshots of a heap: the [HEAP] section of the database image
    that a checkpoint or a catalog writes ([Tse_db.Durable]).

    A stable, diffable line format (no [Marshal]) so that persisted
    databases survive compiler upgrades and can be inspected by hand:

    {v
    TSE-HEAP 1
    gen <next-oid>
    obj <oid> <tag> <nslots>
    slot <name> <value-encoding>
    ...
    end
    v} *)

val to_string : Heap.t -> string
(** Renders OID-range chunks of the heap across the global
    {!Tse_pool.Pool} and concatenates them in ascending OID order, so the
    bytes are the same at every pool size. *)

val of_string : string -> Heap.t
(** @raise Failure on malformed input, naming the offending line number. *)

val roundtrip_equal : Heap.t -> Heap.t -> bool
(** Structural equality of two heaps (same cells, tags and slots); used by
    the persistence tests. *)
