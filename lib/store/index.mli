(** Attribute indexes mapping values to OID sets.

    Section 4.2 counts index structures among the "storage for purposes
    other than data values". An index has one of two backings: a hash
    table, which answers equality probes, or a balanced map, which also
    answers key-range walks. Either answers equality the way the
    predicate language compares ({!Tse_schema.Expr.eval_cmp}): [Int] and
    [Float] keys compare numerically, so [3] and [3.0] are one key. The
    map orders numeric keys in one domain; the table files a [Float]
    with an integral value under its equal [Int]. [Int] keys beyond
    2{^53} are not covered: [float_of_int] rounds there. *)

type kind = Hash | Ordered

type t

type bound = Value.t * bool
(** A range endpoint: the value and whether the endpoint is inclusive. *)

val create : kind -> t
val kind : t -> kind

val make_ordered : t -> unit
(** Rebuild a [Hash] index as [Ordered] in place, from its own buckets;
    every holder of the index sees the change. No-op on an [Ordered]
    one. *)

val add : t -> Value.t -> Oid.t -> unit
val remove : t -> Value.t -> Oid.t -> unit

val lookup : t -> Value.t -> Oid.Set.t
(** All OIDs indexed under a key equal to the value (empty set if
    none). *)

val range : t -> lo:bound option -> hi:bound option -> Oid.Set.t
(** All OIDs whose key falls in the (possibly half-open) interval. Keys
    that cannot legally order against a bound — [Null], or a tag
    incompatible with the bound's — are excluded, mirroring how the
    evaluator turns such comparisons into type errors (and the enclosing
    membership test into [false]).
    @raise Invalid_argument on a [Hash] index. *)

val cardinal : t -> int
(** Number of (value, oid) entries; a maintained count, O(1). *)

val distinct_keys : t -> int
(** Number of distinct keys ([3] and [3.0] are one key); a maintained
    count, O(1). *)

val overhead_bytes : t -> int
(** Managerial storage charged to the index: one OID-sized entry per
    (value, oid) pair, plus one pointer per key for a table and four
    per key for a tree node. *)
