(** Ordered (range) indexes mapping attribute values to OID sets.

    Companion to the hash {!Index}: same (value, oid) entry model and the
    same maintenance by the database, but keys live in a balanced map
    whose order matches the predicate language's comparison semantics
    (numeric [Int]/[Float] keys share one ordering domain, so [3] and [3.0]
    share a bucket), enabling sargable range lookups. *)

type t

type bound = Value.t * bool
(** A range endpoint: the value and whether the endpoint is inclusive. *)

val create : unit -> t

val add : t -> Value.t -> Oid.t -> unit
val remove : t -> Value.t -> Oid.t -> unit

val lookup : t -> Value.t -> Oid.Set.t
(** Equality probe; numeric keys compare numerically. *)

val range : t -> lo:bound option -> hi:bound option -> Oid.Set.t
(** All OIDs whose key falls in the (possibly half-open) interval. Keys
    that cannot legally order against a bound — [Null], or a tag
    incompatible with the bound's — are excluded, mirroring how the
    evaluator turns such comparisons into type errors (and the enclosing
    membership test into [false]). *)

val cardinal : t -> int
(** Number of (value, oid) entries; a maintained count, O(1). *)

val distinct_keys : t -> int
(** Number of distinct keys ([3] and [3.0] are one key); a maintained
    count, O(1). *)

val clear : t -> unit

val overhead_bytes : t -> int
(** Managerial storage charged to the index: one OID-sized entry per
    (value, oid) pair plus tree-node overhead per distinct key. *)

val of_seq : (Value.t * Oid.t) Seq.t -> t
