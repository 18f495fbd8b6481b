(** Hash indexes mapping attribute values to OID sets.

    Section 4.2 counts index structures among the "storage for purposes
    other than data values"; the query benchmarks use these indexes to give
    both object models identical lookup machinery. *)

type t

val create : unit -> t

val add : t -> Value.t -> Oid.t -> unit
val remove : t -> Value.t -> Oid.t -> unit

val lookup : t -> Value.t -> Oid.Set.t
(** All OIDs currently indexed under the value (empty set if none). *)

val cardinal : t -> int
(** Number of (value, oid) entries. *)

val distinct_keys : t -> int

val overhead_bytes : t -> int
(** Managerial storage charged to the index: one OID-sized entry per
    (value, oid) pair plus one pointer per distinct key bucket. *)
