(** Storage accounting, following Table 1 of the paper.

    Table 1 compares the object-slicing and intersection-class architectures
    on managerial storage: the slicing model pays
    [(1 + n_impl) * sizeof_oid + n_impl * 2 * sizeof_pointer] per object,
    the intersection-class model pays [sizeof_oid]. These constants and the
    counters that the two object models update live here so the bench
    harness can report both sides with identical bookkeeping.

    The record is private: all mutation goes through the functions below,
    which mirror every update into the global metrics registry
    ([table1.*] names) so the Table 1 numbers appear alongside the rest of
    the system's counters. Reads remain plain field accesses. *)

val sizeof_oid : int
(** Bytes charged per object identifier (8, a 64-bit OID). *)

val sizeof_pointer : int
(** Bytes charged per intra-store pointer (8). *)

type t = private {
  mutable oids_allocated : int;  (** OIDs handed out (conceptual + impl). *)
  mutable pointers : int;  (** conceptual<->implementation link pointers *)
  mutable data_bytes : int;  (** payload bytes of slot values *)
  mutable classes_created : int;
      (** classes created by the model itself (e.g. intersection classes) *)
  mutable objects_created : int;  (** conceptual objects *)
  mutable copies : int;
      (** whole-object value copies (intersection-class reclassification) *)
  mutable identity_swaps : int;
}

val create : unit -> t

val reset : t -> unit
(** Zero the per-model struct. The registry aggregates are monotonic and
    are not rewound. *)

val incr_oids : t -> unit
val add_pointers : t -> int -> unit

val add_data_bytes : t -> int -> unit
(** Delta in bytes; may be negative (value overwritten by a smaller one). *)

val incr_classes : t -> unit
val incr_objects : t -> unit
val incr_copies : t -> unit
val incr_swaps : t -> unit

val managerial_bytes : t -> int
(** [oids_allocated * sizeof_oid + pointers * sizeof_pointer]: Table 1's
    "storage for managerial purpose" row. *)

val oids_per_object : t -> float
(** Average identifiers per conceptual object: Table 1's "#oids" row. *)
