(** The object-slicing architecture: the TSE object model (Section 4).

    A conceptual object is represented by a conceptual heap cell plus one
    implementation heap cell per member class; each implementation object
    carries the slots for the stored attributes {e locally defined} at its
    class and a back-pointer to the conceptual object. This gives:

    - multiple classification (an object is a member of many classes);
    - dynamic (re)classification by creating/destroying implementation
      objects, identity untouched;
    - cheap casting (switch implementation object);
    - efficient dynamic restructuring: a capacity-augmenting [refine] adds
      one implementation object per member instead of rewriting whole
      objects.

    Storage accounting matches Table 1:
    [(1 + n_impl)·sizeof_oid + n_impl·2·sizeof_pointer] managerial bytes
    per object. *)

include Model_sig.S

val rebuild :
  graph:Tse_schema.Schema_graph.t ->
  heap:Tse_store.Heap.t ->
  stats:Tse_store.Stats.t ->
  t
(** Reconstruct the in-memory tables (conceptual ↔ implementation maps)
    by scanning a loaded heap: conceptual cells carry ["__impl:<cid>"]
    reference slots, implementation cells a ["__conceptual"] back-pointer.
    Storage statistics are recomputed. Each distinct implementation tag
    is parsed once, and every cell carrying it is pointed at the one
    tag string that the class's later slices share too. *)

val is_object : t -> Tse_store.Oid.t -> bool
(** The OID names a live conceptual object of this model. *)

val impl_of : t -> Tse_store.Oid.t -> Tse_schema.Klass.cid -> Tse_store.Oid.t option
(** The implementation object representing the conceptual object at the
    class, if the object is a member. *)

val slot_reader :
  t -> Tse_schema.Klass.cid -> string -> Tse_store.Oid.t -> Tse_store.Value.t option
(** [slot_reader t cid name] specializes "read slot [name] from the
    object's implementation at [cid]" into one flat closure with every
    table capture hoisted out of the per-object loop — the read path of
    compiled predicates. [None] when the object has no implementation at
    [cid]; missing slots read as [Value.Null]. *)

val impl_count : t -> Tse_store.Oid.t -> int
(** [n_impl] for the object. *)

val conceptual_of : t -> Tse_store.Oid.t -> Tse_store.Oid.t option
(** Back-pointer: conceptual object of an implementation object. *)

val ensure_member : t -> Tse_store.Oid.t -> Tse_schema.Klass.cid -> unit
(** Idempotent [add_to_class]: used by extent maintenance when a derived
    class's predicate starts holding for an existing object. *)

val add_impl : t -> Tse_store.Oid.t -> Tse_schema.Klass.cid -> unit
(** [add_impl t o cid] gives the object its implementation object at
    [cid] alone, if it has none yet; no ancestor is touched. The caller
    must know that the object is already a member of every non-root
    ancestor of [cid], or the membership closure breaks: populating a
    new class whose members its ancestors' extents already hold. *)

val set_membership : t -> Tse_store.Oid.t -> Tse_schema.Klass.cid list -> unit
(** Make the object's member-class set exactly the given list (root
    excluded): missing implementation objects are created, extra ones
    destroyed (their slice data is discarded, as dynamic declassification
    prescribes). No is-a closure is applied — the caller supplies a closed
    set. *)

val resolve_defining_class :
  t -> Tse_store.Oid.t -> string -> Tse_schema.Klass.cid option
(** The member class whose local definition of the stored attribute wins
    resolution for this object (most specific member class; promoted
    definitions take priority among unrelated candidates). *)
