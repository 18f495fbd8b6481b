(** The database kernel: one global schema, one object-slicing object
    model, one shared persistent object population (paper, Figure 6's
    "Global Schema Manager" layer).

    Membership semantics implemented here:
    - an object carries an explicit set of {e base} classes it was placed
      into (closed upward within the base hierarchy), stored minimal as
      the [__bases] slot of its conceptual heap cell, so the heap's
      logger, snapshot and replay persist it like any other object
      state;
    - membership of every {e virtual} class is defined by its derivation
      formula (Section 3.2) and recomputed to a fixpoint whenever an
      object's base membership or attribute values change;
    - class extents are the materialized global extents, indexed per class
      for scans; [check] cross-validates extents, the object model and the
      derivation formulas. *)

type t
type cid = Tse_schema.Klass.cid

val create : unit -> t

val restore : heap:Tse_store.Heap.t -> graph:Tse_schema.Schema_graph.t -> t
(** Reassemble a database from catalog parts: a loaded heap (which
    carries every object's base memberships) and a loaded schema graph
    sharing the heap's OID generator. The object model is rebuilt by
    scanning the heap; extents are re-derived from the restored
    memberships. *)

val graph : t -> Tse_schema.Schema_graph.t
val heap : t -> Tse_store.Heap.t
val model : t -> Tse_objmodel.Slicing.t
val root : t -> cid

(** {2 Objects} *)

val create_object :
  ?init:(string * Tse_store.Value.t) list -> t -> cid -> Tse_store.Oid.t
(** Create a conceptual object as a member of the given {e base} class,
    assign the listed attributes, then derive its virtual-class
    memberships. All or nothing: if an init write raises (an unknown
    attribute, a nonconforming value), the new object is destroyed
    before the exception escapes.
    @raise Invalid_argument if the class is virtual (update operators
    translate virtual-class creation into base-class creation). *)

val destroy_object : t -> Tse_store.Oid.t -> unit
val objects : t -> Tse_store.Oid.t list
val object_count : t -> int
val mem_object : t -> Tse_store.Oid.t -> bool

(** {2 Membership} *)

val add_base_membership : t -> Tse_store.Oid.t -> cid -> unit
(** Place the object into a base class (and, implicitly, its base
    ancestors), then reclassify. *)

val remove_base_membership : t -> Tse_store.Oid.t -> cid -> unit
(** Remove the object from a base class and that class's base descendants,
    then reclassify. *)

val base_membership : t -> Tse_store.Oid.t -> Tse_store.Oid.Set.t
(** The object's minimal explicit base classes (empty for an unknown
    object). *)

val write_base_membership :
  Tse_store.Heap.t -> Tse_store.Oid.t -> cid list -> unit
(** Write an object's minimal base set, ascending, as the slot
    {!base_membership} reads, into a heap no database owns yet: how
    format-1 images and logs, which kept the sets outside the heap, are
    read ({!Durable.image_of_string}). *)

val is_member : t -> Tse_store.Oid.t -> cid -> bool
val member_classes : t -> Tse_store.Oid.t -> cid list

val reclassify : t -> Tse_store.Oid.t -> unit
(** Recompute the object's virtual-class memberships to a fixpoint and
    synchronize implementation objects and extents. *)

val reclassify_all : t -> unit

(** {2 Incremental reclassification engine}

    [set_attr] consults a static dependency index ({!Tse_schema.Deps})
    to re-evaluate only the select predicates that can observe the
    written attribute. Membership is the memo: at a settled state an
    object in a select's source is a member of the select exactly when
    the predicate holds for it, so each re-evaluated verdict is compared
    with the object's membership, and the fixpoint runs only when one of
    them differs. The fixpoint evaluates compiled predicates and
    maintains extents by per-class deltas rather than full sweeps. The
    oracle runs the same loop with interpreted predicates and a full
    extent sweep on every reclassification; it is selectable per
    database or via the [DB_FULL_RECLASSIFY=1] environment variable at
    creation time. *)

val reclassify_fuel : int
(** Extra fixpoint rounds granted after the first before the engine gives
    up on a nonmonotone derivation and calls the nonconvergence hook. *)

val full_reclassify : t -> bool
val set_full_reclassify : t -> bool -> unit
(** Switch between the incremental engine ([false], default) and the full
    fixpoint oracle ([true]). Both leave the same settled memberships,
    so the modes can be toggled mid-run for differential testing. Every
    select-predicate evaluation in either mode counts in the
    [reclass.formula_evals] metric; the incremental engine's contract is
    that writing an attribute no predicate depends on adds zero. *)

val set_nonconvergence_hook : t -> (Tse_store.Oid.t -> unit) -> unit
(** Called at most once per database with the first object whose fixpoint
    exhausted its fuel. Default prints a warning to [stderr]. *)

(** {2 Extents} *)

val extent : t -> cid -> Tse_store.Oid.Set.t
(** The global extent (paper, footnote 14: "extent" always means global
    extent). *)

val extent_list : t -> cid -> Tse_store.Oid.t list
val extent_size : t -> cid -> int
(** Cardinality of {!extent}: a count maintained with the extent, O(1).
    {!check} asserts it equals [Oid.Set.cardinal (extent t cid)]. *)

(** {2 Properties} *)

val get_prop : t -> Tse_store.Oid.t -> string -> Tse_store.Value.t
(** Read a property: a stored attribute slot, or a derived method
    evaluated on the fly. The definition that applies is chosen among
    the object's member classes that {!Tse_schema.Schema_graph.declarers}
    lists for the name, by the multiple-inheritance priority
    rule; nothing is cached per object, so a membership or schema change
    needs no invalidation.
    @raise Invalid_argument if the object is not live.
    @raise Tse_schema.Expr.Unknown_property if undefined for the object.
    @raise Tse_schema.Expr.Type_error if the name is ambiguous for the
    object (unresolved multiple-inheritance conflict). *)

val check_set_attr :
  t -> Tse_store.Oid.t -> string -> Tse_store.Value.t -> unit
(** The check {!set_attr} runs before it writes anything: the object is
    live, [name] resolves for it to a stored attribute, and the value
    conforms to the attribute's type. Changes nothing.
    @raise Invalid_argument if the object is not live.
    @raise Tse_schema.Expr.Unknown_property if [name] does not resolve.
    @raise Tse_schema.Expr.Type_error on type mismatch, when the target is
    a method, or when the name is ambiguous for the object. *)

val set_attr : t -> Tse_store.Oid.t -> string -> Tse_store.Value.t -> unit
(** Write a stored attribute, then reclassify the object (its
    select-class memberships may change). Raises what {!check_set_attr}
    raises, before any change. *)

val write_moves_resolution :
  t -> Tse_store.Oid.t -> earlier:string -> later:string -> bool
(** [true] when a {!set_attr} of [earlier] on the object may change what
    [later] resolves to for it, or whether it resolves: the write may
    move the object's membership of a class declaring [later]
    ({!Tse_schema.Deps.classes_moved_by_attr}) that the object does not
    hold through its base memberships. A refine class over a select, or
    over a class derived from or observing one, stores what a write can
    lose this way. Conservative: the write may leave the membership as
    it was. Changes nothing. *)

val env : t -> Tse_store.Oid.t -> Tse_schema.Expr.env
val holds : t -> Tse_store.Oid.t -> Tse_schema.Expr.t -> bool
(** Predicate evaluation; unknown properties make the predicate [false]
    rather than raising (an object that lacks the attribute cannot satisfy
    a condition on it). *)

(** {2 Compiled predicate evaluation}

    The query engine and the reclassification engine share one compiled
    evaluation path: predicates are lowered once (constant folding,
    conjunct ordering, fast-path attribute getters bound against the
    current schema) and the resulting closure is reused per object. *)

val compile_pred : t -> Tse_schema.Expr.t -> Tse_store.Oid.t -> bool
(** Compile a predicate into a per-object membership test with exactly
    the {!holds} semantics (evaluation errors absorbed into [false]).
    The closure reads live object state but binds schema facts at compile
    time — it must be discarded when {!Tse_schema.Schema_graph.version}
    moves. *)

val compiled_binder : t -> Tse_store.Oid.t Tse_schema.Expr_compile.binder
(** The name binder {!compile_pred} uses (fast-path attribute getters,
    pre-resolved class membership tests); exposed so the query layer can
    compile value-context expressions against the same semantics. *)

(** {2 Change stamps}

    What optimistic concurrency control validates against
    ({!Tse_concurrency.Occ}). *)

val object_version : t -> Tse_store.Oid.t -> int
(** The object's change stamp. It moves once when the object is created
    or destroyed, once per {!set_attr} (whatever memberships the write
    moves), and once per base-membership edit or {!reclassify} that
    moves its memberships. An edit that changes nothing moves nothing,
    and {!populate_class} moves no stamp: only a class no reader can have
    seen yet was joined. The table is made by the first call, so a
    database nobody validates against keeps none. *)

(** {2 Maintained attribute indexes}

    GemStone-style associative access for the select operator: an index
    on [(class, attribute)] maps attribute values to the members of the
    class holding them. The database keeps at most one per [(class,
    attribute)], and refreshes it itself on object creation and
    destruction, attribute writes, membership changes and the
    population of a new class. A membership change refreshes an index
    only when the object entered or left the indexed class, or a class
    that declares the indexed attribute locally. The
    [query.index_refreshes] counter counts per-object refreshes, builds
    included. *)

val index : t -> Tse_store.Index.kind -> cid -> string -> Tse_store.Index.t
(** The maintained index on the class's attribute: built with that
    backing from the current extent by the first request for the key,
    the same index afterwards. An [Ordered] index answers a [Hash]
    request; an [Ordered] request of a [Hash] index rebuilds it as
    ordered in place ({!Tse_store.Index.make_ordered}), so every holder
    sees the change. Read-only for callers: only the database adds or
    removes entries. The caller checks that the attribute is a stored
    one ({!Tse_query.Indexes.ensure} does); an object for which it does
    not resolve is left out. *)

(** {2 Schema changes}

    Nothing needs announcing: the kernel keys everything it derives from
    the schema (derivation order, {!Tse_schema.Deps} index, compiled
    select predicates, per-object property resolution) on
    {!Tse_schema.Schema_graph.version} and drops it when the version
    moves, and an extent is created on first use. *)

val note_new_class : t -> cid -> unit
(** Does nothing; kept for tsebench's fixtures. *)

val populate_class : t -> cid -> unit
(** Give a virtual class that no object is a member of yet (it was just
    registered and linked) its extent. The extent follows from the
    derivation over the sources' extents (Section 3.2): a select keeps
    the source objects its predicate holds for (only that predicate is
    evaluated, compiled); hide and refine take the source's extent,
    refine_from the target's; union, intersect and difference are the
    set operations. Each member gains the class, and no other object is
    touched.

    That is the whole answer only when joining the class moves no other
    membership, which two guards check once for the class:
    - no select observes it ({!Tse_schema.Deps.selects_on_class} is
      empty): joining it could flip such a select's verdict, for example
      by making a name the predicate reads ambiguous;
    - the new extent lies within the extent of every non-root ancestor:
      otherwise members would also join those ancestors.

    When either guard fails, or under {!full_reclassify}, every object
    of the union of the source extents runs the {!reclassify} fixpoint
    instead. Either way the memberships are settled afterwards, and the
    translator runs no further fixpoint over the members. *)

val derivation_order : t -> cid list
(** Virtual classes ordered so every class follows its sources. *)

(** {2 Consistency oracle} *)

val check : t -> string list
(** Cross-validates: extent index vs object-model membership; each
    extent's maintained count vs its cardinality; derivation
    formulas vs actual virtual-class extents; the is-a extent-subset
    invariant; plus {!Tse_schema.Invariants.check} on the schema. Empty
    means consistent. *)

val pp_extents : Format.formatter -> t -> unit
