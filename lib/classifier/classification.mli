(** The classification algorithm (paper, Section 3.1, [Rundensteiner 92]):
    integrate a freshly derived virtual class into the one consistent
    global schema graph.

    Responsibilities:
    - {b duplicate detection}: a new virtual class whose derivation is
      structurally equal to an existing one is discarded and the existing
      class reused (Section 7 relies on this for version merging);
    - {b placement}: generalization edges are added according to the
      derivation semantics — a [select]/[refine]/[difference] class goes
      below its source, a [hide] class above it (inheriting the source's
      direct superclasses where the type fits), a [union] above both
      arguments and below their minimal common ancestors, an [intersect]
      below both arguments;
    - {b property promotion}: properties the intended type requires that
      the new class does not inherit at its position are materialized as
      local, [promoted] definitions sharing the original [uid] (MultiView
      code promotion — Section 6.2.3);
    - {b edge repair}: direct edges made transitive-redundant by the
      insertion are removed;
    - {b extent maintenance}: the new class's extent is computed from
      its sources' extents by set algebra ({!Tse_db.Database.populate_class});
      only when joining the class could move another membership do the
      objects of the source extents run the membership fixpoint. *)

type cid = Tse_schema.Klass.cid

val integrate : Tse_db.Database.t -> cid -> cid
(** [integrate db c] links the (unlinked) virtual class [c] into the
    global schema and returns the surviving class id: [c] itself, or the
    pre-existing duplicate if one was found (in which case [c] has been
    removed from the graph). *)

val find_duplicate : Tse_db.Database.t -> cid -> cid option
(** An existing {e different} virtual class with a structurally equal
    derivation, if any. *)

val intended_type :
  Tse_db.Database.t -> Tse_schema.Klass.derivation -> Tse_schema.Prop.t list
(** The full type the algebra assigns to a class with this derivation
    (Section 3.2): select keeps the source type, hide subtracts, refine
    adds, union takes the common properties (the lowest common supertype),
    intersect merges both, difference keeps the first argument's type. *)
