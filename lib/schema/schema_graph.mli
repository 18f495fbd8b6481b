(** The global schema: one rooted DAG of base and virtual classes.

    MultiView integrates every virtual class into a single consistent
    global schema graph (paper, Section 3.1); all views select their
    classes from here. The distinguished root class (the paper's
    [ROOT]/[OBJECT]) is created with the graph and is the default
    superclass of otherwise-unconnected classes. *)

type cid = Klass.cid
type t

val create : gen:Tse_store.Oid.Gen.t -> t
val gen : t -> Tse_store.Oid.Gen.t

val version : t -> int
(** The schema's one stamp. Every mutator of this module moves it,
    and nothing else edits a class record, so anything derived from the
    schema (the {!Deps} index, derivation orders, compiled predicates,
    durable schema images) is valid exactly while it is unchanged. *)

val changed_since : t -> int -> Klass.t list * cid list
(** [changed_since g v]: the classes whose record (name, derivation,
    supers, local properties) an edit at a version after [v] may have
    changed, and the classes removed after [v], each sorted by cid. A
    class registered after [v] counts as changed. Subclass lists are
    not part of a record ({!relink_subs} rebuilds them), so linking a
    class under another reports only the subclass. *)

val root : t -> cid
(** The system root class, named ["Object"]. *)

(** {2 Class registry} *)

val register_base :
  t -> name:string -> props:Prop.t list -> supers:cid list -> cid
(** Create and link a base class. An empty [supers] list links the class
    under the root. Property [origin] fields are rewritten to the new
    class.
    @raise Invalid_argument if the name is already in use by another class. *)

val register_virtual :
  t -> name:string -> Klass.derivation -> Prop.t list -> cid
(** Create a virtual class {e without} is-a edges; the classifier is
    responsible for linking it (Section 3.1, subtask 2). *)

val find : t -> cid -> Klass.t option
val find_exn : t -> cid -> Klass.t
val find_by_name : t -> string -> Klass.t option
(** One table lookup: the graph keeps a name-to-class table, updated by
    every function that registers, renames, removes or installs a class. *)

val find_by_name_exn : t -> string -> Klass.t

val declarers : t -> string -> Tse_store.Oid.Set.t
(** The classes that list a property of that name among their local
    properties (the root included, should it declare one), empty when
    none does. One table lookup: the graph keeps a property-name table,
    updated as the records change by {!register_base},
    {!register_virtual}, {!install}, {!remove}, {!copy},
    {!add_local_prop} and {!remove_local_prop}; {!rename} and the edge
    edits leave it as it is. Under object slicing a property resolves
    among the object's member classes in this set, so it is never
    rebuilt per graph version. *)

val name_of : t -> cid -> string
val mem : t -> cid -> bool
val classes : t -> Klass.t list
val cids : t -> cid list
val size : t -> int

val remove : t -> cid -> unit
(** Unlink the class from all neighbours and drop it. The root cannot be
    removed. *)

(** {2 Class edits} *)

val add_local_prop : t -> cid -> Prop.t -> unit
(** Append a local property to the class, as given (its [origin] is not
    rewritten).
    @raise Invalid_argument if the class already defines that name
    locally. *)

val remove_local_prop : t -> cid -> string -> unit
(** Drop the class's local property of that name, if any. *)

val rename : t -> cid -> string -> unit
(** @raise Invalid_argument if another class uses the name. *)

(** {2 Generalization edges} *)

val add_edge : t -> sup:cid -> sub:cid -> unit
(** Make [sup] a direct superclass of [sub]. Adding an existing edge is a
    no-op; if [sub]'s only superclass was the root, the root edge is
    dropped first (the root stays an indirect ancestor).
    @raise Invalid_argument if the edge would create a cycle. *)

val remove_edge : t -> sup:cid -> sub:cid -> unit
(** Remove a direct edge; if this disconnects [sub] from every superclass,
    [sub] is re-attached under the root (paper, Section 6.6.1). *)

val supers : t -> cid -> cid list
val subs : t -> cid -> cid list

val ancestors : t -> cid -> Tse_store.Oid.Set.t
(** All transitive superclasses, excluding the class itself. *)

val descendants : t -> cid -> Tse_store.Oid.Set.t

val is_strict_ancestor : t -> anc:cid -> desc:cid -> bool
val is_ancestor_or_self : t -> anc:cid -> desc:cid -> bool

val subclasses_within : t -> cid -> in_set:Tse_store.Oid.Set.t -> cid list
(** Descendants (including the class itself) restricted to [in_set] — the
    "subclasses of C within a view" traversal used by the Section 6
    translation algorithms. *)

val topo_order : t -> cid list
(** Every class after all of its superclasses. *)

val is_redundant_edge : t -> sup:cid -> sub:cid -> bool
(** [true] when [sub] would remain a descendant of [sup] through some other
    path if the direct edge were removed. *)

(** {2 Catalog loading} *)

val restore_empty : gen:Tse_store.Oid.Gen.t -> root:cid -> t
(** An empty graph whose root will be the class with the given id; the
    loader must {!install} that class (and all others) itself. *)

val install : t -> Klass.t -> unit
(** Register a class record verbatim (no edge bookkeeping, no checks);
    catalog loading only. The generator is advanced past its cid. *)

val relink_subs : t -> unit
(** Rebuild every class's [subs] list from the [supers] lists — called
    once after all classes are installed. *)

val pp : Format.formatter -> t -> unit
