(** The two auxiliary macros of the delete-edge translation (Section 6.6.2)
    and the origin-class trace used by add-class (Section 6.7.2).

    Both macros ask what a view looks like "assuming the edge has been
    deleted". They answer on the live global graph, with no copy, and
    relative to the view the change is made in. The global graph, not the
    view's generated hierarchy, is walked: transitive reduction erases the
    redundant-but-vital direct edges of Figure 11's diamond.

    An evolved schema holds several versions of one view class: each
    translation derives the new version from the old one. So the edge
    C_sup-C_sub may also exist between older versions of its two ends.
    The version lineage of a class is the class plus its principal-source
    chain: Select, Hide and Refine follow their source, Refine_from its
    target, and the binary operators their first operand. An edge (x, y)
    counts as deleted when x is in C_sup's lineage and y in C_sub's. Every
    other path, through another view class or through a global class
    outside the view, is a different is-a relationship and stays open. On
    a schema that has not evolved, the lineage of a class is the class
    itself and only the one edge is deleted. *)

type cid = Tse_schema.Klass.cid

type t
(** The hypothetical: one view edge C_sup-C_sub deleted. *)

val assume_deleted :
  Tse_db.Database.t -> Tse_views.View_schema.t -> sup:cid -> sub:cid -> t
(** Reads the two lineages at the call. The queries below walk the live
    graph, so they see the classes and edges a translation has added
    since. *)

val reaches : t -> cid -> cid -> bool
(** [reaches h a b]: [b] is a strict descendant of [a] once the edge is
    deleted. *)

val common_sub : t -> cid -> cid list
(** [commonSub(v, C_sub, Csup-Csub)]: the greatest view classes below both
    [v] and C_sub once the edge is deleted, the classes whose instances
    stay visible to [v] (the Figure 11 situation). In view order. *)

val restore_set : t -> cid -> cid list
(** What phase A of the delete-edge translation gives back to a superclass
    [v] of C_sup after it subtracts C_sub: the greatest view classes below
    [v] once the edge is deleted, leaving out C_sub's own lineage. In view
    order. The translator walks C_sup and then its view ancestors from
    nearest to farthest. A class [d] of the set that is also below C_sub is
    restored as it is; that part is {!common_sub}. Any other [d] is
    restored as [d ∩ C_sub], where [d] is its new version if the
    translation already made one. So [v'] keeps every instance of C_sub
    that one of its view subclasses keeps, and stays a superset of each
    view subclass the replacement hierarchy hangs below it. *)

val find_properties : t -> cid -> string list
(** [findProperties(w, Csup-Csub)]: names of the properties [w] inherits
    {e only} through the deleted edge (footnote 17). A property survives
    when one of its uppermost providers in the view is [w] itself or still
    reaches [w], or when no view class provides it (it comes from outside
    the view). Sorted by name. *)

val origin_classes : Tse_db.Database.t -> cid -> cid list
(** All origin base classes of a class: the base classes reached by
    recursively tracing {e every} source relationship (Section 3.4's
    definition, used by the add-class translation). A base class is its
    own (sole) origin. *)
