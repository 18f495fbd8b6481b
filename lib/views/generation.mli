(** Automatic view-schema generation (paper, Section 3.1 subtask 3 /
    [Rundensteiner, CIKM 93]): given the classes selected for a view,
    construct the view's generalization hierarchy from the global schema,
    relieving the user of building (and possibly corrupting) it by hand. *)

type cid = Tse_schema.Klass.cid

val edges : Tse_schema.Schema_graph.t -> View_schema.t -> (cid * cid) list
(** The view's is-a edges [(sup, sub)]: the transitive reduction of the
    global ancestor relation restricted to the view's classes — an edge
    links two view classes when one is a global ancestor of the other with
    no third view class in between. *)

val supers_of : (cid * cid) list -> cid -> cid list
(** [supers_of edges cid]: the direct superclasses of [cid] in a
    hierarchy computed by {!edges}, in edge order. *)

val subs_of : (cid * cid) list -> cid -> cid list
(** [subs_of edges cid]: the direct subclasses of [cid] in a hierarchy
    computed by {!edges}, in edge order. *)

val roots : Tse_schema.Schema_graph.t -> View_schema.t -> cid list
(** View classes with no superclass inside the view. *)

val descendants_in_view :
  Tse_schema.Schema_graph.t -> View_schema.t -> cid -> cid list
(** Global descendants restricted to the view, topmost first (the
    "subclasses within the view" traversal of Section 6). *)

val edges_signature : Tse_schema.Schema_graph.t -> View_schema.t -> string
(** Canonical dump of the generated hierarchy using view-local names; the
    Proposition A checks compare these. *)

val pp : Tse_schema.Schema_graph.t -> Format.formatter -> View_schema.t -> unit
(** The whole view: classes with local names and generated edges. *)
