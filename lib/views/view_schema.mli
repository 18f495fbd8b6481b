(** A view schema: a named subset of the global schema's classes with
    per-view renaming (paper, glossary: "the schema containing a subset of
    both base and virtual classes as required by a particular user").

    Renaming is what makes transparent evolution possible: the evolved
    view contains the primed classes ([Student'], [TA']) renamed back to
    their original names within the view, so the user cannot tell the
    virtual change from a real one (Section 6.1.3).

    A view version is a value: the functions that edit one return the
    edited view and leave their argument as it was, so a version
    registered in a {!History} never changes. *)

type cid = Tse_schema.Klass.cid

type t = {
  view_name : string;
  version : int;
  members : (cid * string) list;
      (** class and its view-local name, insertion-ordered *)
}

val make :
  name:string -> version:int -> Tse_schema.Schema_graph.t -> cid list -> t
(** Local names default to the classes' global names.
    @raise Invalid_argument on duplicate classes or duplicate local
    names. *)

val classes : t -> cid list
val class_set : t -> Tse_store.Oid.Set.t
val mem : t -> cid -> bool
val size : t -> int

val local_name : t -> cid -> string option
val cid_of : t -> string -> cid option
val cid_of_exn : t -> string -> cid

val rename : t -> cid -> string -> t
(** The view with the class under a new local name.
    @raise Invalid_argument if the class is absent or the name taken. *)

val add_class : t -> ?as_name:string -> Tse_schema.Schema_graph.t -> cid -> t
(** The view with the class appended, under [as_name] (its global name by
    default).
    @raise Invalid_argument if the class is present or the name taken. *)

val remove_class : t -> cid -> t
(** The view without the class: MultiView's [removeFromView], the
    paper's delete-class semantics (Section 6.8). *)

val substitute : t -> old_cid:cid -> new_cid:cid -> t
(** The view (same name, version + 1 handled by caller via
    {!with_version}) in which [new_cid] replaces [old_cid] under the
    {e old} class's local name — the core of the view-replacement
    step. *)

val with_version : t -> int -> t
