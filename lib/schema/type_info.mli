(** Full-type computation: which properties a class exposes, after full
    inheritance, overriding and the paper's name-conflict rules.

    Semantics implemented here (paper, Sections 6.1.1, 6.2.3, 6.5.1):
    - {e full inheritance}: every property of a superclass is inherited by
      its subclasses;
    - {e overriding}: a locally defined property suppresses same-named
      inherited ones and blocks their propagation further down;
    - {e multiple-inheritance conflicts}: two same-named properties with
      different identities may be inherited into one class, but the name is
      ambiguous and cannot be invoked until the user renames — {e unless}
      exactly one candidate is a promoted definition, which then has
      priority (Proposition B of Section 6.2.3);
    - the same property reached along several paths (diamond) is one
      property, not a conflict (identity = {!Prop.t.uid}). *)

type cid = Klass.cid

type entry =
  | Single of Prop.t  (** unambiguous (locally defined or inherited) *)
  | Conflict of Prop.t list
      (** ambiguous candidates, each a distinct property *)

val full_type : Schema_graph.t -> cid -> (string * entry) list
(** All property names visible at the class, sorted by name. *)

val find : Schema_graph.t -> cid -> string -> entry option

val find_usable : Schema_graph.t -> cid -> string -> Prop.t option
(** The property if the name resolves unambiguously; [None] if undefined
    or ambiguous. *)

val has_prop : Schema_graph.t -> cid -> string -> bool
(** Defined at all (possibly ambiguous). *)

val prop_names : Schema_graph.t -> cid -> string list

val usable_props : Schema_graph.t -> cid -> Prop.t list
(** Every property of the full type whose name resolves unambiguously. *)

val stored_attrs : Schema_graph.t -> cid -> Prop.t list
(** Unambiguous stored attributes of the full type. *)

val inherited_candidates : Schema_graph.t -> cid -> string -> Prop.t list
(** Candidates for the name contributed by superclasses only — i.e. what
    the class {e would} inherit, ignoring its own local definition. The
    delete-attribute algorithm uses this to find a suppressed attribute to
    restore (Section 6.2.2). [inherited_candidates graph cid] merges the
    superclasses' types once and returns the lookup by name, so a caller
    asking about many names applies it partially; the lookup reflects the
    supers as they were at that application. *)

val is_uppermost_in :
  Schema_graph.t -> view:Tse_store.Oid.Set.t -> cid -> string -> bool
(** Is this class the uppermost class {e within the view} exposing the
    property — the paper's view-relative notion of "locally defined"
    (Section 6.2.1)? True when the class has the property and no strict
    ancestor inside [view] has it. *)

val type_signature : Schema_graph.t -> cid -> string
(** Canonical textual signature of the full type (names + shapes, uids
    ignored, conflicts marked). Equal signatures mean equal types for
    duplicate detection and for the Proposition A checks. *)

val type_equal : Schema_graph.t -> cid -> cid -> bool

val subtype_of : Schema_graph.t -> sub:cid -> sup:cid -> bool
(** Structural: every usable property of [sup] appears with an equal shape
    in [sub]'s full type. *)

val pp_entry : Format.formatter -> entry -> unit
