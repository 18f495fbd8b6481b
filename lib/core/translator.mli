(** The TSE Translator (paper, Sections 5 and 6): maps a schema-change
    request on a view to a sequence of extended-object-algebra operations,
    producing a {e new} view schema that reflects the change — the global
    schema is only ever {e augmented}, never destructively modified, so
    every other view (and the programs running on it) is untouched.

    Each primitive operator follows the algorithm of its subsection of
    Section 6; the two macros are translated by composing primitives
    (Section 6.9). Derived classes get primed global names ([Student'])
    and are renamed back to the original names within the new view
    (Section 6.1.3). *)

val validate :
  Tse_db.Database.t -> Tse_views.View_schema.t -> Change.t -> unit
(** Every precondition the change can fail before the translator touches
    the schema: names that do not resolve in the view, a property that is
    not defined for (or is inherited within the view at) the class it is
    deleted from, a self edge, an edge that already exists or would close
    a cycle, a name already taken in the view. Reads the schema and the
    view only — the database is left exactly as it was.
    @raise Change.Rejected with the same message {!apply} would raise. *)

val apply :
  Tse_db.Database.t ->
  Tse_views.View_schema.t ->
  Change.t ->
  Tse_views.View_schema.t
(** Translate and execute the change: {!validate}, then the algebra.
    Returns the replacement view (same name and version as the input; the
    TSEM assigns the version on registration).
    @raise Change.Rejected when the change's preconditions fail (Section
    6's semantics subsections) — by {!validate} before any mutation, or
    mid-translation when a composite change (insert_class,
    delete_class_2) fails a later step. *)
