(** The Transparent Schema Evolution Manager (paper, Section 5, Figure 6):
    the control module tying the pipeline together.

    On a schema-change request against a view it (1) calls the TSE
    Translator, which executes the extended object algebra, (2) lets the
    Classifier integrate the new virtual classes into the global schema
    (done inside the algebra operators here), (3) has the View Manager
    generate the new view schema, and (4) registers it in the View Schema
    History, replacing the user's current version. *)

type t

val create : unit -> t

val of_database : ?history:Tse_views.History.t -> Tse_db.Database.t -> t
(** Wrap an existing database; [history] (default empty) seeds the view
    schema history — recovery uses it to resume an evolved database. *)

val db : t -> Tse_db.Database.t
val history : t -> Tse_views.History.t

val define_view :
  t -> name:string -> ?complete_closure:bool -> Tse_schema.Klass.cid list -> Tse_views.View_schema.t
(** Create version 0 of a view over the given classes. With
    [complete_closure] (default true), classes required for type closure
    are pulled in automatically (Section 5's View Manager). *)

val define_view_by_names :
  t -> name:string -> ?complete_closure:bool -> string list -> Tse_views.View_schema.t

val current : t -> string -> Tse_views.View_schema.t
(** @raise Invalid_argument for an unknown view. *)

val evolve : t -> view:string -> Change.t -> Tse_views.View_schema.t
(** The transparent schema change: translate, classify, regenerate,
    register — the user's view is replaced by the new version; every older
    version (and every other view) remains intact and operational.
    Equivalent to [evolve_checked t (precheck t ~view change)].
    @raise Change.Rejected when the change's preconditions fail. *)

type checked
(** A change that passed {!precheck} against the current schema. *)

val precheck : t -> view:string -> Change.t -> checked
(** The admission gate ({!Admission.admit}, the E1xx diagnostics) and
    {!Translator.validate}, against the view's current version. Mutates
    nothing — no class, edge, OID or view version — so a rejection here
    leaves the database exactly as it was. Admission runs here and only
    here: {!evolve_checked} does not repeat it.
    @raise Change.Rejected when a precondition fails.
    @raise Invalid_argument for an unknown view. *)

val evolve_checked : t -> checked -> Tse_views.View_schema.t
(** Translate, classify, regenerate and register a prechecked change.
    A change that passed {!precheck} does not raise here: {!precheck}
    checks every precondition that a later step of insert_class or
    delete_class_2 could fail, so nothing is rejected after the schema
    has been touched. An exception from here is a
    translator defect (an injected {!Tse_store.Failpoint} crash aside);
    the old-hierarchy property of the test suite fails on any.
    @raise Invalid_argument when the schema or the view changed since
    the {!precheck}. *)

val evolve_many : t -> view:string -> Change.t list -> Tse_views.View_schema.t
