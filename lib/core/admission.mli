(** The evolution admission gate: static analysis of a schema-change
    request {e before} the derive/classify/integrate pipeline runs.

    A change is checked against the pre-change schema: an [Add_method]
    body is typechecked at the class it is being added to, a
    [Partition_class] predicate is typechecked as a select predicate at
    the class being partitioned, and an [Add_attribute] default is
    checked for conformance with the declared type ([E108]). Changes
    that introduce no new expression are admitted unconditionally (the
    translator's own preconditions still apply).

    A change with [Error]-severity diagnostics raises
    {!Change.Rejected} with the rendered diagnostics; the other
    diagnostics are logged through [Tse_obs.Log] and the change
    proceeds.

    Every gate run is wrapped in an [evolve.analyze] trace span and
    feeds the [analysis.*] counters: [gate_checks], [gate_errors],
    [gate_warnings], [gate_rejections] and one
    [capacity_{augmenting,preserving,reducing}] counter per admitted
    change (the paper Section 3 capacity classification of the change
    itself). *)

val capacity_of_change : Change.t -> Tse_analysis.Analysis.capacity
(** Section 3 capacity classification of a change as seen from the
    requesting view: adding stored attributes or classes augments;
    deletions reduce (view capacity — globally nothing is destroyed);
    everything else preserves. *)

val check :
  Tse_db.Database.t ->
  Tse_views.View_schema.t ->
  Change.t ->
  Tse_analysis.Diagnostic.t list
(** The diagnostics the gate acts on. A class
    name that does not resolve in the view yields no diagnostics — the
    translator rejects it with its own precondition message. *)

val admit : Tse_db.Database.t -> Tse_views.View_schema.t -> Change.t -> unit
(** Run the gate.
    @raise Change.Rejected when {!check} reports errors. *)
