(** The query processor for extent selections.

    Evaluates [select from <class> where <predicate>] queries against a
    database through a compiled pipeline. Each execution lowers the
    predicate once (constant folding, cost-ordered conjuncts, compiled
    closures — see {!Compile}) against the schema state it runs on; the
    planner then extracts equality and range (sargable) conjuncts,
    considers indexes on the class and on its Select ancestors (predicate
    pushdown through the derivation DAG), and picks index probe vs.
    extent scan by estimated candidate cardinality. {!explain} exposes
    the execution for tests and tuning. *)

type cid = Tse_schema.Klass.cid

type plan =
  | Index_lookup of { attr : string; kind : Indexes.kind; residual : bool }
      (** answered by an equality probe of the index on [attr];
          [residual] when remaining conjuncts are checked per candidate;
          {!pp_plan} prints an [Ordered] [kind] as [range] *)
  | Range_scan of { attr : string; residual : bool }
      (** answered by a key-interval walk of the ordered index on
          [attr] *)
  | Extent_scan

val plan : Tse_db.Database.t -> Indexes.t -> cid -> Tse_schema.Expr.t -> plan
(** The plan the engine would choose right now. *)

val choose :
  ?scan_cost:int ->
  ?key_cardinality:(cid -> string -> int option) ->
  Tse_db.Database.t ->
  Indexes.t ->
  cid ->
  Tse_schema.Expr.t ->
  plan * int
(** {!plan} together with the pushdown depth of its index probe (0 for
    an extent scan). The planner weighs maintained counts, each read in
    O(1): the queried class's {!Tse_db.Database.extent_size} as the scan
    cost, and each index's entry and {!Indexes.key_cardinality} counts.
    [scan_cost] and [key_cardinality] replace those statistics, so a
    reference planner can run on counts obtained by walking the sets. *)

val select :
  Tse_db.Database.t ->
  Indexes.t ->
  cid ->
  Tse_schema.Expr.t ->
  Tse_store.Oid.Set.t
(** Members of the class satisfying the predicate. *)

val count : Tse_db.Database.t -> Indexes.t -> cid -> Tse_schema.Expr.t -> int
(** Same planning and execution as {!select}, but folds the residual
    conjuncts over the candidates without materializing a result set.
    Counts [query.rows_scanned] only: no [query.selects], no span. *)

type explain = {
  ex_plan : plan;  (** the plan that actually ran *)
  chosen_index : string option;  (** indexed attribute used, if any *)
  key_cardinality : int option;
      (** distinct keys in the chosen index at execution time *)
  conjunct_order : Tse_schema.Expr.t list;
      (** the const-folded conjuncts in evaluation (cost) order *)
  pushdown_depth : int;
      (** how many Select derivation levels the chosen index probe was
          pushed through (0 = an index on the queried class itself) *)
  rows_scanned : int;
      (** objects examined: the extent for a scan, the candidate set for
          an index probe *)
  rows_returned : int;
}

val explain :
  Tse_db.Database.t -> Indexes.t -> cid -> Tse_schema.Expr.t -> explain
(** Run the query and report how it was executed. *)

val select_explain :
  Tse_db.Database.t ->
  Indexes.t ->
  cid ->
  Tse_schema.Expr.t ->
  explain * Tse_store.Oid.Set.t
(** {!explain} and the result set from one execution. *)

val pp_plan : Format.formatter -> plan -> unit
val pp_explain : Format.formatter -> explain -> unit
