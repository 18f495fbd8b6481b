(** Plan-level predicate compilation.

    Lowers a [(class, predicate)] pair into the artifacts the planner
    and executor consume: the cost-ordered conjunct breakdown (with
    per-conjunct compiled closures and sargability facts) and the
    Select-derivation ancestry for predicate pushdown (facts only). The
    engine compiles once per execution and keeps nothing, so no plan
    outlives the schema state it was compiled against. *)

type cid = Tse_schema.Klass.cid

(** A sargable fact: the conjunct constrains an attribute against a
    constant, so an index on that attribute can answer it. *)
type sarg =
  | Sarg_eq of string * Tse_store.Value.t
  | Sarg_cmp of string * Tse_schema.Expr.cmp * Tse_store.Value.t
      (** attribute on the left; the comparison is Lt/Le/Gt/Ge *)

(** What the planner reads of a conjunct. *)
type fact = {
  c_expr : Tse_schema.Expr.t;  (** const-folded *)
  c_sarg : sarg option;
}

(** A conjunct of the queried predicate, which the executor may check. *)
type conjunct = {
  c_fact : fact;
  c_cost : int;  (** {!Tse_schema.Expr_compile.cost} *)
  c_eval : Tse_store.Oid.t -> bool;
      (** compiled; raises like [Expr.eval_bool] — the executor absorbs
          errors over the whole residual chain, matching
          [Database.holds] *)
}

type compiled = {
  cp_conjuncts : conjunct list;  (** cost-ordered, cheapest first *)
  cp_chain : (cid * fact list) list;
      (** Select ancestry, nearest source first: each entry is a source
          class and the conjuncts of the select predicate deriving the
          previous level from it. Membership in the queried extent
          implies them, so they are planning facts only, never
          evaluated. *)
}

val sarg_of : Tse_schema.Expr.t -> sarg option
val compile : Tse_db.Database.t -> cid -> Tse_schema.Expr.t -> compiled
