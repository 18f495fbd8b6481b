(* Plan-level predicate compilation for the query engine.

   Each execution lowers its (class, predicate) pair into the artifacts
   the planner and executor consume: the cost-ordered conjunct breakdown
   with per-conjunct compiled closures and sargability facts, and the
   Select-derivation ancestry the planner can push the query through
   (sargability facts only: nothing evaluates those conjuncts).
   Nothing is kept between executions, so a plan can never outlive the
   schema state it was compiled against. *)

module Oid = Tse_store.Oid
module Value = Tse_store.Value
module Expr = Tse_schema.Expr
module Expr_compile = Tse_schema.Expr_compile
module Klass = Tse_schema.Klass
module Schema_graph = Tse_schema.Schema_graph
module Database = Tse_db.Database

type cid = Klass.cid

(* A sargable fact about one conjunct: it constrains [attr] against a
   constant, so an index on [attr] can answer it. *)
type sarg =
  | Sarg_eq of string * Value.t
  | Sarg_cmp of string * Expr.cmp * Value.t
      (* attr on the left; cmp is one of Lt/Le/Gt/Ge *)

(* What the planner reads of a conjunct. *)
type fact = {
  c_expr : Expr.t;  (* const-folded *)
  c_sarg : sarg option;
}

(* A conjunct of the query itself: a fact the executor may also have to
   check on a candidate. *)
type conjunct = {
  c_fact : fact;
  c_cost : int;
  c_eval : Oid.t -> bool;
      (* compiled, raises like Expr.eval_bool; the executor absorbs
         errors over the whole residual chain *)
}

type compiled = {
  cp_conjuncts : conjunct list;  (* cost-ordered, cheapest first *)
  cp_chain : (cid * fact list) list;
      (* Select ancestry of the queried class, nearest source first:
         [(src, conjuncts of the select's predicate); ...]. Because the
         queried extent is maintained as a subset of every ancestor's
         extent filtered by these predicates, an index on an ancestor can
         serve the query once candidates are intersected back with the
         queried extent; membership discharges them, so they are never
         evaluated and carry no closure. *)
}

let flip_cmp = function
  | Expr.Lt -> Expr.Gt
  | Expr.Le -> Expr.Ge
  | Expr.Gt -> Expr.Lt
  | Expr.Ge -> Expr.Le
  | (Expr.Eq | Expr.Ne) as op -> op

let sarg_of = function
  | Expr.Cmp (Expr.Eq, Expr.Attr a, Expr.Const v)
  | Expr.Cmp (Expr.Eq, Expr.Const v, Expr.Attr a) ->
    Some (Sarg_eq (a, v))
  | Expr.Cmp ((Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge) as op, Expr.Attr a, Expr.Const v)
    ->
    Some (Sarg_cmp (a, op, v))
  | Expr.Cmp ((Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge) as op, Expr.Const v, Expr.Attr a)
    ->
    Some (Sarg_cmp (a, flip_cmp op, v))
  | _ -> None

let chain_depth_cap = 8

let fact e =
  let e = Expr_compile.const_fold e in
  { c_expr = e; c_sarg = sarg_of e }

let compile db cid pred =
  let binder = Database.compiled_binder db in
  let mk e =
    let f = fact e in
    {
      c_fact = f;
      c_cost = Expr_compile.cost f.c_expr;
      c_eval = Expr_compile.compile_bool binder f.c_expr;
    }
  in
  let order cs =
    List.stable_sort (fun a b -> Int.compare a.c_cost b.c_cost) cs
  in
  let graph = Database.graph db in
  let rec chain c depth =
    if depth >= chain_depth_cap then []
    else
      match (Schema_graph.find_exn graph c).Klass.kind with
      | Klass.Virtual (Klass.Select (src, p)) ->
        (src, List.map fact (Expr_compile.conjuncts p)) :: chain src (depth + 1)
      | Klass.Base | Klass.Virtual _ -> []
      | exception _ -> []
  in
  {
    cp_conjuncts = order (List.map mk (Expr_compile.conjuncts pred));
    cp_chain = chain cid 0;
  }
