(* Closure compiler for Expr.t: lower a predicate once, evaluate it many
   times. The tree-walking Expr.eval pays per evaluation for dispatch, env
   closure allocation and name resolution; compilation pays those costs once
   per (expression, schema-state) and returns flat closures. *)

module Value = Tse_store.Value
open Expr

(* Expr's convenience constructors shadow the boolean operators, and a
   let-bound alias of Stdlib's [&&]/[||] primitives is a strict function
   (no short-circuit), so compiled chains spell the conditional out. *)

type 'o binder = {
  b_attr : string -> 'o -> Value.t;
  b_member : string -> 'o -> bool;
  b_self : 'o -> Value.t;
}

(* --- constant folding ----------------------------------------------------

   A subtree with no Attr/Self/In_class leaves is evaluated at compile time.
   Folding is exact: if compile-time evaluation raises, the node is kept so
   the error still surfaces (at the same evaluation point) at run time. *)

let const_env =
  {
    self = Tse_store.Oid.of_int 0;
    get = (fun n -> raise (Unknown_property n));
    member_of = (fun _ -> false);
  }

let rec const_fold e =
  let try_fold e' =
    match eval const_env e' with
    | v -> Const v
    | exception (Type_error _ | Unknown_property _) -> e'
  in
  match e with
  | Const _ | Attr _ | Self | In_class _ -> e
  | Not a -> begin
    match const_fold a with
    | Const _ as a' -> try_fold (Not a')
    | a' -> Not a'
  end
  | And (a, b) -> begin
    match (const_fold a, const_fold b) with
    (* short-circuit: a false-ish left conjunct decides the result even when
       the right side would raise, so dropping [b'] is exact *)
    | (Const v as a'), b' -> begin
      match as_bool v with
      | false -> Const (Value.Bool false)
      | true -> And (a', b')
      | exception Type_error _ -> And (a', b')
    end
    | a', b' -> And (a', b')
  end
  | Or (a, b) -> begin
    match (const_fold a, const_fold b) with
    | (Const v as a'), b' -> begin
      match as_bool v with
      | true -> Const (Value.Bool true)
      | false -> Or (a', b')
      | exception Type_error _ -> Or (a', b')
    end
    | a', b' -> Or (a', b')
  end
  | Cmp (op, a, b) -> begin
    match (const_fold a, const_fold b) with
    | (Const _ as a'), (Const _ as b') -> try_fold (Cmp (op, a', b'))
    | a', b' -> Cmp (op, a', b')
  end
  | Arith (op, a, b) -> begin
    match (const_fold a, const_fold b) with
    | (Const _ as a'), (Const _ as b') -> try_fold (Arith (op, a', b'))
    | a', b' -> Arith (op, a', b')
  end
  | Concat (a, b) -> begin
    match (const_fold a, const_fold b) with
    | (Const _ as a'), (Const _ as b') -> try_fold (Concat (a', b'))
    | a', b' -> Concat (a', b')
  end
  | Is_null a -> begin
    match const_fold a with
    | Const v -> Const (Value.Bool (Value.equal v Value.Null))
    | a' -> Is_null a'
  end
  | If (c, t, e') -> begin
    match const_fold c with
    | Const v as c' -> begin
      (* the taken branch is exact under eval's semantics *)
      match as_bool v with
      | true -> const_fold t
      | false -> const_fold e'
      | exception Type_error _ -> If (c', const_fold t, const_fold e')
    end
    | c' -> If (c', const_fold t, const_fold e')
  end

(* --- conjuncts ----------------------------------------------------------- *)

let conjuncts e =
  let rec flat acc = function
    | And (a, b) -> flat (flat acc b) a
    | e -> e :: acc
  in
  flat [] e

let conjoin = function
  | [] -> Const (Value.Bool true)
  | c :: rest -> List.fold_left (fun acc e -> And (acc, e)) c rest

(* Static cost heuristic for conjunct ordering: attribute reads dominate the
   per-object cost, equality tests tend to be the most selective. The exact
   numbers only need to rank "cheap selective test" before "expensive or
   permissive test". *)
let cost e =
  let rec size = function
    | Const _ | Self -> 1
    | Attr _ -> 4
    | In_class _ -> 3
    | Not a | Is_null a -> 1 + size a
    | And (a, b) | Or (a, b) | Arith (_, a, b) | Concat (a, b) ->
      1 + size a + size b
    | Cmp (_, a, b) -> 1 + size a + size b
    | If (a, b, c) -> 1 + size a + size b + size c
  in
  match e with
  | Cmp (Eq, _, _) -> size e (* equality keeps its raw size: selective *)
  | Cmp (_, _, _) -> size e + 1
  | _ -> size e + 2

(* Reordering conjuncts is only sound at the TOP level of a predicate whose
   evaluation absorbs Unknown_property/Type_error into [false] (the
   Database.holds contract): under that absorption the And-chain result is
   order-independent (any conjunct that is false or raises forces the whole
   chain to false). Inside Not/Or the error/false distinction is observable,
   so nested structure is never touched. *)
let order_conjuncts cs =
  List.stable_sort (fun a b -> Int.compare (cost a) (cost b)) cs

(* --- compilation --------------------------------------------------------- *)

let rec compile_value : 'o. 'o binder -> t -> 'o -> Value.t =
  fun binder e ->
  match e with
  | Const v -> fun _ -> v
  | Attr name -> binder.b_attr name
  | Self -> binder.b_self
  | Not a ->
    let fa = compile_bool binder a in
    fun o -> Value.Bool (not (fa o))
  | And (a, b) ->
    let fa = compile_bool binder a and fb = compile_bool binder b in
    fun o -> Value.Bool (if fa o then fb o else false)
  | Or (a, b) ->
    let fa = compile_bool binder a and fb = compile_bool binder b in
    fun o -> Value.Bool (if fa o then true else fb o)
  | Cmp (op, a, b) ->
    let fa = compile_value binder a and fb = compile_value binder b in
    fun o -> eval_cmp op (fa o) (fb o)
  | Arith (op, a, b) ->
    let fa = compile_value binder a and fb = compile_value binder b in
    fun o -> eval_arith op (fa o) (fb o)
  | Concat (a, b) ->
    let fa = compile_value binder a and fb = compile_value binder b in
    fun o -> begin
      match (fa o, fb o) with
      | Value.String x, Value.String y -> Value.String (x ^ y)
      | a, b ->
        raise
          (Type_error
             (Format.asprintf "concat of %a and %a" Value.pp a Value.pp b))
    end
  | Is_null a ->
    let fa = compile_value binder a in
    fun o -> Value.Bool (Value.equal (fa o) Value.Null)
  | In_class c -> begin
    let fm = binder.b_member c in
    fun o -> Value.Bool (fm o)
  end
  | If (c, t, e') ->
    let fc = compile_bool binder c in
    let ft = compile_value binder t and fe = compile_value binder e' in
    fun o -> if fc o then ft o else fe o

(* Boolean contexts avoid boxing intermediate Value.Bool results. *)
and compile_bool : 'o. 'o binder -> t -> 'o -> bool =
  fun binder e ->
  match e with
  | Const v -> begin
    (* a non-boolean constant raises where it is evaluated, as in
       Expr.eval, so the caller's error absorption sees it *)
    match as_bool v with
    | b -> fun _ -> b
    | exception (Type_error _ as err) -> fun _ -> raise err
  end
  | Not a ->
    let fa = compile_bool binder a in
    fun o -> not (fa o)
  | And (a, b) ->
    let fa = compile_bool binder a and fb = compile_bool binder b in
    fun o -> if fa o then fb o else false
  | Or (a, b) ->
    let fa = compile_bool binder a and fb = compile_bool binder b in
    fun o -> if fa o then true else fb o
  | Cmp (op, Attr a, Const (Value.Int k)) ->
    (* the dominant shape in select predicates: attr OP int-literal *)
    let fa = binder.b_attr a in
    fun o -> begin
      match fa o with
      | Value.Int x -> cmp_result op (Int.compare x k)
      | v -> as_bool (eval_cmp op v (Value.Int k))
    end
  | Cmp (op, a, b) ->
    let fa = compile_value binder a and fb = compile_value binder b in
    fun o -> as_bool (eval_cmp op (fa o) (fb o))
  | Is_null a ->
    let fa = compile_value binder a in
    fun o -> Value.equal (fa o) Value.Null
  | In_class c -> binder.b_member c
  | If (c, t, e') ->
    let fc = compile_bool binder c in
    let ft = compile_bool binder t and fe = compile_bool binder e' in
    fun o -> if fc o then ft o else fe o
  | (Attr _ | Self | Arith _ | Concat _) as e ->
    let fv = compile_value binder e in
    fun o -> as_bool (fv o)

let compile_pred binder e =
  let cs = order_conjuncts (List.map const_fold (conjuncts e)) in
  match conjoin cs with
  | Const v -> begin
    match as_bool v with
    | b -> fun _ -> b
    | exception Type_error _ -> fun _ -> false
  end
  | folded ->
    let f = compile_bool binder folded in
    fun o ->
      (* Database.holds semantics: evaluation errors mean "not a member" *)
      (match f o with
      | b -> b
      | exception (Unknown_property _ | Type_error _) -> false)
