module Value = Tse_store.Value
module Oid = Tse_store.Oid

type cmp = Eq | Ne | Lt | Le | Gt | Ge
type arith = Add | Sub | Mul | Div

type t =
  | Const of Value.t
  | Attr of string
  | Self
  | Not of t
  | And of t * t
  | Or of t * t
  | Cmp of cmp * t * t
  | Arith of arith * t * t
  | Concat of t * t
  | Is_null of t
  | In_class of string
  | If of t * t * t

type env = {
  self : Oid.t;
  get : string -> Value.t;
  member_of : string -> bool;
}

exception Unknown_property of string
exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let as_bool = function
  | Value.Bool b -> b
  | Value.Null -> false
  | v -> type_error "expected bool, got %a" Value.pp v

let cmp_result op c =
  match op with
  | Eq -> c = 0
  | Ne -> not (Int.equal c 0)
  | Lt -> Stdlib.( < ) c 0
  | Le -> Stdlib.( <= ) c 0
  | Gt -> Stdlib.( > ) c 0
  | Ge -> Stdlib.( >= ) c 0

let eval_cmp op a b =
  match a, b with
  (* Null only supports (in)equality; ordering against null is an error. *)
  | Value.Null, _ | _, Value.Null -> begin
    match op with
    | Eq -> Value.Bool (Value.equal a b)
    | Ne -> Value.Bool (not (Value.equal a b))
    | Lt | Le | Gt | Ge -> type_error "ordering comparison with null"
  end
  | Value.Int x, Value.Float y ->
    Value.Bool (cmp_result op (Float.compare (float_of_int x) y))
  | Value.Float x, Value.Int y ->
    Value.Bool (cmp_result op (Float.compare x (float_of_int y)))
  | a, b ->
    if Value.tag_compatible a b then Value.Bool (cmp_result op (Value.compare a b))
    else type_error "comparison between %a and %a" Value.pp a Value.pp b

let eval_arith op a b =
  let float_op x y =
    match op with
    | Add -> x +. y
    | Sub -> x -. y
    | Mul -> x *. y
    | Div -> if y = 0. then type_error "division by zero" else x /. y
  in
  match a, b with
  | Value.Int x, Value.Int y -> begin
    match op with
    | Add -> Value.Int (x + y)
    | Sub -> Value.Int (x - y)
    | Mul -> Value.Int (x * y)
    | Div -> if y = 0 then type_error "division by zero" else Value.Int (x / y)
  end
  | Value.Int x, Value.Float y -> Value.Float (float_op (float_of_int x) y)
  | Value.Float x, Value.Int y -> Value.Float (float_op x (float_of_int y))
  | Value.Float x, Value.Float y -> Value.Float (float_op x y)
  | a, b -> type_error "arithmetic on %a and %a" Value.pp a Value.pp b

let rec eval env = function
  | Const v -> v
  | Attr name -> env.get name
  | Self -> Value.Ref env.self
  | Not e -> Value.Bool (not (as_bool (eval env e)))
  | And (a, b) -> Value.Bool (as_bool (eval env a) && as_bool (eval env b))
  | Or (a, b) -> Value.Bool (as_bool (eval env a) || as_bool (eval env b))
  | Cmp (op, a, b) -> eval_cmp op (eval env a) (eval env b)
  | Arith (op, a, b) -> eval_arith op (eval env a) (eval env b)
  | Concat (a, b) -> begin
    match eval env a, eval env b with
    | Value.String x, Value.String y -> Value.String (x ^ y)
    | a, b -> type_error "concat of %a and %a" Value.pp a Value.pp b
  end
  | Is_null e -> Value.Bool (Value.equal (eval env e) Value.Null)
  | In_class c -> Value.Bool (env.member_of c)
  | If (c, t, e) -> if as_bool (eval env c) then eval env t else eval env e

let eval_bool env e = as_bool (eval env e)

let rec equal a b =
  match a, b with
  | Const x, Const y -> Value.equal x y
  | Attr x, Attr y -> String.equal x y
  | Self, Self -> true
  | Not x, Not y -> equal x y
  | And (a1, a2), And (b1, b2) | Or (a1, a2), Or (b1, b2) ->
    equal a1 b1 && equal a2 b2
  | Cmp (o1, a1, a2), Cmp (o2, b1, b2) -> o1 = o2 && equal a1 b1 && equal a2 b2
  | Arith (o1, a1, a2), Arith (o2, b1, b2) ->
    o1 = o2 && equal a1 b1 && equal a2 b2
  | Concat (a1, a2), Concat (b1, b2) -> equal a1 b1 && equal a2 b2
  | Is_null x, Is_null y -> equal x y
  | In_class x, In_class y -> String.equal x y
  | If (a1, a2, a3), If (b1, b2, b3) -> equal a1 b1 && equal a2 b2 && equal a3 b3
  | ( ( Const _ | Attr _ | Self | Not _ | And _ | Or _ | Cmp _ | Arith _
      | Concat _ | Is_null _ | In_class _ | If _ ),
      _ ) ->
    false

let rec collect_attrs acc = function
  | Const _ | Self | In_class _ -> acc
  | Attr name -> name :: acc
  | Not e | Is_null e -> collect_attrs acc e
  | And (a, b) | Or (a, b) | Cmp (_, a, b) | Arith (_, a, b) | Concat (a, b) ->
    collect_attrs (collect_attrs acc a) b
  | If (a, b, c) -> collect_attrs (collect_attrs (collect_attrs acc a) b) c

let free_attrs e = List.sort_uniq String.compare (collect_attrs [] e)

let rec collect_classes acc = function
  | Const _ | Self | Attr _ -> acc
  | In_class c -> c :: acc
  | Not e | Is_null e -> collect_classes acc e
  | And (a, b) | Or (a, b) | Cmp (_, a, b) | Arith (_, a, b) | Concat (a, b) ->
    collect_classes (collect_classes acc a) b
  | If (a, b, c) ->
    collect_classes (collect_classes (collect_classes acc a) b) c

let referenced_classes e = List.sort_uniq String.compare (collect_classes [] e)

let rec rename_attr ~old_name ~new_name = function
  | Const _ as e -> e
  | Attr n -> if String.equal n old_name then Attr new_name else Attr n
  | Self -> Self
  | Not e -> Not (rename_attr ~old_name ~new_name e)
  | And (a, b) ->
    And (rename_attr ~old_name ~new_name a, rename_attr ~old_name ~new_name b)
  | Or (a, b) ->
    Or (rename_attr ~old_name ~new_name a, rename_attr ~old_name ~new_name b)
  | Cmp (o, a, b) ->
    Cmp (o, rename_attr ~old_name ~new_name a, rename_attr ~old_name ~new_name b)
  | Arith (o, a, b) ->
    Arith
      (o, rename_attr ~old_name ~new_name a, rename_attr ~old_name ~new_name b)
  | Concat (a, b) ->
    Concat
      (rename_attr ~old_name ~new_name a, rename_attr ~old_name ~new_name b)
  | Is_null e -> Is_null (rename_attr ~old_name ~new_name e)
  | In_class _ as e -> e
  | If (a, b, c) ->
    If
      ( rename_attr ~old_name ~new_name a,
        rename_attr ~old_name ~new_name b,
        rename_attr ~old_name ~new_name c )

let cmp_symbol = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let arith_symbol = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

let rec pp ppf = function
  | Const v -> Value.pp ppf v
  | Attr n -> Format.pp_print_string ppf n
  | Self -> Format.pp_print_string ppf "self"
  | Not e -> Format.fprintf ppf "not(%a)" pp e
  | And (a, b) -> Format.fprintf ppf "(%a and %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a or %a)" pp a pp b
  | Cmp (o, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a (cmp_symbol o) pp b
  | Arith (o, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a (arith_symbol o) pp b
  | Concat (a, b) -> Format.fprintf ppf "(%a ^ %a)" pp a pp b
  | Is_null e -> Format.fprintf ppf "isnull(%a)" pp e
  | In_class c -> Format.fprintf ppf "in_class(%s)" c
  | If (a, b, c) -> Format.fprintf ppf "(if %a then %a else %a)" pp a pp b pp c

let to_string e = Format.asprintf "%a" pp e

(* Catalog text encoding: one tag character per constructor, operands in
   sequence; strings are length-prefixed like Value's. *)

let add_str = Tse_store.Codec.add_str

let cmp_tag = function Eq -> 'e' | Ne -> 'n' | Lt -> 'l' | Le -> 'm' | Gt -> 'g' | Ge -> 'h'
let arith_tag = function Add -> 'a' | Sub -> 's' | Mul -> 'm' | Div -> 'd'

let rec encode buf = function
  | Const v ->
    Buffer.add_char buf 'K';
    Value.encode buf v
  | Attr name ->
    Buffer.add_char buf 'A';
    add_str buf name
  | Self -> Buffer.add_char buf 'Z'
  | Not e ->
    Buffer.add_char buf '!';
    encode buf e
  | And (a, b) ->
    Buffer.add_char buf '&';
    encode buf a;
    encode buf b
  | Or (a, b) ->
    Buffer.add_char buf '|';
    encode buf a;
    encode buf b
  | Cmp (op, a, b) ->
    Buffer.add_char buf 'C';
    Buffer.add_char buf (cmp_tag op);
    encode buf a;
    encode buf b
  | Arith (op, a, b) ->
    Buffer.add_char buf 'R';
    Buffer.add_char buf (arith_tag op);
    encode buf a;
    encode buf b
  | Concat (a, b) ->
    Buffer.add_char buf '^';
    encode buf a;
    encode buf b
  | Is_null e ->
    Buffer.add_char buf '0';
    encode buf e
  | In_class c ->
    Buffer.add_char buf 'M';
    add_str buf c
  | If (a, b, c) ->
    Buffer.add_char buf '?';
    encode buf a;
    encode buf b;
    encode buf c

let fail_at pos what = failwith (Printf.sprintf "Expr.decode: %s at %d" what pos)

let read_str s pos =
  let j =
    try String.index_from s pos ':'
    with Not_found -> fail_at pos "unterminated length"
  in
  let n = int_of_string (String.sub s pos (j - pos)) in
  if j + 1 + n > String.length s then fail_at pos "truncated string";
  (String.sub s (j + 1) n, j + 1 + n)

let cmp_of_tag pos = function
  | 'e' -> Eq | 'n' -> Ne | 'l' -> Lt | 'm' -> Le | 'g' -> Gt | 'h' -> Ge
  | c -> fail_at pos (Printf.sprintf "bad cmp tag %C" c)

let arith_of_tag pos = function
  | 'a' -> Add | 's' -> Sub | 'm' -> Mul | 'd' -> Div
  | c -> fail_at pos (Printf.sprintf "bad arith tag %C" c)

let rec decode s pos =
  if pos >= String.length s then fail_at pos "eof";
  match s.[pos] with
  | 'K' ->
    let v, p = Value.decode s (pos + 1) in
    (Const v, p)
  | 'A' ->
    let name, p = read_str s (pos + 1) in
    (Attr name, p)
  | 'Z' -> (Self, pos + 1)
  | '!' ->
    let e, p = decode s (pos + 1) in
    (Not e, p)
  | '&' ->
    let a, p = decode s (pos + 1) in
    let b, p = decode s p in
    (And (a, b), p)
  | '|' ->
    let a, p = decode s (pos + 1) in
    let b, p = decode s p in
    (Or (a, b), p)
  | 'C' ->
    if pos + 1 >= String.length s then fail_at pos "eof in cmp";
    let op = cmp_of_tag (pos + 1) s.[pos + 1] in
    let a, p = decode s (pos + 2) in
    let b, p = decode s p in
    (Cmp (op, a, b), p)
  | 'R' ->
    if pos + 1 >= String.length s then fail_at pos "eof in arith";
    let op = arith_of_tag (pos + 1) s.[pos + 1] in
    let a, p = decode s (pos + 2) in
    let b, p = decode s p in
    (Arith (op, a, b), p)
  | '^' ->
    let a, p = decode s (pos + 1) in
    let b, p = decode s p in
    (Concat (a, b), p)
  | '0' ->
    let e, p = decode s (pos + 1) in
    (Is_null e, p)
  | 'M' ->
    let c, p = read_str s (pos + 1) in
    (In_class c, p)
  | '?' ->
    let a, p = decode s (pos + 1) in
    let b, p = decode s p in
    let c, p = decode s p in
    (If (a, b, c), p)
  | c -> fail_at pos (Printf.sprintf "bad tag %C" c)

let int i = Const (Value.Int i)
let str s = Const (Value.String s)
let bool b = Const (Value.Bool b)
let attr n = Attr n
let ( === ) a b = Cmp (Eq, a, b)
let ( <> ) a b = Cmp (Ne, a, b)
let ( < ) a b = Cmp (Lt, a, b)
let ( <= ) a b = Cmp (Le, a, b)
let ( > ) a b = Cmp (Gt, a, b)
let ( >= ) a b = Cmp (Ge, a, b)
let ( && ) a b = And (a, b)
let ( || ) a b = Or (a, b)
