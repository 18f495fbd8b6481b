module Value = Tse_store.Value
module Oid = Tse_store.Oid

type body =
  | Stored of { ty : Value.ty; default : Value.t; required : bool }
  | Method of Expr.t

type t = {
  uid : int;
  name : string;
  body : body;
  origin : Oid.t;
  promoted : bool;
}

let uid_counter = ref 0

let fresh_uid () =
  incr uid_counter;
  !uid_counter

let bump_uid_floor n = if n > !uid_counter then uid_counter := n

let make ~uid ~name ~body ~origin ~promoted =
  bump_uid_floor uid;
  { uid; name; body; origin; promoted }

let stored ?(default = Value.Null) ?(required = false) ~origin name ty =
  { uid = fresh_uid (); name; body = Stored { ty; default; required }; origin;
    promoted = false }

let method_ ~origin name expr =
  { uid = fresh_uid (); name; body = Method expr; origin; promoted = false }

let rename t name = { t with name }
let promote t = { t with promoted = true }
let reoriginate t origin = { t with origin }
let with_fresh_uid t = { t with uid = fresh_uid () }
let is_stored t = match t.body with Stored _ -> true | Method _ -> false
let same_prop a b = Int.equal a.uid b.uid

let body_equal a b =
  match a, b with
  | Stored x, Stored y ->
    Value.ty_equal x.ty y.ty && Value.equal x.default y.default
    && Bool.equal x.required y.required
  | Method x, Method y -> Expr.equal x y
  | (Stored _ | Method _), _ -> false

let signature_equal a b = String.equal a.name b.name && body_equal a.body b.body

let pp ppf t =
  match t.body with
  | Stored { ty; required; _ } ->
    Format.fprintf ppf "%s : %a%s" t.name Value.pp_ty ty
      (if required then " [required]" else "")
  | Method e -> Format.fprintf ppf "%s() = %a" t.name Expr.pp e
