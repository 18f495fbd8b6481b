module Value = Tse_store.Value
module Expr = Tse_schema.Expr

type attr_def = {
  attr_name : string;
  ty : Value.ty;
  default : Value.t;
  required : bool;
}

let attr ?(default = Value.Null) ?(required = false) attr_name ty =
  { attr_name; ty; default; required }

type t =
  | Add_attribute of { cls : string; def : attr_def }
  | Delete_attribute of { cls : string; attr_name : string }
  | Add_method of { cls : string; method_name : string; body : Expr.t }
  | Delete_method of { cls : string; method_name : string }
  | Add_edge of { sup : string; sub : string }
  | Delete_edge of { sup : string; sub : string; connected_to : string option }
  | Add_class of { cls : string; connected_to : string option }
  | Delete_class of { cls : string }
  | Insert_class of { cls : string; sup : string; sub : string }
  | Delete_class_2 of { cls : string }
  | Rename_class of { old_name : string; new_name : string }
  | Partition_class of {
      cls : string;
      predicate : Expr.t;
      into_true : string;
      into_false : string;
    }
  | Coalesce_classes of { a : string; b : string; as_name : string }

exception Rejected of string

let pp ppf = function
  | Add_attribute { cls; def } ->
    Format.fprintf ppf "add_attribute %s:%a to %s" def.attr_name Value.pp_ty
      def.ty cls
  | Delete_attribute { cls; attr_name } ->
    Format.fprintf ppf "delete_attribute %s from %s" attr_name cls
  | Add_method { cls; method_name; body } ->
    Format.fprintf ppf "add_method %s = %a to %s" method_name Expr.pp body cls
  | Delete_method { cls; method_name } ->
    Format.fprintf ppf "delete_method %s from %s" method_name cls
  | Add_edge { sup; sub } -> Format.fprintf ppf "add_edge %s-%s" sup sub
  | Delete_edge { sup; sub; connected_to } ->
    Format.fprintf ppf "delete_edge %s-%s%s" sup sub
      (match connected_to with
      | Some c -> " connected_to " ^ c
      | None -> "")
  | Add_class { cls; connected_to } ->
    Format.fprintf ppf "add_class %s%s" cls
      (match connected_to with
      | Some c -> " connected_to " ^ c
      | None -> "")
  | Delete_class { cls } -> Format.fprintf ppf "delete_class %s" cls
  | Insert_class { cls; sup; sub } ->
    Format.fprintf ppf "insert_class %s between %s-%s" cls sup sub
  | Delete_class_2 { cls } -> Format.fprintf ppf "delete_class_2 %s" cls
  | Rename_class { old_name; new_name } ->
    Format.fprintf ppf "rename_class %s to %s" old_name new_name
  | Partition_class { cls; predicate; into_true; into_false } ->
    Format.fprintf ppf "partition_class %s by %a into %s/%s" cls Expr.pp
      predicate into_true into_false
  | Coalesce_classes { a; b; as_name } ->
    Format.fprintf ppf "coalesce_classes %s %s as %s" a b as_name

let to_string c = Format.asprintf "%a" pp c
