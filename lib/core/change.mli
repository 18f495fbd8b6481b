(** The schema-change operators (paper, Section 6).

    The taxonomy is Zicari's primitive set, to which ORION's richer
    operations reduce: four content changes (add/delete attribute,
    add/delete method) and four hierarchy changes (add/delete is-a edge,
    add/delete class), plus the two composite macros of Section 6.9.

    Class references are {e view-local names} — the user specifies changes
    against her own view, never against the global schema. *)

type attr_def = {
  attr_name : string;
  ty : Tse_store.Value.ty;
  default : Tse_store.Value.t;
  required : bool;
}

val attr : ?default:Tse_store.Value.t -> ?required:bool -> string -> Tse_store.Value.ty -> attr_def

type t =
  | Add_attribute of { cls : string; def : attr_def }
      (** ["add_attribute x:def to C"] (Section 6.1) *)
  | Delete_attribute of { cls : string; attr_name : string }
      (** ["delete_attribute x from C"] (Section 6.2) *)
  | Add_method of { cls : string; method_name : string; body : Tse_schema.Expr.t }
      (** ["add_method m:def to C"] (Section 6.3) *)
  | Delete_method of { cls : string; method_name : string }
      (** ["delete_method m from C"] (Section 6.4) *)
  | Add_edge of { sup : string; sub : string }
      (** ["add_edge Csup-Csub"] (Section 6.5) *)
  | Delete_edge of { sup : string; sub : string; connected_to : string option }
      (** ["delete_edge Csup-Csub [connected_to Cupper]"] (Section 6.6) *)
  | Add_class of { cls : string; connected_to : string option }
      (** ["add_class C [connected_to Csup]"] (Section 6.7) *)
  | Delete_class of { cls : string }
      (** ["delete_class C"] — MultiView's removeFromView (Section 6.8) *)
  | Insert_class of { cls : string; sup : string; sub : string }
      (** ["insert_class C between Csup-Csub"] (Section 6.9.1, macro) *)
  | Delete_class_2 of { cls : string }
      (** ["delete_class_2 C"] — ORION-style class deletion (Section
          6.9.2, macro) *)
  | Rename_class of { old_name : string; new_name : string }
      (** view-local renaming — the user-level disambiguation operation
          Sections 6.1.1 and 7 refer to; purely a view change, the global
          schema is untouched *)
  | Partition_class of {
      cls : string;
      predicate : Tse_schema.Expr.t;
      into_true : string;
      into_false : string;
    }
      (** Section 9 extension: split a class into two subclasses by a
          predicate. Expressed object-preservingly (two select classes),
          so — unlike the object-generating form the paper leaves open —
          the result stays updatable. *)
  | Coalesce_classes of { a : string; b : string; as_name : string }
      (** Section 9 extension: fuse two classes into one view class — the
          object-preserving reading (a union class replacing both). *)

exception Rejected of string
(** A schema change refused by its preconditions (e.g. adding an attribute
    that already exists, deleting a non-local attribute). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
