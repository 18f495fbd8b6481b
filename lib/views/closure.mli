(** Type closure of a view (paper, Section 5: "we can check the
    type-closure of a view schema and incorporate necessary classes").

    A view is type-closed when every class-typed stored attribute
    ([TRef c]) of a view class has its domain class (or a view class that
    is a global ancestor of it) inside the view. *)

type cid = Tse_schema.Klass.cid

val missing :
  Tse_db.Database.t -> View_schema.t -> (cid * string * string) list
(** Violations as [(class, attribute, missing-domain-class-name)]. *)

val is_closed : Tse_db.Database.t -> View_schema.t -> bool

val complete : Tse_db.Database.t -> View_schema.t -> View_schema.t * cid list
(** The view with each missing domain class added (transitively),
    together with the classes added. Unknown domain-class names are
    reported via {!missing} but skipped here. *)
