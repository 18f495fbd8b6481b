(** The extended object algebra (Section 3.2): each operator derives a new
    virtual class, which is immediately integrated into the global schema
    by the classifier.

    The capacity-augmenting extension is in {!refine}: its property list
    may contain {e stored} attributes, which augment the database's
    capacity — each member object's representation is restructured with a
    new implementation slice holding the new slots (Section 4). *)

type cid = Tse_schema.Klass.cid

exception Error of string
(** Raised on operator misuse: unknown source class, hiding an undefined
    property, refining with an already-defined name, a select predicate
    over undefined properties, a name already in use. *)

val select :
  Tse_db.Database.t -> name:string -> src:cid -> Tse_schema.Expr.t -> cid
(** [(select from <src> where <predicate>)]: same type, restricted
    extent; classified below the source. *)

val check_select : Tse_db.Database.t -> src:cid -> Tse_schema.Expr.t -> unit
(** The checks {!select} makes before deriving anything: the source
    exists, and the predicate reads only properties of the source and
    names only existing classes.
    @raise Error when one fails. *)

val hide :
  Tse_db.Database.t -> name:string -> props:string list -> src:cid -> cid
(** [(hide <props> from <src>)]: same extent, more general type;
    classified above the source. *)

val refine :
  Tse_db.Database.t -> name:string -> props:Tse_schema.Prop.t list -> src:cid -> cid
(** [(refine <property-defs> for <src>)]: same extent, extended type.
    Stored properties make the view capacity-augmenting. Property names
    must not already be defined for the source's type. *)

val refine_from :
  Tse_db.Database.t ->
  name:string ->
  src:cid ->
  prop_name:string ->
  target:cid ->
  cid
(** [refine C1:<prop> for C2] — the inheritance form: the target class
    acquires C1's property, {e sharing} its definition (same identity, so
    methods share their code block and diamonds do not conflict). *)

val union : Tse_db.Database.t -> name:string -> cid -> cid -> cid
val intersect : Tse_db.Database.t -> name:string -> cid -> cid -> cid
val difference : Tse_db.Database.t -> name:string -> cid -> cid -> cid

(** {2 Naming helpers} *)

val primed_name : Tse_db.Database.t -> string -> string
(** [base'], [base''], ... — first variant not yet used by a class; the
    TSE translator names every derived class by priming its original
    (Section 6.1.2, footnote 11). *)

val fresh_name : Tse_db.Database.t -> string -> string
(** [base], [base$2], [base$3], ... — for anonymous intermediates. *)

(** {2 Composite queries — [defineVC <name> as <query>]} *)

type query =
  | Class of string  (** an existing class, by name *)
  | Select of query * Tse_schema.Expr.t
  | Hide of string list * query
  | Refine of Tse_schema.Prop.t list * query
  | Union of query * query
  | Intersect of query * query
  | Difference of query * query

val define_vc : Tse_db.Database.t -> name:string -> query -> cid
(** Evaluate an arbitrarily nested algebra query (Section 3.2's
    [defineVC]): inner subqueries materialize as anonymous virtual classes
    (reused if an equal derivation already exists), the outermost gets
    [name]. *)
