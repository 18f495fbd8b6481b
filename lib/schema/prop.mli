(** Properties: stored attributes and (derived) methods.

    The paper's glossary: {e attribute} = state, {e method} = behaviour,
    {e property} = either. The capacity-augmenting extension of the
    [refine] operator (Section 3.2) is precisely that property definitions
    may describe {e stored} attributes — new independent data — not only
    derived ones.

    Every definition carries a [uid]: a per-database identity that survives
    promotion and inheritance-refine ([refine C1:x for C2] shares the
    source's definition, paper Section 3.2). Two same-named properties with
    different uids are genuinely different properties and conflict; the same
    uid reached along two paths is one property (diamond inheritance). *)

type body =
  | Stored of {
      ty : Tse_store.Value.ty;
      default : Tse_store.Value.t;
      required : bool;
    }  (** a stored attribute occupying a slot *)
  | Method of Expr.t  (** a derived property computed on access *)

type t = {
  uid : int;
  name : string;
  body : body;
  origin : Tse_store.Oid.t;
      (** class at which this definition was (originally) locally defined *)
  promoted : bool;
      (** [true] once MultiView code promotion has moved the definition
          upward; such a definition wins name conflicts for the classes it
          was promoted from (paper, Section 6.2.3, Proposition B). *)
}

val fresh_uid : unit -> int
(** Process-wide unique property identities. *)

val bump_uid_floor : int -> unit
(** Ensure future {!fresh_uid} results exceed the given value — called
    when a catalog with persisted uids is loaded. *)

val make :
  uid:int ->
  name:string ->
  body:body ->
  origin:Tse_store.Oid.t ->
  promoted:bool ->
  t
(** Raw constructor for catalog loading; bumps the uid floor. *)

val stored :
  ?default:Tse_store.Value.t ->
  ?required:bool ->
  origin:Tse_store.Oid.t ->
  string ->
  Tse_store.Value.ty ->
  t

val method_ : origin:Tse_store.Oid.t -> string -> Expr.t -> t

val rename : t -> string -> t
(** Same uid, new name: the user-level disambiguation operation. *)

val promote : t -> t
val reoriginate : t -> Tse_store.Oid.t -> t

val with_fresh_uid : t -> t
(** A copy that is a {e distinct} property (used when a schema change must
    introduce an independent same-shaped attribute). *)

val is_stored : t -> bool
val same_prop : t -> t -> bool  (** uid equality *)

val signature_equal : t -> t -> bool
(** Name and body shape equality, ignoring uid/origin. Duplicate-class
    detection compares types by signature. *)

val pp : Format.formatter -> t -> unit
