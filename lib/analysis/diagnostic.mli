(** Structured findings of the static schema analyzer.

    Every finding carries a stable machine-readable [code] (documented in
    DESIGN.md, Section 10), the class and property it is about, and a
    human-readable message. [Error] findings make a schema ill-formed and
    are what the evolution admission gate rejects on; [Warning] findings
    are suspicious but legal; [Info] findings are analysis facts (e.g. the
    capacity classification of a derivation). *)

type severity = Error | Warning | Info

type t = {
  severity : severity;
  code : string;  (** stable identifier, e.g. ["E101"] *)
  cls : string option;  (** class the finding is about *)
  prop : string option;  (** property / predicate involved, if any *)
  message : string;
}

val make :
  ?cls:string -> ?prop:string -> severity -> code:string -> string -> t

val makef :
  ?cls:string ->
  ?prop:string ->
  severity ->
  code:string ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

val is_error : t -> bool
val is_warning : t -> bool

val severity_to_string : severity -> string

val compare : t -> t -> int
(** Subject-first: by (class, property), then code, then severity, then
    message — a stable report order that groups a class's findings
    together and is byte-identical across emission orders (hashtable
    iteration). *)

val declared_codes : (string * string) list
(** The closed registry of every stable diagnostic code with a one-line
    description: [E1xx] errors (E101–E112 typing/structure, E120–E123
    lens violations) and [W2xx] warnings (W201/W202 predicate facts,
    W210–W213 conditional lens verdicts). The exhaustiveness test
    asserts every declared code is produced by at least one check. *)

val pp : Format.formatter -> t -> unit
(** One line: [error E101 [Class.prop]: message]. *)

val to_json : t -> string
(** One JSON object with [severity], [code], [class], [prop], [message]
    fields. *)
