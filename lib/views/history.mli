(** The View Schema History (paper, Section 5): the dictionary tracking
    every version of every view, "allowing for the substitution of the old
    view by the newly created one".

    Old versions are never discarded — programs written against them keep
    running, which is the whole point of the TSE approach. *)

type t

val create : unit -> t

val register : t -> View_schema.t -> unit
(** Record a view version. The version number must be one greater than the
    current latest for that view name (or 0 for a new view).
    @raise Invalid_argument otherwise. *)

val replace : t -> View_schema.t -> View_schema.t
(** [replace h v] registers [v] re-versioned as the successor of the
    current version of its view, and returns the registered copy — the
    "replace the old view with the new one" step of the TSE pipeline. *)

val current : t -> string -> View_schema.t option
val current_exn : t -> string -> View_schema.t
val version : t -> string -> int -> View_schema.t option
val versions : t -> string -> View_schema.t list
(** Oldest first. *)

val view_names : t -> string list

val total_versions : t -> int
(** How many versions have been registered, every view counted. It only
    grows, so it also names a point in the history: {!since} lists what
    came after it. *)

val since : t -> int -> View_schema.t list
(** [since h n] is every version registered after the first [n], in
    registration order — what a durable log that holds the first [n]
    still lacks.
    @raise Invalid_argument unless [0 <= n <= total_versions h]. *)
