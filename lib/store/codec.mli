(** Position-based primitive codecs shared by every persisted format
    (catalog blobs, WAL records, durable snapshots).

    Writers append to a [Buffer]; readers take [(string, pos)] and return
    [(value, pos')]. Ints are decimal + [';'], strings length-prefixed
    ([len ':' bytes]), bools one character, lists count-prefixed. *)

exception Corrupt of string * int
(** [(what, pos)] — raised by every reader on malformed input. WAL
    recovery catches it to truncate at the offending record; snapshot
    loaders convert it to [Failure]. *)

val add_decimal : Buffer.t -> int -> unit
(** [add_decimal buf i] appends the bytes of [string_of_int i] (sign and
    digits, no terminator) without allocating; [min_int] included. Every
    decimal field of the persisted formats goes through it. *)

val add_int : Buffer.t -> int -> unit
val add_str : Buffer.t -> string -> unit
val add_bool : Buffer.t -> bool -> unit
val add_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
val read_int : string -> int -> int * int
val read_str : string -> int -> string * int
val read_bool : string -> int -> bool * int
val read_list : (string -> int -> 'a * int) -> string -> int -> 'a list * int

val sharer : unit -> 'a -> 'a
(** [sharer ()] is a fresh function that hands back, for each class of
    structurally equal arguments ([compare] = 0), the first one it was
    given. Decoders pass the slot names and tags they read through one,
    so the cells of a decoded heap share a name the way live cells do.
    Only for immutable values whose [compare] tells every difference
    apart (not [0.] from [-0.]). *)

val fail_at : int -> string -> 'a
(** Raise {!Corrupt} — for composite readers built on these primitives. *)

val concat_lists : string list -> string
(** Fold {!add_list} blobs into one: the counts are summed and the bodies
    concatenated in order, without decoding an item. The durable log
    uses it to append a list of new items to a list blob it cannot read.
    @raise Corrupt if a blob does not start with a count. *)
