(** Position-based persistence codecs for schema structures (properties,
    derivations, class records, whole graphs), shared by the catalog
    format ({!Tse_views.Catalog}) and the durability layer's snapshots
    and WAL schema records ({!Tse_db.Durable}).

    All readers raise {!Tse_store.Codec.Corrupt} on malformed input. *)

val add_cid : Buffer.t -> Klass.cid -> unit
val read_cid : string -> int -> Klass.cid * int
val add_prop : Buffer.t -> Prop.t -> unit
val read_prop : string -> int -> Prop.t * int
val add_derivation : Buffer.t -> Klass.derivation -> unit
val read_derivation : string -> int -> Klass.derivation * int

val add_class : Buffer.t -> Klass.t -> unit

val read_class : string -> int -> Klass.t * int
(** The returned class's [subs] are empty; callers install every class
    and then {!Schema_graph.relink_subs}. *)

val encode_graph : Schema_graph.t -> string
(** Root cid + every class, sorted by cid — a deterministic image, equal
    for equal schemas. *)

val decode_graph :
  ?deltas:string list -> gen:Tse_store.Oid.Gen.t -> string -> Schema_graph.t
(** Rebuild a graph (sharing the heap's OID generator) from
    {!encode_graph} output, then apply each of [deltas] ({!encode_delta}
    output) in order: its records replace or join the image's, its
    removed cids leave. Subclass lists are rebuilt once, after every
    record is in. *)

val encode_delta : Klass.t list * Klass.cid list -> string
(** A class delta, as {!Schema_graph.changed_since} lists it: the
    records to upsert and the cids to drop. The durable log writes one
    for each commit that moved the graph version. *)
