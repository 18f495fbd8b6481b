(** Maintained attribute indexes.

    GemStone-style associative access for the select operator: an index
    on [(class, attribute)] maps attribute values to the members of the
    class holding them, and is kept current by listening to the database's
    change events (attribute writes, object creation/destruction,
    reclassification and the population of a new class). Two backings share that maintenance contract:
    [Hash] answers equality probes, [Ordered] additionally answers range
    lookups. Section 4.2 counts such structures among the managerial
    storage; {!overhead_bytes} reports it. *)

type cid = Tse_schema.Klass.cid

type kind = Hash | Ordered

type t

val create : Tse_db.Database.t -> t
(** Registers the maintenance listener on the database. The database
    holds the index set weakly: once the program drops it, its
    maintenance stops at the next major collection.

    A membership change refreshes an index only when the object entered
    or left the indexed class, or a class that declares the indexed
    attribute locally — the only memberships that decide the extent test
    and what the attribute resolves to. The [query.index_refreshes]
    counter counts per-object refreshes, builds included. *)

val ensure : ?kind:kind -> t -> cid -> string -> unit
(** Build (or rebuild) the index on the class's attribute from the
    current extent, and maintain it from now on. [kind] defaults to
    [Hash]; at most one index exists per [(class, attr)] — re-ensuring
    with a different kind rebuilds.
    @raise Invalid_argument if the attribute is not a usable stored
    attribute of the class. *)

val lookup : t -> cid -> string -> Tse_store.Value.t -> Tse_store.Oid.Set.t option
(** [Some members] when an index exists on [(class, attr)] — already
    restricted to the class's extent; [None] when no index exists.
    Equality probes are answered by either backing. *)

val range_lookup :
  t ->
  cid ->
  string ->
  lo:Tse_store.Ord_index.bound option ->
  hi:Tse_store.Ord_index.bound option ->
  Tse_store.Oid.Set.t option
(** [Some members] in the key interval when an [Ordered] index exists on
    [(class, attr)]; [None] when there is no index or it is [Hash]. *)

val indexed : t -> cid -> string -> bool
val kind_of : t -> cid -> string -> kind option

val key_cardinality : t -> cid -> string -> int option
(** [Some n] when an index exists on [(class, attr)]: the number of
    distinct keys in its buckets. More distinct keys means smaller
    buckets for the same extent, so the planner prefers the equality
    conjunct whose index has the highest key cardinality. *)

val entry_count : t -> cid -> string -> int option
(** Number of (value, oid) entries — the indexed population, used with
    {!key_cardinality} to estimate bucket sizes. *)

val overhead_bytes : t -> int
