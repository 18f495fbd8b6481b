(** A caller's selection of the database's maintained attribute indexes.

    GemStone-style associative access for the select operator: an index
    on [(class, attribute)] maps attribute values to the members of the
    class holding them. The database keeps and refreshes the indexes
    ({!Tse_db.Database.index}); a handle only names the ones its
    lookups may use, so a handle that selected none makes the engine
    scan. Two backings share the maintenance contract: [Hash] answers
    equality probes, [Ordered] additionally answers range lookups.
    Section 4.2 counts such structures among the managerial storage;
    {!overhead_bytes} reports it. *)

type cid = Tse_schema.Klass.cid

type kind = Tse_db.Database.index_kind = Hash | Ordered

type t

val create : Tse_db.Database.t -> t
(** An empty selection. It registers nothing with the database. *)

val ensure : ?kind:kind -> t -> cid -> string -> unit
(** Select the database's index on the class's attribute with that
    backing, which the database builds from the current extent if it
    has none yet and maintains from then on. [kind] defaults to [Hash];
    a handle selects at most one index per [(class, attr)], so
    re-ensuring with a different kind replaces the selection.
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
(** Bytes of the selected indexes. *)
