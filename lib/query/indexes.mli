(** A caller's selection of the database's maintained attribute indexes.

    GemStone-style associative access for the select operator: an index
    on [(class, attribute)] maps attribute values to the members of the
    class holding them. The database keeps and refreshes the indexes
    ({!Tse_db.Database.index}), at most one per [(class, attribute)]; a
    handle only names the ones its lookups may use, so a handle that
    selected none makes the engine scan. An index is backed by a hash
    table ([Hash]), which answers equality probes, or by an ordered map
    ([Ordered]), which also answers range lookups.
    Section 4.2 counts such structures among the managerial storage;
    {!overhead_bytes} reports it. *)

type cid = Tse_schema.Klass.cid

type kind = Tse_store.Index.kind = Hash | Ordered

type t

val create : Tse_db.Database.t -> t
(** An empty selection. It registers nothing with the database. *)

val ensure : ?kind:kind -> t -> cid -> string -> unit
(** Select the database's index on the class's attribute, which the
    database builds with that backing from the current extent if it has
    none yet and maintains from then on. [kind] defaults to [Hash]. The
    index selected answers at least [kind]: an [Ordered] one answers a
    [Hash] request, and an [Ordered] request turns an existing [Hash]
    index into an ordered one for every handle that selected it.
    @raise Invalid_argument if the attribute is not a usable stored
    attribute of the class. *)

val find : t -> cid -> string -> Tse_store.Index.t option
(** The selected index on [(class, attr)], if any — its members are
    already restricted to the class's extent. Probe it with
    {!Tse_store.Index.lookup} (either backing) or
    {!Tse_store.Index.range} (an [Ordered] one). *)

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
