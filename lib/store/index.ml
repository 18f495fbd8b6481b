(* Attribute index: value -> OID set, in one of two representations, a
   hash table (equality probes) or a balanced map (equality and range
   probes).

   Both answer equality the way the predicate language compares
   (Expr.eval_cmp), not the way Value.compare does: Int and Float compare
   numerically there (3 = 3.0). The map orders keys by that comparison,
   so 3 and 3.0 share a bucket; the table files a Float with an integral
   value under its equal Int key. Other tags order among themselves;
   cross-tag keys are kept apart by tag rank and filtered out of range
   answers by bound compatibility. *)

type kind = Hash | Ordered
type bound = Value.t * bool (* value, inclusive? *)

let key_compare a b =
  match (a, b) with
  | Value.Int x, Value.Float y -> Float.compare (float_of_int x) y
  | Value.Float x, Value.Int y -> Float.compare x (float_of_int y)
  | _ -> Value.compare a b

module Key_map = Map.Make (struct
  type t = Value.t

  let compare = key_compare
end)

(* The table's key for a value: an integral Float within the int range
   goes under its equal Int, so 3.0 finds 3. *)
let hash_key = function
  | Value.Float f when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 ->
    Value.Int (int_of_float f)
  | v -> v

(* A table bucket is a cell edited in place, so an add or a remove
   probes the table once. *)
type rep =
  | Buckets of (Value.t, Oid.Set.t ref) Hashtbl.t
  | Tree of Oid.Set.t Key_map.t

(* [entries] and [distinct] are maintained counts ((value, oid) pairs
   and keys), so the planner reads both in O(1). *)
type t = { mutable rep : rep; mutable entries : int; mutable distinct : int }

let create kind =
  let rep =
    match kind with
    | Hash -> Buckets (Hashtbl.create 64)
    | Ordered -> Tree Key_map.empty
  in
  { rep; entries = 0; distinct = 0 }

let kind t = match t.rep with Buckets _ -> Hash | Tree _ -> Ordered

let lookup t v =
  match t.rep with
  | Buckets b -> (
    match Hashtbl.find_opt b (hash_key v) with Some s -> !s | None -> Oid.Set.empty)
  | Tree m -> (
    match Key_map.find_opt v m with Some s -> s | None -> Oid.Set.empty)

(* Replace [v]'s bucket [s] by [f s], which adds ([delta] = 1) or
   removes (-1) one OID, or returns [s] itself when there is nothing to
   do (as Set.add and Set.remove do); an emptied bucket is dropped. *)
let update t v delta f =
  let step s =
    let s' = f s in
    if s' != s then begin
      t.entries <- t.entries + delta;
      if Oid.Set.is_empty s then t.distinct <- t.distinct + 1
      else if Oid.Set.is_empty s' then t.distinct <- t.distinct - 1
    end;
    s'
  in
  match t.rep with
  | Buckets b -> (
    let k = hash_key v in
    match Hashtbl.find_opt b k with
    | Some cell ->
      cell := step !cell;
      if Oid.Set.is_empty !cell then Hashtbl.remove b k
    | None ->
      let s = step Oid.Set.empty in
      if not (Oid.Set.is_empty s) then Hashtbl.add b k (ref s))
  | Tree m ->
    t.rep <-
      Tree
        (Key_map.update v
           (fun s ->
             let s = step (Option.value s ~default:Oid.Set.empty) in
             if Oid.Set.is_empty s then None else Some s)
           m)

let add t v oid = update t v 1 (Oid.Set.add oid)
let remove t v oid = update t v (-1) (Oid.Set.remove oid)

let make_ordered t =
  match t.rep with
  | Tree _ -> ()
  | Buckets b ->
    t.rep <- Tree Key_map.empty;
    t.entries <- 0;
    t.distinct <- 0;
    Hashtbl.iter (fun k s -> Oid.Set.iter (add t k) !s) b

(* A key participates in a range answer only if ordering it against every
   given bound is legal under the predicate semantics: null never orders,
   and cross-tag orderings (beyond the numeric Int/Float mix) are type
   errors, so such keys can never satisfy the original comparison. *)
let key_admissible v = function
  | None -> true
  | Some (b, _) ->
    (not (Value.equal v Value.Null)) && Value.tag_compatible v b

let above_lo v = function
  | None -> not (Value.equal v Value.Null)
  | Some (b, incl) ->
    let c = key_compare v b in
    if incl then c >= 0 else c > 0

let below_hi v = function
  | None -> true
  | Some (b, incl) ->
    let c = key_compare v b in
    if incl then c <= 0 else c < 0

let range t ~lo ~hi =
  let keys =
    match t.rep with
    | Tree m -> m
    | Buckets _ -> invalid_arg "Index.range: a hash index"
  in
  if lo = None && hi = None then
    Key_map.fold
      (fun v set acc ->
        if Value.equal v Value.Null then acc else Oid.Set.union set acc)
      keys Oid.Set.empty
  else
    (* start at the lower bound and walk keys in order until the upper
       bound is passed; per-key admissibility discards null and
       incompatible-tag keys that happen to fall inside the walk *)
    let seq =
      match lo with
      | Some (b, _) -> Key_map.to_seq_from b keys
      | None -> Key_map.to_seq keys
    in
    let rec collect acc seq =
      match seq () with
      | Seq.Nil -> acc
      | Seq.Cons ((v, set), rest) ->
        if key_admissible v hi && not (below_hi v hi) then
          (* past an upper bound the key can legally order against *)
          acc
        else
          let acc =
            if
              key_admissible v lo && key_admissible v hi && above_lo v lo
              && below_hi v hi
            then Oid.Set.union set acc
            else acc
          in
          collect acc rest
    in
    collect Oid.Set.empty seq

let cardinal t = t.entries
let distinct_keys t = t.distinct

let overhead_bytes t =
  (* one pointer per table bucket; a tree node costs four *)
  let per_key = match t.rep with Buckets _ -> 1 | Tree _ -> 4 in
  (t.entries * Stats.sizeof_oid) + (t.distinct * per_key * Stats.sizeof_pointer)
