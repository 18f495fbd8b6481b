(* Ordered (range) index: attribute value -> OID set, kept in a balanced
   map so contiguous key ranges can be enumerated without touching the rest
   of the population.

   The key order must agree with the predicate language's comparison
   semantics (Expr.eval_cmp), not with Value.compare: Int and Float compare
   numerically there (3 = 3.0), so numeric keys share one ordering domain
   and 3 / 3.0 land in the same bucket. Other tags order among themselves;
   cross-tag keys are kept apart by tag rank and filtered out of range
   answers by bound compatibility. *)

let key_compare a b =
  match (a, b) with
  | Value.Int x, Value.Float y -> Float.compare (float_of_int x) y
  | Value.Float x, Value.Int y -> Float.compare x (float_of_int y)
  | _ -> Value.compare a b

module Key_map = Map.Make (struct
  type t = Value.t

  let compare = key_compare
end)

type bound = Value.t * bool (* value, inclusive? *)

(* [entries] and [distinct] are maintained counts ((value, oid) pairs
   and bound keys), so the planner reads both in O(1). *)
type t = {
  mutable keys : Oid.Set.t Key_map.t;
  mutable entries : int;
  mutable distinct : int;
}

let create () = { keys = Key_map.empty; entries = 0; distinct = 0 }

let add t v oid =
  match Key_map.find_opt v t.keys with
  | Some set ->
    if not (Oid.Set.mem oid set) then begin
      t.keys <- Key_map.add v (Oid.Set.add oid set) t.keys;
      t.entries <- t.entries + 1
    end
  | None ->
    t.keys <- Key_map.add v (Oid.Set.singleton oid) t.keys;
    t.entries <- t.entries + 1;
    t.distinct <- t.distinct + 1

let remove t v oid =
  match Key_map.find_opt v t.keys with
  | None -> ()
  | Some set ->
    if Oid.Set.mem oid set then begin
      let set = Oid.Set.remove oid set in
      if Oid.Set.is_empty set then begin
        t.keys <- Key_map.remove v t.keys;
        t.distinct <- t.distinct - 1
      end
      else t.keys <- Key_map.add v set t.keys;
      t.entries <- t.entries - 1
    end

let lookup t v =
  match Key_map.find_opt v t.keys with Some s -> s | None -> Oid.Set.empty

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
  if lo = None && hi = None then
    Key_map.fold
      (fun v set acc ->
        if Value.equal v Value.Null then acc else Oid.Set.union set acc)
      t.keys Oid.Set.empty
  else
    (* start at the lower bound and walk keys in order until the upper
       bound is passed; per-key admissibility discards null and
       incompatible-tag keys that happen to fall inside the walk *)
    let seq =
      match lo with
      | Some (b, _) -> Key_map.to_seq_from b t.keys
      | None -> Key_map.to_seq t.keys
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

let clear t =
  t.keys <- Key_map.empty;
  t.entries <- 0;
  t.distinct <- 0

let overhead_bytes t =
  (* same accounting as the hash index, plus the tree nodes *)
  (t.entries * Stats.sizeof_oid) + (distinct_keys t * 4 * Stats.sizeof_pointer)

let of_seq seq =
  let t = create () in
  Seq.iter (fun (v, oid) -> add t v oid) seq;
  t
