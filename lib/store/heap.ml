module Metrics = Tse_obs.Metrics

type cell = {
  oid : Oid.t;
  mutable tag : string;
  mutable slots : (string * Value.t) array;
}

(* Slot-level traffic counters, aggregated across every heap instance.
   These sit on the hottest paths in the system (formula evaluation
   reads), so they must stay plain field increments. *)
let m_reads = Metrics.counter "heap.slot_reads"
let m_writes = Metrics.counter "heap.slot_writes"
let m_allocs = Metrics.counter "heap.allocs"
let m_frees = Metrics.counter "heap.frees"
let m_swaps = Metrics.counter "heap.identity_swaps"

type op =
  | Alloc of Oid.t * string
  | Free of Oid.t
  | Set_tag of Oid.t * string
  | Set_slot of Oid.t * string * Value.t
  | Remove_slot of Oid.t * string
  | Swap of Oid.t * Oid.t

(* OIDs are dense sequential ints (Oid.Gen), so the cell store is a
   growable array indexed by OID rather than a hash table: a lookup is
   one bounds check and one load, and extent scans in ascending OID
   order walk the array (and the cells, allocated in creation order)
   near-sequentially — the difference between cache-resident and
   miss-bound million-object scans. *)
type t = {
  mutable cells : cell option array;
  gen : Oid.Gen.t;
  mutable logger : (op -> unit) option;
}

let create () =
  { cells = Array.make 256 None; gen = Oid.Gen.create (); logger = None }

let cell_opt t oid =
  let i = Oid.to_int oid in
  if i < 0 || i >= Array.length t.cells then None
  else Array.unsafe_get t.cells i

let put_cell t oid cell =
  let i = Oid.to_int oid in
  let n = Array.length t.cells in
  if i >= n then begin
    let grown = Array.make (Stdlib.max (2 * n) (i + 1)) None in
    Array.blit t.cells 0 grown 0 n;
    t.cells <- grown
  end;
  t.cells.(i) <- Some cell

let gen t = t.gen
let set_logger t logger = t.logger <- logger

let log t op = match t.logger with None -> () | Some f -> f op

let install t oid tag =
  put_cell t oid { oid; tag; slots = [||] };
  Metrics.incr m_allocs;
  log t (Alloc (oid, tag));
  oid

let alloc t ~tag = install t (Oid.Gen.fresh t.gen) tag

let alloc_raw t ~oid ~tag =
  if cell_opt t oid <> None then invalid_arg "Heap.alloc_raw: oid in use";
  Oid.Gen.mark_used t.gen oid;
  install t oid tag

let free t oid =
  if cell_opt t oid <> None then begin
    t.cells.(Oid.to_int oid) <- None;
    Metrics.incr m_frees;
    log t (Free oid)
  end

let mem t oid = cell_opt t oid <> None

let find_exn t oid =
  match cell_opt t oid with
  | Some c -> c
  | None -> raise Not_found

let tag_of t oid = (find_exn t oid).tag

let set_tag t oid tag =
  (find_exn t oid).tag <- tag;
  log t (Set_tag (oid, tag))

(* A cell's slots are sorted by name, so a probe is a binary search:
   the index of [name], or [-(i + 1)] when it is absent and belongs at
   [i]. *)
let rec search_range slots name lo hi =
  if lo >= hi then -(lo + 1)
  else
    let mid = (lo + hi) lsr 1 in
    let c = String.compare name (fst (Array.unsafe_get slots mid)) in
    if c = 0 then mid
    else if c < 0 then search_range slots name lo mid
    else search_range slots name (mid + 1) hi

let search slots name = search_range slots name 0 (Array.length slots)

let find_slot slots name =
  let i = search slots name in
  if i >= 0 then snd (Array.unsafe_get slots i) else Value.Null

let get_slot t oid name =
  Metrics.incr m_reads;
  find_slot (find_exn t oid).slots name

(* Compiled-query fast path: one closure per (heap, slot name) reading
   straight out of the cell array (re-read through [t] each call — the
   array is replaced on growth), so per-object cost is one array load
   plus the slot probe. Semantics match [get_slot]. *)
let slot_reader t name =
  fun oid ->
    Metrics.incr m_reads;
    match cell_opt t oid with
    | None -> raise Not_found
    | Some cell -> find_slot cell.slots name

(* A present slot is replaced in place; a new one is inserted into a
   copy one longer, so a cell holds exactly its slots. *)
let set_slot t oid name v =
  let cell = find_exn t oid in
  let s = cell.slots in
  let i = search s name in
  if i >= 0 then s.(i) <- (name, v)
  else begin
    let i = -(i + 1) and n = Array.length s in
    let grown = Array.make (n + 1) (name, v) in
    Array.blit s 0 grown 0 i;
    Array.blit s i grown (i + 1) (n - i);
    cell.slots <- grown
  end;
  Metrics.incr m_writes;
  log t (Set_slot (oid, name, v))

let alloc_with t ~tag bindings =
  let oid = alloc t ~tag in
  List.iter (fun (k, v) -> set_slot t oid k v) bindings;
  oid

let remove_slot t oid name =
  let cell = find_exn t oid in
  let s = cell.slots in
  let i = search s name in
  if i >= 0 then begin
    cell.slots <-
      Array.init (Array.length s - 1) (fun j -> s.(if j < i then j else j + 1));
    Metrics.incr m_writes;
    log t (Remove_slot (oid, name))
  end

let slots t oid = Array.to_list (find_exn t oid).slots

let copy_slots t ~src ~dst =
  Array.iter (fun (k, v) -> set_slot t dst k v) (find_exn t src).slots

let swap_identity t a b =
  let ca = find_exn t a and cb = find_exn t b in
  let tag_a = ca.tag and slots_a = ca.slots in
  ca.tag <- cb.tag;
  ca.slots <- cb.slots;
  cb.tag <- tag_a;
  cb.slots <- slots_a;
  Metrics.incr m_swaps;
  log t (Swap (a, b))

(* Ascending-OID order (a strengthening of the old arbitrary hash
   order). *)
let iter t f =
  Array.iter (function Some c -> f c | None -> ()) t.cells

let fold t ~init ~f =
  Array.fold_left (fun acc -> function Some c -> f acc c | None -> acc)
    init t.cells

let capacity t = Array.length t.cells

let fold_range t ~lo ~hi ~init ~f =
  let hi = min hi (Array.length t.cells) in
  let acc = ref init in
  for i = max lo 0 to hi - 1 do
    match Array.unsafe_get t.cells i with
    | Some c -> acc := f !acc c
    | None -> ()
  done;
  !acc
