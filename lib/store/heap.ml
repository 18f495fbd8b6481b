module Metrics = Tse_obs.Metrics

type cell = {
  oid : Oid.t;
  mutable tag : string;
  slots : (string, Value.t) Hashtbl.t;
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
  put_cell t oid { oid; tag; slots = Hashtbl.create 4 };
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

let get_slot t oid name =
  Metrics.incr m_reads;
  match Hashtbl.find_opt (find_exn t oid).slots name with
  | Some v -> v
  | None -> Value.Null

(* Compiled-query fast path: one closure per (heap, slot name) reading
   straight out of the cell array (re-read through [t] each call — the
   array is replaced on growth), so per-object cost is one array load
   plus the slot probe. Semantics match [get_slot]. *)
let slot_reader t name =
  fun oid ->
    Metrics.incr m_reads;
    match cell_opt t oid with
    | None -> raise Not_found
    | Some cell -> (
      match Hashtbl.find_opt cell.slots name with
      | Some v -> v
      | None -> Value.Null)

let set_slot t oid name v =
  Hashtbl.replace (find_exn t oid).slots name v;
  Metrics.incr m_writes;
  log t (Set_slot (oid, name, v))

let alloc_with t ~tag bindings =
  let oid = alloc t ~tag in
  List.iter (fun (k, v) -> set_slot t oid k v) bindings;
  oid

let remove_slot t oid name =
  let cell = find_exn t oid in
  if Hashtbl.mem cell.slots name then begin
    Hashtbl.remove cell.slots name;
    Metrics.incr m_writes;
    log t (Remove_slot (oid, name))
  end

let slots t oid =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) (find_exn t oid).slots []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let copy_slots t ~src ~dst =
  let from = find_exn t src in
  Hashtbl.iter (fun k v -> set_slot t dst k v) from.slots

let swap_identity t a b =
  let ca = find_exn t a and cb = find_exn t b in
  let tag_a = ca.tag and slots_a = Hashtbl.copy ca.slots in
  let assign (c : cell) tag slots =
    c.tag <- tag;
    Hashtbl.reset c.slots;
    Hashtbl.iter (fun k v -> Hashtbl.replace c.slots k v) slots
  in
  assign ca cb.tag cb.slots;
  assign cb tag_a slots_a;
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
