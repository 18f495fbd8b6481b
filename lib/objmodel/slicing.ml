module Oid = Tse_store.Oid
module Value = Tse_store.Value
module Heap = Tse_store.Heap
module Stats = Tse_store.Stats
module Schema_graph = Tse_schema.Schema_graph
module Klass = Tse_schema.Klass
module Prop = Tse_schema.Prop
module Expr = Tse_schema.Expr

(* A slice of class [cid] is an implementation cell tagged
   ["@impl:<cid>"] and a conceptual slot ["__impl:<cid>"] pointing at it.
   All slices of one class share these two strings. *)
type slice_names = { tag : string; slot : string }

(* An object's slices: [| c0; i0; c1; i1; ... |], each class it is a
   member of (the root aside) then its implementation object there, in
   ascending class order. A few words per object: an empty hash table
   alone costs 22. *)
type slices = Oid.t array

(* The pair index of [cid] in [s], or [-(i + 1)] when it is absent and
   belongs at pair [i]. *)
let rec slice_search (s : slices) cid lo hi =
  if lo >= hi then -(lo + 1)
  else
    let mid = (lo + hi) lsr 1 in
    let c = Oid.compare cid (Array.unsafe_get s (2 * mid)) in
    if c = 0 then mid
    else if c < 0 then slice_search s cid lo mid
    else slice_search s cid (mid + 1) hi

let slice_index s cid = slice_search s cid 0 (Array.length s / 2)

let find_impl s cid =
  let i = slice_index s cid in
  if i >= 0 then Some (Array.unsafe_get s ((2 * i) + 1)) else None

let with_slice s i cid impl =
  let n = Array.length s in
  let grown = Array.make (n + 2) cid in
  Array.blit s 0 grown 0 (2 * i);
  grown.((2 * i) + 1) <- impl;
  Array.blit s (2 * i) grown ((2 * i) + 2) (n - (2 * i));
  grown

let without_slice s i =
  Array.init (Array.length s - 2) (fun j -> s.(if j < 2 * i then j else j + 2))

type t = {
  graph : Schema_graph.t;
  heap : Heap.t;
  stats : Stats.t;
  (* conceptual oid -> its slices; the heap back-pointers are the
     persistent form, this table is the fast in-memory image. *)
  impls : slices Oid.Dense.t;
  (* cid -> the strings every slice of the class carries, built once *)
  names : slice_names Oid.Tbl.t;
}

let name = "object-slicing"

let create ~graph ~heap ~stats =
  {
    graph;
    heap;
    stats;
    impls = Oid.Dense.create 256;
    names = Oid.Tbl.create 64;
  }

let graph t = t.graph
let heap t = t.heap
let stats t = t.stats

let conceptual_tag = "@obj"
let impl_prefix = "@impl:"

let slice_names t cid =
  match Oid.Tbl.find_opt t.names cid with
  | Some n -> n
  | None ->
    let id = string_of_int (Oid.to_int cid) in
    let n = { tag = impl_prefix ^ id; slot = "__impl:" ^ id } in
    Oid.Tbl.replace t.names cid n;
    n

let slices t o =
  match Oid.Dense.find_opt t.impls o with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Slicing: unknown object %s" (Oid.to_string o))

let impl_of t o cid =
  match Oid.Dense.find_opt t.impls o with
  | None -> None
  | Some s -> find_impl s cid

(* Compiled-query fast path: a flat closure reading [name] from the
   implementation object of a fixed class, with the table captures
   hoisted out of the per-object hot loop. [None] when the object has no
   implementation at [cid] (unknown object or non-member). *)
let slot_reader t cid name =
  let impls = t.impls in
  let read = Heap.slot_reader t.heap name in
  fun o ->
    match Oid.Dense.find_opt impls o with
    | None -> None
    | Some s ->
      let i = slice_index s cid in
      if i < 0 then None else Some (read (Array.unsafe_get s ((2 * i) + 1)))

let is_object t o = Oid.Dense.mem t.impls o
let impl_count t o = Array.length (slices t o) / 2
let conceptual_of t impl =
  if not (Heap.mem t.heap impl) then None
  else
    match Heap.get_slot t.heap impl "__conceptual" with
    | Value.Ref o -> Some o
    | _ -> None
let is_member t o cid =
  Oid.equal cid (Schema_graph.root t.graph)
  || (match Oid.Dense.find_opt t.impls o with
     | None -> false
     | Some s -> slice_index s cid >= 0)

let member_classes t o =
  let s = slices t o in
  List.init (Array.length s / 2) (fun i -> s.(2 * i))

(* Create the implementation object representing [o] at [cid]. *)
let add_impl t o cid =
  let s = slices t o in
  let i = slice_index s cid in
  if i < 0 then begin
    let names = slice_names t cid in
    let impl = Heap.alloc t.heap ~tag:names.tag in
    Heap.set_slot t.heap impl "__conceptual" (Value.Ref o);
    Heap.set_slot t.heap o names.slot (Value.Ref impl);
    Oid.Dense.replace t.impls o (with_slice s (-(i + 1)) cid impl);
    Stats.incr_oids t.stats;
    Stats.add_pointers t.stats 2
  end

let remove_impl t o cid =
  let s = slices t o in
  let i = slice_index s cid in
  if i >= 0 then begin
    let impl = s.((2 * i) + 1) in
    Heap.free t.heap impl;
    Heap.remove_slot t.heap o (slice_names t cid).slot;
    Oid.Dense.replace t.impls o (without_slice s i)
  end

(* Membership closure: joining a class implies joining its ancestors
   (the root stays implicit). *)
let ensure_member t o cid =
  let root = Schema_graph.root t.graph in
  if not (Oid.equal cid root) then begin
    add_impl t o cid;
    Oid.Set.iter
      (fun anc -> if not (Oid.equal anc root) then add_impl t o anc)
      (Schema_graph.ancestors t.graph cid)
  end

let set_membership t o cids =
  let root = Schema_graph.root t.graph in
  let desired =
    List.fold_left
      (fun acc c -> if Oid.equal c root then acc else Oid.Set.add c acc)
      Oid.Set.empty cids
  in
  let current = Oid.Set.of_list (member_classes t o) in
  Oid.Set.iter (fun c -> add_impl t o c) (Oid.Set.diff desired current);
  Oid.Set.iter (fun c -> remove_impl t o c) (Oid.Set.diff current desired)

let create_object t cid =
  let o = Heap.alloc t.heap ~tag:conceptual_tag in
  Oid.Dense.replace t.impls o [||];
  Stats.incr_oids t.stats;
  Stats.incr_objects t.stats;
  ensure_member t o cid;
  o

let destroy_object t o =
  Array.iteri (fun j impl -> if j land 1 = 1 then Heap.free t.heap impl) (slices t o);
  Oid.Dense.remove t.impls o;
  Heap.free t.heap o

let add_to_class = ensure_member

let remove_from_class t o cid =
  if Oid.equal cid (Schema_graph.root t.graph) then
    invalid_arg "Slicing.remove_from_class: cannot remove from root";
  (* Losing a type implies losing every subtype of it. *)
  remove_impl t o cid;
  Oid.Set.iter (fun d -> remove_impl t o d) (Schema_graph.descendants t.graph cid)

let resolve_defining_class t o attr_name =
  let member = member_classes t o in
  let defines cid =
    match Klass.local_prop (Schema_graph.find_exn t.graph cid) attr_name with
    | Some p when Prop.is_stored p -> Some (cid, p)
    | Some _ | None -> None
  in
  let candidates = List.filter_map defines member in
  match candidates with
  | [] -> None
  | [ (cid, _) ] -> Some cid
  | candidates ->
    let uids =
      List.sort_uniq Int.compare
        (List.map (fun (_, (p : Prop.t)) -> p.uid) candidates)
    in
    if List.length uids = 1 then begin
      (* one property, several local copies (promotion): the slot data
         lives at the ORIGIN class — a promoted copy is a type-level
         artifact, not a storage location *)
      let (_, p0) = List.hd candidates in
      match
        List.find_opt (fun (cid, _) -> Oid.equal cid p0.Prop.origin) candidates
      with
      | Some (cid, _) -> Some cid
      | None -> begin
        match
          List.find_opt (fun (_, (p : Prop.t)) -> not p.promoted) candidates
        with
        | Some (cid, _) -> Some cid
        | None -> (
          match List.sort (fun (a, _) (b, _) -> Oid.compare a b) candidates with
          | (cid, _) :: _ -> Some cid
          | [] -> None)
      end
    end
    else begin
      (* genuinely different properties: most specific member class wins;
         among unrelated candidates a promoted definition has priority,
         then lowest cid for determinism *)
      let not_overridden (cid, _) =
        not
          (List.exists
             (fun (other, _) ->
               (not (Oid.equal other cid))
               && Schema_graph.is_strict_ancestor t.graph ~anc:cid ~desc:other)
             candidates)
      in
      let minimal = List.filter not_overridden candidates in
      let minimal =
        match List.filter (fun (_, (p : Prop.t)) -> p.promoted) minimal with
        | [] -> minimal
        | promoted -> promoted
      in
      match List.sort (fun (a, _) (b, _) -> Oid.compare a b) minimal with
      | (cid, _) :: _ -> Some cid
      | [] -> None
    end

let get_attr t o attr_name =
  match resolve_defining_class t o attr_name with
  | None -> raise (Expr.Unknown_property attr_name)
  | Some cid ->
    let impl =
      match impl_of t o cid with Some i -> i | None -> assert false
    in
    let v = Heap.get_slot t.heap impl attr_name in
    if not (Value.equal v Value.Null) then v
    else begin
      (* fall back to the declared default *)
      match Klass.local_prop (Schema_graph.find_exn t.graph cid) attr_name with
      | Some { Prop.body = Stored { default; _ }; _ } -> default
      | Some _ | None -> Value.Null
    end

let set_attr t o attr_name v =
  match resolve_defining_class t o attr_name with
  | None -> raise (Expr.Unknown_property attr_name)
  | Some cid ->
    let impl =
      match impl_of t o cid with Some i -> i | None -> assert false
    in
    let old = Heap.get_slot t.heap impl attr_name in
    let old_bytes = if Value.equal old Value.Null then 0 else Value.size_bytes old in
    let new_bytes = if Value.equal v Value.Null then 0 else Value.size_bytes v in
    Stats.add_data_bytes t.stats (new_bytes - old_bytes);
    Heap.set_slot t.heap impl attr_name v

let cast t o cid =
  if Oid.equal cid (Schema_graph.root t.graph) then Some o else impl_of t o cid

let objects t = Oid.Dense.fold (fun o _ acc -> o :: acc) t.impls []
let object_count t = Oid.Dense.length t.impls

let rebuild ~graph ~heap ~stats =
  let t = create ~graph ~heap ~stats in
  Heap.iter heap (fun (cell : Heap.cell) ->
      if String.equal cell.tag conceptual_tag then begin
        cell.tag <- conceptual_tag;
        Oid.Dense.replace t.impls cell.oid [||];
        Stats.incr_oids stats;
        Stats.incr_objects stats
      end);
  (* Each distinct tag is parsed once: an implementation tag seeds the
     class's shared names, and every cell carrying it is pointed at the
     shared string (equal contents, so nothing is logged). *)
  let parsed = Hashtbl.create 64 in
  let impl_class tag =
    match Hashtbl.find_opt parsed tag with
    | Some r -> r
    | None ->
      let r =
        if
          String.length tag > String.length impl_prefix
          && String.starts_with ~prefix:impl_prefix tag
        then
          let cid =
            Oid.of_int
              (int_of_string
                 (String.sub tag (String.length impl_prefix)
                    (String.length tag - String.length impl_prefix)))
          in
          let shared = (slice_names t cid).tag in
          Some (cid, if String.equal shared tag then shared else tag)
        else None
      in
      Hashtbl.replace parsed tag r;
      r
  in
  Heap.iter heap (fun (cell : Heap.cell) ->
      match impl_class cell.tag with
      | None -> ()
      | Some (cid, tag) -> (
        cell.tag <- tag;
        match Heap.get_slot heap cell.oid "__conceptual" with
        | Value.Ref owner ->
          (match Oid.Dense.find_opt t.impls owner with
          | Some s ->
            let i = slice_index s cid in
            if i >= 0 then s.((2 * i) + 1) <- cell.oid
            else
              Oid.Dense.replace t.impls owner (with_slice s (-(i + 1)) cid cell.oid)
          | None -> failwith "Slicing.rebuild: orphan implementation object");
          Stats.incr_oids stats;
          Stats.add_pointers stats 2;
          (* recount payload bytes (skip bookkeeping slots) *)
          Array.iter
            (fun (name, v) ->
              if not (String.starts_with ~prefix:"__" name) then
                if not (Value.equal v Value.Null) then
                  Stats.add_data_bytes stats (Value.size_bytes v))
            cell.slots
        | _ -> failwith "Slicing.rebuild: implementation object without owner"));
  t
