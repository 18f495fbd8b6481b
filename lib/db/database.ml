module Oid = Tse_store.Oid
module Value = Tse_store.Value
module Heap = Tse_store.Heap
module Stats = Tse_store.Stats
module Index = Tse_store.Index
module Schema_graph = Tse_schema.Schema_graph
module Klass = Tse_schema.Klass
module Prop = Tse_schema.Prop
module Type_info = Tse_schema.Type_info
module Expr = Tse_schema.Expr
module Deps = Tse_schema.Deps
module Invariants = Tse_schema.Invariants
module Slicing = Tse_objmodel.Slicing

type cid = Klass.cid

let reclassify_fuel = 4

(* A class's global extent and its cardinality. Every mutation goes
   through [extent_add] / [extent_remove], which move [size] only when
   the set really changed, so [size] is the O(1) statistic the query
   planner reads. [check] asserts [size = Oid.Set.cardinal members]. *)
type extent = { mutable members : Oid.Set.t; mutable size : int }

(* Everything derived from the schema, valid for one graph version [at]:
   the derivation order, the dependency index and the compiled select
   predicates (by select cid). [derived] drops the whole record when the
   version moves. *)
type derived = {
  at : int;
  order : cid list Lazy.t;
  deps : Deps.t Lazy.t;
  preds : (Oid.t -> bool) Oid.Tbl.t;
}

(* One maintained attribute index: its key, the index, and the value
   last indexed per object, so a refresh can unindex the old one. *)
type index_entry = {
  ix_cid : cid;
  ix_attr : string;
  ix : Index.t;
  indexed : Value.t Oid.Tbl.t;
}

type t = {
  heap : Heap.t;
  graph : Schema_graph.t;
  model : Slicing.t;
  extents : extent Oid.Tbl.t;
  mutable indexes : index_entry list;
  (* per-object change stamps; made by the first [object_version] *)
  mutable versions : int Oid.Tbl.t option;
  mutable derived : derived;
  mutable full_reclassify : bool;  (* oracle escape hatch *)
  mutable nonconverge_warned : bool;
  mutable nonconvergence_hook : Oid.t -> unit;
}

let default_nonconvergence_hook o =
  Tse_obs.Log.warn "db"
    "derivation fixpoint for object %s did not converge within %d rounds \
     (nonmonotone derivation); memberships may oscillate"
    (Oid.to_string o) (reclassify_fuel + 1)

(* Reclassification-engine counters (see DESIGN.md §9), kept in the
   metrics registry; eval_pred is the hottest. *)
module Metrics = Tse_obs.Metrics

let m_objects_visited = Metrics.counter "reclass.objects_visited"
let m_evals = Metrics.counter "reclass.formula_evals"
let m_noop_skips = Metrics.counter "reclass.verdict_noop_skips"
let m_attr_skips = Metrics.counter "reclass.untouched_attr_skips"
let m_rounds = Metrics.counter "reclass.fixpoint_rounds"
let m_fuel_exhausted = Metrics.counter "reclass.fuel_exhausted"
let m_nonconvergence = Metrics.counter "reclass.nonconvergence_warnings"
let m_compiled_evals = Metrics.counter "reclass.compiled_evals"
let m_pred_compiles = Metrics.counter "reclass.pred_compiles"
let m_populated = Metrics.counter "reclass.populated_objects"
let m_populate_fallbacks = Metrics.counter "reclass.populate_fallbacks"

let env_full_reclassify () =
  match Sys.getenv_opt "DB_FULL_RECLASSIFY" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

(* Virtual classes topologically sorted by the derivation DAG (sources
   first). Base classes do not appear. *)
let compute_derivation_order graph =
  let virtuals =
    List.filter Klass.is_virtual (Schema_graph.classes graph)
  in
  let pending = Oid.Tbl.create 16 in
  List.iter (fun (k : Klass.t) -> Oid.Tbl.replace pending k.cid k) virtuals;
  let order = ref [] in
  let rec emit (k : Klass.t) =
    if Oid.Tbl.mem pending k.cid then begin
      Oid.Tbl.remove pending k.cid;
      List.iter
        (fun src ->
          match Oid.Tbl.find_opt pending src with
          | Some ksrc -> emit ksrc
          | None -> ())
        (Klass.sources k);
      order := k.cid :: !order
    end
  in
  List.iter emit virtuals;
  List.rev !order

let fresh_derived graph =
  {
    at = Schema_graph.version graph;
    order = lazy (compute_derivation_order graph);
    deps = lazy (Deps.compute graph);
    preds = Oid.Tbl.create 16;
  }

let derived t =
  if t.derived.at <> Schema_graph.version t.graph then
    t.derived <- fresh_derived t.graph;
  t.derived

let make ~heap ~graph ~model =
  {
    heap;
    graph;
    model;
    extents = Oid.Tbl.create 64;
    indexes = [];
    versions = None;
    derived = fresh_derived graph;
    full_reclassify = env_full_reclassify ();
    nonconverge_warned = false;
    nonconvergence_hook = default_nonconvergence_hook;
  }

let create () =
  let heap = Heap.create () in
  let graph = Schema_graph.create ~gen:(Heap.gen heap) in
  make ~heap ~graph
    ~model:(Slicing.create ~graph ~heap ~stats:(Stats.create ()))

let object_version t o =
  let tbl =
    match t.versions with
    | Some tbl -> tbl
    | None ->
      let tbl = Oid.Tbl.create 256 in
      t.versions <- Some tbl;
      tbl
  in
  Option.value (Oid.Tbl.find_opt tbl o) ~default:0

(* Nobody has read a stamp before the table exists, so nothing to move. *)
let touch t o =
  match t.versions with
  | None -> ()
  | Some tbl ->
    Oid.Tbl.replace tbl o (1 + Option.value (Oid.Tbl.find_opt tbl o) ~default:0)

let graph t = t.graph
let heap t = t.heap
let model t = t.model
let root t = Schema_graph.root t.graph

let full_reclassify t = t.full_reclassify

let set_full_reclassify t b = t.full_reclassify <- b

let set_nonconvergence_hook t f = t.nonconvergence_hook <- f

let warn_nonconvergence t o =
  Metrics.incr m_nonconvergence;
  if not t.nonconverge_warned then begin
    t.nonconverge_warned <- true;
    t.nonconvergence_hook o
  end

let extent_rec t cid =
  match Oid.Tbl.find_opt t.extents cid with
  | Some e -> e
  | None ->
    let e = { members = Oid.Set.empty; size = 0 } in
    Oid.Tbl.replace t.extents cid e;
    e

(* [Set.add] and [Set.remove] return their argument physically unchanged
   when the element was already present / absent. *)
let extent_add t cid o =
  let e = extent_rec t cid in
  let s = Oid.Set.add o e.members in
  if s != e.members then begin
    e.members <- s;
    e.size <- e.size + 1
  end

let extent_remove t cid o =
  match Oid.Tbl.find_opt t.extents cid with
  | None -> ()
  | Some e ->
    let s = Oid.Set.remove o e.members in
    if s != e.members then begin
      e.members <- s;
      e.size <- e.size - 1
    end

let extent t cid = (extent_rec t cid).members
let extent_list t cid = Oid.Set.elements (extent t cid)
let extent_size t cid = (extent_rec t cid).size

let note_new_class _ _ = ()

let derivation_order t = Lazy.force (derived t).order
let deps t = Lazy.force (derived t).deps

let is_member t o cid = Slicing.is_member t.model o cid
let member_classes t o = Slicing.member_classes t.model o
let objects t = Slicing.objects t.model
let object_count t = Slicing.object_count t.model
let mem_object t o = Slicing.is_object t.model o

(* An object's minimal base-class set is state of its conceptual cell,
   so the heap's logger, snapshot and replay carry it like any other
   slot. Only this module writes the slot. *)
let bases_slot = "__bases"

let base_membership t o =
  if not (mem_object t o) then Oid.Set.empty
  else
    match Heap.get_slot t.heap o bases_slot with
    | Value.List cids ->
      List.fold_left
        (fun acc v ->
          match v with Value.Ref c -> Oid.Set.add c acc | _ -> acc)
        Oid.Set.empty cids
    | _ -> Oid.Set.empty

let write_base_membership heap o cids =
  Heap.set_slot heap o bases_slot
    (Value.List (List.map (fun c -> Value.Ref c) cids))

let membership_set t o =
  List.fold_left
    (fun acc c -> Oid.Set.add c acc)
    Oid.Set.empty (member_classes t o)

(* ------------------------------------------------------------------ *)
(* Property access                                                     *)
(* ------------------------------------------------------------------ *)

(* Resolve which member class's local definition of [name] applies to [o]:
   most specific member class; among unrelated candidates a promoted
   definition wins; remaining ties are a real ambiguity. The candidates
   are the classes the schema lists as declaring [name] that [o] is a
   member of, the root aside, in ascending cid. *)
let resolve_prop t o name =
  let root = root t in
  let candidates =
    Oid.Set.fold
      (fun cid acc ->
        if Oid.equal cid root || not (is_member t o cid) then acc
        else
          match Klass.local_prop (Schema_graph.find_exn t.graph cid) name with
          | Some p -> (cid, p) :: acc
          | None -> acc)
      (Schema_graph.declarers t.graph name)
      []
    |> List.rev
  in
  match candidates with
  | [] -> None
  | [ c ] -> Some c
  | candidates ->
    let not_overridden (cid, _) =
      not
        (List.exists
           (fun (other, _) ->
             (not (Oid.equal other cid))
             && Schema_graph.is_strict_ancestor t.graph ~anc:cid ~desc:other)
           candidates)
    in
    let minimal = List.filter not_overridden candidates in
    (match minimal with
    | [ c ] -> Some c
    | minimal -> begin
      match List.filter (fun (_, (p : Prop.t)) -> p.promoted) minimal with
      | [ c ] -> Some c
      | _ ->
        (* distinct unrelated properties under one name: invocable only
           after renaming (Section 6.1.1) *)
        let distinct_uids =
          List.sort_uniq Int.compare
            (List.map (fun (_, (p : Prop.t)) -> p.uid) minimal)
        in
        if List.length distinct_uids <= 1 then
          (match minimal with c :: _ -> Some c | [] -> None)
        else
          raise
            (Expr.Type_error
               (Printf.sprintf "ambiguous property %s (rename to disambiguate)"
                  name))
    end)

let rec get_prop t o name =
  if not (mem_object t o) then
    invalid_arg
      (Printf.sprintf "Database.get_prop: unknown object %s" (Oid.to_string o));
  match resolve_prop t o name with
  | None -> raise (Expr.Unknown_property name)
  | Some (_cid, p) -> begin
    match p.Prop.body with
    | Prop.Stored _ -> Slicing.get_attr t.model o name
    | Prop.Method e -> Expr.eval (env t o) e
  end

and env t o =
  {
    Expr.self = o;
    get = (fun name -> get_prop t o name);
    member_of =
      (fun cname ->
        match Schema_graph.find_by_name t.graph cname with
        | Some k -> is_member t o k.cid
        | None -> false);
  }

let holds t o e =
  (* an object that lacks the property — or holds a null that cannot be
     ordered — simply does not satisfy the predicate *)
  match Expr.eval_bool (env t o) e with
  | b -> b
  | exception Expr.Unknown_property _ -> false
  | exception Expr.Type_error _ -> false

(* ------------------------------------------------------------------ *)
(* Maintained attribute indexes                                        *)
(* ------------------------------------------------------------------ *)

let m_refreshes = Metrics.counter "query.index_refreshes"

(* (Re)index one object in one entry according to its current state. *)
let refresh_index t e o =
  Metrics.incr m_refreshes;
  let was = Oid.Tbl.find_opt e.indexed o in
  let now =
    if mem_object t o && Oid.Set.mem o (extent t e.ix_cid) then
      match get_prop t o e.ix_attr with v -> Some v | exception _ -> None
    else None
  in
  match (was, now) with
  | Some v, Some v' when Value.equal v v' -> ()
  | _, Some v ->
    Option.iter (fun old -> Index.remove e.ix old o) was;
    Index.add e.ix v o;
    Oid.Tbl.replace e.indexed o v
  | Some old, None ->
    Index.remove e.ix old o;
    Oid.Tbl.remove e.indexed o
  | None, None -> ()

let refresh_indexes t o = List.iter (fun e -> refresh_index t e o) t.indexes

(* Can joining or leaving class [c] move [e]'s view of an object? Only if
   [c] is [e]'s class (the extent test) or declares [e]'s attribute
   locally: attribute resolution picks among the object's member classes
   with a local definition, so no other class changes what the attribute
   resolves to. *)
let index_observes t e c =
  Oid.equal c e.ix_cid
  ||
  match Schema_graph.find t.graph c with
  | Some k -> Klass.has_local_prop k e.ix_attr
  | None -> true

(* One index per key: an ordered one answers both kinds, and a hash one
   asked to be ordered is rebuilt in place, so every holder sees it. *)
let index t kind cid attr =
  let same e = Oid.equal e.ix_cid cid && String.equal e.ix_attr attr in
  match List.find_opt same t.indexes with
  | Some e ->
    if kind = Index.Ordered then Index.make_ordered e.ix;
    e.ix
  | None ->
    let ix = Index.create kind in
    let e = { ix_cid = cid; ix_attr = attr; ix; indexed = Oid.Tbl.create 64 } in
    Oid.Set.iter (refresh_index t e) (extent t cid);
    t.indexes <- e :: t.indexes;
    ix

(* ------------------------------------------------------------------ *)
(* Compiled predicate evaluation                                       *)
(* ------------------------------------------------------------------ *)

(* Binder for Expr_compile: names are resolved once at compile time.

   The attribute fast path rests on a static fact about the whole graph,
   read off the schema's declarer table: when exactly ONE class declares
   a stored local property under [name], per-object resolution can only
   ever pick that class (a non-member raises Unknown_property, a member
   reads its slice at that class, with the declared default standing in
   for an unset slot). That skips the membership tests and candidate
   filtering that [get_prop] pays on every read. Any other shape —
   several declarers, a method, no declarer — falls back to the dynamic
   resolver, which is always correct. *)
let compiled_binder t =
  let b_attr name =
    let declaring =
      match Oid.Set.elements (Schema_graph.declarers t.graph name) with
      | [ cid ] ->
        Option.map
          (fun p -> (cid, p))
          (Klass.local_prop (Schema_graph.find_exn t.graph cid) name)
      | _ -> None
    in
    match declaring with
    | Some (cid, { Prop.body = Prop.Stored { default; _ }; _ }) ->
      let read = Slicing.slot_reader t.model cid name in
      fun o -> begin
        match read o with
        | Some Value.Null -> default
        | Some v -> v
        | None -> raise (Expr.Unknown_property name)
      end
    | _ -> fun o -> get_prop t o name
  in
  let b_member cname =
    match Schema_graph.find_by_name t.graph cname with
    | Some k ->
      let cid = k.Klass.cid in
      fun o -> is_member t o cid
    | None -> fun _ -> false
  in
  {
    Tse_schema.Expr_compile.b_attr;
    b_member;
    b_self = (fun o -> Value.Ref o);
  }

let compile_pred t pred =
  Metrics.incr m_pred_compiles;
  Tse_schema.Expr_compile.compile_pred (compiled_binder t) pred

(* Per-select-class cache of compiled predicates, used by the
   reclassification engine. The oracle path deliberately keeps the
   interpreted [eval_pred] so differential tests compare compiled against
   interpreted evaluation. *)
let compiled_select_pred t cid pred =
  let preds = (derived t).preds in
  match Oid.Tbl.find_opt preds cid with
  | Some fn -> fn
  | None ->
    let fn = compile_pred t pred in
    Oid.Tbl.replace preds cid fn;
    fn

(* ------------------------------------------------------------------ *)
(* Membership fixpoint                                                  *)
(* ------------------------------------------------------------------ *)

let isa_closure t set =
  Oid.Set.fold
    (fun c acc -> Oid.Set.union acc (Schema_graph.ancestors t.graph c))
    set set

(* One shape for the oracle, the engine and the checker: only how a
   select predicate's verdict is obtained differs. *)
let formula_holds_with pred_fn current (k : Klass.t) =
  let mem c = Oid.Set.mem c current in
  match k.kind with
  | Klass.Base -> Oid.Set.mem k.cid current
  | Klass.Virtual d -> begin
    match d with
    | Klass.Select (c, pred) -> mem c && pred_fn k.cid pred
    | Klass.Hide (_, c) -> mem c
    | Klass.Refine (_, c) -> mem c
    | Klass.Refine_from { target; _ } -> mem target
    | Klass.Union (a, b) -> mem a || mem b
    | Klass.Intersect (a, b) -> mem a && mem b
    | Klass.Difference (a, b) -> mem a && not (mem b)
  end

let formula_holds t o current k =
  formula_holds_with (fun _ pred -> holds t o pred) current k

let eval_pred t o pred =
  Metrics.incr m_evals;
  holds t o pred

(* The incremental engine's evaluation path: same verdict as [eval_pred]
   (Expr_compile.compile_pred implements the [holds] contract), obtained
   through the per-select compiled closure. *)
let eval_pred_compiled t o cid pred =
  Metrics.incr m_evals;
  Metrics.incr m_compiled_evals;
  (compiled_select_pred t cid pred) o

(* Desired membership of [o] after one pass over the derivation order.
   Formulas are evaluated IN-ROUND against the set built so far: the
   derivation order guarantees every class's sources were decided earlier
   in the same pass, so one pass computes the complete membership —
   crucially, a class the object remains a member of is never transiently
   absent, which would destroy its implementation slice (and the stored
   data it carries) during synchronization. *)
let membership_round t ~pred_fn ~base_closure ~order =
  let m = ref base_closure in
  List.iter
    (fun cid ->
      let k = Schema_graph.find_exn t.graph cid in
      if formula_holds_with pred_fn !m k then begin
        m := Oid.Set.add cid !m;
        m := Oid.Set.union !m (Schema_graph.ancestors t.graph cid)
      end)
    order;
  Oid.Set.remove (root t) !m

let remove_from_extents t o =
  Oid.Tbl.iter (fun cid _ -> extent_remove t cid o) t.extents


(* The Section 3.2 fixpoint, one loop for the oracle and the engine. They
   differ in two places. A select's verdict: the oracle evaluates the
   interpreted [eval_pred], so differential tests compare it against the
   compiled closure the engine evaluates. The extent index: the oracle
   rebuilds the object's entries with a full per-class sweep, the engine
   applies the per-class deltas. The oracle is the correctness reference
   (DB_FULL_RECLASSIFY=1) and the bench baseline. *)
let run_fixpoint t ~oracle o =
  Metrics.incr m_objects_visited;
  let before = membership_set t o in
  let base_closure = isa_closure t (base_membership t o) in
  let order = derivation_order t in
  let pred_fn =
    if oracle then fun _cid pred -> eval_pred t o pred
    else fun cid pred -> eval_pred_compiled t o cid pred
  in
  (* convergence means: the round's output equals the membership it was
     EVALUATED under. Predicates read the object model (In_class tests,
     attribute resolution through slices), so comparing against the
     previous round's output alone can declare a fixpoint whose verdicts
     were computed against a stale model — e.g. when joining a base class
     makes a select's In_class test true but the output happens to equal
     the base closure. *)
  let rec fix evaluated_under fuel =
    Metrics.incr m_rounds;
    let next = membership_round t ~pred_fn ~base_closure ~order in
    if Oid.Set.equal next evaluated_under then next
    else begin
      Slicing.set_membership t.model o (Oid.Set.elements next);
      if fuel > 0 then fix next (fuel - 1)
      else begin
        (* nonmonotone derivations may not converge *)
        Metrics.incr m_fuel_exhausted;
        Tse_obs.Watchdog.fuel_pressure
          ~what:(if oracle then "oracle" else "incremental");
        warn_nonconvergence t o;
        next
      end
    end
  in
  let final = fix before reclassify_fuel in
  let added = Oid.Set.diff final before in
  let removed = Oid.Set.diff before final in
  if oracle then begin
    remove_from_extents t o;
    Oid.Set.iter (fun cid -> extent_add t cid o) final
  end
  else begin
    Oid.Set.iter (fun c -> extent_add t c o) added;
    Oid.Set.iter (fun c -> extent_remove t c o) removed
  end;
  let moved = not (Oid.Set.is_empty added && Oid.Set.is_empty removed) in
  if moved then
    List.iter
      (fun e ->
        let observes = index_observes t e in
        if Oid.Set.exists observes added || Oid.Set.exists observes removed
        then refresh_index t e o)
      t.indexes;
  moved

(* Settle [o]'s memberships; true when they moved. The callers that
   stamp the change they made ([create_object], [set_attr]) or that move
   no stamp ([populate_class]) settle without stamping. *)
let settle t o = run_fixpoint t ~oracle:t.full_reclassify o

let reclassify t o = if settle t o then touch t o

(* At a settled state an object in a select's source is a member of the
   select exactly when the predicate holds for it, so its membership is
   the verdict the predicate last gave. A write can have moved it only
   where the predicate now says otherwise. *)
let verdict_moved t o cid =
  match (Schema_graph.find_exn t.graph cid).kind with
  | Klass.Virtual (Klass.Select (src, pred)) ->
    is_member t o src
    && not (Bool.equal (eval_pred_compiled t o cid pred) (is_member t o cid))
  | Klass.Base | Klass.Virtual _ -> false

let reclassify_all t = List.iter (reclassify t) (objects t)

(* --- populating a new class ----------------------------------------- *)

(* The extent [k]'s derivation denotes over its sources' current extents
   (Section 3.2). Only a select evaluates anything, and only its own
   predicate. *)
let derived_extent t (k : Klass.t) =
  let ext = extent t in
  match k.kind with
  | Klass.Base -> invalid_arg "Database.populate_class: base class"
  | Klass.Virtual d -> begin
    match d with
    | Klass.Select (s, pred) ->
      Oid.Set.filter (fun o -> eval_pred_compiled t o k.cid pred) (ext s)
    | Klass.Hide (_, s) | Klass.Refine (_, s) -> ext s
    | Klass.Refine_from { target; _ } -> ext target
    | Klass.Union (a, b) -> Oid.Set.union (ext a) (ext b)
    | Klass.Intersect (a, b) -> Oid.Set.inter (ext a) (ext b)
    | Klass.Difference (a, b) -> Oid.Set.diff (ext a) (ext b)
  end

(* The non-root ancestors of [k] whose extents hold [k]'s derived
   extent whatever the objects: those above the class the derivation
   draws every member from (the extent-containment invariant). A
   refine_from's provider side is not among them. *)
let implied_ancestors t (k : Klass.t) =
  let up c = Oid.Set.add c (Schema_graph.ancestors t.graph c) in
  match k.kind with
  | Klass.Base -> Oid.Set.empty
  | Klass.Virtual d -> begin
    match d with
    | Klass.Select (s, _) | Klass.Hide (_, s) | Klass.Refine (_, s)
    | Klass.Difference (s, _) ->
      up s
    | Klass.Refine_from { target; _ } -> up target
    | Klass.Intersect (a, b) -> Oid.Set.union (up a) (up b)
    | Klass.Union (a, b) -> Oid.Set.inter (up a) (up b)
  end

(* Joining a class nobody was a member of changes an object's other
   memberships only through a select that observes the class, or through
   an ancestor the object is not yet in. With neither, the new extent is
   the whole answer and every member gains exactly [cid]: each gets the
   one slice at [cid] (the guard proved it holds every ancestor's), the
   extent is set in one step, and each index decides once whether it
   refreshes the members. The guard checks only the ancestors the
   derivation does not imply. No class a session can have read moved,
   so no change stamp moves either way. *)
let populate_class t cid =
  let k = Schema_graph.find_exn t.graph cid in
  let fixpoint () =
    Metrics.incr m_populate_fallbacks;
    List.fold_left
      (fun acc src -> Oid.Set.union acc (extent t src))
      Oid.Set.empty (Klass.sources k)
    |> Oid.Set.iter (fun o -> ignore (settle t o))
  in
  let observed () =
    not (Oid.Set.is_empty (Deps.selects_on_class (deps t) cid))
  in
  if t.full_reclassify || observed () then fixpoint ()
  else begin
    let members = derived_extent t k in
    let unproved =
      Oid.Set.diff (Schema_graph.ancestors t.graph cid) (implied_ancestors t k)
    in
    let within anc =
      Oid.equal anc (root t) || Oid.Set.subset members (extent t anc)
    in
    if not (Oid.Set.for_all within unproved) then fixpoint ()
    else begin
      Oid.Set.iter (fun o -> Slicing.add_impl t.model o cid) members;
      Metrics.add m_populated (Oid.Set.cardinal members);
      let e = extent_rec t cid in
      e.members <- Oid.Set.union e.members members;
      e.size <- Oid.Set.cardinal e.members;
      (* every member gained exactly [cid], so one test per index
         decides for all of them *)
      List.iter
        (fun ix ->
          if index_observes t ix cid then
            Oid.Set.iter (refresh_index t ix) e.members)
        t.indexes
    end
  end

(* ------------------------------------------------------------------ *)
(* Object lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

let check_set_attr t o name v =
  if not (mem_object t o) then
    invalid_arg
      (Printf.sprintf "Database.set_attr: unknown object %s" (Oid.to_string o));
  match resolve_prop t o name with
  | None -> raise (Expr.Unknown_property name)
  | Some (_, p) -> begin
    match p.Prop.body with
    | Prop.Method _ ->
      raise (Expr.Type_error (Printf.sprintf "%s is a method, not settable" name))
    | Prop.Stored { ty; _ } ->
      if not (Value.conforms v ty) then
        raise
          (Expr.Type_error
             (Format.asprintf "%a does not conform to %a for attribute %s"
                Value.pp v Value.pp_ty ty name))
  end

let set_attr t o name v =
  check_set_attr t o name v;
  Slicing.set_attr t.model o name v;
  touch t o;
  (* a stored-attribute write can only move indexes on that name *)
  List.iter
    (fun e -> if String.equal e.ix_attr name then refresh_index t e o)
    t.indexes;
  if t.full_reclassify then ignore (settle t o)
  else begin
    let dirty = Deps.selects_on_attr (deps t) name in
    (* an attribute no derivation predicate can observe: memberships are
       untouched, skip reclassification entirely. Otherwise only a select
       the attribute feeds can move first; if none did, nothing did. *)
    if Oid.Set.is_empty dirty then Metrics.incr m_attr_skips
    else if Oid.Set.exists (verdict_moved t o) dirty then ignore (settle t o)
    else Metrics.incr m_noop_skips
  end

(* What [later] resolves to for the object depends only on which of the
   classes declaring it the object is a member of. A write to [earlier]
   can move only the memberships its closure names, and none the object
   holds through its base memberships. *)
let write_moves_resolution t o ~earlier ~later =
  let moved = Deps.classes_moved_by_attr (deps t) earlier in
  (not (Oid.Set.is_empty moved))
  &&
  let fixed = isa_closure t (base_membership t o) in
  Oid.Set.exists
    (fun c -> Oid.Set.mem c moved && not (Oid.Set.mem c fixed))
    (Schema_graph.declarers t.graph later)

(* Stored base membership is kept MINIMAL: a class implied by another
   member (as its ancestor) is dropped, and the upward closure is
   recomputed at every reclassification. This is what lets a later
   delete_edge change what an object is a member of — closures are never
   frozen at creation time. *)
let minimal_bases t set =
  Oid.Set.filter
    (fun c ->
      not
        (Oid.Set.exists
           (fun d ->
             (not (Oid.equal c d))
             && Schema_graph.is_strict_ancestor t.graph ~anc:c ~desc:d)
           set))
    set

let destroy_object t o =
  if t.full_reclassify then remove_from_extents t o
  else List.iter (fun c -> extent_remove t c o) (member_classes t o);
  Slicing.destroy_object t.model o;
  touch t o;
  refresh_indexes t o

let create_object ?(init = []) t cid =
  let k = Schema_graph.find_exn t.graph cid in
  if Klass.is_virtual k then
    invalid_arg
      (Printf.sprintf "Database.create_object: %s is virtual" k.name);
  let o = Slicing.create_object t.model cid in
  write_base_membership t.heap o [ cid ];
  (* seed the extent index with the full initial membership (the creation
     class and its ancestors, already materialized by the object model) so
     delta maintenance starts from a consistent membership/extent pair *)
  List.iter (fun c -> extent_add t c o) (member_classes t o);
  touch t o;
  refresh_indexes t o;
  (* classify first so attributes carried by refine slices are storable;
     each assignment re-derives select-class memberships *)
  ignore (settle t o);
  (* all or nothing: a write that raises takes the new object with it,
     so no half-initialized object is left for the next commit to log *)
  (try List.iter (fun (name, v) -> set_attr t o name v) init
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     destroy_object t o;
     Printexc.raise_with_backtrace e bt);
  o

(* The slot is rewritten only when the set moved: an edit that changes
   nothing logs nothing. *)
let edit_bases t o what f =
  if not (mem_object t o) then
    invalid_arg (Printf.sprintf "Database.%s: unknown object" what);
  let bases = base_membership t o in
  let next = minimal_bases t (f bases) in
  if not (Oid.Set.equal next bases) then
    write_base_membership t.heap o (Oid.Set.elements next);
  reclassify t o

let add_base_membership t o cid =
  let k = Schema_graph.find_exn t.graph cid in
  if Klass.is_virtual k then
    invalid_arg "Database.add_base_membership: virtual class";
  edit_bases t o "add_base_membership" (Oid.Set.add cid)

let remove_base_membership t o cid =
  (* expand to the full implied base membership, subtract the class and
     its descendants, and re-minimalize: losing TA-ness this way keeps the
     TeachingStaff-ness the object had through TA *)
  let is_base c = Klass.is_base (Schema_graph.find_exn t.graph c) in
  edit_bases t o "remove_base_membership" (fun bases ->
      let expanded =
        Oid.Set.filter is_base (isa_closure t bases) |> Oid.Set.remove (root t)
      in
      let dead = Oid.Set.add cid (Schema_graph.descendants t.graph cid) in
      Oid.Set.diff expanded dead)

let restore ~heap ~graph =
  let model = Slicing.rebuild ~graph ~heap ~stats:(Stats.create ()) in
  let t = make ~heap ~graph ~model in
  (* extents re-derived from the restored membership facts *)
  List.iter
    (fun o ->
      List.iter (fun cid -> extent_add t cid o) (member_classes t o))
    (objects t);
  t

(* ------------------------------------------------------------------ *)
(* Consistency oracle                                                  *)
(* ------------------------------------------------------------------ *)

let check t =
  let problems = ref (Invariants.check t.graph) in
  let add fmt = Format.kasprintf (fun s -> problems := !problems @ [ s ]) fmt in
  let name_of = Schema_graph.name_of t.graph in
  (* extent index vs model membership *)
  List.iter
    (fun (k : Klass.t) ->
      if not (Oid.equal k.cid (root t)) then begin
        let ext = extent t k.cid in
        List.iter
          (fun o ->
            if not (is_member t o k.cid) then
              add "extent of %s lists non-member %s" k.name (Oid.to_string o))
          (Oid.Set.elements ext)
      end)
    (Schema_graph.classes t.graph);
  List.iter
    (fun o ->
      List.iter
        (fun cid ->
          if not (Oid.Set.mem o (extent t cid)) then
            add "object %s member of %s but missing from its extent"
              (Oid.to_string o) (name_of cid))
        (member_classes t o))
    (objects t);
  (* maintained cardinalities: the planner trusts them without a walk *)
  List.iter
    (fun (k : Klass.t) ->
      match Oid.Tbl.find_opt t.extents k.cid with
      | Some e when e.size <> Oid.Set.cardinal e.members ->
        add "extent of %s counts %d members but holds %d" k.name e.size
          (Oid.Set.cardinal e.members)
      | Some _ | None -> ())
    (Schema_graph.classes t.graph);
  (* is-a extent subset invariant *)
  List.iter
    (fun (k : Klass.t) ->
      List.iter
        (fun sup ->
          if not (Oid.equal sup (root t)) then
            if not (Oid.Set.subset (extent t k.cid) (extent t sup)) then
              add "extent(%s) not a subset of extent(%s)" k.name (name_of sup))
        k.supers)
    (Schema_graph.classes t.graph);
  (* derivation formulas *)
  List.iter
    (fun cid ->
      let k = Schema_graph.find_exn t.graph cid in
      List.iter
        (fun o ->
          let current =
            List.fold_left
              (fun acc c -> Oid.Set.add c acc)
              Oid.Set.empty (member_classes t o)
          in
          let should = formula_holds t o current k in
          let has = Oid.Set.mem cid current in
          if should && not has then
            add "object %s should be a member of %s by its derivation"
              (Oid.to_string o) k.name
          else if has && not should then
            add "object %s is a member of %s against its derivation"
              (Oid.to_string o) k.name)
        (objects t))
    (derivation_order t);
  !problems

let pp_extents ppf t =
  let classes =
    Schema_graph.classes t.graph
    |> List.sort (fun (a : Klass.t) b -> String.compare a.name b.name)
  in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (k : Klass.t) ->
      if not (Oid.equal k.cid (root t)) then
        Format.fprintf ppf "%s: {%s}@ " k.name
          (String.concat ", "
             (List.map Oid.to_string (extent_list t k.cid))))
    classes;
  Format.fprintf ppf "@]"
