module Oid = Tse_store.Oid
module Value = Tse_store.Value
module Expr = Tse_schema.Expr
module Database = Tse_db.Database
module Index = Tse_store.Index
module Metrics = Tse_obs.Metrics
module Trace = Tse_obs.Trace

type cid = Tse_schema.Klass.cid

type plan =
  | Index_lookup of { attr : string; kind : Indexes.kind; residual : bool }
  | Range_scan of { attr : string; residual : bool }
  | Extent_scan

let m_selects = Metrics.counter "query.selects"
let m_index_lookups = Metrics.counter "query.index_lookups"
let m_range_scans = Metrics.counter "query.range_scans"
let m_extent_scans = Metrics.counter "query.extent_scans"
let m_rows_scanned = Metrics.counter "query.rows_scanned"
let m_rows_returned = Metrics.counter "query.rows_returned"
let m_pushdowns = Metrics.counter "query.pushdowns"

(* --- access-path selection ----------------------------------------------

   Chosen per execution, from the artifact compiled for that execution:
   index availability and cardinalities move without a schema change. *)

type access =
  | A_eq of {
      a_depth : int;
      a_attr : string;
      a_index : Index.t;
      a_value : Value.t;
      a_consumed : Compile.fact list;
    }
  | A_range of {
      a_depth : int;
      a_attr : string;
      a_index : Index.t;
      a_lo : Index.bound option;
      a_hi : Index.bound option;
      a_consumed : Compile.fact list;
    }
  | A_scan

(* Planning levels: the queried class itself, then each Select ancestor.
   At depth [d] the sargable conjuncts are the query's own plus those of
   every select predicate between the queried class and that ancestor —
   membership in the queried extent implies all of them, so an ancestor
   index probe only needs intersecting back with the queried extent. *)
let levels (compiled : Compile.compiled) cid =
  let rec go cls depth conjs chain acc =
    let acc = (cls, depth, conjs) :: acc in
    match chain with
    | [] -> List.rev acc
    | (src, cs) :: rest -> go src (depth + 1) (conjs @ cs) rest acc
  in
  let own =
    List.map (fun (c : Compile.conjunct) -> c.c_fact) compiled.cp_conjuncts
  in
  go cid 0 own compiled.Compile.cp_chain []

let bound_of_cmp op v =
  match op with
  | Expr.Gt -> `Lo (v, false)
  | Expr.Ge -> `Lo (v, true)
  | Expr.Lt -> `Hi (v, false)
  | Expr.Le -> `Hi (v, true)
  | Expr.Eq | Expr.Ne -> `None

(* Candidate paths at one level, with their estimated candidate counts. *)
let level_candidates ~key_cardinality indexes (cls, depth, conjs) =
  let avg_bucket attr =
    match (Indexes.entry_count indexes cls attr, key_cardinality cls attr) with
    | Some n, Some k -> (n + Stdlib.max 1 k - 1) / Stdlib.max 1 k
    | _ -> Stdlib.max_int
  in
  (* equality probes: both index kinds answer them *)
  let eqs =
    List.filter_map
      (fun (c : Compile.fact) ->
        match c.c_sarg with
        | Some (Compile.Sarg_eq (a, v)) ->
          Option.map
            (fun ix ->
              ( avg_bucket a,
                A_eq
                  {
                    a_depth = depth;
                    a_attr = a;
                    a_index = ix;
                    a_value = v;
                    a_consumed = [ c ];
                  } ))
            (Indexes.find indexes cls a)
        | _ -> None)
      conjs
  in
  (* range windows: collect the first lower and first upper bound per
     ordered-indexed attribute; further range conjuncts on the same
     attribute stay in the residual *)
  let range_attrs =
    List.filter_map
      (fun (c : Compile.fact) ->
        match c.c_sarg with
        | Some (Compile.Sarg_cmp (a, _, _)) -> (
          match Indexes.find indexes cls a with
          | Some ix when Index.kind ix = Indexes.Ordered -> Some (a, ix)
          | _ -> None)
        | _ -> None)
      conjs
    |> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b)
  in
  let ranges =
    List.filter_map
      (fun (a, ix) ->
        let lo = ref None and hi = ref None and consumed = ref [] in
        List.iter
          (fun (c : Compile.fact) ->
            match c.c_sarg with
            | Some (Compile.Sarg_cmp (a', op, v)) when String.equal a a' -> begin
              match bound_of_cmp op v with
              | `Lo b when !lo = None ->
                lo := Some b;
                consumed := c :: !consumed
              | `Hi b when !hi = None ->
                hi := Some b;
                consumed := c :: !consumed
              | _ -> ()
            end
            | _ -> ())
          conjs;
        if !lo = None && !hi = None then None
        else
          let pop = Index.cardinal ix in
          (* crude textbook selectivity: 1/2 per open side, 1/4 boxed *)
          let est = if !lo <> None && !hi <> None then pop / 4 else pop / 2 in
          Some
            ( est,
              A_range
                {
                  a_depth = depth;
                  a_attr = a;
                  a_index = ix;
                  a_lo = !lo;
                  a_hi = !hi;
                  a_consumed = !consumed;
                } ))
      range_attrs
  in
  eqs @ ranges

(* Every statistic weighed here is a maintained count read in O(1): the
   scan cost is the queried extent's size, and the index entry and
   distinct-key counts are kept by the index structures themselves.
   [scan_cost] and [key_cardinality] override them (see [choose]). *)
let choose_access ?scan_cost ?key_cardinality db indexes cid compiled =
  let scan_cost =
    Option.value scan_cost ~default:(Database.extent_size db cid)
  in
  let key_cardinality =
    Option.value key_cardinality ~default:(Indexes.key_cardinality indexes)
  in
  let candidates =
    List.concat_map
      (level_candidates ~key_cardinality indexes)
      (levels compiled cid)
  in
  let best =
    List.fold_left
      (fun best (est, a) ->
        match best with
        | Some (best_est, _) when best_est <= est -> best
        | _ -> Some (est, a))
      None candidates
  in
  match best with
  | Some (est, a) when est <= scan_cost -> a
  | _ -> A_scan

let plan_of_access residual = function
  | A_eq { a_attr; a_index; _ } ->
    Index_lookup { attr = a_attr; kind = Index.kind a_index; residual }
  | A_range { a_attr; _ } -> Range_scan { attr = a_attr; residual }
  | A_scan -> Extent_scan

let depth_of_access = function
  | A_eq { a_depth; _ } | A_range { a_depth; _ } -> a_depth
  | A_scan -> 0

(* Residual evaluation: the un-consumed query conjuncts, in compiled cost
   order, under whole-chain error absorption (Database.holds contract).
   Conjuncts implied by the access path are skipped: an index hit proves
   its own conjunct, and intersection with the queried extent proves every
   pushed select predicate. An error reads as false, so the order of the
   conjuncts cannot change the verdict; an extent scan checks them all. *)
let residual_conjuncts (compiled : Compile.compiled) consumed =
  List.filter
    (fun (c : Compile.conjunct) -> not (List.memq c.c_fact consumed))
    compiled.Compile.cp_conjuncts

let residual_eval cs o =
  match List.for_all (fun (c : Compile.conjunct) -> c.Compile.c_eval o) cs with
  | b -> b
  | exception (Expr.Unknown_property _ | Expr.Type_error _) -> false

(* --- the access-path executor -------------------------------------------

   [select] and [count] share it: it runs the chosen index probe (or the
   extent scan) and hands back the candidates together with the conjuncts
   still to be checked on them. *)

type run = {
  r_plan : plan;  (* the plan that actually ran *)
  r_index : (string * Index.t) option;  (* the probed index *)
  r_depth : int;
  r_scanned : int;
  r_candidates : Oid.Set.t;
  r_residual : Compile.conjunct list;
}

let execute db indexes cid compiled =
  let scan () =
    {
      r_plan = Extent_scan;
      r_index = None;
      r_depth = 0;
      r_scanned = Database.extent_size db cid;
      r_candidates = Database.extent db cid;
      r_residual = compiled.Compile.cp_conjuncts;
    }
  in
  let probe access depth attr ix consumed bucket =
    (* an ancestor probe overshoots the queried extent; intersecting
       back both restricts it and discharges every pushed predicate *)
    let candidates =
      if depth > 0 then Oid.Set.inter bucket (Database.extent db cid)
      else bucket
    in
    let residual = residual_conjuncts compiled consumed in
    {
      r_plan = plan_of_access (residual <> []) access;
      r_index = Some (attr, ix);
      r_depth = depth;
      r_scanned = Oid.Set.cardinal candidates;
      r_candidates = candidates;
      r_residual = residual;
    }
  in
  match choose_access db indexes cid compiled with
  | A_scan -> scan ()
  | A_eq { a_depth; a_attr; a_index; a_value; a_consumed; _ } as access ->
    probe access a_depth a_attr a_index a_consumed (Index.lookup a_index a_value)
  | A_range { a_depth; a_attr; a_index; a_lo; a_hi; a_consumed; _ } as access ->
    probe access a_depth a_attr a_index a_consumed
      (Index.range a_index ~lo:a_lo ~hi:a_hi)

type explain = {
  ex_plan : plan;  (* the plan that actually ran *)
  chosen_index : string option;
  key_cardinality : int option;
  conjunct_order : Expr.t list;
  pushdown_depth : int;
  rows_scanned : int;
  rows_returned : int;
}

let choose ?scan_cost ?key_cardinality db indexes cid pred =
  let compiled = Compile.compile db cid pred in
  let access =
    choose_access ?scan_cost ?key_cardinality db indexes cid compiled
  in
  let residual =
    match access with
    | A_eq { a_consumed; _ } | A_range { a_consumed; _ } ->
      residual_conjuncts compiled a_consumed <> []
    | A_scan -> false
  in
  (plan_of_access residual access, depth_of_access access)

let plan db indexes cid pred = fst (choose db indexes cid pred)

(* One instrumented core: every select goes through here so the explain
   numbers and the registry counters describe the execution that really
   happened. *)
let select_explain db indexes cid pred =
  Metrics.incr m_selects;
  Trace.with_span "query.select" @@ fun () ->
  let compiled = Compile.compile db cid pred in
  let r = execute db indexes cid compiled in
  let result =
    if r.r_residual = [] then r.r_candidates
    else Oid.Set.filter (residual_eval r.r_residual) r.r_candidates
  in
  if r.r_depth > 0 then Metrics.incr m_pushdowns;
  (match r.r_plan with
  | Index_lookup _ -> Metrics.incr m_index_lookups
  | Range_scan _ -> Metrics.incr m_range_scans
  | Extent_scan -> Metrics.incr m_extent_scans);
  let returned = Oid.Set.cardinal result in
  Metrics.add m_rows_scanned r.r_scanned;
  Metrics.add m_rows_returned returned;
  ( {
      ex_plan = r.r_plan;
      chosen_index = Option.map fst r.r_index;
      key_cardinality = Option.map (fun (_, ix) -> Index.distinct_keys ix) r.r_index;
      conjunct_order =
        List.map
          (fun (c : Compile.conjunct) -> c.c_fact.c_expr)
          compiled.Compile.cp_conjuncts;
      pushdown_depth = r.r_depth;
      rows_scanned = r.r_scanned;
      rows_returned = returned;
    },
    result )

let select db indexes cid pred = snd (select_explain db indexes cid pred)
let explain db indexes cid pred = fst (select_explain db indexes cid pred)

(* Count without materializing a result set: fold the residual over the
   executor's candidates. *)
let count db indexes cid pred =
  let r = execute db indexes cid (Compile.compile db cid pred) in
  Metrics.add m_rows_scanned r.r_scanned;
  if r.r_residual = [] then r.r_scanned
  else
    Oid.Set.fold
      (fun o n -> if residual_eval r.r_residual o then n + 1 else n)
      r.r_candidates 0

let kind_name = function Indexes.Hash -> "hash" | Indexes.Ordered -> "range"

let pp_plan ppf = function
  | Index_lookup { attr; kind; residual } ->
    Format.fprintf ppf "index lookup (%s) on %s%s" (kind_name kind) attr
      (if residual then " + residual filter" else "")
  | Range_scan { attr; residual } ->
    Format.fprintf ppf "range index scan on %s%s" attr
      (if residual then " + residual filter" else "")
  | Extent_scan -> Format.pp_print_string ppf "extent scan"

let pp_explain ppf e =
  Format.fprintf ppf
    "@[<v>plan: %a@ index: %s@ key cardinality: %s@ conjunct order: %s@ \
     pushdown depth: %d@ rows scanned: %d@ rows returned: %d@]"
    pp_plan e.ex_plan
    (Option.value e.chosen_index ~default:"-")
    (match e.key_cardinality with Some n -> string_of_int n | None -> "-")
    (match e.conjunct_order with
    | [] -> "-"
    | cs -> String.concat "; " (List.map Expr.to_string cs))
    e.pushdown_depth e.rows_scanned e.rows_returned
