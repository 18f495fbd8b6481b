(* Shared machinery of the three workloads: the op recorder (per-kind
   latencies, per-kind registry-counter deltas, failure accounting), the
   in-memory span sink and its per-layer self-time fold, and nearest-rank
   percentiles. *)

module Metrics = Tse_obs.Metrics
module Trace = Tse_obs.Trace
module Trace_analyze = Tse_obs.Trace_analyze

let now = Unix.gettimeofday

(* ---------------- registry counters read around each traced op ------- *)

let counter_names =
  [|
    "wal.bytes_framed";
    "wal.fsyncs";
    "reclass.objects_visited";
    "reclass.formula_evals";
    "reclass.verdict_memo_hits";
    "query.plan_cache_hits";
    "query.plan_cache_misses";
    "query.rows_scanned";
    "query.pushdowns";
    "heap.slot_reads";
    "pool.par_chunks";
    "occ.retries";
  |]

let counters = Array.map (fun n -> Metrics.counter n) counter_names

let counter_index name =
  let rec go i =
    if i = Array.length counter_names then invalid_arg name
    else if String.equal counter_names.(i) name then i
    else go (i + 1)
  in
  go 0

let read_counters () = Array.map Metrics.counter_value counters

(* ---------------- the op recorder ---------------- *)

type recorder = {
  traced : bool;  (* spans, per-op counter deltas and probes are on *)
  lat : (string, float list) Hashtbl.t;  (* kind -> latencies, us *)
  deltas : (string, int array) Hashtbl.t;  (* kind -> summed deltas *)
  kinds : (string, int) Hashtbl.t;  (* kind -> completed ops *)
  probes : (string, float list) Hashtbl.t;  (* probe -> timings, us *)
  mutable attempted : int;
  mutable failed : int;
  mutable probe_s : float;  (* probe time, excluded from the phase *)
  mutable problems : string list;  (* failed checks and failed ops *)
  mutable counts : (string * int) list;  (* deterministic round counts *)
  spans : string list ref;  (* raw JSONL spans of a traced round *)
}

let recorder ~traced =
  {
    traced;
    lat = Hashtbl.create 8;
    deltas = Hashtbl.create 8;
    kinds = Hashtbl.create 8;
    probes = Hashtbl.create 8;
    attempted = 0;
    failed = 0;
    probe_s = 0.;
    problems = [];
    counts = [];
    spans = ref [];
  }

let push tbl k v =
  Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

let problem r fmt =
  Printf.ksprintf (fun msg -> r.problems <- msg :: r.problems) fmt

(* A failed check counts as a failed op. *)
let check r ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        r.failed <- r.failed + 1;
        r.problems <- ("check failed: " ^ msg) :: r.problems
      end)
    fmt

(* Run one public call as an op: timed, wrapped in a [bench.<span>] span
   and bracketed by counter reads when the round is traced. The caller
   names the kind from the result ([classify]), so an evolution can land
   under "evolve" or "reject". An exception is a failed op. *)
let op r ~span ~classify f =
  r.attempted <- r.attempted + 1;
  let before = if r.traced then read_counters () else [||] in
  let t0 = now () in
  match
    if r.traced then Trace.with_span ("bench." ^ span) f else f ()
  with
  | v ->
    let us = (now () -. t0) *. 1e6 in
    let kind = classify v in
    push r.lat kind us;
    Hashtbl.replace r.kinds kind
      (1 + Option.value ~default:0 (Hashtbl.find_opt r.kinds kind));
    if r.traced then begin
      let after = read_counters () in
      let acc =
        match Hashtbl.find_opt r.deltas kind with
        | Some a -> a
        | None ->
          let a = Array.make (Array.length counters) 0 in
          Hashtbl.replace r.deltas kind a;
          a
      in
      Array.iteri (fun i b -> acc.(i) <- acc.(i) + after.(i) - b) before
    end;
    Some v
  | exception e ->
    r.failed <- r.failed + 1;
    problem r "%s raised %s" span (Printexc.to_string e);
    None

(* A timed probe of a public function on the live state: traced rounds
   only, wrapped in its own span, and excluded from the phase time. *)
let probe r name f =
  if r.traced then begin
    let t0 = now () in
    Trace.with_span ("bench.probe." ^ name) f;
    let dt = now () -. t0 in
    r.probe_s <- r.probe_s +. dt;
    push r.probes name (dt *. 1e6)
  end

(* Kinds nest by name: "evolve" covers "evolve.add_attr" and the other
   change kinds an accepted evolution is split into. *)
let within kind k =
  String.equal k kind || String.starts_with ~prefix:(kind ^ ".") k

let kind_count r kind =
  Hashtbl.fold (fun k n acc -> if within kind k then acc + n else acc) r.kinds 0

let delta r kind name =
  let i = counter_index name in
  Hashtbl.fold
    (fun k a acc -> if within kind k then acc + a.(i) else acc)
    r.deltas 0

let latencies r kind =
  Hashtbl.fold
    (fun k xs acc -> if within kind k then List.rev_append xs acc else acc)
    r.lat []

(* ---------------- spans ---------------- *)

let with_span_sink r f =
  if r.traced then begin
    Trace.set_sink (Some (fun line -> r.spans := line :: !(r.spans)));
    Fun.protect ~finally:(fun () -> Trace.set_sink None) f
  end
  else f ()

(* Per (root span, span) self-time in us, plus per-root total duration:
   a bench op is a root, every library span below it is attributed to
   it. *)
type layers = {
  self : (string * string, int) Hashtbl.t;
  root_us : (string, int) Hashtbl.t;
}

let fold_spans lines =
  let spans =
    List.rev_map
      (fun l ->
        match Trace.parse_line l with
        | Ok s -> s
        | Error msg -> failwith ("unparsable span: " ^ msg))
      lines
  in
  let self = Hashtbl.create 64 and root_us = Hashtbl.create 8 in
  let add tbl k v =
    Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let rec walk root (t : Trace_analyze.tree) =
    add self (root, t.span.Trace.name) (Trace_analyze.self_us t);
    List.iter (walk root) t.children
  in
  List.iter
    (fun (t : Trace_analyze.tree) ->
      let root = t.span.Trace.name in
      add root_us root t.span.Trace.dur_us;
      walk root t)
    (Trace_analyze.forest spans);
  { self; root_us }

let self_us ly ~root name =
  Option.value ~default:0 (Hashtbl.find_opt ly.self ("bench." ^ root, name))

let root_us ly root =
  Option.value ~default:0 (Hashtbl.find_opt ly.root_us ("bench." ^ root))

(* ---------------- statistics ---------------- *)

(* Nearest-rank percentile of an unsorted sample, with the number of
   samples strictly beyond the reported rank. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (nan, 0)
  else
    let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
    (a.(rank - 1), n - rank)

let median xs = fst (percentile xs 0.5)

(* Op mixes are fixed per block and only their order is seeded, so every
   seed draws the same share of each op shape. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let ratio_f a b = if b = 0 then 0. else a /. float_of_int b
