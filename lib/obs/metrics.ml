(* Domain-safe metrics.

   A counter is one [Atomic.t] cell: every increment is an atomic RMW,
   so no update is ever lost whichever domain makes it. The pool's one
   fan-out, snapshot encoding, increments no counter, so no cell is
   contended across domains and one per counter suffices. Gauges are
   a single atomic cell (set/add are rare). Histograms take a
   per-histogram mutex: observations happen at batch granularity (group
   sizes, latencies), never per object. The registry itself is guarded
   by one mutex; handle registration happens at module-init time,
   snapshot/reset at reporting time. *)

type counter = {
  c_name : string;
  c_labels : (string * string) list;
  c_cell : int Atomic.t;
}

type gauge = {
  g_name : string;
  g_labels : (string * string) list;
  g_value : float Atomic.t;
}

type histogram = {
  hg_name : string;
  hg_labels : (string * string) list;
  hg_mu : Mutex.t;
  hg_bounds : float array;  (* ascending upper bounds *)
  hg_counts : int array;  (* per-bucket (non-cumulative), length bounds+1; last = +inf *)
  mutable hg_sum : float;
  mutable hg_count : int;
}

type metric = M_counter of counter | M_gauge of gauge | M_histogram of histogram

(* Keyed by name + canonically sorted labels. *)
let registry : (string * (string * string) list, metric) Hashtbl.t =
  Hashtbl.create 64

let reg_mu = Mutex.create ()

let locked f =
  Mutex.lock reg_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_mu) f

let canon labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_histogram _ -> "histogram"

let register name labels make describe =
  locked @@ fun () ->
  let key = (name, canon labels) in
  match Hashtbl.find_opt registry key with
  | Some m -> m
  | None ->
    (* Same name under different labels must keep one kind. *)
    Hashtbl.iter
      (fun (n, _) m ->
        if String.equal n name && not (String.equal (kind_name m) describe)
        then
          invalid_arg
            (Printf.sprintf "Metrics: %s already registered as a %s" name
               (kind_name m)))
      registry;
    let m = make (snd key) in
    Hashtbl.replace registry key m;
    m

let counter ?(labels = []) name =
  match
    register name labels
      (fun labels ->
        M_counter
          {
            c_name = name;
            c_labels = labels;
            c_cell = Atomic.make 0;
          })
      "counter"
  with
  | M_counter c -> c
  | m ->
    invalid_arg
      (Printf.sprintf "Metrics.counter: %s is a %s" name (kind_name m))

let incr c = Atomic.incr c.c_cell
let add c n = ignore (Atomic.fetch_and_add c.c_cell n)
let counter_value c = Atomic.get c.c_cell

let gauge ?(labels = []) name =
  match
    register name labels
      (fun labels ->
        M_gauge { g_name = name; g_labels = labels; g_value = Atomic.make 0. })
      "gauge"
  with
  | M_gauge g -> g
  | m -> invalid_arg (Printf.sprintf "Metrics.gauge: %s is a %s" name (kind_name m))

let set_gauge g v = Atomic.set g.g_value v

let rec add_gauge g v =
  let cur = Atomic.get g.g_value in
  if not (Atomic.compare_and_set g.g_value cur (cur +. v)) then add_gauge g v

let gauge_value g = Atomic.get g.g_value

let default_buckets = [ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.; 2048.; 4096. ]

let histogram ?(labels = []) ?(buckets = default_buckets) name =
  let bounds = Array.of_list (List.sort_uniq compare buckets) in
  match
    register name labels
      (fun labels ->
        M_histogram
          {
            hg_name = name;
            hg_labels = labels;
            hg_mu = Mutex.create ();
            hg_bounds = bounds;
            hg_counts = Array.make (Array.length bounds + 1) 0;
            hg_sum = 0.;
            hg_count = 0;
          })
      "histogram"
  with
  | M_histogram h -> h
  | m ->
    invalid_arg
      (Printf.sprintf "Metrics.histogram: %s is a %s" name (kind_name m))

(* The bucket [v] falls in: the first bound at or above it, or the +inf
   bucket past the last bound. *)
let bucket_of bounds v =
  let n = Array.length bounds in
  let rec go i = if i >= n then n else if v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  let i = bucket_of h.hg_bounds v in
  Mutex.lock h.hg_mu;
  h.hg_counts.(i) <- h.hg_counts.(i) + 1;
  h.hg_sum <- h.hg_sum +. v;
  h.hg_count <- h.hg_count + 1;
  Mutex.unlock h.hg_mu

type hist_snapshot = {
  h_buckets : (float * int) list;
  h_inf : int;
  h_count : int;
  h_sum : float;
  h_p50 : float;
  h_p95 : float;
  h_p99 : float;
}

(* Quantile estimate from cumulative bucket counts: find the first
   bucket whose cumulative count reaches p*count and interpolate
   linearly between its lower and upper bound.  Observations above the
   last finite bound have no upper edge to interpolate toward, so
   quantiles landing in the +inf bucket report the last finite bound (a
   lower bound on the true quantile). *)
let percentile_of (h : hist_snapshot) p =
  if h.h_count = 0 then 0.
  else begin
    let p = Float.max 0. (Float.min 1. p) in
    let target = p *. float_of_int h.h_count in
    let rec go prev_bound prev_cum = function
      | [] -> prev_bound
      | (bound, cum) :: rest ->
        if float_of_int cum >= target && cum > prev_cum then begin
          let frac =
            (target -. float_of_int prev_cum)
            /. float_of_int (cum - prev_cum)
          in
          let frac = Float.max 0. (Float.min 1. frac) in
          prev_bound +. (frac *. (bound -. prev_bound))
        end
        else go bound cum rest
    in
    go 0. 0 h.h_buckets
  end

type value = Counter of int | Gauge of float | Histogram of hist_snapshot

type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_value : value;
}

(* Cumulative counts per bound, Prometheus-style, and the quantiles
   read off them: one shape for a live histogram and for a list of
   observations. *)
let freeze bounds counts ~count ~sum =
  let acc = ref 0 in
  let buckets =
    Array.to_list
      (Array.mapi
         (fun i b ->
           acc := !acc + counts.(i);
           (b, !acc))
         bounds)
  in
  let snap =
    {
      h_buckets = buckets;
      h_inf = counts.(Array.length bounds);
      h_count = count;
      h_sum = sum;
      h_p50 = 0.;
      h_p95 = 0.;
      h_p99 = 0.;
    }
  in
  {
    snap with
    h_p50 = percentile_of snap 0.50;
    h_p95 = percentile_of snap 0.95;
    h_p99 = percentile_of snap 0.99;
  }

let snapshot_hist h =
  Mutex.lock h.hg_mu;
  let counts = Array.copy h.hg_counts in
  let count = h.hg_count and sum = h.hg_sum in
  Mutex.unlock h.hg_mu;
  freeze h.hg_bounds counts ~count ~sum

module Histogram = struct
  let percentile_of = percentile_of
  let percentile h p = percentile_of (snapshot_hist h) p

  (* Pure constructor: fold a list of raw observations into a
     [hist_snapshot] without touching the registry.  The uniform way for
     benches and harnesses to turn collected latencies into a quantile
     table instead of hand-rolling sort + index arithmetic. *)
  let of_observations ?(buckets = default_buckets) obs =
    let bounds = Array.of_list (List.sort_uniq compare buckets) in
    let counts = Array.make (Array.length bounds + 1) 0 in
    List.iter
      (fun v ->
        let i = bucket_of bounds v in
        counts.(i) <- counts.(i) + 1)
      obs;
    freeze bounds counts ~count:(List.length obs)
      ~sum:(List.fold_left ( +. ) 0. obs)
end

let snapshot () =
  locked (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry [])
  |> List.map (fun m ->
         match m with
         | M_counter c ->
           {
             s_name = c.c_name;
             s_labels = c.c_labels;
             s_value = Counter (counter_value c);
           }
         | M_gauge g ->
           {
             s_name = g.g_name;
             s_labels = g.g_labels;
             s_value = Gauge (Atomic.get g.g_value);
           }
         | M_histogram h ->
           {
             s_name = h.hg_name;
             s_labels = h.hg_labels;
             s_value = Histogram (snapshot_hist h);
           })
  |> List.sort (fun a b ->
         match String.compare a.s_name b.s_name with
         | 0 -> compare a.s_labels b.s_labels
         | c -> c)

let find_counter ?(labels = []) name =
  match locked (fun () -> Hashtbl.find_opt registry (name, canon labels)) with
  | Some (M_counter c) -> counter_value c
  | _ -> 0

let reset () =
  locked @@ fun () ->
  Hashtbl.iter
    (fun _ m ->
      match m with
      | M_counter c -> Atomic.set c.c_cell 0
      | M_gauge g -> Atomic.set g.g_value 0.
      | M_histogram h ->
        Mutex.lock h.hg_mu;
        Array.fill h.hg_counts 0 (Array.length h.hg_counts) 0;
        h.hg_sum <- 0.;
        h.hg_count <- 0;
        Mutex.unlock h.hg_mu)
    registry

let nonzero samples =
  List.filter
    (fun s ->
      match s.s_value with
      | Counter 0 -> false
      | Gauge v -> v <> 0.
      | Histogram h -> h.h_count > 0
      | Counter _ -> true)
    samples

(* ---- rendering ------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let key_of s =
  match s.s_labels with
  | [] -> s.s_name
  | labels ->
    let body =
      String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels)
    in
    Printf.sprintf "%s{%s}" s.s_name body

let bound_str b =
  if Float.is_integer b then Printf.sprintf "%.0f" b else Printf.sprintf "%g" b

let to_json samples =
  let buf = Buffer.create 1024 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":" (json_escape (key_of s)));
      match s.s_value with
      | Counter n -> Buffer.add_string buf (string_of_int n)
      | Gauge v -> Buffer.add_string buf (float_str v)
      | Histogram h ->
        Buffer.add_string buf
          (Printf.sprintf "{\"count\":%d,\"sum\":%s,\"buckets\":{" h.h_count
             (float_str h.h_sum));
        List.iteri
          (fun j (b, c) ->
            if j > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf
              (Printf.sprintf "\"le_%s\":%d" (json_escape (bound_str b)) c))
          h.h_buckets;
        if h.h_buckets <> [] then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "\"le_inf\":%d}}" h.h_count))
    samples;
  Buffer.add_char buf '}';
  Buffer.contents buf

let pp_text ppf samples =
  List.iter
    (fun s ->
      match s.s_value with
      | Counter n -> Format.fprintf ppf "%-42s %d@." (key_of s) n
      | Gauge v -> Format.fprintf ppf "%-42s %s@." (key_of s) (float_str v)
      | Histogram h ->
        Format.fprintf ppf "%-42s count=%d sum=%s@." (key_of s) h.h_count
          (float_str h.h_sum);
        List.iter
          (fun (b, c) ->
            Format.fprintf ppf "%-42s   le %s: %d@." "" (bound_str b) c)
          h.h_buckets;
        Format.fprintf ppf "%-42s   le +inf: %d@." "" h.h_count)
    samples
