type point = { ts_us : int; v : float }

type series = {
  kind : string;  (* "rate" | "gauge" | "quantile" *)
  data : point array;
  mutable head : int;  (* next write position *)
  mutable len : int;
}

type runner = { domain : unit Domain.t; wake_wr : Unix.file_descr }

type t = {
  capacity : int;
  mu : Mutex.t;
  series : (string, series) Hashtbl.t;
  baselines : (string, int) Hashtbl.t;  (* counter/hist-count last values *)
  mutable last_tick_us : int;  (* 0 until the first tick *)
  mutable period_ms : int;
  mutable runner : runner option;
}

let default_interval_ms () =
  match Sys.getenv_opt "TSE_SAMPLE_MS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 250)
  | None -> 250

let create ?(capacity = 600) () =
  if capacity <= 0 then invalid_arg "Timeseries.create: capacity must be > 0";
  {
    capacity;
    mu = Mutex.create ();
    series = Hashtbl.create 64;
    baselines = Hashtbl.create 64;
    last_tick_us = 0;
    period_ms = default_interval_ms ();
    runner = None;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let push t name kind ts_us v =
  let s =
    match Hashtbl.find_opt t.series name with
    | Some s -> s
    | None ->
      let s =
        { kind; data = Array.make t.capacity { ts_us = 0; v = 0. }; head = 0; len = 0 }
      in
      Hashtbl.add t.series name s;
      s
  in
  s.data.(s.head) <- { ts_us; v };
  s.head <- (s.head + 1) mod t.capacity;
  if s.len < t.capacity then s.len <- s.len + 1

(* Counter values only ever regress on a registry [reset]; clamping the
   delta keeps rates non-negative across one and re-baselines after. *)
let delta_of t key value =
  let prev = Hashtbl.find_opt t.baselines key in
  Hashtbl.replace t.baselines key value;
  match prev with
  | None -> None
  | Some p -> Some (if value >= p then value - p else 0)

let sample t =
  let samples = Metrics.snapshot () in
  locked t (fun () ->
      (* ticks are strictly increasing: the rates below divide by dt *)
      let clock = Trace.now_us () in
      let now = if clock > t.last_tick_us then clock else t.last_tick_us + 1 in
      let first = t.last_tick_us = 0 in
      let dt_s = float_of_int (now - t.last_tick_us) /. 1e6 in
      t.last_tick_us <- now;
      List.iter
        (fun s ->
          let key = Metrics.key_of s in
          match s.Metrics.s_value with
          | Metrics.Counter v -> (
            match delta_of t key v with
            | Some d when not first ->
              push t key "rate" now (float_of_int d /. dt_s)
            | _ -> ())
          | Metrics.Gauge v -> push t key "gauge" now v
          | Metrics.Histogram h ->
            (match delta_of t key h.Metrics.h_count with
            | Some d when not first ->
              push t (key ^ ".rate") "rate" now (float_of_int d /. dt_s)
            | _ -> ());
            if h.Metrics.h_count > 0 then begin
              push t (key ^ ".p50") "quantile" now h.Metrics.h_p50;
              push t (key ^ ".p95") "quantile" now h.Metrics.h_p95;
              push t (key ^ ".p99") "quantile" now h.Metrics.h_p99
            end)
        samples)

(* ---- background sampler --------------------------------------------- *)
(* OCaml has no timed condition wait, so the tick loop sleeps in
   [Unix.select] on a wake pipe: a timeout is a tick, a readable byte
   is the stop signal. *)

let start ?interval_ms t =
  let interval =
    match interval_ms with
    | Some n when n > 0 -> n
    | _ -> default_interval_ms ()
  in
  let spawn () =
    let wake_rd, wake_wr = Unix.pipe ~cloexec:true () in
    let period = float_of_int interval /. 1000. in
    let domain =
      Domain.spawn (fun () ->
          let buf = Bytes.create 1 in
          let rec loop () =
            match Unix.select [ wake_rd ] [] [] period with
            | [], _, _ ->
              sample t;
              loop ()
            | _ -> ignore (Unix.read wake_rd buf 0 1)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
          in
          loop ();
          Unix.close wake_rd)
    in
    { domain; wake_wr }
  in
  let fresh =
    locked t (fun () ->
        match t.runner with
        | Some _ -> false
        | None ->
          t.period_ms <- interval;
          t.runner <- Some (spawn ());
          true)
  in
  if fresh then sample t (* establish baselines immediately *)

let stop t =
  (* Take the runner out under the lock, but join outside it: the
     sampler domain takes the same lock on every tick. *)
  let r = locked t (fun () -> let r = t.runner in t.runner <- None; r) in
  match r with
  | None -> ()
  | Some { domain; wake_wr } ->
    (try ignore (Unix.write wake_wr (Bytes.make 1 '\000') 0 1)
     with Unix.Unix_error _ -> ());
    Domain.join domain;
    (try Unix.close wake_wr with Unix.Unix_error _ -> ())

let running t = locked t (fun () -> t.runner <> None)
let interval_ms t = locked t (fun () -> t.period_ms)

let points_of s =
  List.init s.len (fun i ->
      let idx = (s.head - s.len + i + Array.length s.data) mod Array.length s.data in
      let p = s.data.(idx) in
      (p.ts_us, p.v))

let series_names t =
  locked t (fun () ->
      Hashtbl.fold (fun k _ acc -> k :: acc) t.series [])
  |> List.sort compare

let points t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.series name with
      | None -> []
      | Some s -> points_of s)

let last t name =
  match points t name with
  | [] -> None
  | ps -> Some (List.nth ps (List.length ps - 1))

let to_json t =
  let all =
    locked t (fun () ->
        Hashtbl.fold (fun k s acc -> (k, s.kind, points_of s) :: acc) t.series [])
    |> List.sort compare
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"interval_ms\":%d,\"series\":[" (interval_ms t));
  List.iteri
    (fun i (name, kind, pts) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":\"%s\",\"kind\":\"%s\",\"points\":["
           (Metrics.json_escape name) kind);
      List.iteri
        (fun j (ts, v) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "[%d,%.6g]" ts v))
        pts;
      Buffer.add_string buf "]}")
    all;
  Buffer.add_string buf "]}";
  Buffer.contents buf
