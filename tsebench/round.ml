(* One round of a workload: a fresh set-up, a fixed op sequence drawn
   from (seed, round) (the measured phase), then untimed output checks.
   Round i of every run with one seed replays the same inputs. *)

open Common

type t = {
  r : recorder;
  setup_s : float;
  phase_s : float;  (* wall time of the op sequence, probes excluded *)
  cpu_s : float;  (* process CPU time of the phase, probes included *)
  alloc_kb : float;  (* allocated during the phase *)
  majors : int;  (* major collections during the phase *)
  live_words : int;  (* live heap right after the phase *)
  totals : (string * int) list;  (* registry counter deltas, whole phase *)
  fsync_ms : float * int;  (* wal.fsync_ms histogram sum and count delta *)
  layers : layers option;  (* span self-times, traced rounds *)
}

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let fsync_hist () =
  List.fold_left
    (fun acc (s : Metrics.sample) ->
      match s.Metrics.s_value with
      | Metrics.Histogram h when String.equal s.Metrics.s_name "wal.fsync_ms" ->
        (h.Metrics.h_sum, h.Metrics.h_count)
      | _ -> acc)
    (0., 0) (Metrics.snapshot ())

(* Compacts first, so the figure depends on the state, not on GC pacing. *)
let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

let measure r phase =
  Gc.compact ();
  let c0 = read_counters () in
  let f0_sum, f0_n = fsync_hist () in
  let w0 = allocated_words () in
  let m0 = (Gc.quick_stat ()).Gc.major_collections in
  let cpu () = let t = Unix.times () in t.Unix.tms_utime +. t.Unix.tms_stime in
  let cpu0 = cpu () in
  let t0 = now () in
  with_span_sink r phase;
  let elapsed = now () -. t0 in
  let cpu_s = cpu () -. cpu0 in
  let m1 = (Gc.quick_stat ()).Gc.major_collections in
  let w1 = allocated_words () in
  let f1_sum, f1_n = fsync_hist () in
  let c1 = read_counters () in
  let live_words = live_words () in
  {
    live_words;
    fsync_ms = (f1_sum -. f0_sum, f1_n - f0_n);
    r;
    setup_s = 0.;
    phase_s = elapsed -. r.probe_s;
    cpu_s;
    alloc_kb = (w1 -. w0) *. float_of_int (Sys.word_size / 8) /. 1024.;
    majors = m1 - m0;
    totals =
      Array.to_list
        (Array.mapi (fun i n -> (n, c1.(i) - c0.(i))) counter_names);
    layers = (if r.traced then Some (fold_spans !(r.spans)) else None);
  }

(* The consistency oracles every workload ends with. *)
let consistent r db =
  (match Tse_db.Database.check db with
  | [] -> ()
  | ps -> check r false "Database.check: %s" (String.concat "; " ps));
  match Tse_schema.Invariants.check (Tse_db.Database.graph db) with
  | [] -> ()
  | ps -> check r false "Invariants.check: %s" (String.concat "; " ps)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()
