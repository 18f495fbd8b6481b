(* Fixed-size domain pool with chunked work-sharing.

   [size - 1] persistent workers park on a condition variable; the
   coordinator publishes a job (bump of [epoch] under the mutex), all
   domains — coordinator included — pull contiguous chunks off a shared
   atomic cursor, and the domain that completes the last chunk wakes the
   coordinator.  Workers that sleep through an entire job simply join
   the newest one (or park again): completion is tracked by a per-job
   [remaining] counter, never by counting workers, so a stolen schedule
   can't deadlock.  Chunks are claimed in ascending order but may finish
   out of order; callers that need ordered results use [map_chunks],
   which writes each chunk's result into its own slot.

   A size-1 pool spawns nothing and runs the single chunk [0, n)
   inline (no atomics, no extra metrics), which is the default
   TSE_DOMAINS=1 configuration.

   The one caller is [Snapshot.to_string], which renders OID-range
   chunks of the heap in parallel (DESIGN.md §13 has the measurements
   that kept it). *)

module Metrics = Tse_obs.Metrics

let m_jobs = Metrics.counter "pool.par_jobs"
let m_chunks = Metrics.counter "pool.par_chunks"

type job = {
  chunks : (int * int) array;
  cursor : int Atomic.t;  (* next chunk index to claim *)
  remaining : int Atomic.t;  (* chunks not yet completed *)
  jf : lo:int -> hi:int -> unit;
  failed : exn option Atomic.t;  (* first exception, wins by CAS *)
}

type t = {
  size : int;
  mu : Mutex.t;
  work_cond : Condition.t;  (* workers: a new epoch or stop *)
  done_cond : Condition.t;  (* coordinator: last chunk completed *)
  mutable job : job option;
  mutable epoch : int;
  mutable stop : bool;
  mutable busy : bool;  (* reentrancy guard, coordinator-only *)
  mutable workers : unit Domain.t array;
}

let clamp_size n = if n < 1 then 1 else if n > 64 then 64 else n

let chunk_ranges ~size ~n =
  if n <= 0 then []
  else begin
    let pieces = if size <= 1 then 1 else min n (size * 4) in
    let base = n / pieces and rem = n mod pieces in
    let ranges = ref [] and lo = ref 0 in
    for i = 0 to pieces - 1 do
      let len = base + if i < rem then 1 else 0 in
      ranges := (!lo, !lo + len) :: !ranges;
      lo := !lo + len
    done;
    List.rev !ranges
  end

let run_chunks t j =
  let nchunks = Array.length j.chunks in
  let rec loop () =
    let i = Atomic.fetch_and_add j.cursor 1 in
    if i < nchunks then begin
      let lo, hi = j.chunks.(i) in
      (try j.jf ~lo ~hi
       with e -> ignore (Atomic.compare_and_set j.failed None (Some e)));
      if Atomic.fetch_and_add j.remaining (-1) = 1 then begin
        (* Last chunk: wake the coordinator.  Lock/unlock pairs with the
           coordinator's wait loop so the signal can't be lost. *)
        Mutex.lock t.mu;
        Condition.broadcast t.done_cond;
        Mutex.unlock t.mu
      end;
      loop ()
    end
  in
  loop ()

let worker t () =
  let last_epoch = ref 0 in
  let rec loop () =
    Mutex.lock t.mu;
    while (not t.stop) && t.epoch = !last_epoch do
      Condition.wait t.work_cond t.mu
    done;
    if t.stop then Mutex.unlock t.mu
    else begin
      last_epoch := t.epoch;
      let j = t.job in
      Mutex.unlock t.mu;
      (match j with Some j -> run_chunks t j | None -> ());
      loop ()
    end
  in
  loop ()

let create size =
  let size = clamp_size size in
  let t =
    {
      size;
      mu = Mutex.create ();
      work_cond = Condition.create ();
      done_cond = Condition.create ();
      job = None;
      epoch = 0;
      stop = false;
      busy = false;
      workers = [||];
    }
  in
  if size > 1 then
    t.workers <- Array.init (size - 1) (fun _ -> Domain.spawn (worker t));
  t

let size t = t.size

let shutdown t =
  if Array.length t.workers > 0 then begin
    Mutex.lock t.mu;
    t.stop <- true;
    Condition.broadcast t.work_cond;
    Mutex.unlock t.mu;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let run t ~n f =
  match chunk_ranges ~size:t.size ~n with
  | [] -> ()
  | [ (lo, hi) ] -> f ~lo ~hi
  | ranges ->
    if t.busy then
      invalid_arg "Pool.run: reentrant use of a pool from inside its own job";
    t.busy <- true;
    let chunks = Array.of_list ranges in
    let j =
      {
        chunks;
        cursor = Atomic.make 0;
        remaining = Atomic.make (Array.length chunks);
        jf = f;
        failed = Atomic.make None;
      }
    in
    Metrics.incr m_jobs;
    Metrics.add m_chunks (Array.length chunks);
    Mutex.lock t.mu;
    t.job <- Some j;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work_cond;
    Mutex.unlock t.mu;
    (* The coordinator works too. *)
    run_chunks t j;
    Mutex.lock t.mu;
    while Atomic.get j.remaining > 0 do
      Condition.wait t.done_cond t.mu
    done;
    t.job <- None;
    Mutex.unlock t.mu;
    t.busy <- false;
    (match Atomic.get j.failed with Some e -> raise e | None -> ())

let map_chunks t ~n f =
  let ranges = Array.of_list (chunk_ranges ~size:t.size ~n) in
  let out = Array.make (Array.length ranges) None in
  let idx_of = Hashtbl.create (Array.length ranges) in
  Array.iteri (fun i (lo, _) -> Hashtbl.replace idx_of lo i) ranges;
  run t ~n (fun ~lo ~hi ->
      out.(Hashtbl.find idx_of lo) <- Some (f ~lo ~hi));
  Array.to_list out |> List.map Option.get

(* ---- global pool ----------------------------------------------------- *)

let env_int name ~default =
  match Sys.getenv_opt name with
  | Some s -> (match int_of_string_opt (String.trim s) with Some n -> n | None -> default)
  | None -> default

let default_domains () = clamp_size (env_int "TSE_DOMAINS" ~default:1)

let g_pool : t option ref = ref None
let g_gauge = Metrics.gauge "pool.domains"

let global () =
  match !g_pool with
  | Some t -> t
  | None ->
    let t = create (default_domains ()) in
    Metrics.set_gauge g_gauge (float_of_int t.size);
    g_pool := Some t;
    t

let set_global_size n =
  (match !g_pool with Some t -> shutdown t | None -> ());
  let t = create (clamp_size n) in
  Metrics.set_gauge g_gauge (float_of_int t.size);
  g_pool := Some t
