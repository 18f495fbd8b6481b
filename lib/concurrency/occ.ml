module Oid = Tse_store.Oid
module Value = Tse_store.Value
module Database = Tse_db.Database
module Metrics = Tse_obs.Metrics

let m_sessions = Metrics.counter "occ.sessions"
let m_commits = Metrics.counter "occ.commits"
let m_conflicts = Metrics.counter "occ.conflicts"
let m_aborts = Metrics.counter "occ.aborts"
let m_retries = Metrics.counter "occ.retries"

type t = Database.t

type session = {
  db : Database.t;
  read_set : int Oid.Tbl.t;  (* object -> version when first read *)
  (* buffered writes, newest first *)
  mutable write_log : (Oid.t * string * Value.t) list;
  mutable active : bool;
}

type conflict = { objects : Oid.t list }

exception Unsafe_write_order of { obj : Oid.t; earlier : string; later : string }

let db t = t
let create db = db

let begin_session db =
  Metrics.incr m_sessions;
  { db; read_set = Oid.Tbl.create 16; write_log = []; active = true }

let check_active s what =
  if not s.active then
    invalid_arg (Printf.sprintf "Occ.%s: session already finished" what)

let track_read s o =
  if not (Oid.Tbl.mem s.read_set o) then
    Oid.Tbl.replace s.read_set o (Database.object_version s.db o)

let read s o name =
  check_active s "read";
  track_read s o;
  (* the session sees its own newest buffered write *)
  match
    List.find_opt
      (fun (o', n, _) -> Oid.equal o o' && String.equal n name)
      s.write_log
  with
  | Some (_, _, v) -> v
  | None -> Database.get_prop s.db o name

let write s o name v =
  check_active s "write";
  track_read s o;
  s.write_log <- (o, name, v) :: s.write_log

let validate s =
  Oid.Tbl.fold
    (fun o seen acc ->
      if Database.object_version s.db o <> seen then o :: acc else acc)
    s.read_set []

(* No write may name an attribute whose resolution an earlier write of
   the same object can move: the later write could raise mid-apply. *)
let rec check_order db = function
  | [] -> ()
  | (o, earlier, _) :: rest ->
    List.iter
      (fun (o', later, _) ->
        if Oid.equal o o' && Database.write_moves_resolution db o ~earlier ~later
        then raise (Unsafe_write_order { obj = o; earlier; later }))
      rest;
    check_order db rest

let commit s =
  check_active s "commit";
  s.active <- false;
  match validate s with
  | [] ->
    let writes = List.rev s.write_log in
    (* check every write and their order before applying any, so a bad
       one raises with nothing changed; then apply, each moving the
       object's stamp, which is what makes this commit visible to
       concurrent validators *)
    List.iter (fun (o, name, v) -> Database.check_set_attr s.db o name v) writes;
    check_order s.db writes;
    List.iter (fun (o, name, v) -> Database.set_attr s.db o name v) writes;
    Metrics.incr m_commits;
    Ok ()
  | objects ->
    Metrics.incr m_conflicts;
    Error { objects = List.sort_uniq Oid.compare objects }

let abort s =
  Metrics.incr m_aborts;
  s.active <- false
let is_active s = s.active
let reads s = Oid.Tbl.length s.read_set
let writes s = List.length s.write_log

exception Too_many_conflicts of conflict

let m_retry_exhausted = Metrics.counter "occ.retry_exhausted"

(* Process-wide default jitter source: seeded, so retry schedules are
   reproducible run to run, yet uncorrelated between the retrying
   sessions of one run. *)
let default_jitter = lazy (Random.State.make [| 0x0cc; 0x7e57ed |])

(* Run [f] against fresh sessions until one commits, sleeping between
   attempts with bounded, jittered linear backoff. Each retry re-reads
   through a new session, so the body observes the state the conflicting
   commit left. With [?durable] the winning validation is also appended
   to the durable log as one batch — under that handle's sync policy, so
   a grouped or manual policy amortizes the fsync across many retrying
   writers. *)
let commit_with_retry ?(attempts = 5) ?(backoff = 0.001) ?jitter ?durable t f =
  if attempts < 1 then invalid_arg "Occ.commit_with_retry: attempts < 1";
  if backoff < 0. then invalid_arg "Occ.commit_with_retry: negative backoff";
  let max_backoff = 0.05 in
  let rng = match jitter with Some r -> r | None -> Lazy.force default_jitter in
  let rec go attempt =
    let s = begin_session t in
    let result =
      match f s with
      | v -> if is_active s then commit s |> Result.map (fun () -> v)
             else Error { objects = [] }  (* body aborted the session *)
      | exception e ->
        if is_active s then abort s;
        raise e
    in
    match result with
    | Ok v ->
      Option.iter Tse_db.Durable.commit durable;
      (v, attempt)
    | Error conflict ->
      if attempt >= attempts then begin
        Metrics.incr m_retry_exhausted;
        raise (Too_many_conflicts conflict)
      end
      else begin
        Metrics.incr m_retries;
        (* multiply by a factor in [0.5, 1.5) so retry storms from
           writers that conflicted at the same instant de-synchronize
           instead of colliding again in lock-step *)
        let factor = 0.5 +. Random.State.float rng 1.0 in
        let delay =
          Float.min max_backoff (backoff *. float_of_int attempt *. factor)
        in
        if delay > 0. then Unix.sleepf delay;
        go (attempt + 1)
      end
  in
  go 1
