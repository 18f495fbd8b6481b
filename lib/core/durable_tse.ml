module Codec = Tse_store.Codec
module Failpoint = Tse_store.Failpoint
module Recovery = Tse_store.Recovery
module Database = Tse_db.Database
module Durable = Tse_db.Durable
module History = Tse_views.History
module History_codec = Tse_views.History_codec
module View_schema = Tse_views.View_schema
module Metrics = Tse_obs.Metrics
module Trace = Tse_obs.Trace

(* Crash-atomic transparent schema evolution over a durable database.

   The protocol is logical redo: an evolution is logged as intent
   (Evo_begin, carrying the encoded change list) then decision
   (Evo_commit), both fsynced, BEFORE any in-memory application; the
   application's physical effects land in one batch together with the
   Evo_done marker. Recovery therefore sees exactly one of

     - nothing, or a begin with no commit  -> the evolution never
       happened: roll back by ignoring it (none of its effects are in
       the log);
     - begin + commit, no done             -> the evolution was promised:
       roll it forward by replaying the decoded change list through
       [Tsem.evolve_many] on the recovered (pre-evolution) state;
     - begin + commit + done               -> the effects are already in
       the log: skip.

   A roll-forward that fails deterministically (the payload does not
   decode, or the change list is rejected against the recovered state)
   is durably neutralized with Evo_done ok=false and the database is
   reopened from disk — the aborted evolution's partial in-memory
   effects never reach the log, so the result is a clean pre-evolution
   state.

   Before any of this, the first change is prechecked ([Tsem.precheck]:
   admission and the translator's preconditions, which mutate nothing).
   A change that fails there is answered with [Error] at once: nothing
   is logged and the handle is kept. *)

type t = {
  mutable d : Durable.t;
  mutable tsem : Tsem.t;
  dir : string;
  policy : Durable.sync_policy option;
}

type open_report = {
  recovery : Recovery.report;
  rolled_forward : (int * string) list;
  aborted : int list;
}

let views_tag = "views"
let m_rolled_forward = Metrics.counter "tse.evo_rolled_forward"
let m_aborted = Metrics.counter "tse.evo_aborted"

let stage_views d tsem =
  Durable.stage_ext d ~tag:views_tag (History_codec.encode (Tsem.history tsem))

let open_once ?policy ~dir () =
  let d, report = Durable.open_dir ?policy ~dir () in
  let history =
    match Durable.ext d views_tag with
    | Some blob -> History_codec.decode blob
    | None -> History.create ()
  in
  let tsem = Tsem.of_database ~history (Durable.db d) in
  (d, tsem, report)

(* Replay one committed-but-unapplied evolution on the recovered state.
   [Failpoint.Crash] escapes (a crash during recovery is a crash); any
   other failure is deterministic — the same state fed the same changes
   — and reported for durable abortion. *)
let roll_forward d tsem (p : Recovery.pending_evolution) =
  Trace.with_span
    ~attrs:[ ("eid", string_of_int p.eid); ("view", p.view) ]
    "recovery.roll_forward"
  @@ fun () ->
  match Change_codec.decode p.payload with
  | exception Codec.Corrupt (what, _) ->
    Error (Printf.sprintf "undecodable evolution payload: %s" what)
  | changes -> (
    match Tsem.evolve_many tsem ~view:p.view changes with
    | _new_view ->
      stage_views d tsem;
      Durable.commit_evolve_done d ~eid:p.eid;
      Ok ()
    | exception (Failpoint.Crash _ as e) -> raise e
    | exception Change.Rejected msg -> Error msg
    | exception e -> Error (Printexc.to_string e))

let open_dir ?policy ~dir () =
  let rolled_forward = ref [] in
  let aborted = ref [] in
  (* each iteration durably resolves at least one pending evolution
     (done ok=true or ok=false), so this terminates; the fuel is a
     safety net against protocol bugs, not a real bound *)
  let rec go fuel =
    if fuel = 0 then
      failwith "Durable_tse.open_dir: recovery did not converge";
    let d, tsem, report = open_once ?policy ~dir () in
    let rec resolve = function
      | [] -> (d, tsem, report)
      | p :: rest -> (
        match roll_forward d tsem p with
        | Ok () ->
          Metrics.incr m_rolled_forward;
          rolled_forward :=
            (p.Recovery.eid, p.Recovery.view) :: !rolled_forward;
          resolve rest
        | Error msg ->
          Tse_obs.Log.warn "tse" "evolution %d on %s aborted at recovery: %s"
            p.Recovery.eid p.Recovery.view msg;
          Metrics.incr m_aborted;
          aborted := p.Recovery.eid :: !aborted;
          (* the failed application poisoned the in-memory state: durably
             neutralize the intent, drop the handle, reopen from disk *)
          Durable.log_evolve_abort d ~eid:p.Recovery.eid;
          Durable.abandon d;
          go (fuel - 1)
        | exception (Failpoint.Crash _ as e) ->
          (* simulated process death mid-recovery *)
          Durable.abandon d;
          raise e)
    in
    resolve report.Recovery.evo_pending
  in
  let d, tsem, recovery = go 1000 in
  ( { d; tsem; dir; policy },
    {
      recovery;
      rolled_forward = List.rev !rolled_forward;
      aborted = List.rev !aborted;
    } )

let db t = Durable.db t.d
let tsem t = t.tsem
let durable t = t.d
let dir t = t.dir
let history t = Tsem.history t.tsem
let current t view = Tsem.current t.tsem view

let reopen t =
  let fresh, _report = open_dir ?policy:t.policy ~dir:t.dir () in
  t.d <- fresh.d;
  t.tsem <- fresh.tsem

let define_view_by_names t ~name ?complete_closure names =
  let v = Tsem.define_view_by_names t.tsem ~name ?complete_closure names in
  stage_views t.d t.tsem;
  Durable.commit t.d;
  v

let evolve_many t ~view changes =
  match changes with
  | [] -> Ok (Tsem.current t.tsem view)
  | first :: rest -> (
    match History.current (Tsem.history t.tsem) view with
    | None -> Error (Printf.sprintf "no view named %s" view)
    | Some _ -> (
      (* the first change's preconditions are checked before anything is
         logged: a rejection here costs no WAL record, no fsync and no
         reopen. The precheck mutates nothing, so the handle, its
         database and any pending traffic stay as they were. *)
      match Tsem.precheck t.tsem ~view first with
      | exception Change.Rejected msg -> Error msg
      | exception (Failpoint.Crash _ as e) -> raise e
      | exception e -> Error (Printexc.to_string e)
      | checked -> (
        let payload = Change_codec.encode changes in
        let eid = Durable.log_evolve_begin t.d ~view payload in
        Durable.log_evolve_commit t.d ~eid ~view;
        (* decision is durable: from here the evolution either completes
           in this process or is rolled forward by the next open *)
        match
          ignore (Tsem.evolve_checked t.tsem checked);
          Tsem.evolve_many t.tsem ~view rest
        with
        | new_view ->
          stage_views t.d t.tsem;
          Durable.commit_evolve_done t.d ~eid;
          Ok new_view
        | exception (Failpoint.Crash _ as e) -> raise e
        | exception e ->
          let msg =
            match e with
            | Change.Rejected m -> m
            | e -> Printexc.to_string e
          in
          (* the half-applied change list poisoned the in-memory state:
             recover from disk. The committed intent is retried there on
             clean state; a deterministic rejection fails again and is
             durably aborted, leaving the pre-evolution state. *)
          Durable.abandon t.d;
          reopen t;
          Error msg)))

let evolve t ~view change = evolve_many t ~view [ change ]

let commit t = Durable.commit t.d
let sync t = Durable.sync t.d
let checkpoint t = Durable.checkpoint t.d

let close t =
  stage_views t.d t.tsem;
  Durable.close t.d

let abandon t = Durable.abandon t.d
