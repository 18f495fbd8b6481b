module Failpoint = Tse_store.Failpoint
module Durable = Tse_db.Durable
module History = Tse_views.History
module History_codec = Tse_views.History_codec

(* Crash-atomic transparent schema evolution over a durable database.

   An evolution is durable the way every other write is: its physical
   effects (heap ops, base memberships, the records of the classes it
   created or edited, and the view versions it registered) are
   committed as one checksummed WAL batch and synced before
   [evolve_many] answers [Ok]. Recovery is the store's physical replay
   and nothing else. A crash before that batch is whole on disk leaves
   no trace of the evolution (pre-evolution state); once it is, replay
   lands on the post-evolution state.

   The view history only grows, so the log carries each version once:
   the handle remembers how many versions of its history the log holds
   ([logged]) and stages only those registered after that point,
   whichever path registered them ([Merge.merge_views] on the [Tsem],
   say). The store appends them to the ["views"] blob, and a checkpoint
   writes that blob whole.

   Before any of this, the first change is prechecked ([Tsem.precheck]:
   admission and the translator's preconditions, which mutate nothing).
   A change that fails there is answered with [Error] at once: nothing
   is logged and the handle is kept. *)

type t = {
  mutable d : Durable.t;
  mutable tsem : Tsem.t;
  mutable logged : int;  (* versions of the history the log holds *)
  dir : string;
  policy : Durable.sync_policy option;
}

let stage_views t =
  let history = Tsem.history t.tsem in
  match History.since history t.logged with
  | [] -> ()
  | fresh ->
    Durable.append_ext t.d ~tag:History_codec.tag
      (History_codec.encode_versions fresh);
    t.logged <- History.total_versions history

let open_dir ?policy ~dir () =
  let d, report = Durable.open_dir ?policy ~dir () in
  let history =
    match Durable.ext d History_codec.tag with
    | Some blob -> History_codec.decode blob
    | None -> History.create ()
  in
  let tsem = Tsem.of_database ~history (Durable.db d) in
  ({ d; tsem; logged = History.total_versions history; dir; policy }, report)

let db t = Durable.db t.d
let tsem t = t.tsem
let durable t = t.d
let dir t = t.dir
let history t = Tsem.history t.tsem
let current t view = Tsem.current t.tsem view

let reopen t =
  let fresh, _report = open_dir ?policy:t.policy ~dir:t.dir () in
  t.d <- fresh.d;
  t.tsem <- fresh.tsem;
  t.logged <- fresh.logged

let define_view_by_names t ~name ?complete_closure names =
  let v = Tsem.define_view_by_names t.tsem ~name ?complete_closure names in
  stage_views t;
  Durable.commit t.d;
  v

let evolve_many t ~view changes =
  match History.current (Tsem.history t.tsem) view, changes with
  | None, _ -> Error (Printf.sprintf "no view named %s" view)
  | Some current, [] -> Ok current
  | Some _, first :: rest -> (
    (* the first change's preconditions are checked before anything is
       logged: a rejection here costs no WAL record, no fsync and no
       reopen. The precheck mutates nothing, so the handle, its database
       and any pending traffic stay as they were. *)
    match Tsem.precheck t.tsem ~view first with
    | exception Change.Rejected msg -> Error msg
    | exception (Failpoint.Crash _ as e) -> raise e
    | exception e -> Error (Printexc.to_string e)
    | checked -> (
      (* pending traffic becomes durable as a batch of its own before the
         application starts, so the reopen a failed evolution takes
         cannot lose it *)
      Durable.commit t.d;
      Durable.sync t.d;
      match
        ignore (Tsem.evolve_checked t.tsem checked);
        Tsem.evolve_many t.tsem ~view rest
      with
      | new_view ->
        (* one batch carries every effect; [Ok] means it is on disk *)
        stage_views t;
        Durable.commit t.d;
        Durable.sync t.d;
        Ok new_view
      | exception (Failpoint.Crash _ as e) -> raise e
      | exception e ->
        let msg =
          match e with
          | Change.Rejected m -> m
          | e -> Printexc.to_string e
        in
        (* the half-applied change list poisoned the in-memory state, but
           none of it was logged: drop the handle and reopen from disk,
           which lands on the pre-evolution state *)
        Durable.abandon t.d;
        reopen t;
        Error msg))

let evolve t ~view change = evolve_many t ~view [ change ]

let commit t =
  stage_views t;
  Durable.commit t.d

let sync t = Durable.sync t.d

let checkpoint t =
  stage_views t;
  Durable.checkpoint t.d

let close t =
  stage_views t;
  Durable.close t.d

let abandon t = Durable.abandon t.d
