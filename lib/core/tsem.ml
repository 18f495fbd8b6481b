module Database = Tse_db.Database
module View_schema = Tse_views.View_schema
module History = Tse_views.History
module Closure = Tse_views.Closure
module Schema_graph = Tse_schema.Schema_graph

type t = { db : Database.t; history : History.t }

let fp_change = "evolve.change"
let () = Tse_store.Failpoint.declare fp_change

let of_database ?history db =
  let history =
    match history with Some h -> h | None -> History.create ()
  in
  { db; history }

let create () = of_database (Database.create ())
let db t = t.db
let history t = t.history

let define_view t ~name ?(complete_closure = true) cids =
  let view = View_schema.make ~name ~version:0 (Database.graph t.db) cids in
  let view = if complete_closure then fst (Closure.complete t.db view) else view in
  History.register t.history view;
  view

let define_view_by_names t ~name ?complete_closure names =
  let graph = Database.graph t.db in
  let cids =
    List.map (fun n -> (Schema_graph.find_by_name_exn graph n).Tse_schema.Klass.cid) names
  in
  define_view t ~name ?complete_closure cids

let current t name = History.current_exn t.history name

type checked = {
  c_view : string;
  old_view : View_schema.t;
  change : Change.t;
  stamp : int;  (* Schema_graph.version the checks ran against *)
}

let precheck t ~view change =
  let old_view = current t view in
  Admission.admit t.db old_view change;
  Translator.validate t.db old_view change;
  {
    c_view = view;
    old_view;
    change;
    stamp = Schema_graph.version (Database.graph t.db);
  }

let pp_change oc c = output_string oc (Change.to_string c)

let translate t { c_view = view; old_view; change; stamp } =
  let graph = Database.graph t.db in
  if Schema_graph.version graph <> stamp || current t view != old_view then
    invalid_arg "Tsem.evolve_checked: the schema changed after precheck";
  Tse_obs.Log.info "tsem" "evolving view %s (v%d): %a" view
    old_view.View_schema.version pp_change change;
  let classes_before = Schema_graph.size graph in
  let new_view =
    Tse_obs.Trace.with_span
      ~attrs:[ ("view", view); ("change", Change.to_string change) ]
      "evolve.change"
    @@ fun () ->
    Tse_store.Failpoint.hit fp_change;
    Translator.apply t.db old_view change
  in
  let registered = History.replace t.history new_view in
  Tse_obs.Log.info "tsem" "view %s replaced by v%d (%d new global classes)"
    view registered.View_schema.version
    (Schema_graph.size graph - classes_before);
  registered

(* The whole evolution runs under the watchdog's budget clock (for
   [evolve]: admission + translation + history swap) — W302 fires when
   the end-to-end latency blows TSE_EVOLVE_BUDGET_MS, which is what a
   caller blocked on [evolve] actually experiences. [evolve_checked]
   clocks what is left after the caller's precheck. *)
let evolve_checked t c =
  Tse_obs.Watchdog.time_evolution ~view:c.c_view @@ fun () -> translate t c

let evolve t ~view change =
  Tse_obs.Watchdog.time_evolution ~view @@ fun () ->
  translate t (precheck t ~view change)

let evolve_many t ~view changes =
  List.iter (fun c -> ignore (evolve t ~view c)) changes;
  current t view
