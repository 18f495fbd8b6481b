(* A CAD tool-integration scenario — the application domain the paper's
   introduction motivates (CAD/CAM, VLSI design).

   A shared component database serves two tools: a LAYOUT tool and a
   SIMULATION tool. Each owns a view. Over time each tool's schema needs
   drift apart: layout wants geometric data, simulation wants electrical
   models and eventually drops fields it never reads. Every change is a
   transparent view evolution; the tools never block each other and keep
   exchanging the same component objects.

   Run with: dune exec examples/design_tool.exe *)

open Tse_store
open Tse_schema
open Tse_db
open Tse_views
open Tse_core

let step fmt = Printf.printf ("\n-- " ^^ fmt ^^ "\n")

let () =
  (* the shared base schema: a little electronics library *)
  let db = Database.create () in
  let g = Database.graph db in
  let stored = Prop.stored ~origin:(Oid.of_int 0) in
  let reg name props supers =
    Schema_graph.register_base g ~name ~props ~supers
  in
  let component =
    reg "Component"
      [ stored "part_no" Value.TString; stored "vendor" Value.TString ]
      []
  in
  let resistor = reg "Resistor" [ stored "ohms" Value.TFloat ] [ component ] in
  let capacitor = reg "Capacitor" [ stored "farads" Value.TFloat ] [ component ] in
  let ic = reg "IC" [ stored "pins" Value.TInt ] [ component ] in
  ignore capacitor;
  let tsem = Tsem.of_database db in

  (* both tools start from the same catalogue view *)
  let all = [ "Component"; "Resistor"; "Capacitor"; "IC" ] in
  ignore (Tsem.define_view_by_names tsem ~name:"layout" all);
  ignore (Tsem.define_view_by_names tsem ~name:"simulation" all);

  (* some shared parts *)
  let r1 =
    Database.create_object db resistor
      ~init:[ ("part_no", Value.String "R-100"); ("ohms", Value.Float 470.) ]
  in
  let u1 =
    Database.create_object db ic
      ~init:[ ("part_no", Value.String "U-7400"); ("pins", Value.Int 14) ]
  in

  step "layout tool: needs footprints — adds geometry to Component";
  ignore
    (Tsem.evolve tsem ~view:"layout"
       (Change.Add_attribute { cls = "Component"; def = Change.attr "footprint" Value.TString }));
  ignore
    (Tsem.evolve tsem ~view:"layout"
       (Change.Add_attribute { cls = "Component"; def = Change.attr "x" Value.TFloat }));
  ignore
    (Tsem.evolve tsem ~view:"layout"
       (Change.Add_attribute { cls = "Component"; def = Change.attr "y" Value.TFloat }));
  let layout = Tsem.current tsem "layout" in
  let l_component = View_schema.cid_of_exn layout "Component" in
  Printf.printf "layout's Component: %s\n"
    (String.concat ", " (Type_info.prop_names g l_component));

  step "simulation tool: adds an electrical model, knows nothing of geometry";
  ignore
    (Tsem.evolve tsem ~view:"simulation"
       (Change.Add_attribute { cls = "Component"; def = Change.attr "spice_model" Value.TString }));
  let sim = Tsem.current tsem "simulation" in
  let s_component = View_schema.cid_of_exn sim "Component" in
  Printf.printf "simulation's Component: %s\n"
    (String.concat ", " (Type_info.prop_names g s_component));
  Printf.printf "geometry hidden from simulation: %b\n"
    (not (Type_info.has_prop g s_component "x"));

  step "both tools annotate the SAME resistor object";
  Database.set_attr db r1 "footprint" (Value.String "0805");
  Database.set_attr db r1 "x" (Value.Float 10.5);
  Database.set_attr db r1 "spice_model" (Value.String "R(470)");
  Format.printf "r1: footprint=%a (layout), spice_model=%a (simulation), ohms=%a (shared)@."
    Value.pp (Database.get_prop db r1 "footprint")
    Value.pp (Database.get_prop db r1 "spice_model")
    Value.pp (Database.get_prop db r1 "ohms");

  step "simulation never reads vendor info — deletes it from ITS view";
  ignore
    (Tsem.evolve tsem ~view:"simulation"
       (Change.Delete_attribute { cls = "Component"; attr_name = "vendor" }));
  let sim = Tsem.current tsem "simulation" in
  Printf.printf "simulation's Component lost vendor: %b; layout still has it: %b\n"
    (not (Type_info.has_prop g (View_schema.cid_of_exn sim "Component") "vendor"))
    (Type_info.has_prop g (View_schema.cid_of_exn (Tsem.current tsem "layout") "Component") "vendor");

  step "simulation reorganizes its hierarchy: PassiveComponent between Component and Resistor";
  ignore
    (Tsem.evolve tsem ~view:"simulation"
       (Change.Insert_class { cls = "Passive"; sup = "Component"; sub = "Resistor" }));
  let sim = Tsem.current tsem "simulation" in
  Format.printf "%a@." (Tse_views.Generation.pp g) sim;

  step "a NEW tool wants both worlds: merge the two views";
  let merged = Merge.merge_current tsem ~view1:"layout" ~view2:"simulation" ~new_name:"bringup" in
  Printf.printf "bringup view: %s\n"
    (String.concat ", "
       (List.filter_map (View_schema.local_name merged) (View_schema.classes merged)));

  step "old programs still run: the ORIGINAL catalogue view is intact";
  let v0 = Option.get (History.version (Tsem.history tsem) "layout" 0) in
  let v0_component = View_schema.cid_of_exn v0 "Component" in
  Printf.printf "version-0 Component props: %s\n"
    (String.concat ", " (Type_info.prop_names g v0_component));
  Format.printf "version-0 program reads u1.part_no = %a@." Value.pp
    (Database.get_prop db u1 "part_no");

  Printf.printf "\ntotal view versions registered: %d; database consistent: %b\n"
    (History.total_versions (Tsem.history tsem))
    (Database.check db = [])
