(* An interactive shell over the TSE system: define views, evolve them
   transparently, inspect extents and history, create and update objects.

   $ tse_cli repl --schema university
   tse> view VS = Person, Student, TA
   tse> add_attribute register:bool to Student in VS
   tse> show VS
   tse> create Student in VS name="ada" register=true
   tse> history VS
*)

open Tse_store
open Tse_schema
open Tse_db
open Tse_views
open Tse_core

type session = {
  mutable tsem : Tsem.t;
  mutable indexes : Tse_query.Indexes.t;
  mutable last_error : string option;
}

let make_session schema seed =
  let db =
    match schema with
    | "university" -> (Tse_workload.University.build ()).db
    | "empty" -> Database.create ()
    | "random" ->
      (Tse_workload.Random_schema.generate ~seed ~classes:10 ~objects:20 ()).db
    | other -> failwith (Printf.sprintf "unknown schema %S" other)
  in
  { tsem = Tsem.of_database db; indexes = Tse_query.Indexes.create db;
    last_error = None }

(* ---------------- tiny parser helpers ---------------- *)

let strip s = String.trim s

let split_commas s =
  String.split_on_char ',' s |> List.map strip |> List.filter (( <> ) "")

let parse_ty = function
  | "int" -> Value.TInt
  | "string" -> Value.TString
  | "bool" -> Value.TBool
  | "float" -> Value.TFloat
  | other -> failwith (Printf.sprintf "unknown type %s (int|string|bool|float)" other)

let parse_value raw =
  let raw = strip raw in
  if raw = "true" then Value.Bool true
  else if raw = "false" then Value.Bool false
  else if raw = "null" then Value.Null
  else if String.length raw >= 2 && raw.[0] = '"' then
    Value.String (String.sub raw 1 (String.length raw - 2))
  else
    match int_of_string_opt raw with
    | Some i -> Value.Int i
    | None -> (
      match float_of_string_opt raw with
      | Some f -> Value.Float f
      | None -> Value.String raw)

(* name=value pairs separated by spaces (values may be quoted without
   spaces inside) *)
let parse_assignments tokens =
  List.filter_map
    (fun tok ->
      match String.index_opt tok '=' with
      | None -> None
      | Some i ->
        Some
          ( String.sub tok 0 i,
            parse_value (String.sub tok (i + 1) (String.length tok - i - 1)) ))
    tokens

let words s =
  String.split_on_char ' ' s |> List.map strip |> List.filter (( <> ) "")

(* ---------------- commands ---------------- *)

let db s = Tsem.db s.tsem

let print_view s view =
  Format.printf "%a" (Generation.pp (Database.graph (db s))) view;
  Format.print_flush ()

let cmd_view s rest =
  (* view NAME = C1, C2, ... *)
  match String.index_opt rest '=' with
  | None -> failwith "usage: view NAME = Class1, Class2, ..."
  | Some i ->
    let name = strip (String.sub rest 0 i) in
    let classes = split_commas (String.sub rest (i + 1) (String.length rest - i - 1)) in
    let v = Tsem.define_view_by_names s.tsem ~name classes in
    Printf.printf "defined %s (version %d, %d classes)\n" name
      v.View_schema.version (View_schema.size v)

let find_view s name = Tsem.current s.tsem name

let cmd_show s rest =
  match words rest with
  | [ name ] ->
    let v = find_view s name in
    print_view s v
  | [] ->
    (* no argument: the global schema *)
    Format.printf "%a" Schema_graph.pp (Database.graph (db s));
    Format.print_flush ()
  | _ -> failwith "usage: show [VIEW]"

let cmd_type s rest =
  match words rest with
  | [ cls; "in"; vname ] ->
    let v = find_view s vname in
    let cid = View_schema.cid_of_exn v cls in
    let g = Database.graph (db s) in
    List.iter
      (fun (n, e) -> Format.printf "  %s = %a@." n Type_info.pp_entry e)
      (Type_info.full_type g cid);
    Format.print_flush ()
  | _ -> failwith "usage: type CLASS in VIEW"

let cmd_extent s rest =
  match words rest with
  | [ cls; "in"; vname ] ->
    let v = find_view s vname in
    let cid = View_schema.cid_of_exn v cls in
    let objs = Database.extent_list (db s) cid in
    Printf.printf "%d object(s): %s\n" (List.length objs)
      (String.concat ", " (List.map Oid.to_string objs))
  | _ -> failwith "usage: extent CLASS in VIEW"

let cmd_create s rest =
  match words rest with
  | cls :: "in" :: vname :: assignments ->
    let v = find_view s vname in
    let cid = View_schema.cid_of_exn v cls in
    let init = parse_assignments assignments in
    let o = Tse_update.Generic.create (db s) cid ~init in
    Printf.printf "created %s\n" (Oid.to_string o)
  | _ -> failwith "usage: create CLASS in VIEW [attr=value ...]"

let cmd_set s rest =
  match words rest with
  | oid :: assignments when String.length oid > 1 && oid.[0] = '#' ->
    let o = Oid.of_int (int_of_string (String.sub oid 1 (String.length oid - 1))) in
    Tse_update.Generic.set (db s) [ o ] (parse_assignments assignments);
    Printf.printf "ok\n"
  | _ -> failwith "usage: set #OID attr=value ..."

let cmd_get s rest =
  match words rest with
  | [ oid; attr ] when String.length oid > 1 && oid.[0] = '#' ->
    let o = Oid.of_int (int_of_string (String.sub oid 1 (String.length oid - 1))) in
    Format.printf "%a@." Value.pp (Database.get_prop (db s) o attr);
    Format.print_flush ()
  | _ -> failwith "usage: get #OID attr"

let evolve s vname change =
  let v = Tsem.evolve s.tsem ~view:vname change in
  Printf.printf "%s evolved to version %d\n" vname v.View_schema.version

let cmd_add_attribute s rest =
  (* add_attribute name:ty to CLASS in VIEW *)
  match words rest with
  | [ spec; "to"; cls; "in"; vname ] -> begin
    match String.split_on_char ':' spec with
    | [ attr; ty ] ->
      evolve s vname
        (Change.Add_attribute { cls; def = Change.attr attr (parse_ty ty) })
    | _ -> failwith "attribute spec must be name:type"
  end
  | _ -> failwith "usage: add_attribute name:type to CLASS in VIEW"

let cmd_delete_attribute s rest =
  match words rest with
  | [ attr; "from"; cls; "in"; vname ] ->
    evolve s vname (Change.Delete_attribute { cls; attr_name = attr })
  | _ -> failwith "usage: delete_attribute name from CLASS in VIEW"

let cmd_add_edge s rest =
  match words rest with
  | [ sup; sub; "in"; vname ] -> evolve s vname (Change.Add_edge { sup; sub })
  | _ -> failwith "usage: add_edge SUP SUB in VIEW"

let cmd_delete_edge s rest =
  match words rest with
  | [ sup; sub; "in"; vname ] ->
    evolve s vname (Change.Delete_edge { sup; sub; connected_to = None })
  | [ sup; sub; "connected_to"; upper; "in"; vname ] ->
    evolve s vname (Change.Delete_edge { sup; sub; connected_to = Some upper })
  | _ -> failwith "usage: delete_edge SUP SUB [connected_to UPPER] in VIEW"

let cmd_add_class s rest =
  match words rest with
  | [ cls; "in"; vname ] -> evolve s vname (Change.Add_class { cls; connected_to = None })
  | [ cls; "under"; sup; "in"; vname ] ->
    evolve s vname (Change.Add_class { cls; connected_to = Some sup })
  | _ -> failwith "usage: add_class NAME [under SUP] in VIEW"

let cmd_delete_class s rest =
  match words rest with
  | [ cls; "in"; vname ] -> evolve s vname (Change.Delete_class { cls })
  | [ cls; "fully"; "in"; vname ] -> evolve s vname (Change.Delete_class_2 { cls })
  | _ -> failwith "usage: delete_class NAME [fully] in VIEW"

let cmd_insert_class s rest =
  match words rest with
  | [ cls; "between"; sup; sub; "in"; vname ] ->
    evolve s vname (Change.Insert_class { cls; sup; sub })
  | _ -> failwith "usage: insert_class NAME between SUP SUB in VIEW"

(* from CLASS in VIEW where <expr>, shared by select and explain *)
let parse_query s usage rest =
  match words rest with
  | "from" :: cls :: "in" :: vname :: "where" :: _ ->
    let v = find_view s vname in
    let cid = View_schema.cid_of_exn v cls in
    let where_pos =
      (* everything after the first " where " is the predicate text *)
      let marker = " where " in
      let rec find i =
        if i + String.length marker > String.length rest then
          failwith "missing where clause"
        else if String.sub rest i (String.length marker) = marker then
          i + String.length marker
        else find (i + 1)
      in
      find 0
    in
    let pred =
      Tse_algebra.Surface.parse_expr
        (String.sub rest where_pos (String.length rest - where_pos))
    in
    (cid, pred)
  | _ -> failwith usage

let cmd_select s rest =
  let cid, pred =
    parse_query s "usage: select from CLASS in VIEW where EXPR" rest
  in
  let ex, hits = Tse_query.Engine.select_explain (db s) s.indexes cid pred in
  Format.printf "plan: %a@." Tse_query.Engine.pp_plan ex.Tse_query.Engine.ex_plan;
  Printf.printf "%d object(s): %s\n" (Oid.Set.cardinal hits)
    (String.concat ", " (List.map Oid.to_string (Oid.Set.elements hits)))

let cmd_explain s rest =
  let cid, pred =
    parse_query s "usage: explain from CLASS in VIEW where EXPR" rest
  in
  let ex = Tse_query.Engine.explain (db s) s.indexes cid pred in
  Format.printf "%a@." Tse_query.Engine.pp_explain ex

let cmd_lint s rest =
  let report = Tse_analysis.Analysis.analyze (Database.graph (db s)) in
  (match words rest with
  | [] | [ "text" ] ->
    Format.printf "%a" Tse_analysis.Analysis.pp_report report;
    Format.print_flush ()
  | [ "json" ] -> print_endline (Tse_analysis.Analysis.report_to_json report)
  | _ -> failwith "usage: lint [json]");
  report

let cmd_stats rest =
  let samples = Tse_obs.Metrics.snapshot () in
  let domains = Tse_pool.Pool.size (Tse_pool.Pool.global ()) in
  let host_cores = Domain.recommended_domain_count () in
  match words rest with
  | [] | [ "text" ] ->
    Printf.printf "# domains %d of %d host cores\n" domains host_cores;
    Format.printf "%a" Tse_obs.Metrics.pp_text samples
  | [ "json" ] ->
    Printf.printf "{\"domains\": %d, \"host_cores\": %d, \"registry\": %s}\n"
      domains host_cores
      (Tse_obs.Metrics.to_json samples)
  | _ -> failwith "usage: stats [json]"

let cmd_index s rest =
  let build kind cls attr vname =
    let v = find_view s vname in
    let cid = View_schema.cid_of_exn v cls in
    Tse_query.Indexes.ensure ~kind s.indexes cid attr;
    (* an ordered index answers a hash request, so say what was built *)
    Printf.printf "%s index built on %s.%s (%d bytes overhead)\n"
      (match Tse_query.Indexes.kind_of s.indexes cid attr with
      | Some Tse_query.Indexes.Ordered -> "range"
      | Some Tse_query.Indexes.Hash | None -> "hash")
      cls attr
      (Tse_query.Indexes.overhead_bytes s.indexes)
  in
  match words rest with
  | [ cls; attr; "in"; vname ] -> build Tse_query.Indexes.Hash cls attr vname
  | [ "range"; cls; attr; "in"; vname ] ->
    build Tse_query.Indexes.Ordered cls attr vname
  | _ -> failwith "usage: index [range] CLASS ATTR in VIEW"

let cmd_populate s rest =
  match words rest with
  | [ n ] ->
    let n = int_of_string n in
    let g = Database.graph (db s) in
    (* only meaningful on the university schema *)
    (match Schema_graph.find_by_name g "Person" with
    | None -> failwith "populate requires the university schema"
    | Some _ ->
      let u =
        {
          Tse_workload.University.db = db s;
          person = (Schema_graph.find_by_name_exn g "Person").cid;
          student = (Schema_graph.find_by_name_exn g "Student").cid;
          staff = (Schema_graph.find_by_name_exn g "Staff").cid;
          teaching_staff = (Schema_graph.find_by_name_exn g "TeachingStaff").cid;
          support_staff = (Schema_graph.find_by_name_exn g "SupportStaff").cid;
          ta = (Schema_graph.find_by_name_exn g "TA").cid;
          grad = (Schema_graph.find_by_name_exn g "Grad").cid;
          grader = (Schema_graph.find_by_name_exn g "Grader").cid;
        }
      in
      ignore (Tse_workload.University.populate u ~n);
      Printf.printf "created %d objects (%d total)\n" n
        (Database.object_count (db s)))
  | _ -> failwith "usage: populate N"

let cmd_rename s rest =
  match words rest with
  | [ old_name; "to"; new_name; "in"; vname ] ->
    evolve s vname (Change.Rename_class { old_name; new_name })
  | _ -> failwith "usage: rename OLD to NEW in VIEW"

let cmd_history s rest =
  match words rest with
  | [ vname ] ->
    List.iter
      (fun (v : View_schema.t) ->
        Printf.printf "  VS.%d: %s\n" v.version
          (String.concat ", "
             (List.filter_map (View_schema.local_name v) (View_schema.classes v))))
      (History.versions (Tsem.history s.tsem) vname)
  | _ -> failwith "usage: history VIEW"

let cmd_merge s rest =
  match words rest with
  | [ v1; v2; "as"; name ] ->
    let merged = Merge.merge_current s.tsem ~view1:v1 ~view2:v2 ~new_name:name in
    Printf.printf "merged into %s (%d classes)\n" name (View_schema.size merged)
  | _ -> failwith "usage: merge VIEW1 VIEW2 as NAME"

let cmd_check s =
  match Database.check (db s) with
  | [] -> Printf.printf "database consistent\n"
  | problems -> List.iter (Printf.printf "PROBLEM: %s\n") problems

let cmd_save s rest =
  match words rest with
  | [ path ] ->
    Catalog.save ~history:(Tsem.history s.tsem) (db s) path;
    Printf.printf "catalog (schema + objects + view history) written to %s\n" path
  | _ -> failwith "usage: save PATH"

let cmd_load s rest =
  match words rest with
  | [ path ] ->
    let db', history = Catalog.load path in
    let tsem' = Tsem.of_database ~history db' in
    s.tsem <- tsem';
    s.indexes <- Tse_query.Indexes.create db';
    Printf.printf "catalog loaded: %d classes, %d objects, %d view version(s)\n"
      (Schema_graph.size (Database.graph db'))
      (Database.object_count db')
      (History.total_versions (Tsem.history tsem'))
  | _ -> failwith "usage: load PATH"

let cmd_define s line =
  let cid = Tse_algebra.Surface.define (db s) line in
  Printf.printf "defined virtual class %s\n"
    (Schema_graph.name_of (Database.graph (db s)) cid)

let help () =
  List.iter print_endline
    [
      "commands:";
      "  view NAME = C1, C2, ...            define a view (version 0)";
      "  show [VIEW]                        print a view (or the global schema)";
      "  type CLASS in VIEW                 full type of a class";
      "  extent CLASS in VIEW               members of a class";
      "  create CLASS in VIEW a=v ...       create an object through the view";
      "  set #OID a=v ...                   update attributes";
      "  get #OID a                         read an attribute or method";
      "  add_attribute n:ty to C in VIEW    transparent schema change";
      "  delete_attribute n from C in VIEW";
      "  add_edge SUP SUB in VIEW";
      "  delete_edge SUP SUB [connected_to U] in VIEW";
      "  add_class N [under SUP] in VIEW";
      "  insert_class N between SUP SUB in VIEW";
      "  delete_class N [fully] in VIEW";
      "  rename OLD to NEW in VIEW          view-local class renaming";
      "  history VIEW                       all registered versions";
      "  merge V1 V2 as NAME                Section 7 version merging";
      "  defineVC N as (select from C where ...)   object-algebra view class";
      "  select from C in VIEW where EXPR   run a query (shows the plan)";
      "  explain from C in VIEW where EXPR  compiled plan, index kind, conjunct";
      "                                     order, pushdown depth, rows";
      "  index C ATTR in VIEW               build a maintained hash index";
      "  index range C ATTR in VIEW         build a maintained range index";
      "  lint [json]                        static analysis of the global schema";
      "  stats [json]                       dump the metrics registry";
      "  check                              run the consistency oracle";
      "  save PATH / load PATH              persist / restore the whole catalog";
      "  help | quit";
    ]

let execute s line =
  let line = strip line in
  if line = "" then ()
  else
    let cmd, rest =
      match String.index_opt line ' ' with
      | None -> (line, "")
      | Some i ->
        (String.sub line 0 i, strip (String.sub line (i + 1) (String.length line - i - 1)))
    in
    match cmd with
    | "quit" | "exit" -> () (* handled by the repl loop; no-op in scripts *)
    | "view" -> cmd_view s rest
    | "show" -> cmd_show s rest
    | "type" -> cmd_type s rest
    | "extent" -> cmd_extent s rest
    | "create" -> cmd_create s rest
    | "set" -> cmd_set s rest
    | "get" -> cmd_get s rest
    | "add_attribute" -> cmd_add_attribute s rest
    | "delete_attribute" -> cmd_delete_attribute s rest
    | "add_edge" -> cmd_add_edge s rest
    | "delete_edge" -> cmd_delete_edge s rest
    | "add_class" -> cmd_add_class s rest
    | "insert_class" -> cmd_insert_class s rest
    | "delete_class" -> cmd_delete_class s rest
    | "populate" -> cmd_populate s rest
    | "select" -> cmd_select s rest
    | "explain" -> cmd_explain s rest
    | "lint" -> ignore (cmd_lint s rest)
    | "stats" -> cmd_stats rest
    | "index" -> cmd_index s rest
    | "rename" -> cmd_rename s rest
    | "history" -> cmd_history s rest
    | "merge" -> cmd_merge s rest
    | "check" -> cmd_check s
    | "save" -> cmd_save s rest
    | "load" -> cmd_load s rest
    | "defineVC" -> cmd_define s line
    | "help" -> help ()
    | other -> failwith (Printf.sprintf "unknown command %s (try help)" other)

let run_line s line =
  match execute s line with
  | () -> ()
  | exception Failure m | exception Invalid_argument m ->
    s.last_error <- Some m;
    Printf.printf "error: %s\n" m
  | exception Change.Rejected m ->
    s.last_error <- Some m;
    Printf.printf "change rejected: %s\n" m
  | exception Tse_update.Generic.Rejected m ->
    s.last_error <- Some m;
    Printf.printf "update rejected: %s\n" m
  | exception Expr.Type_error m ->
    s.last_error <- Some m;
    Printf.printf "type error: %s\n" m
  | exception Expr.Unknown_property p ->
    let m = Printf.sprintf "unknown property %s" p in
    s.last_error <- Some m;
    Printf.printf "error: %s\n" m
  | exception Tse_algebra.Ops.Error m ->
    s.last_error <- Some m;
    Printf.printf "algebra error: %s\n" m
  | exception Tse_algebra.Surface.Parse_error m ->
    s.last_error <- Some m;
    Printf.printf "parse error: %s\n" m

let repl schema seed script =
  let s = make_session schema seed in
  Printf.printf "TSE shell — schema %s loaded (%d classes); type 'help'\n" schema
    (Schema_graph.size (Database.graph (db s)));
  (match script with
  | Some path ->
    let ic = open_in path in
    (try
       while true do
         let line = input_line ic in
         Printf.printf "tse> %s\n" line;
         run_line s line
       done
     with End_of_file -> close_in ic)
  | None -> ());
  let rec loop () =
    Printf.printf "tse> %!";
    match In_channel.input_line stdin with
    | None | Some "quit" | Some "exit" -> Printf.printf "bye\n"
    | Some line ->
      run_line s line;
      loop ()
  in
  loop ()

(* ---------------- durability commands ---------------- *)

let print_report report =
  Format.printf "%a@." Tse_store.Recovery.pp_report report

(* A corrupt image or an unusable path is an expected operator-facing
   error, not a crash: report it and exit 2. *)
let or_exit_2 f x =
  try f x with
  | Failure msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 2
  | Unix.Unix_error (e, _, path) ->
    Printf.eprintf "error: %s: %s\n" path (Unix.error_message e);
    exit 2

let open_durable = or_exit_2 (fun dir -> Durable.open_dir ~dir ())

let recover dir =
  let d, report = open_durable dir in
  print_report report;
  let db = Durable.db d in
  Printf.printf "state: %d classes, %d objects, last batch %d\n"
    (Schema_graph.size (Database.graph db))
    (Database.object_count db) (Durable.seq d);
  (match Database.check db with
  | [] ->
    Printf.printf "database consistent\n";
    Durable.close d
  | problems ->
    List.iter (Printf.printf "PROBLEM: %s\n") problems;
    Durable.close d;
    exit 1)

let checkpoint dir =
  let d, report = open_durable dir in
  print_report report;
  Durable.checkpoint d;
  Printf.printf "checkpoint written: snapshot at batch %d, log reset\n"
    (Durable.seq d);
  Durable.close d

(* ---------------- chaos soak ---------------- *)

let soak dir steps crashes seed out =
  let dir =
    match dir with
    | Some d -> d
    | None ->
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tse_soak_%d" (Unix.getpid ()))
  in
  let cfg = { (Tse_workload.Soak.default ~dir) with steps; crashes; seed } in
  Printf.printf "soak: seed=%d steps=%d crashes=%d dir=%s\n%!" seed steps
    crashes dir;
  let o = Tse_workload.Soak.run cfg in
  Format.printf "%a@." Tse_workload.Soak.pp_outcome o;
  (match out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Tse_workload.Soak.to_json cfg o);
    close_out oc;
    Printf.printf "wrote %s\n" path);
  if o.Tse_workload.Soak.violations <> [] then exit 1

(* ---------------- live telemetry ---------------- *)

module Timeseries = Tse_obs.Timeseries
module Telemetry_server = Tse_obs.Telemetry_server
module Trace = Tse_obs.Trace
module Trace_analyze = Tse_obs.Trace_analyze

(* serve-stats = soak with the telemetry plane attached: the sampler
   ticks in the background, the endpoint serves /metrics, /series and
   /rates while the workload runs, and an optional linger window keeps
   the endpoint up after the soak so scrapers race nothing. *)
let serve_stats addr sample_ms dir steps crashes seed out linger_s =
  let ts = Timeseries.create () in
  Timeseries.start ?interval_ms:sample_ms ts;
  let srv =
    match Telemetry_server.start ?addr ~ts () with
    | Ok s -> s
    | Error e ->
      Printf.eprintf "error: cannot serve stats: %s\n" e;
      exit 2
  in
  Printf.printf "serving stats on %s (GET /metrics | /series | /rates)\n%!"
    (Telemetry_server.addr srv);
  let dir =
    match dir with
    | Some d -> d
    | None ->
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tse_serve_stats_%d" (Unix.getpid ()))
  in
  let cfg =
    {
      (Tse_workload.Soak.default ~dir) with
      steps;
      crashes;
      seed;
      sampler = Some ts;
    }
  in
  Printf.printf "soak: seed=%d steps=%d crashes=%d dir=%s\n%!" seed steps
    crashes dir;
  let o = Tse_workload.Soak.run cfg in
  Format.printf "%a@." Tse_workload.Soak.pp_outcome o;
  (match out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Tse_workload.Soak.to_json cfg o);
    close_out oc;
    Printf.printf "wrote %s\n" path);
  if linger_s > 0 then begin
    Printf.printf "soak done; stats stay scrapeable for %ds\n%!" linger_s;
    Unix.sleepf (float_of_int linger_s)
  end;
  Telemetry_server.stop srv;
  Timeseries.stop ts;
  if o.Tse_workload.Soak.violations <> [] then exit 1

let top addr count interval_ms =
  let addr =
    match addr with Some a -> a | None -> Telemetry_server.default_addr ()
  in
  for i = 1 to count do
    (match Telemetry_server.fetch ~addr ~path:"/rates" with
    | Ok body -> print_string body
    | Error e ->
      Printf.eprintf "error: %s: %s\n" addr e;
      exit 2);
    if i < count then begin
      print_newline ();
      Unix.sleepf (float_of_int interval_ms /. 1000.)
    end
  done

let trace_analyze file mode as_json top_n =
  match Trace.parse_file file with
  | Error e ->
    Printf.eprintf "error: %s: %s\n" file e;
    exit 2
  | Ok (spans, damage) -> (
    (match damage with
    | Some (lineno, msg) ->
      Printf.eprintf
        "warning: trace torn at line %d (%s); analyzing the %d spans before \
         it\n"
        lineno msg (List.length spans)
    | None -> ());
    match mode with
    | "summary" ->
      let stats = Trace_analyze.summary spans in
      if as_json then print_endline (Trace_analyze.summary_json stats)
      else Format.printf "%a" Trace_analyze.pp_summary stats
    | "critical" ->
      let roots =
        Trace_analyze.forest spans
        |> List.stable_sort (fun a b ->
               compare b.Trace_analyze.span.Trace.dur_us
                 a.Trace_analyze.span.Trace.dur_us)
        |> List.filteri (fun i _ -> i < top_n)
      in
      Format.printf "%a" Trace_analyze.pp_critical roots
    | "slow" ->
      Format.printf "%a" Trace_analyze.pp_slow
        (Trace_analyze.slowest ~top:top_n spans)
    | other ->
      Printf.eprintf "error: unknown mode %s (summary|critical|slow)\n" other;
      exit 2)

(* ---------------- static analysis ---------------- *)

let lint format schema seed catalog =
  let db =
    match catalog with
    | Some path -> fst (or_exit_2 Catalog.load path)
    | None -> db (make_session schema seed)
  in
  let report = Tse_analysis.Analysis.analyze (Database.graph db) in
  (match format with
  | "text" ->
    Format.printf "%a" Tse_analysis.Analysis.pp_report report;
    Format.print_flush ()
  | "json" -> print_endline (Tse_analysis.Analysis.report_to_json report)
  | other ->
    Printf.eprintf "error: unknown format %s (text|json)\n" other;
    exit 2);
  if not (Tse_analysis.Analysis.is_clean report) then exit 1

open Cmdliner

let schema_arg =
  let doc = "Initial schema: university, random or empty." in
  Arg.(value & opt string "university" & info [ "schema" ] ~doc)

let seed_arg =
  let doc = "Seed for the random schema." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let script_arg =
  let doc = "Execute commands from this file before reading stdin." in
  Arg.(value & opt (some string) None & info [ "script" ] ~doc)

let repl_term = Term.(const repl $ schema_arg $ seed_arg $ script_arg)

let dir_arg =
  let doc = "Durable database directory (snapshot + write-ahead log)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)

let lint_format_arg =
  let doc = "Output format: text or json." in
  Arg.(value & pos 0 string "text" & info [] ~docv:"FORMAT" ~doc)

let catalog_arg =
  let doc =
    "Lint the schema of a saved catalog (see the repl's save command), \
     or of a durable directory's checkpoint (DIR/snapshot), instead of \
     a built-in one."
  in
  Arg.(value & opt (some string) None & info [ "catalog" ] ~docv:"PATH" ~doc)

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static schema analyzer (expression typechecking + \
          derivation linting) over a database schema and print the \
          diagnostics. Exits 1 if any error-severity diagnostic is \
          reported.")
    Term.(const lint $ lint_format_arg $ schema_arg $ seed_arg $ catalog_arg)

let repl_cmd =
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive shell (the default command)")
    repl_term

let recover_cmd =
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Open a durable database directory, replaying (and if necessary \
          truncating) its write-ahead log, report what was recovered and \
          run the consistency oracle. Exits non-zero if the recovered \
          state is inconsistent.")
    Term.(const recover $ dir_arg)

let checkpoint_cmd =
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:
         "Open a durable database directory and fold its write-ahead log \
          into a fresh snapshot (atomic replace), then reset the log.")
    Term.(const checkpoint $ dir_arg)

let soak_dir_arg =
  let doc =
    "Durable database directory for the soak (a throwaway under the \
     temp dir by default)."
  in
  Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)

let soak_steps_arg =
  let doc = "Evolution attempts to run." in
  Arg.(value & opt int 300 & info [ "steps" ] ~doc)

let soak_crashes_arg =
  let doc = "Mid-evolution crash/recover cycles to inject." in
  Arg.(value & opt int 30 & info [ "crashes" ] ~doc)

let soak_seed_arg =
  let doc = "Scenario seed (the whole run is deterministic in it)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let soak_out_arg =
  let doc = "Write the BENCH_scenarios.json document to this path." in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"PATH" ~doc)

let soak_cmd =
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Run the chaos soak harness: seeded scenarios of view evolutions \
          with OCC reader/writer traffic and crashes injected \
          mid-evolution at every evolve phase and WAL record boundary; \
          after every recovery assert invariants, analyzer cleanliness \
          and equivalence with a never-crashed twin. Exits 1 on any \
          violation.")
    Term.(
      const soak $ soak_dir_arg $ soak_steps_arg $ soak_crashes_arg
      $ soak_seed_arg $ soak_out_arg)

let addr_arg =
  let doc =
    "Stats endpoint address: HOST:PORT (numeric host; port 0 = kernel \
     picks) or unix:PATH. Defaults to TSE_STATS_ADDR, else 127.0.0.1:9464."
  in
  Arg.(value & opt (some string) None & info [ "addr" ] ~docv:"ADDR" ~doc)

let sample_ms_arg =
  let doc =
    "Sampler tick in milliseconds. Defaults to TSE_SAMPLE_MS, else 250."
  in
  Arg.(value & opt (some int) None & info [ "sample-ms" ] ~docv:"MS" ~doc)

let linger_arg =
  let doc =
    "Keep the endpoint scrapeable this many seconds after the soak ends."
  in
  Arg.(value & opt int 0 & info [ "linger-s" ] ~docv:"SECONDS" ~doc)

let serve_stats_cmd =
  Cmd.v
    (Cmd.info "serve-stats"
       ~doc:
         "Run the chaos soak with the live telemetry plane attached: a \
          background sampler ticks the metrics registry into ring-buffer \
          time-series, and an HTTP endpoint serves Prometheus-style \
          exposition (/metrics), the sampled series (/series) and live \
          headline rates (/rates) while the workload runs. Exits 1 on any \
          soak violation.")
    Term.(
      const serve_stats $ addr_arg $ sample_ms_arg $ soak_dir_arg
      $ soak_steps_arg $ soak_crashes_arg $ soak_seed_arg $ soak_out_arg
      $ linger_arg)

let top_count_arg =
  let doc = "Number of refreshes before exiting." in
  Arg.(value & opt int 5 & info [ "n"; "count" ] ~docv:"N" ~doc)

let top_interval_arg =
  let doc = "Milliseconds between refreshes." in
  Arg.(value & opt int 1000 & info [ "interval-ms" ] ~docv:"MS" ~doc)

let top_cmd =
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Attach to a running serve-stats endpoint and render its live \
          rates (ops/s, fsyncs/commit, formula evals/s, pool \
          utilization).")
    Term.(const top $ addr_arg $ top_count_arg $ top_interval_arg)

let trace_file_arg =
  let doc = "TSE_TRACE JSONL file to analyze." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let trace_mode_arg =
  let doc =
    "Report: summary (per-phase p50/p95/p99), critical (critical-path \
     breakdown of the slowest roots), or slow (slowest spans)."
  in
  Arg.(value & pos 1 string "summary" & info [] ~docv:"MODE" ~doc)

let trace_json_arg =
  let doc = "Emit JSON instead of the text table (summary mode)." in
  Arg.(value & flag & info [ "json" ] ~doc)

let trace_top_arg =
  let doc = "How many roots/spans the critical and slow modes show." in
  Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc)

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Analyze a TSE_TRACE span file: rebuild span trees from \
          span/parent ids and attribute latency per phase (quantiles), \
          along critical paths (self-times), or to the slowest spans. \
          Tolerates traces torn by a crash.")
    Term.(
      const trace_analyze $ trace_file_arg $ trace_mode_arg $ trace_json_arg
      $ trace_top_arg)

let cmd =
  Cmd.group
    ~default:repl_term
    (Cmd.info "tse_cli" ~version:"1.0"
       ~doc:"Interactive shell for the Transparent Schema Evolution system")
    [
      repl_cmd; recover_cmd; checkpoint_cmd; lint_cmd; soak_cmd;
      serve_stats_cmd; top_cmd; trace_cmd;
    ]

let () = exit (Cmd.eval cmd)
