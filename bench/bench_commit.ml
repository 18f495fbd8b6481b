(* Commit-throughput benchmark: the sync policies against each other.
   Every policy sends its commits through the one WAL path (frame into
   the group buffer, flush with one write and one fsync); they differ in
   how many commits share a flush, from one under the every_commit
   default to all of them under manual. Each policy runs the same
   write-heavy trace (one attribute write per commit) on a fresh durable
   directory; commits/sec and fsyncs/commit come from wall time and the
   WAL's amortization counters. Emits machine-readable BENCH_commit.json
   alongside the printed table so CI can assert the speedup. *)

open Tse_store
open Tse_schema
open Tse_db
module Metrics = Tse_obs.Metrics

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tse_bench_commit_%d_%d" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir
    end;
    dir

(* One base class, [objects] members, checkpointed so the measured trace
   starts from an empty log. *)
let mk_fixture ~policy ~objects =
  let dir = fresh_dir () in
  let d, _ = Durable.open_dir ~policy ~dir () in
  let db = Durable.db d in
  let item =
    Schema_graph.register_base (Database.graph db) ~name:"Item"
      ~props:[ Prop.stored ~origin:(Oid.of_int 0) "n" Value.TInt ]
      ~supers:[]
  in
  let objs =
    Array.init objects (fun i ->
        Database.create_object db item ~init:[ ("n", Value.Int i) ])
  in
  Durable.checkpoint d;
  (dir, d, db, objs)

type row = {
  label : string;
  seconds : float;
  commits_per_sec : float;
  fsyncs : int;
  fsyncs_per_commit : float;
  bytes_framed : int;
  max_batches_per_sync : int;
}

(* Best of three fresh fixtures; each run ends with an explicit barrier
   so every policy pays for full durability of the whole trace, and is
   verified by reopening the directory. *)
let measure ~policy ~label ~objects ~commits =
  let once () =
    let dir, d, db, objs = mk_fixture ~policy ~objects in
    let f0 = (Durable.wal_stats d).Wal.fsyncs in
    let b0 = (Durable.wal_stats d).Wal.bytes_framed in
    let t0 = Unix.gettimeofday () in
    for i = 0 to commits - 1 do
      Database.set_attr db objs.(i mod Array.length objs) "n" (Value.Int i);
      Durable.commit d
    done;
    Durable.sync d;
    let dt = Unix.gettimeofday () -. t0 in
    let s = Durable.wal_stats d in
    let fsyncs = s.Wal.fsyncs - f0 in
    let bytes = s.Wal.bytes_framed - b0 in
    let max_group = s.Wal.max_batches_per_sync in
    Durable.close d;
    (* everything the trace wrote must actually be on disk *)
    let d2, _ = Durable.open_dir ~policy ~dir () in
    (match Database.check (Durable.db d2) with
    | [] -> ()
    | p -> failwith ("bench fixture inconsistent: " ^ String.concat "; " p));
    let last = Value.Int (commits - 1) in
    let survivor = objs.((commits - 1) mod Array.length objs) in
    if not (Value.equal (Database.get_prop (Durable.db d2) survivor "n") last)
    then failwith "bench: last committed write did not survive reopen";
    Durable.close d2;
    {
      label;
      seconds = dt;
      commits_per_sec = float_of_int commits /. dt;
      fsyncs;
      fsyncs_per_commit = float_of_int fsyncs /. float_of_int commits;
      bytes_framed = bytes;
      max_batches_per_sync = max_group;
    }
  in
  let best = ref (once ()) in
  for _ = 2 to 3 do
    let r = once () in
    if r.commits_per_sec > !best.commits_per_sec then best := r
  done;
  !best

let json_of rows ~smoke ~objects ~commits ~base =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Printf.bprintf b "  \"benchmark\": \"commit\",\n";
  Printf.bprintf b "  \"smoke\": %b,\n" smoke;
  Printf.bprintf b "  \"objects\": %d,\n" objects;
  Printf.bprintf b "  \"commits\": %d,\n" commits;
  Printf.bprintf b "  \"domains\": %d,\n"
    (Tse_pool.Pool.size (Tse_pool.Pool.global ()));
  Printf.bprintf b "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ());
  (* registry totals for the whole run (all policies, best-of-3 each),
     plus the headline ratio CI tooling reads without summing rows *)
  let g8 = List.find_opt (fun r -> r.label = "group:8") rows in
  Printf.bprintf b "  \"metrics\": {\n";
  (match g8 with
  | Some r ->
    Printf.bprintf b "    \"fsyncs_per_commit_group8\": %.4f,\n"
      r.fsyncs_per_commit
  | None -> ());
  Printf.bprintf b "    \"wal_fsyncs_total\": %d,\n"
    (Metrics.find_counter "wal.fsyncs");
  Printf.bprintf b "    \"wal_bytes_framed_total\": %d,\n"
    (Metrics.find_counter "wal.bytes_framed");
  Printf.bprintf b "    \"durable_commits_total\": %d,\n"
    (Metrics.find_counter "durable.commits");
  Printf.bprintf b "    \"registry\": %s\n"
    (Metrics.to_json (Metrics.nonzero (Metrics.snapshot ())));
  Printf.bprintf b "  },\n";
  Buffer.add_string b "  \"policies\": [\n";
  List.iteri
    (fun i r ->
      Printf.bprintf b
        "    {\"policy\": \"%s\", \"seconds\": %.4f, \
         \"commits_per_sec\": %.1f, \"speedup_vs_every_commit\": %.2f, \
         \"fsyncs\": %d, \"fsyncs_per_commit\": %.4f, \
         \"bytes_framed\": %d, \"max_batches_per_sync\": %d}%s\n"
        r.label r.seconds r.commits_per_sec
        (r.commits_per_sec /. base.commits_per_sec)
        r.fsyncs r.fsyncs_per_commit r.bytes_framed r.max_batches_per_sync
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let run ~smoke () =
  (* scope the registry to this run so the metrics section is readable *)
  Metrics.reset ();
  let objects = 64 in
  let commits = if smoke then 200 else 2000 in
  Printf.printf
    "commit throughput: %d commits (one attr write each), %d objects, \
     barrier at end of every run\n%!"
    commits objects;
  let policies =
    [
      ("every_commit", Durable.Every_commit);
      ("group:2", Durable.Group 2);
      ("group:8", Durable.Group 8);
      ("group:32", Durable.Group 32);
      ("manual", Durable.Manual);
    ]
  in
  let rows =
    List.map
      (fun (label, policy) -> measure ~policy ~label ~objects ~commits)
      policies
  in
  let base = List.hd rows in
  List.iter
    (fun r ->
      Printf.printf
        "  %-12s %10.0f commits/s   %7.4f fsyncs/commit   speedup %6.2fx   \
         max group %4d   %7d bytes framed\n"
        r.label r.commits_per_sec r.fsyncs_per_commit
        (r.commits_per_sec /. base.commits_per_sec)
        r.max_batches_per_sync r.bytes_framed)
    rows;
  let json = json_of rows ~smoke ~objects ~commits ~base in
  let oc = open_out "BENCH_commit.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_commit.json\n";
  (* the headline claim, enforced where the numbers are produced *)
  let g8 = List.find (fun r -> r.label = "group:8") rows in
  if g8.fsyncs_per_commit > 0.2 then begin
    Printf.printf "FAIL: group:8 used %.4f fsyncs/commit (> 0.2)\n"
      g8.fsyncs_per_commit;
    exit 1
  end;
  if (not smoke) && g8.commits_per_sec /. base.commits_per_sec < 5.0 then begin
    Printf.printf "FAIL: group:8 speedup below 5x over every_commit\n";
    exit 1
  end
