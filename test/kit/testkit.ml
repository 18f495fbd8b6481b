(* Change generators and property bodies shared by test/test_main and
   test/regression. A seed replays the same draws in both binaries, so a
   regression replay keeps its meaning as long as this file does. *)

open Tse_store
open Tse_schema
open Tse_db
open Tse_core
open Tse_workload

(* A random primitive change that is *plausible* for the given schema —
   it may still be rejected; rejection must then agree across oracles.
   [kind] (0-7) fixes which change it is instead of drawing it. *)
let random_change ?kind rng (rs : Random_schema.t) =
  let g = Database.graph rs.db in
  let cls cid = Schema_graph.name_of g cid in
  let c1 = Random_schema.random_class rng rs in
  let c2 = Random_schema.random_class rng rs in
  let kind =
    match kind with Some k -> k | None -> Random.State.int rng 8
  in
  match kind with
  | 0 ->
    Change.Add_attribute
      {
        cls = cls c1;
        def = Change.attr (Printf.sprintf "n%d" (Random.State.int rng 1000)) Value.TInt;
      }
  | 1 -> begin
    match Random_schema.random_attr rng rs c1 with
    | Some a -> Change.Delete_attribute { cls = cls c1; attr_name = a }
    | None -> Change.Delete_class { cls = cls c1 }
  end
  | 2 ->
    Change.Add_method
      {
        cls = cls c1;
        method_name = Printf.sprintf "m%d" (Random.State.int rng 1000);
        body = Expr.int 1;
      }
  | 3 -> Change.Add_edge { sup = cls c1; sub = cls c2 }
  | 4 -> Change.Delete_edge { sup = cls c1; sub = cls c2; connected_to = None }
  | 5 ->
    Change.Add_class
      {
        cls = Printf.sprintf "N%d" (Random.State.int rng 1000);
        connected_to = Some (cls c1);
      }
  | 6 -> Change.Delete_class { cls = cls c1 }
  | _ ->
    Change.Insert_class
      {
        cls = Printf.sprintf "I%d" (Random.State.int rng 1000);
        sup = cls c1;
        sub = cls c2;
      }

(* The body of "other views keep their fingerprints (Proposition B)": five
   random changes to view MINE over every class, then OTHER (every other
   class) must fingerprint as before and the database must be consistent.
   Answers the problems found; an exception other than [Change.Rejected]
   escapes. *)
let view_independence seed =
  let rng = Random.State.make [| seed; 23 |] in
  let rs = Random_schema.generate ~seed ~classes:10 ~objects:20 () in
  let tsem = Tsem.of_database rs.db in
  let names = Random_schema.class_names rs in
  let half = List.filteri (fun i _ -> i mod 2 = 0) names in
  ignore (Tsem.define_view_by_names tsem ~name:"MINE" names);
  ignore (Tsem.define_view_by_names tsem ~name:"OTHER" half);
  let before = Verify.view_fingerprint rs.db (Tsem.current tsem "OTHER") in
  for _ = 1 to 5 do
    try ignore (Tsem.evolve tsem ~view:"MINE" (random_change rng rs))
    with Change.Rejected _ -> ()
  done;
  (* then a delete_class_2, drawn from a stream of its own so the five
     draws above keep their meaning for every pinned seed *)
  (let cid = Random_schema.random_class (Random.State.make [| seed; 29 |]) rs in
   try
     ignore
       (Tsem.evolve tsem ~view:"MINE"
          (Change.Delete_class_2
             { cls = Schema_graph.name_of (Database.graph rs.db) cid }))
   with Change.Rejected _ -> ());
  let after = Verify.view_fingerprint rs.db (Tsem.current tsem "OTHER") in
  let issues =
    (if String.equal before after then [] else [ "OTHER view fingerprint changed" ])
    @ Database.check rs.db
  in
  (rs, issues)

(* The change sequence of "a change leaves the old view's hierarchy as it
   was": view V over every class of a small random schema, and a step [i]
   that cycles through all ten Section 6 kinds. Kinds 0-7 come from
   [random_change], 8 deletes a method an earlier step added (or adds one)
   and 9 is delete_class_2. *)
type sequence = {
  rs : Random_schema.t;
  tsem : Tsem.t;
  rng : Random.State.t;
  mutable methods : (string * string) list;
}

let sequence seed =
  let rng = Random.State.make [| seed; 53 |] in
  let rs = Random_schema.generate ~seed ~classes:8 ~objects:12 () in
  let tsem = Tsem.of_database rs.db in
  ignore
    (Tsem.define_view_by_names tsem ~name:"V" (Random_schema.class_names rs));
  { rs; tsem; rng; methods = [] }

let change_at s i =
  match i mod 10 with
  | 8 -> begin
    match s.methods with
    | (cls, method_name) :: rest ->
      s.methods <- rest;
      Change.Delete_method { cls; method_name }
    | [] -> random_change ~kind:2 s.rng s.rs
  end
  | 9 ->
    let cid = Random_schema.random_class s.rng s.rs in
    Change.Delete_class_2
      { cls = Schema_graph.name_of (Database.graph s.rs.db) cid }
  | kind -> random_change ~kind s.rng s.rs

(* Runs one change through the precheck and, if it passes, the
   translation. [Error] when a prechecked change then raises, or when the
   database is inconsistent afterwards. *)
let step s change =
  match Tsem.precheck s.tsem ~view:"V" change with
  | exception Change.Rejected _ -> Ok ()
  | checked -> (
    match Tsem.evolve_checked s.tsem checked with
    | exception e ->
      Error
        (Printf.sprintf "%s passed the precheck, then raised %s"
           (Change.to_string change) (Printexc.to_string e))
    | _ -> (
      (match change with
      | Change.Add_method { cls; method_name; _ } ->
        s.methods <- (cls, method_name) :: s.methods
      | _ -> ());
      match Database.check s.rs.db with
      | [] -> Ok ()
      | issues ->
        Error
          (Printf.sprintf "%s left the database inconsistent: %s"
             (Change.to_string change) (String.concat "; " issues))))

(* The first failing step of the 30 changes from [seed], if any. *)
let run_sequence seed =
  let s = sequence seed in
  let rec go i =
    if i >= 30 then None
    else
      match step s (change_at s i) with
      | Ok () -> go (i + 1)
      | Error msg -> Some (i, msg)
  in
  go 0
