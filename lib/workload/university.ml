module Value = Tse_store.Value
module Oid = Tse_store.Oid
module Prop = Tse_schema.Prop
module Schema_graph = Tse_schema.Schema_graph
module Database = Tse_db.Database

type cid = Tse_schema.Klass.cid

type t = {
  db : Database.t;
  person : cid;
  student : cid;
  staff : cid;
  teaching_staff : cid;
  support_staff : cid;
  ta : cid;
  grad : cid;
  grader : cid;
}

(* Property [origin] is rewritten by [register_base]; the placeholder root
   oid used here never survives. *)
let o0 = Oid.of_int 0
let stored = Prop.stored ~origin:o0

let build () =
  let db = Database.create () in
  let g = Database.graph db in
  let reg name props supers =
    Schema_graph.register_base g ~name ~props ~supers
  in
  let person =
    reg "Person"
      [
        stored "name" Value.TString;
        stored "age" Value.TInt;
        stored "ssn" Value.TInt;
      ]
      []
  in
  let student =
    reg "Student"
      [ stored "gpa" Value.TFloat; stored "major" Value.TString ]
      [ person ]
  in
  let staff = reg "Staff" [ stored "salary" Value.TInt ] [ person ] in
  let teaching_staff =
    reg "TeachingStaff" [ stored "lecture" Value.TString ] [ staff ]
  in
  let support_staff =
    reg "SupportStaff" [ stored "boss" Value.TString ] [ staff ]
  in
  let ta = reg "TA" [ stored "hours" Value.TInt ] [ student; teaching_staff ] in
  let grad = reg "Grad" [ stored "thesis" Value.TString ] [ student ] in
  let grader = reg "Grader" [ stored "course" Value.TString ] [ ta ] in
  { db; person; student; staff; teaching_staff; support_staff; ta; grad; grader }

let populate t ~n =
  let created = ref [] in
  for i = 0 to n - 1 do
    let name = Value.String (Printf.sprintf "p%04d" i) in
    let age = Value.Int (18 + (i mod 50)) in
    let common = [ ("name", name); ("age", age); ("ssn", Value.Int (10000 + i)) ] in
    let cls, extra =
      match i mod 6 with
      | 0 -> t.person, []
      | 1 ->
        ( t.student,
          [ ("gpa", Value.Float (2.0 +. float_of_int (i mod 20) /. 10.));
            ("major", Value.String "eecs") ] )
      | 2 -> t.grad, [ ("thesis", Value.String "views"); ("gpa", Value.Float 3.5) ]
      | 3 ->
        ( t.ta,
          [ ("hours", Value.Int (10 + (i mod 10)));
            ("gpa", Value.Float 3.0);
            ("lecture", Value.String "db101");
            ("salary", Value.Int (1000 + i)) ] )
      | 4 -> t.support_staff, [ ("boss", Value.String "dean"); ("salary", Value.Int (2000 + i)) ]
      | _ ->
        ( t.grader,
          [ ("course", Value.String "db101");
            ("hours", Value.Int 5);
            ("gpa", Value.Float 3.2);
            ("salary", Value.Int (500 + i)) ] )
    in
    let o = Database.create_object t.db cls ~init:(common @ extra) in
    created := o :: !created
  done;
  List.rev !created
