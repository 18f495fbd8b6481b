module Value = Tse_store.Value
module Oid = Tse_store.Oid
module Prop = Tse_schema.Prop
module Expr = Tse_schema.Expr
module Type_info = Tse_schema.Type_info
module Schema_graph = Tse_schema.Schema_graph
module Database = Tse_db.Database
module Ops = Tse_algebra.Ops

type t = {
  db : Database.t;
  classes : Tse_schema.Klass.cid list;
  virtuals : Tse_schema.Klass.cid list;
}

let random_pred rng g ~src ~salt =
  match Type_info.stored_attrs g src with
  | [] -> None
  | attrs ->
    let p = List.nth attrs (Random.State.int rng (List.length attrs)) in
    let base =
      match p.Prop.body with
      | Prop.Stored { ty = Value.TInt; _ } ->
        Expr.(attr p.Prop.name >= int (Random.State.int rng 100))
      | Prop.Stored { ty = Value.TBool; _ } ->
        Expr.(attr p.Prop.name === bool (Random.State.bool rng))
      | Prop.Stored _ | Prop.Method _ ->
        Expr.(attr p.Prop.name === str (Printf.sprintf "v%d" salt))
    in
    (* sometimes observe a membership, exercising class dependencies *)
    if Random.State.int rng 4 = 0 then
      let cname = Schema_graph.name_of g src in
      Some Expr.(base && In_class cname)
    else Some base

let generate ~seed ~classes ?(attrs_per_class = 3) ?(objects = 0)
    ?(virtuals = 0) ?(full_reclassify = false) () =
  let rng = Random.State.make [| seed |] in
  let db = Database.create () in
  Database.set_full_reclassify db full_reclassify;
  let g = Database.graph db in
  let attr_counter = ref 0 in
  let made = ref [] in
  for i = 0 to classes - 1 do
    let props =
      List.init attrs_per_class (fun _ ->
          incr attr_counter;
          let name = Printf.sprintf "a%d" !attr_counter in
          let ty =
            match Random.State.int rng 3 with
            | 0 -> Value.TInt
            | 1 -> Value.TString
            | _ -> Value.TBool
          in
          Prop.stored ~origin:(Oid.of_int 0) name ty)
    in
    let supers =
      match !made with
      | [] -> []
      | existing ->
        let pick () = List.nth existing (Random.State.int rng (List.length existing)) in
        let s1 = pick () in
        if List.length existing >= 2 && Random.State.int rng 4 = 0 then begin
          let s2 = pick () in
          if Oid.equal s1 s2 then [ s1 ] else [ s1; s2 ]
        end
        else [ s1 ]
    in
    (* a second super may be a descendant of the first; add_edge would then
       raise on redundancy only for cycles, which cannot occur here as all
       supers predate the class *)
    let cid =
      Schema_graph.register_base g ~name:(Printf.sprintf "C%d" i) ~props ~supers
    in
    made := cid :: !made
  done;
  let classes_list = List.rev !made in
  (* virtual select classes over random sources (bases or earlier
     virtuals), so derivation chains occur; a duplicate derivation is
     rejected by the algebra and simply skipped *)
  let virt = ref [] in
  let vsources = Array.of_list classes_list in
  for v = 0 to virtuals - 1 do
    let pool_extra = Array.of_list !virt in
    let total = Array.length vsources + Array.length pool_extra in
    let k = Random.State.int rng total in
    let src =
      if k < Array.length vsources then vsources.(k)
      else pool_extra.(k - Array.length vsources)
    in
    match random_pred rng g ~src ~salt:v with
    | None -> ()
    | Some pred -> (
      match Ops.select db ~name:(Printf.sprintf "V%d" v) ~src pred with
      | cid -> virt := cid :: !virt
      | exception Ops.Error _ -> ())
  done;
  let virtuals_list = List.rev !virt in
  let arr = Array.of_list classes_list in
  for j = 0 to objects - 1 do
    let cid = arr.(Random.State.int rng (Array.length arr)) in
    let init =
      Type_info.stored_attrs g cid
      |> List.filteri (fun k _ -> k < 2)
      |> List.map (fun (p : Prop.t) ->
             let v =
               match p.body with
               | Prop.Stored { ty = Value.TInt; _ } ->
                 Value.Int (Random.State.int rng 100)
               | Prop.Stored { ty = Value.TBool; _ } ->
                 Value.Bool (Random.State.bool rng)
               | Prop.Stored _ | Prop.Method _ ->
                 Value.String (Printf.sprintf "v%d" j)
             in
             (p.name, v))
    in
    ignore (Database.create_object db cid ~init)
  done;
  { db; classes = classes_list; virtuals = virtuals_list }

let class_names t =
  List.map (Schema_graph.name_of (Database.graph t.db)) t.classes

let random_class rng t =
  List.nth t.classes (Random.State.int rng (List.length t.classes))

let random_attr rng t cid =
  match Type_info.stored_attrs (Database.graph t.db) cid with
  | [] -> None
  | attrs ->
    let p = List.nth attrs (Random.State.int rng (List.length attrs)) in
    Some p.Prop.name
