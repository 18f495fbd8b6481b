module Oid = Tse_store.Oid
module Value = Tse_store.Value
module Prop = Tse_schema.Prop
module Schema_graph = Tse_schema.Schema_graph
module Type_info = Tse_schema.Type_info
module Database = Tse_db.Database

type cid = Tse_schema.Klass.cid

let rec ref_targets = function
  | Value.TRef c -> [ c ]
  | Value.TList t -> ref_targets t
  | Value.TAny | Value.TBool | Value.TInt | Value.TFloat | Value.TString -> []

(* The domain is covered when the named class, or a view class that is a
   global ancestor of it, is in the view. *)
let covered db view cname =
  match Schema_graph.find_by_name (Database.graph db) cname with
  | None -> false
  | Some k ->
    View_schema.mem view k.cid
    || List.exists
         (fun v ->
           Schema_graph.is_strict_ancestor (Database.graph db) ~anc:v ~desc:k.cid)
         (View_schema.classes view)

let missing db view =
  let graph = Database.graph db in
  List.concat_map
    (fun cid ->
      List.concat_map
        (fun (p : Prop.t) ->
          match p.body with
          | Prop.Stored { ty; _ } ->
            List.filter_map
              (fun cname ->
                if covered db view cname then None else Some (cid, p.name, cname))
              (ref_targets ty)
          | Prop.Method _ -> [])
        (Type_info.stored_attrs graph cid))
    (View_schema.classes view)

let is_closed db view = missing db view = []

let complete db view =
  let graph = Database.graph db in
  let rec fix view added =
    let view', added' =
      List.fold_left
        (fun (view, added) (_, _, cname) ->
          match Schema_graph.find_by_name graph cname with
          | Some k when not (View_schema.mem view k.cid) ->
            (View_schema.add_class view graph k.cid, k.cid :: added)
          | Some _ | None -> (view, added))
        (view, added) (missing db view)
    in
    if added' == added then (view, List.rev added) else fix view' added'
  in
  fix view []
