module Oid = Tse_store.Oid
module Value = Tse_store.Value
module SMap = Map.Make (String)

type cid = Klass.cid
type entry = Single of Prop.t | Conflict of Prop.t list

(* Candidate sets: distinct properties (by uid) visible under one name. *)
type candidates = Prop.t list

let add_candidate (p : Prop.t) cs =
  if List.exists (Prop.same_prop p) cs then cs else cs @ [ p ]

let merge_candidates a b = List.fold_left (fun acc p -> add_candidate p acc) a b

(* The supers' merged visible maps: what a class inherits, before its own
   definitions override any of it. [go] answers a super's visible map. *)
let inherited go (k : Klass.t) =
  List.fold_left
    (fun acc sup ->
      SMap.union (fun _ a b -> Some (merge_candidates a b)) acc (go sup))
    SMap.empty k.supers

(* visible g: cid -> (name -> candidates), with local definitions
   overriding; memoized across the classes one call visits. *)
let visible graph =
  let memo = Oid.Tbl.create 16 in
  let rec go cid =
    match Oid.Tbl.find_opt memo cid with
    | Some m -> m
    | None ->
      let k = Schema_graph.find_exn graph cid in
      let m =
        List.fold_left
          (fun acc (p : Prop.t) -> SMap.add p.name [ p ] acc)
          (inherited go k) k.local_props
      in
      Oid.Tbl.replace memo cid m;
      m
  in
  go

let resolve (cs : candidates) =
  match cs with
  | [] -> assert false
  | [ p ] -> Single p
  | ps -> begin
    (* Promoted definitions take priority (Section 6.2.3, Proposition B). *)
    match List.filter (fun (p : Prop.t) -> p.promoted) ps with
    | [ p ] -> Single p
    | _ -> Conflict ps
  end

let full_type graph cid =
  visible graph cid |> SMap.bindings
  |> List.map (fun (name, cs) -> name, resolve cs)

let find graph cid name =
  Option.map resolve (SMap.find_opt name (visible graph cid))

let find_usable graph cid name =
  match find graph cid name with
  | Some (Single p) -> Some p
  | Some (Conflict _) | None -> None

let has_prop graph cid name = SMap.mem name (visible graph cid)
let prop_names graph cid = SMap.bindings (visible graph cid) |> List.map fst

let usable_props graph cid =
  full_type graph cid
  |> List.filter_map (fun (_, e) ->
         match e with Single p -> Some p | Conflict _ -> None)

let stored_attrs graph cid = List.filter Prop.is_stored (usable_props graph cid)

let inherited_candidates graph cid =
  let m = inherited (visible graph) (Schema_graph.find_exn graph cid) in
  fun name -> Option.value (SMap.find_opt name m) ~default:[]

let is_uppermost_in graph ~view cid name =
  has_prop graph cid name
  && Oid.Set.for_all
       (fun anc -> not (has_prop graph anc name))
       (Oid.Set.inter (Schema_graph.ancestors graph cid) view)

let body_signature = function
  | Prop.Stored { ty; required; _ } ->
    Printf.sprintf "stored:%s%s" (Value.ty_to_string ty)
      (if required then "!" else "")
  | Prop.Method e -> Printf.sprintf "method:%s" (Expr.to_string e)

let type_signature graph cid =
  full_type graph cid
  |> List.map (fun (name, e) ->
         match e with
         | Single p -> Printf.sprintf "%s=%s" name (body_signature p.body)
         | Conflict ps ->
           Printf.sprintf "%s=conflict{%s}" name
             (String.concat "|"
                (List.sort String.compare
                   (List.map (fun (p : Prop.t) -> body_signature p.Prop.body) ps))))
  |> String.concat ";"

let type_equal graph a b =
  String.equal (type_signature graph a) (type_signature graph b)

let subtype_of graph ~sub ~sup =
  List.for_all
    (fun (p : Prop.t) ->
      match find_usable graph sub p.name with
      | Some q -> String.equal (body_signature p.body) (body_signature q.body)
      | None -> false)
    (usable_props graph sup)

let pp_entry ppf = function
  | Single p -> Prop.pp ppf p
  | Conflict ps ->
    Format.fprintf ppf "CONFLICT{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf " | ")
         Prop.pp)
      ps
