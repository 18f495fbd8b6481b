type t = {
  views : (string, View_schema.t list ref) Hashtbl.t;
      (* view name -> versions, newest first *)
  mutable log : View_schema.t list;  (* every registration, newest first *)
  mutable count : int;  (* length of [log] *)
}

let create () = { views = Hashtbl.create 8; log = []; count = 0 }

let versions_ref t name =
  match Hashtbl.find_opt t.views name with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.replace t.views name r;
    r

let current t name =
  match Hashtbl.find_opt t.views name with
  | Some { contents = v :: _ } -> Some v
  | Some { contents = [] } | None -> None

let current_exn t name =
  match current t name with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "History: no view named %s" name)

let push t r (v : View_schema.t) =
  r := v :: !r;
  t.log <- v :: t.log;
  t.count <- t.count + 1

let register t (v : View_schema.t) =
  let r = versions_ref t v.view_name in
  let expected = match !r with [] -> 0 | latest :: _ -> latest.View_schema.version + 1 in
  if v.version <> expected then
    invalid_arg
      (Printf.sprintf "History.register: expected %s version %d, got %d"
         v.view_name expected v.version);
  push t r v

let replace t (v : View_schema.t) =
  let r = versions_ref t v.view_name in
  let next = match !r with [] -> 0 | latest :: _ -> latest.View_schema.version + 1 in
  let v = View_schema.with_version v next in
  push t r v;
  v

let version t name n =
  match Hashtbl.find_opt t.views name with
  | None -> None
  | Some r -> List.find_opt (fun (v : View_schema.t) -> v.version = n) !r

let versions t name =
  match Hashtbl.find_opt t.views name with
  | None -> []
  | Some r -> List.rev !r

let view_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.views []
  |> List.sort String.compare

let total_versions t = t.count

let since t n =
  if n < 0 || n > t.count then
    invalid_arg (Printf.sprintf "History.since: %d of %d" n t.count);
  let rec take k l acc =
    if k = 0 then acc
    else match l with v :: l -> take (k - 1) l (v :: acc) | [] -> acc
  in
  take (t.count - n) t.log []
