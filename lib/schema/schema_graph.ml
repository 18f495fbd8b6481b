module Oid = Tse_store.Oid

type cid = Klass.cid

type t = {
  classes : Klass.t Oid.Tbl.t;
  (* each class's name, kept by the functions that register, rename,
     remove and install classes *)
  names : (string, cid) Hashtbl.t;
  (* each property name's declaring classes (those listing it among their
     local properties), kept by the same functions and by the two local
     property edits *)
  declared : (string, Oid.Set.t) Hashtbl.t;
  gen : Oid.Gen.t;
  root : cid;
  (* reachability caches, flushed on any edge or class mutation *)
  anc_cache : Oid.Set.t Oid.Tbl.t;
  desc_cache : Oid.Set.t Oid.Tbl.t;
  (* moved by every mutator below: anything derived from the schema is
     valid for one version *)
  mutable version : int;
  (* the version of each class record's last edit, and of each removal:
     what [changed_since] reports *)
  edited : int Oid.Tbl.t;
  removed : int Oid.Tbl.t;
}

let gen t = t.gen
let version t = t.version
let root t = t.root
let find t cid = Oid.Tbl.find_opt t.classes cid

let find_exn t cid =
  match find t cid with
  | Some k -> k
  | None -> invalid_arg (Printf.sprintf "Schema_graph: unknown class %s" (Oid.to_string cid))

let name_of t cid = (find_exn t cid).name
let mem t cid = Oid.Tbl.mem t.classes cid

let find_by_name t name = Option.map (find_exn t) (Hashtbl.find_opt t.names name)

let find_by_name_exn t name =
  match find_by_name t name with
  | Some k -> k
  | None -> invalid_arg (Printf.sprintf "Schema_graph: no class named %s" name)

let declarers t name =
  Option.value (Hashtbl.find_opt t.declared name) ~default:Oid.Set.empty

let declare t cid name =
  Hashtbl.replace t.declared name (Oid.Set.add cid (declarers t name))

let undeclare t cid name =
  let s = Oid.Set.remove cid (declarers t name) in
  if Oid.Set.is_empty s then Hashtbl.remove t.declared name
  else Hashtbl.replace t.declared name s

let classes t = Oid.Tbl.fold (fun _ k acc -> k :: acc) t.classes []
let cids t = Oid.Tbl.fold (fun cid _ acc -> cid :: acc) t.classes []
let size t = Oid.Tbl.length t.classes
let supers t cid = (find_exn t cid).supers
let subs t cid = (find_exn t cid).subs

let closure next start =
  let seen = ref Oid.Set.empty in
  let rec visit cid =
    List.iter
      (fun c ->
        if not (Oid.Set.mem c !seen) then begin
          seen := Oid.Set.add c !seen;
          visit c
        end)
      (next cid)
  in
  visit start;
  !seen

let touch t = t.version <- t.version + 1

(* a mutator that rewrites [cid]'s record (its name, supers or local
   properties) moves the version and stamps the class with it *)
let edit t cid =
  touch t;
  Oid.Tbl.replace t.edited cid t.version

let flush_caches t =
  touch t;
  Oid.Tbl.reset t.anc_cache;
  Oid.Tbl.reset t.desc_cache

let cached cache compute cid =
  match Oid.Tbl.find_opt cache cid with
  | Some s -> s
  | None ->
    let s = compute cid in
    Oid.Tbl.replace cache cid s;
    s

let ancestors t cid = cached t.anc_cache (closure (supers t)) cid
let descendants t cid = cached t.desc_cache (closure (subs t)) cid

let is_strict_ancestor t ~anc ~desc = Oid.Set.mem anc (ancestors t desc)

let is_ancestor_or_self t ~anc ~desc =
  Oid.equal anc desc || is_strict_ancestor t ~anc ~desc

let restore_empty ~gen ~root =
  Oid.Gen.mark_used gen root;
  { classes = Oid.Tbl.create 64; names = Hashtbl.create 64;
    declared = Hashtbl.create 64; gen; root;
    anc_cache = Oid.Tbl.create 64; desc_cache = Oid.Tbl.create 64;
    version = 0; edited = Oid.Tbl.create 64; removed = Oid.Tbl.create 4 }

(* free [k]'s name, unless another class has taken it since: installing
   a log's records one at a time can pass through such a state *)
let unname t (k : Klass.t) =
  if Hashtbl.find_opt t.names k.name = Some k.cid then
    Hashtbl.remove t.names k.name

(* take [k]'s name and its declarations out of the tables *)
let forget t (k : Klass.t) =
  unname t k;
  List.iter (fun (p : Prop.t) -> undeclare t k.cid p.name) k.local_props

(* [k]'s record replaces whatever [k.cid] held *)
let put t (k : Klass.t) =
  Option.iter (forget t) (find t k.cid);
  Oid.Tbl.replace t.classes k.cid k;
  Hashtbl.replace t.names k.name k.cid;
  List.iter (fun (p : Prop.t) -> declare t k.cid p.name) k.local_props

let create ~gen =
  let root = Oid.Gen.fresh gen in
  let t = restore_empty ~gen ~root in
  put t (Klass.make_base ~cid:root ~name:"Object" ~props:[]);
  t

let check_fresh_name t name =
  match find_by_name t name with
  | Some k ->
    invalid_arg
      (Printf.sprintf "Schema_graph: class name %s already used by %s" name
         (Oid.to_string k.cid))
  | None -> ()

let link t ~sup ~sub =
  let ksup = find_exn t sup and ksub = find_exn t sub in
  if not (List.exists (Oid.equal sub) ksup.subs) then begin
    ksup.subs <- ksup.subs @ [ sub ];
    ksub.supers <- ksub.supers @ [ sup ];
    flush_caches t;
    Oid.Tbl.replace t.edited sub t.version
  end

let unlink t ~sup ~sub =
  let ksup = find_exn t sup and ksub = find_exn t sub in
  ksup.subs <- List.filter (fun c -> not (Oid.equal c sub)) ksup.subs;
  ksub.supers <- List.filter (fun c -> not (Oid.equal c sup)) ksub.supers;
  flush_caches t;
  Oid.Tbl.replace t.edited sub t.version

let add_edge t ~sup ~sub =
  if Oid.equal sup sub then invalid_arg "Schema_graph.add_edge: self edge";
  if is_strict_ancestor t ~anc:sub ~desc:sup then
    invalid_arg
      (Printf.sprintf "Schema_graph.add_edge: %s-%s would create a cycle"
         (name_of t sup) (name_of t sub));
  let ksub = find_exn t sub in
  (* A real superclass supersedes the default root attachment. *)
  if
    (not (Oid.equal sup t.root))
    && List.exists (Oid.equal t.root) ksub.supers
  then unlink t ~sup:t.root ~sub;
  link t ~sup ~sub

let remove_edge t ~sup ~sub =
  unlink t ~sup ~sub;
  let ksub = find_exn t sub in
  if ksub.supers = [] && not (Oid.equal sub t.root) then
    link t ~sup:t.root ~sub

let register_base t ~name ~props ~supers =
  check_fresh_name t name;
  let cid = Oid.Gen.fresh t.gen in
  let props = List.map (fun p -> Prop.reoriginate p cid) props in
  put t (Klass.make_base ~cid ~name ~props);
  (match supers with
  | [] -> link t ~sup:t.root ~sub:cid
  | supers -> List.iter (fun sup -> add_edge t ~sup ~sub:cid) supers);
  cid

let register_virtual t ~name derivation props =
  check_fresh_name t name;
  let cid = Oid.Gen.fresh t.gen in
  let props = List.map (fun p -> Prop.reoriginate p cid) props in
  put t (Klass.make_virtual ~cid ~name derivation props);
  edit t cid;
  cid

let remove t cid =
  if Oid.equal cid t.root then invalid_arg "Schema_graph.remove: root";
  let k = find_exn t cid in
  List.iter (fun sup -> unlink t ~sup ~sub:cid) k.supers;
  List.iter (fun sub -> remove_edge t ~sup:cid ~sub) k.subs;
  Oid.Tbl.remove t.classes cid;
  forget t k;
  touch t;
  Oid.Tbl.remove t.edited cid;
  Oid.Tbl.replace t.removed cid t.version

(* In-place class edits: no edge moves, so the reachability caches stay. *)
let add_local_prop t cid (p : Prop.t) =
  let k = find_exn t cid in
  if Klass.has_local_prop k p.name then
    invalid_arg
      (Printf.sprintf "Schema_graph.add_local_prop: %s already defines %s"
         k.name p.name);
  k.local_props <- k.local_props @ [ p ];
  declare t cid p.name;
  edit t cid

let remove_local_prop t cid name =
  let k = find_exn t cid in
  k.local_props <-
    List.filter
      (fun (p : Prop.t) -> not (String.equal p.name name))
      k.local_props;
  undeclare t cid name;
  edit t cid

let rename t cid name =
  let k = find_exn t cid in
  if not (String.equal k.name name) then check_fresh_name t name;
  unname t k;
  Hashtbl.replace t.names name cid;
  k.name <- name;
  edit t cid

let subclasses_within t cid ~in_set =
  let seen = ref Oid.Set.empty in
  let order = ref [] in
  let rec visit c =
    if not (Oid.Set.mem c !seen) then begin
      seen := Oid.Set.add c !seen;
      if Oid.Set.mem c in_set then order := c :: !order;
      List.iter visit (subs t c)
    end
  in
  visit cid;
  List.rev !order

let topo_order t =
  let indegree = Oid.Tbl.create 64 in
  Oid.Tbl.iter
    (fun cid (k : Klass.t) -> Oid.Tbl.replace indegree cid (List.length k.supers))
    t.classes;
  let queue = Queue.create () in
  Oid.Tbl.iter (fun cid d -> if d = 0 then Queue.add cid queue) indegree;
  let order = ref [] in
  while not (Queue.is_empty queue) do
    let cid = Queue.pop queue in
    order := cid :: !order;
    List.iter
      (fun sub ->
        let d = Oid.Tbl.find indegree sub - 1 in
        Oid.Tbl.replace indegree sub d;
        if d = 0 then Queue.add sub queue)
      (subs t cid)
  done;
  let order = List.rev !order in
  assert (List.length order = size t);
  order

let is_redundant_edge t ~sup ~sub =
  List.exists
    (fun mid ->
      (not (Oid.equal mid sub)) && is_strict_ancestor t ~anc:mid ~desc:sub)
    (subs t sup)

let install t (k : Klass.t) =
  Oid.Gen.mark_used t.gen k.cid;
  put t k;
  flush_caches t;
  Oid.Tbl.remove t.removed k.cid;
  Oid.Tbl.replace t.edited k.cid t.version

let relink_subs t =
  Oid.Tbl.iter (fun _ (k : Klass.t) -> k.subs <- []) t.classes;
  let order = Oid.Tbl.fold (fun cid _ acc -> cid :: acc) t.classes [] in
  List.iter
    (fun sub ->
      List.iter
        (fun sup ->
          let ksup = find_exn t sup in
          if not (List.exists (Oid.equal sub) ksup.subs) then
            ksup.subs <- ksup.subs @ [ sub ])
        (find_exn t sub).supers)
    (List.sort Oid.compare order);
  flush_caches t

let changed_since t v =
  let changed =
    Oid.Tbl.fold
      (fun cid stamp acc -> if stamp > v then find_exn t cid :: acc else acc)
      t.edited []
    |> List.sort (fun (a : Klass.t) b -> Oid.compare a.cid b.cid)
  in
  let removed =
    Oid.Tbl.fold
      (fun cid stamp acc -> if stamp > v then cid :: acc else acc)
      t.removed []
    |> List.sort Oid.compare
  in
  (changed, removed)

let pp ppf t =
  let order = topo_order t in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun cid ->
      let k = find_exn t cid in
      Format.fprintf ppf "%s%s <- {%s}@ " k.name
        (if Klass.is_virtual k then "*" else "")
        (String.concat ", " (List.map (name_of t) k.supers)))
    order;
  Format.fprintf ppf "@]"
