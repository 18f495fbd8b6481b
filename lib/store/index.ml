type t = { buckets : (Value.t, Oid.Set.t ref) Hashtbl.t; mutable entries : int }

let create () = { buckets = Hashtbl.create 64; entries = 0 }

let add t v oid =
  match Hashtbl.find_opt t.buckets v with
  | Some set ->
    if not (Oid.Set.mem oid !set) then begin
      set := Oid.Set.add oid !set;
      t.entries <- t.entries + 1
    end
  | None ->
    Hashtbl.replace t.buckets v (ref (Oid.Set.singleton oid));
    t.entries <- t.entries + 1

let remove t v oid =
  match Hashtbl.find_opt t.buckets v with
  | None -> ()
  | Some set ->
    if Oid.Set.mem oid !set then begin
      set := Oid.Set.remove oid !set;
      t.entries <- t.entries - 1;
      if Oid.Set.is_empty !set then Hashtbl.remove t.buckets v
    end

let lookup t v =
  match Hashtbl.find_opt t.buckets v with Some s -> !s | None -> Oid.Set.empty

let cardinal t = t.entries
let distinct_keys t = Hashtbl.length t.buckets

let overhead_bytes t =
  (t.entries * Stats.sizeof_oid) + (distinct_keys t * Stats.sizeof_pointer)
