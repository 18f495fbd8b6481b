module Pool = Tse_pool.Pool

let needs_escape c = c = ' ' || c = '\n' || c = '\\'

let escape s =
  (* Tags and slot names are identifiers in practice, but stay safe. *)
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | ' ' -> Buffer.add_string buf "\\s"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\\' -> Buffer.add_string buf "\\\\"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let unescape_slow s =
  let buf = Buffer.create (String.length s) in
  let rec loop i =
    if i >= String.length s then Buffer.contents buf
    else if s.[i] = '\\' && i + 1 < String.length s then begin
      (match s.[i + 1] with
      | 's' -> Buffer.add_char buf ' '
      | 'n' -> Buffer.add_char buf '\n'
      | '\\' -> Buffer.add_char buf '\\'
      | c ->
        Buffer.add_char buf '\\';
        Buffer.add_char buf c);
      loop (i + 2)
    end
    else begin
      Buffer.add_char buf s.[i];
      loop (i + 1)
    end
  in
  loop 0

let unescape s = if String.contains s '\\' then unescape_slow s else s

let encode_cell buf (c : Heap.cell) =
  Buffer.add_string buf "obj ";
  Codec.add_decimal buf (Oid.to_int c.oid);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (escape c.tag);
  Buffer.add_char buf ' ';
  Codec.add_decimal buf (Array.length c.slots);
  Buffer.add_char buf '\n';
  (* the cell keeps its slots in name order, the order the image lists *)
  Array.iter
    (fun (k, v) ->
      Buffer.add_string buf "slot ";
      Buffer.add_string buf (escape k);
      Buffer.add_char buf ' ';
      Value.encode buf v;
      Buffer.add_char buf '\n')
    c.slots

let to_string heap =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "TSE-HEAP 1\n";
  let max_oid =
    Heap.fold heap ~init:0 ~f:(fun acc c -> max acc (Oid.to_int c.Heap.oid))
  in
  Buffer.add_string buf (Printf.sprintf "gen %d\n" (max_oid + 1));
  (* Shard the encode by OID range: cells are immutable for the
     duration, each chunk renders into its own buffer, and chunk order
     equals ascending OID order, so the bytes do not depend on the pool
     size.  A size-1 pool runs the one chunk inline. *)
  Pool.map_chunks (Pool.global ()) ~n:(Heap.capacity heap) (fun ~lo ~hi ->
      let b = Buffer.create 4096 in
      Heap.fold_range heap ~lo ~hi ~init:() ~f:(fun () c -> encode_cell b c);
      Buffer.contents b)
  |> List.iter (Buffer.add_string buf);
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let m_encodes = Tse_obs.Metrics.counter "snapshot.encodes"
let m_decodes = Tse_obs.Metrics.counter "snapshot.decodes"

(* Instrumented shadow: spans cover the whole encode, counters aggregate
   across heaps. *)
let to_string heap =
  Tse_obs.Trace.with_span "snapshot.encode" @@ fun () ->
  Tse_obs.Metrics.incr m_encodes;
  to_string heap

let fail lineno line what =
  failwith (Printf.sprintf "Snapshot: line %d: %s in %S" lineno what line)

let of_string s =
  let heap = Heap.create () in
  let share = Codec.sharer () and share_value = Codec.sharer () in
  (* a repeated scalar is one value, as a constant is in a live heap; a
     zero or NaN float is left alone, since [compare] does not tell its
     variants apart *)
  let shared_value v =
    match v with
    | Value.Int _ | Value.String _ -> share_value v
    | Value.Float f when f <> 0. && not (Float.is_nan f) -> share_value v
    | _ -> v
  in
  let n = String.length s in
  let line_end pos = Option.value (String.index_from_opt s pos '\n') ~default:n in
  let current = ref None in
  let expect_slots = ref 0 in
  let pos = ref 0 and lineno = ref 1 and seen_end = ref false in
  while not !seen_end do
    if !pos >= n then failwith "Snapshot: missing end marker";
    let eol = line_end !pos in
    let line = String.sub s !pos (eol - !pos) in
    let fail what = fail !lineno line what in
    (* where the next line starts: past this one, or past the value of a
       slot, which is length-prefixed and may itself hold newlines *)
    let next = ref (eol + 1) in
    (if String.starts_with ~prefix:"slot " line then begin
       let oid =
         match !current with
         | Some o -> o
         | None -> fail "slot before obj"
       in
       if !expect_slots <= 0 then fail "unexpected slot";
       let name_len =
         match String.index_from_opt line 5 ' ' with
         | Some i -> i - 5
         | None -> fail "slot without a value"
       in
       let v, stop = Value.decode s (!pos + 5 + name_len + 1) in
       Heap.set_slot heap oid
         (share (unescape (String.sub line 5 name_len)))
         (shared_value v);
       expect_slots := !expect_slots - 1;
       if stop > eol then begin
         let eol' = line_end stop in
         for i = eol to eol' - 1 do
           if s.[i] = '\n' then incr lineno
         done;
         next := eol' + 1
       end
     end
     else
       match String.split_on_char ' ' line with
       | [ "" ] | [ "TSE-HEAP"; "1" ] | [ "gen"; _ ] -> ()
       | [ "obj"; oid_s; tag; nslots ] ->
         if !expect_slots > 0 then fail "previous object truncated";
         let oid = Oid.of_int (int_of_string oid_s) in
         let oid = Heap.alloc_raw heap ~oid ~tag:(share (unescape tag)) in
         current := Some oid;
         expect_slots := int_of_string nslots
       | [ "end" ] ->
         if !expect_slots > 0 then fail "truncated object";
         seen_end := true
       | _ -> fail "unrecognized line");
    pos := !next;
    incr lineno
  done;
  heap

let of_string s =
  Tse_obs.Trace.with_span "snapshot.decode" @@ fun () ->
  Tse_obs.Metrics.incr m_decodes;
  of_string s

let roundtrip_equal a b =
  let cells heap =
    Heap.fold heap ~init:[] ~f:(fun acc (c : Heap.cell) ->
        (Oid.to_int c.oid, c.tag, c.slots) :: acc)
  in
  cells a = cells b
