type span = {
  name : string;
  start_us : int;
  dur_us : int;
  sid : int;
  psid : int option;
  attrs : (string * string) list;
}

(* Wall clock in microseconds, clamped to be monotonic within the
   process (gettimeofday can step backwards under NTP — and spans are
   emitted from every worker domain, so the clamp state is atomic). *)
let last_us = Atomic.make 0

let rec now_us () =
  let t = int_of_float (Unix.gettimeofday () *. 1e6) in
  let last = Atomic.get last_us in
  let t = if t > last then t else last in
  if Atomic.compare_and_set last_us last t then t else now_us ()

(* Span ids are process-unique (a single atomic counter); the parent
   link is per-domain — each domain keeps its own stack of open spans,
   so concurrent workers never see each other's frames as parents. *)
let next_sid = Atomic.make 1
let fresh_sid () = Atomic.fetch_and_add next_sid 1

let open_spans : int list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let current_parent () =
  match !(Domain.DLS.get open_spans) with [] -> None | sid :: _ -> Some sid

type sink_state =
  | Uninitialized
  | Disabled
  | Emit of (string -> unit) * (unit -> unit)  (* emit, flush *)

let state = ref Uninitialized

(* The most [Unix.write] hands the kernel in one call. A chunk no longer
   than this, written to an O_APPEND descriptor, lands whole at the end
   of the file even while other processes append to it too. *)
let chunk_max = 65536

let file_sink path =
  let fd =
    Unix.openfile path
      [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ]
      0o644
  in
  let buf = Buffer.create chunk_max in
  let lock = Mutex.create () in
  (* tracing never fails the traced program: a failed write drops the
     chunk *)
  let flush_locked () =
    if Buffer.length buf > 0 then begin
      let chunk = Buffer.contents buf in
      Buffer.clear buf;
      try ignore (Unix.write_substring fd chunk 0 (String.length chunk))
      with Unix.Unix_error _ -> ()
    end
  in
  let emit line =
    Mutex.protect lock (fun () ->
        if Buffer.length buf + String.length line + 1 > chunk_max then
          flush_locked ();
        Buffer.add_string buf line;
        Buffer.add_char buf '\n')
  in
  (emit, fun () -> Mutex.protect lock flush_locked)

let init_from_env () =
  match Sys.getenv_opt "TSE_TRACE" with
  | None | Some "" -> state := Disabled
  | Some path -> (
    match file_sink path with
    | exception Unix.Unix_error _ -> state := Disabled
    | emit, flush ->
      at_exit flush;
      state := Emit (emit, flush))

let sink () =
  (match !state with Uninitialized -> init_from_env () | _ -> ());
  !state

let set_sink = function
  | Some emit -> state := Emit (emit, fun () -> ())
  | None -> state := Uninitialized

let flush () = match !state with Emit (_, fl) -> fl () | _ -> ()

let json_escape = Metrics.json_escape

let emit_span emit name start_us dur_us ~sid ~psid attrs =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":\"%s\",\"start_us\":%d,\"dur_us\":%d"
       (json_escape name) start_us dur_us);
  Buffer.add_string buf (Printf.sprintf ",\"sid\":%d" sid);
  (match psid with
  | None -> ()
  | Some p -> Buffer.add_string buf (Printf.sprintf ",\"psid\":%d" p));
  (match attrs with
  | [] -> ()
  | attrs ->
    Buffer.add_string buf ",\"attrs\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
      attrs;
    Buffer.add_char buf '}');
  Buffer.add_char buf '}';
  emit (Buffer.contents buf)

let with_span ?(attrs = []) name f =
  match sink () with
  | Emit (emit, _) -> (
    let sid = fresh_sid () in
    let psid = current_parent () in
    let stack = Domain.DLS.get open_spans in
    stack := sid :: !stack;
    let pop () =
      match !stack with s :: rest when s = sid -> stack := rest | _ -> ()
    in
    let t0 = now_us () in
    match f () with
    | v ->
      pop ();
      emit_span emit name t0 (now_us () - t0) ~sid ~psid attrs;
      v
    | exception e ->
      pop ();
      emit_span emit name t0 (now_us () - t0) ~sid ~psid
        (attrs @ [ ("err", Printexc.to_string e) ]);
      raise e)
  | _ -> f ()

let event ?(attrs = []) name =
  match sink () with
  | Emit (emit, _) ->
    emit_span emit name (now_us ()) 0 ~sid:(fresh_sid ())
      ~psid:(current_parent ()) attrs
  | _ -> ()

(* ---- parser --------------------------------------------------------- *)
(* A minimal recursive-descent JSON parser covering exactly the shapes
   the emitter produces: objects whose values are strings, integers, or
   one level of string->string object. *)

exception Bad of string

type jv = Jstr of string | Jint of int | Jobj of (string * jv) list

let parse_json (s : string) : jv =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance (); loop ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance (); loop ()
        | Some '/' -> Buffer.add_char buf '/'; advance (); loop ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance (); loop ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance (); loop ()
        | Some 't' -> Buffer.add_char buf '\t'; advance (); loop ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance (); loop ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          let code =
            try int_of_string ("0x" ^ hex)
            with Failure _ -> fail "bad \\u escape"
          in
          (* The emitter only escapes control chars this way. *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else fail "unsupported \\u escape";
          pos := !pos + 4;
          loop ()
        | _ -> fail "bad escape")
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_int () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some i -> i
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Jstr (parse_string ())
    | Some '{' -> parse_obj ()
    | Some ('-' | '0' .. '9') -> Jint (parse_int ())
    | _ -> fail "expected value"
  and parse_obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then (advance (); Jobj [])
    else begin
      let fields = ref [] in
      let rec loop () =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        fields := (k, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); loop ()
        | Some '}' -> advance ()
        | _ -> fail "expected ',' or '}'"
      in
      loop ();
      Jobj (List.rev !fields)
    end
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse_line line =
  match parse_json line with
  | exception Bad msg -> Error msg
  | Jobj fields -> (
    let str k = match List.assoc_opt k fields with Some (Jstr s) -> Some s | _ -> None in
    let int k = match List.assoc_opt k fields with Some (Jint i) -> Some i | _ -> None in
    match (str "name", int "start_us", int "dur_us") with
    | Some name, Some start_us, Some dur_us ->
      let attrs =
        match List.assoc_opt "attrs" fields with
        | Some (Jobj kvs) ->
          List.filter_map
            (fun (k, v) -> match v with Jstr s -> Some (k, s) | _ -> None)
            kvs
        | _ -> []
      in
      (* sid/psid are absent in traces from before span ids existed;
         sid 0 means "unknown" and the analyzer treats it as a root. *)
      let sid = Option.value (int "sid") ~default:0 in
      Ok { name; start_us; dur_us; sid; psid = int "psid"; attrs }
    | _ -> Error "missing name/start_us/dur_us")
  | _ -> Error "not a JSON object"

let parse_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        (* A crash can tear the last line of the trace exactly like it
           tears the WAL, so a malformed line ends the parse rather
           than failing it: everything before it is returned, with the
           position of the damage. *)
        let rec loop lineno acc =
          match input_line ic with
          | exception End_of_file -> Ok (List.rev acc, None)
          | "" -> loop (lineno + 1) acc
          | line -> (
            match parse_line line with
            | Ok s -> loop (lineno + 1) (s :: acc)
            | Error msg -> Ok (List.rev acc, Some (lineno, msg)))
        in
        loop 1 [])
