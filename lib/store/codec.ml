exception Corrupt of string * int

let fail_at pos what = raise (Corrupt (what, pos))

let sharer () =
  let seen = Hashtbl.create 64 in
  fun s ->
    match Hashtbl.find_opt seen s with
    | Some shared -> shared
    | None ->
      Hashtbl.add seen s s;
      s

(* Digits of the non-positive [n], most significant first. [-|i|]
   exists for every int, [min_int] included, and for [n <= 0] both
   [n / 10] and [n mod 10] round toward zero, so [n mod 10] is in
   [-9, 0]. Division by a constant compiles to a multiply. *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

(* The bytes of [string_of_int i], written straight into [buf]. *)
let add_decimal buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf i
  end
  else add_digits buf (-i)

let add_int buf i =
  add_decimal buf i;
  Buffer.add_char buf ';'

let add_str buf s =
  add_decimal buf (String.length s);
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let add_bool buf b = Buffer.add_char buf (if b then '1' else '0')

let add_list buf add xs =
  add_int buf (List.length xs);
  List.iter (add buf) xs

let int_of_string_at pos s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail_at pos (Printf.sprintf "bad int %S" s)

let read_int s pos =
  let j =
    try String.index_from s pos ';'
    with Not_found | Invalid_argument _ -> fail_at pos "unterminated int"
  in
  (int_of_string_at pos (String.sub s pos (j - pos)), j + 1)

let read_str s pos =
  let j =
    try String.index_from s pos ':'
    with Not_found | Invalid_argument _ -> fail_at pos "unterminated str"
  in
  let n = int_of_string_at pos (String.sub s pos (j - pos)) in
  if n < 0 || j + 1 + n > String.length s then fail_at pos "truncated str";
  (String.sub s (j + 1) n, j + 1 + n)

let read_bool s pos =
  if pos >= String.length s then fail_at pos "eof";
  match s.[pos] with
  | '1' -> (true, pos + 1)
  | '0' -> (false, pos + 1)
  | c -> fail_at pos (Printf.sprintf "bad bool %C" c)

let read_list read s pos =
  let n, pos = read_int s pos in
  if n < 0 then fail_at pos "negative list length";
  let rec go acc pos k =
    if k = 0 then (List.rev acc, pos)
    else
      let x, pos = read s pos in
      go (x :: acc) pos (k - 1)
  in
  go [] pos n

let concat_lists = function
  | [ blob ] -> blob
  | blobs ->
    let parts = List.map (fun s -> (s, read_int s 0)) blobs in
    let total = List.fold_left (fun n (_, (k, _)) -> n + k) 0 parts in
    let buf =
      Buffer.create (List.fold_left (fun n s -> n + String.length s) 16 blobs)
    in
    add_int buf total;
    List.iter
      (fun (s, (_, pos)) ->
        Buffer.add_substring buf s pos (String.length s - pos))
      parts;
    Buffer.contents buf
