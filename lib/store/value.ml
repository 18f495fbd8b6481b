type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Ref of Oid.t
  | List of t list

type ty = TAny | TBool | TInt | TFloat | TString | TRef of string | TList of ty

let rec equal a b =
  match a, b with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.equal x y
  | String x, String y -> String.equal x y
  | Ref x, Ref y -> Oid.equal x y
  | List x, List y -> List.length x = List.length y && List.for_all2 equal x y
  | (Null | Bool _ | Int _ | Float _ | String _ | Ref _ | List _), _ -> false

let tag = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | String _ -> 4
  | Ref _ -> 5
  | List _ -> 6

let rec compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | String x, String y -> String.compare x y
  | Ref x, Ref y -> Oid.compare x y
  | List x, List y -> List.compare compare x y
  | a, b -> Int.compare (tag a) (tag b)

let tag_compatible a b =
  match a, b with
  | Int _, Float _ | Float _, Int _ -> true
  | a, b -> tag a = tag b

let rec conforms v ty =
  match v, ty with
  | Null, _ -> true
  | _, TAny -> true
  | Bool _, TBool -> true
  | Int _, TInt -> true
  | Float _, TFloat -> true
  | Int _, TFloat -> true
  | String _, TString -> true
  | Ref _, TRef _ -> true
  | List vs, TList ty -> List.for_all (fun v -> conforms v ty) vs
  | (Bool _ | Int _ | Float _ | String _ | Ref _ | List _), _ -> false

let rec ty_equal a b =
  match a, b with
  | TAny, TAny | TBool, TBool | TInt, TInt | TFloat, TFloat | TString, TString
    ->
    true
  | TRef x, TRef y -> String.equal x y
  | TList x, TList y -> ty_equal x y
  | (TAny | TBool | TInt | TFloat | TString | TRef _ | TList _), _ -> false

let rec ty_compatible sub sup =
  match sub, sup with
  | _, TAny -> true
  | TInt, TFloat -> true
  | TList a, TList b -> ty_compatible a b
  | a, b -> ty_equal a b

let rec size_bytes = function
  | Null -> 1
  | Bool _ -> 1
  | Int _ -> 8
  | Float _ -> 8
  | String s -> 8 + String.length s
  | Ref _ -> 8
  | List vs -> List.fold_left (fun acc v -> acc + size_bytes v) 8 vs

let rec pp ppf = function
  | Null -> Format.pp_print_string ppf "null"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | String s -> Format.fprintf ppf "%S" s
  | Ref o -> Oid.pp ppf o
  | List vs ->
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp)
      vs

let rec pp_ty ppf = function
  | TAny -> Format.pp_print_string ppf "any"
  | TBool -> Format.pp_print_string ppf "bool"
  | TInt -> Format.pp_print_string ppf "int"
  | TFloat -> Format.pp_print_string ppf "float"
  | TString -> Format.pp_print_string ppf "string"
  | TRef c -> Format.fprintf ppf "ref<%s>" c
  | TList t -> Format.fprintf ppf "list<%a>" pp_ty t

let to_string v = Format.asprintf "%a" pp v
let ty_to_string t = Format.asprintf "%a" pp_ty t

(* Snapshot encoding: one-character tag followed by a length-prefixed or
   fixed-syntax payload, so decoding needs no backtracking. *)

let rec encode buf = function
  | Null -> Buffer.add_char buf 'N'
  | Bool b -> Buffer.add_string buf (if b then "T" else "F")
  | Int i ->
    Buffer.add_char buf 'I';
    Codec.add_decimal buf i;
    Buffer.add_char buf ';'
  | Float f ->
    Buffer.add_char buf 'D';
    Buffer.add_string buf (Printf.sprintf "%h" f);
    Buffer.add_char buf ';'
  | String s ->
    Buffer.add_char buf 'S';
    Codec.add_decimal buf (String.length s);
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  | Ref o ->
    Buffer.add_char buf 'R';
    Codec.add_decimal buf (Oid.to_int o);
    Buffer.add_char buf ';'
  | List vs ->
    Buffer.add_char buf 'L';
    Codec.add_decimal buf (List.length vs);
    Buffer.add_char buf ':';
    List.iter (encode buf) vs

let fail_at pos what = failwith (Printf.sprintf "Value.decode: %s at %d" what pos)

let scan_until s pos stop =
  let j = try String.index_from s pos stop with Not_found -> fail_at pos "unterminated token" in
  String.sub s pos (j - pos), j + 1

let rec decode s pos =
  if pos >= String.length s then fail_at pos "eof";
  match s.[pos] with
  | 'N' -> Null, pos + 1
  | 'T' -> Bool true, pos + 1
  | 'F' -> Bool false, pos + 1
  | 'I' ->
    let tok, p = scan_until s (pos + 1) ';' in
    Int (int_of_string tok), p
  | 'D' ->
    let tok, p = scan_until s (pos + 1) ';' in
    Float (float_of_string tok), p
  | 'S' ->
    let tok, p = scan_until s (pos + 1) ':' in
    let n = int_of_string tok in
    if p + n > String.length s then fail_at p "truncated string";
    String (String.sub s p n), p + n
  | 'R' ->
    let tok, p = scan_until s (pos + 1) ';' in
    Ref (Oid.of_int (int_of_string tok)), p
  | 'L' ->
    let tok, p = scan_until s (pos + 1) ':' in
    let n = int_of_string tok in
    let rec loop acc p k =
      if k = 0 then List (List.rev acc), p
      else
        let v, p = decode s p in
        loop (v :: acc) p (k - 1)
    in
    loop [] p n
  | c -> fail_at pos (Printf.sprintf "bad tag %C" c)

let rec encode_ty buf = function
  | TAny -> Buffer.add_char buf 'a'
  | TBool -> Buffer.add_char buf 'b'
  | TInt -> Buffer.add_char buf 'i'
  | TFloat -> Buffer.add_char buf 'f'
  | TString -> Buffer.add_char buf 's'
  | TRef c ->
    Buffer.add_char buf 'r';
    Codec.add_decimal buf (String.length c);
    Buffer.add_char buf ':';
    Buffer.add_string buf c
  | TList t ->
    Buffer.add_char buf 'l';
    encode_ty buf t

let rec decode_ty s pos =
  if pos >= String.length s then fail_at pos "eof";
  match s.[pos] with
  | 'a' -> TAny, pos + 1
  | 'b' -> TBool, pos + 1
  | 'i' -> TInt, pos + 1
  | 'f' -> TFloat, pos + 1
  | 's' -> TString, pos + 1
  | 'r' ->
    let tok, p = scan_until s (pos + 1) ':' in
    let n = int_of_string tok in
    if p + n > String.length s then fail_at p "truncated class name";
    TRef (String.sub s p n), p + n
  | 'l' ->
    let t, p = decode_ty s (pos + 1) in
    TList t, p
  | c -> fail_at pos (Printf.sprintf "bad ty tag %C" c)
