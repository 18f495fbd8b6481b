(* Standard CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), the
   same checksum zlib and ethernet use. Slicing-by-8 over native ints:
   [tables] holds eight 256-entry tables, table [k] giving the CRC of a
   byte followed by [k] zero bytes, so one step folds eight input bytes
   with eight independent lookups. The register stays an unboxed [int]
   in [0, 2^32); only the [int32] API boundary converts. *)

let poly = 0xEDB88320

(* table [k] is [tables.(k * 256) .. tables.(k * 256 + 255)] *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then poly lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(prev land 0xFF) lxor (prev lsr 8)
    done
  done;
  t

(* every index below is masked to a byte, so it is in bounds *)
let tab k i = Array.unsafe_get tables ((k lsl 8) lor i)
let byte s i = Char.code (String.unsafe_get s i)

let update crc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.update";
  let c = ref (lnot (Int32.to_int crc) land 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let p = !i in
    let x = !c in
    c :=
      tab 7 (byte s p lxor (x land 0xFF))
      lxor tab 6 (byte s (p + 1) lxor ((x lsr 8) land 0xFF))
      lxor tab 5 (byte s (p + 2) lxor ((x lsr 16) land 0xFF))
      lxor tab 4 (byte s (p + 3) lxor (x lsr 24))
      lxor tab 3 (byte s (p + 4))
      lxor tab 2 (byte s (p + 5))
      lxor tab 1 (byte s (p + 6))
      lxor tab 0 (byte s (p + 7));
    i := p + 8
  done;
  for p = stop8 to pos + len - 1 do
    let x = !c in
    c := tab 0 ((x lxor byte s p) land 0xFF) lxor (x lsr 8)
  done;
  Int32.of_int (lnot !c land 0xFFFFFFFF)

let string s = update 0l s 0 (String.length s)
