(** CRC-32 (IEEE) checksums for WAL record integrity. *)

val string : string -> int32
(** Checksum of a whole string. [string "123456789" = 0xCBF43926l]. *)

val update : int32 -> string -> int -> int -> int32
(** [update crc s pos len] extends [crc] over [s.[pos .. pos+len-1]], so
    [update (update 0l s 0 k) s k (n - k) = string s] for
    [n = String.length s]. Raises [Invalid_argument] when the range is
    not inside [s]. *)
