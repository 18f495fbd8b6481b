let fp_names prefix =
  [
    prefix ^ ".write.before";
    prefix ^ ".write.short";
    prefix ^ ".fsync";
    prefix ^ ".rename.before";
    prefix ^ ".rename.after";
  ]

let declare_failpoints prefix = List.iter Failpoint.declare (fp_names prefix)

let write_all fd s pos len =
  let rec go pos len =
    if len > 0 then begin
      let n = Unix.write_substring fd s pos len in
      go (pos + n) (len - n)
    end
  in
  go pos len

let write_atomic ~fp ~path contents =
  Failpoint.hit (fp ^ ".write.before");
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let len = String.length contents in
  (try
     match Failpoint.short (fp ^ ".write.short") ~len with
     | Some k ->
       write_all fd contents 0 k;
       (try Unix.fsync fd with Unix.Unix_error _ -> ());
       Unix.close fd;
       raise (Failpoint.Crash (fp ^ ".write.short"))
     | None ->
       write_all fd contents 0 len;
       Failpoint.hit (fp ^ ".fsync");
       Unix.fsync fd;
       Unix.close fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Failpoint.hit (fp ^ ".rename.before");
  Sys.rename tmp path;
  Failpoint.hit (fp ^ ".rename.after")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))
