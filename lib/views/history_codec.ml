module Codec = Tse_store.Codec
module Schema_codec = Tse_schema.Schema_codec

(* Binary codec for a view-schema history: a [Codec] list of versions,
   flat. A whole history is the ["views"] extension blob of the database
   image; the versions one evolution registered are a list of the same
   shape, which the durable log appends to that blob. *)

let tag = "views"

let add_view buf (v : View_schema.t) =
  Codec.add_str buf v.view_name;
  Codec.add_int buf v.version;
  Codec.add_list buf
    (fun buf (cid, lname) ->
      Schema_codec.add_cid buf cid;
      Codec.add_str buf lname)
    v.members

let read_view s pos =
  let name, pos = Codec.read_str s pos in
  let version, pos = Codec.read_int s pos in
  let members, pos =
    Codec.read_list
      (fun s pos ->
        let cid, pos = Schema_codec.read_cid s pos in
        let lname, pos = Codec.read_str s pos in
        ((cid, lname), pos))
      s pos
  in
  ({ View_schema.view_name = name; version; members }, pos)

let encode_versions versions =
  let buf = Buffer.create 256 in
  Codec.add_list buf add_view versions;
  Buffer.contents buf

let encode h =
  encode_versions (List.concat_map (History.versions h) (History.view_names h))

let decode s =
  let views, pos = Codec.read_list read_view s 0 in
  if pos <> String.length s then Codec.fail_at pos "trailing history bytes";
  let h = History.create () in
  List.iter (History.register h)
    (List.sort
       (fun (a : View_schema.t) b -> Int.compare a.version b.version)
       views);
  h
