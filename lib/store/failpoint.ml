module Metrics = Tse_obs.Metrics

exception Crash of string
exception Io_error of string

type action = Crash_now | Error_now | Short_write of int

type site = {
  mutable hits : int;  (* times the guarded point was reached *)
  mutable trips : int;  (* times an armed action actually fired *)
  m_hits : Metrics.counter;
  m_trips : Metrics.counter;
}

let declared : (string, site) Hashtbl.t = Hashtbl.create 16
let armed : (string, action) Hashtbl.t = Hashtbl.create 8

let site_of name =
  match Hashtbl.find_opt declared name with
  | Some s -> s
  | None ->
    let s =
      {
        hits = 0;
        trips = 0;
        m_hits = Metrics.counter ~labels:[ ("site", name) ] "failpoint.hits";
        m_trips = Metrics.counter ~labels:[ ("site", name) ] "failpoint.trips";
      }
    in
    Hashtbl.replace declared name s;
    s

let declare name = ignore (site_of name)

let all () =
  Hashtbl.fold (fun name _ acc -> name :: acc) declared []
  |> List.sort String.compare

let hit_count name =
  match Hashtbl.find_opt declared name with Some s -> s.hits | None -> 0

let trip_count name =
  match Hashtbl.find_opt declared name with Some s -> s.trips | None -> 0

let arm name action =
  if not (Hashtbl.mem declared name) then
    invalid_arg (Printf.sprintf "Failpoint.arm: unknown failpoint %s" name);
  Hashtbl.replace armed name action

let reset () = Hashtbl.reset armed

let note_hit name =
  let s = site_of name in
  s.hits <- s.hits + 1;
  Metrics.incr s.m_hits;
  s

let note_trip s =
  s.trips <- s.trips + 1;
  Metrics.incr s.m_trips

let hit name =
  let s = note_hit name in
  match Hashtbl.find_opt armed name with
  | None | Some (Short_write _) -> ()
  | Some Crash_now ->
    Hashtbl.remove armed name;
    note_trip s;
    raise (Crash name)
  | Some Error_now ->
    Hashtbl.remove armed name;
    note_trip s;
    raise (Io_error name)

let short name ~len =
  let s = note_hit name in
  match Hashtbl.find_opt armed name with
  | Some (Short_write n) ->
    Hashtbl.remove armed name;
    note_trip s;
    Some (min (max n 0) len)
  | Some Crash_now | Some Error_now | None -> None
