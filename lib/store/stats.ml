module Metrics = Tse_obs.Metrics

let sizeof_oid = 8
let sizeof_pointer = 8

type t = {
  mutable oids_allocated : int;
  mutable pointers : int;
  mutable data_bytes : int;
  mutable classes_created : int;
  mutable objects_created : int;
  mutable copies : int;
  mutable identity_swaps : int;
}

(* Registry mirrors: monotonic aggregates across every Stats.t instance
   (the slicing and intersection models each keep their own struct, but
   the metrics surface sees combined totals). data_bytes is a gauge —
   overwrites shrink it. *)
let m_oids = Metrics.counter "table1.oids_allocated"
let m_pointers = Metrics.counter "table1.pointers"
let m_data_bytes = Metrics.gauge "table1.data_bytes"
let m_classes = Metrics.counter "table1.classes_created"
let m_objects = Metrics.counter "table1.objects_created"
let m_copies = Metrics.counter "table1.copies"
let m_swaps = Metrics.counter "table1.identity_swaps"

let create () =
  {
    oids_allocated = 0;
    pointers = 0;
    data_bytes = 0;
    classes_created = 0;
    objects_created = 0;
    copies = 0;
    identity_swaps = 0;
  }

let reset t =
  (* Resets the per-model struct only; the registry aggregates stay
     monotonic (counters never rewind). *)
  t.oids_allocated <- 0;
  t.pointers <- 0;
  t.data_bytes <- 0;
  t.classes_created <- 0;
  t.objects_created <- 0;
  t.copies <- 0;
  t.identity_swaps <- 0

let incr_oids t =
  t.oids_allocated <- t.oids_allocated + 1;
  Metrics.incr m_oids

let add_pointers t n =
  t.pointers <- t.pointers + n;
  Metrics.add m_pointers n

let add_data_bytes t delta =
  t.data_bytes <- t.data_bytes + delta;
  Metrics.add_gauge m_data_bytes (float_of_int delta)

let incr_classes t =
  t.classes_created <- t.classes_created + 1;
  Metrics.incr m_classes

let incr_objects t =
  t.objects_created <- t.objects_created + 1;
  Metrics.incr m_objects

let incr_copies t =
  t.copies <- t.copies + 1;
  Metrics.incr m_copies

let incr_swaps t =
  t.identity_swaps <- t.identity_swaps + 1;
  Metrics.incr m_swaps

let managerial_bytes t =
  (t.oids_allocated * sizeof_oid) + (t.pointers * sizeof_pointer)

let oids_per_object t =
  if t.objects_created = 0 then 0.
  else float_of_int t.oids_allocated /. float_of_int t.objects_created
