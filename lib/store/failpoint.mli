(** Named fault-injection points threaded through the store's file I/O.

    Production code declares its failpoints at module initialization and
    calls {!hit} (or {!short}) at the matching point; everything is a
    no-op unless a test has armed the point. Armed actions are one-shot:
    they disarm themselves when they fire, so recovery code re-entering
    the same I/O path does not re-trigger the fault.

    [Crash_now] simulates the process dying at that instant (the raised
    {!Crash} must escape to the test harness, which then drops every
    in-memory handle and re-opens from disk). [Error_now] simulates a
    recoverable I/O error. [Short_write n] asks the surrounding write to
    persist only the first [n] bytes and then crash — a torn write. *)

exception Crash of string
exception Io_error of string

type action = Crash_now | Error_now | Short_write of int

val declare : string -> unit
(** Register a failpoint name (idempotent). Production call sites declare
    every point they guard so tests can enumerate them. *)

val all : unit -> string list
(** Every declared failpoint, sorted — the crash-matrix test iterates
    this to prove it covers each one. *)

val arm : string -> action -> unit
(** @raise Invalid_argument on an undeclared name (catches typos). *)

val reset : unit -> unit

val hit : string -> unit
(** Raise {!Crash} or {!Io_error} if the point is armed with
    [Crash_now] / [Error_now]; otherwise do nothing. One-shot. *)

val short : string -> len:int -> int option
(** [Some k] if the point is armed with [Short_write n] ([k = min n len]):
    the caller must write exactly [k] of its [len] bytes and then raise
    [Crash name] itself. One-shot. *)

val hit_count : string -> int
(** How many times the guarded point was reached (armed or not) since
    process start. Also exported to the metrics registry as
    [failpoint.hits{site=<name>}]. *)

val trip_count : string -> int
(** How many times an armed action actually fired at this point. Also
    exported as [failpoint.trips{site=<name>}]. Crash-matrix tests use
    this to prove the fault they armed was really exercised. *)
