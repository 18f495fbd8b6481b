(** Span-based tracer with a JSONL sink.

    Off by default; enabled by pointing [TSE_TRACE] at a file path, in
    which case every completed span appends one JSON object per line:

    {v {"name":"durable.commit","start_us":1722850000000000,"dur_us":123,"attrs":{"batches":"2"}} v}

    Timing uses a monotonic-clamped wall clock in microseconds ({!now_us}).
    When disabled, [with_span] costs one flag check plus the closure call. *)

type span = {
  name : string;
  start_us : int;  (** microseconds since the Unix epoch *)
  dur_us : int;
  sid : int;  (** process-unique span id; 0 in pre-span-id traces *)
  psid : int option;
      (** enclosing span's id on the same domain; [None] for roots *)
  attrs : (string * string) list;
}

val now_us : unit -> int
(** Wall clock in microseconds since the Unix epoch, clamped so that it
    never goes backwards within the process (across domains too). The
    one clock every duration is measured with: a backward step of the
    system clock reads as a zero-length interval, never a negative one. *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk and, if tracing is on, emit a span covering it.  A
    span is emitted even when the thunk raises (with an ["err"] attr);
    the exception is re-raised. *)

val event : ?attrs:(string * string) list -> string -> unit
(** Zero-duration marker span. *)

val set_sink : (string -> unit) option -> unit
(** Override the sink (mainly for tests).  [Some emit] receives each
    JSON line without the trailing newline; [None] restores the
    [TSE_TRACE]-derived behaviour. *)

val flush : unit -> unit

val file_sink : string -> (string -> unit) * (unit -> unit)
(** The [TSE_TRACE] sink on [path]: an emit and a flush. Emit buffers
    whole lines; each flush — when the next line would not fit in
    64 KiB, on {!flush}, and at exit — hands the buffered lines to one
    [write] on an [O_APPEND] descriptor, so processes tracing into one
    file interleave whole lines, never pieces of them (a single line
    longer than 64 KiB goes out alone, in as many writes as it takes).
    Safe to call from several domains.
    @raise Unix.Unix_error if [path] cannot be opened. *)

val parse_line : string -> (span, string) result
(** Parse one JSONL trace line back into a span — the inverse of the
    emitter, used by tests and tooling to round-trip trace files. *)

val parse_file : string -> (span list * (int * string) option, string) result
(** Parse every non-empty line of a trace file.  Crashes tear the
    trace like they tear the WAL, so a malformed line stops the parse
    instead of failing it: the result carries every span before the
    damage plus [Some (lineno, msg)] locating it ([None] when the file
    was clean).  [Error] is reserved for an unreadable file. *)
