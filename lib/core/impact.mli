(** Schema-change impact analysis.

    Section 2.1 motivates TSE with the cost of the decision process: a
    developer "must consult with others to figure out the impact of a
    requested schema change on the existing application programs". This
    module automates exactly that consultation — statically, without
    touching the database: which global classes a change would modify if
    applied {e destructively}, and therefore which other registered views
    (programs) it would break.

    Under TSE the answer is always "none" (Proposition B); the analyzer
    quantifies what the virtual change avoids. *)

type report = {
  change : Change.t;
  classes_touched : string list;  (** global class names *)
  broken_views : (string * string list) list;
      (** other views and the (view-local) names of their classes a
          destructive change would reach *)
}

val analyze : Tsem.t -> view:string -> Change.t -> report
(** Impact on every registered view other than [view], judged by the
    current versions in the history. *)

val pp_report : Format.formatter -> report -> unit
