(** The university database of Figure 2: the running example of the paper.

    Hierarchy (all base classes):
    {v
                      Person
                     /      \
               Student      Staff
               /     \     /     \
            Grad      \  TeachingStaff  SupportStaff
                       \   /
                        TA
                        |
                      Grader
    v}

    [TA] inherits from both [Student] and [TeachingStaff] — the multiple
    inheritance the add-attribute and add-edge examples exercise.
    [SupportStaff] carries [boss] (Figure 9); [TeachingStaff] carries
    [lecture] (Figure 10). *)

type cid = Tse_schema.Klass.cid

type t = {
  db : Tse_db.Database.t;
  person : cid;
  student : cid;
  staff : cid;
  teaching_staff : cid;
  support_staff : cid;
  ta : cid;
  grad : cid;
  grader : cid;
}

val build : unit -> t

val populate : t -> n:int -> Tse_store.Oid.t list
(** Deterministically create [n] objects spread over the leaf and middle
    classes (persons, students, grads, TAs, graders, support staff), with
    name/age/gpa/salary values derived from the index. Returns the created
    objects in creation order. *)
