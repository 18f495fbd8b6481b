(** Structural invariants of a global schema, used by the test suites.

    [check] returns human-readable violation descriptions; an empty list
    means the schema is well-formed. The property-based tests assert
    emptiness after every randomized schema-change sequence. *)

val check : Schema_graph.t -> string list
(** Verifies:
    - the generalization graph is acyclic;
    - edge lists are symmetric ([a ∈ subs b ⇔ b ∈ supers a]);
    - every class except the root has at least one superclass and is a
      descendant of the root;
    - the root has no superclasses;
    - class names are unique;
    - every virtual class's source classes exist;
    - no class locally defines two properties with one name. *)
