(** Minimal transactions over a {!Heap}.

    GemStone provided transactional persistence under the TSE prototype;
    this module provides the undo-log equivalent: every heap mutation inside
    [with_txn] is journaled and reversed on exception (or explicit
    {!Abort}). Transactions nest: an inner commit folds its log into the
    enclosing transaction. *)

exception Abort
(** Raise inside [with_txn] to roll back without propagating an error. *)

val with_txn : Heap.t -> (unit -> 'a) -> 'a option
(** [with_txn heap f] runs [f] journaled. Returns [Some (f ())] on success;
    on {!Abort} rolls back and returns [None]; on any other exception rolls
    back and re-raises. *)
