exception Abort

let with_txn heap f =
  Heap.push_journal heap;
  match f () with
  | v ->
    Heap.pop_journal_commit heap;
    Some v
  | exception Abort ->
    Heap.pop_journal_abort heap;
    None
  | exception e ->
    Heap.pop_journal_abort heap;
    raise e
