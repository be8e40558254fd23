(** Message-tag namespace of the run-time library.

    Matching in the engine is FIFO per (source, tag).  For blocking
    communication, SPMD programs issue in identical program order on
    every node, so the family tag alone suffices.  Split-phase
    collectives break that ordering — several trees can be in flight at
    once — so each instance takes a distinct tag within its
    hundreds-family (see {!Collectives.broadcast_issue}); profiles
    classify by family, i.e. [tag / 100]. *)

val transfer : int
val broadcast : int
val reduce : int
val gatherv : int
val shift : int
val schedule_indices : int
val exec_data : int
val redistribute : int
val concat : int

val family_name : int -> string
(** Human name of a tag's hundreds-family, for statistics breakdowns. *)
