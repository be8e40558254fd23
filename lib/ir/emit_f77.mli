(** Pretty-printer from the SPMD IR to the paper's "Fortran 77+MP" output
    style (§5.3): [set_BOUND] loop-bound calls, [set_DAD] descriptor
    setup, collective-communication calls, inspector scheduling and plain
    DO nests over local bounds.

    This is the human-readable artefact of compilation — what the real
    compiler handed to the node Fortran compiler; execution goes through
    the interpreter instead, so the emitted text is documentation-faithful
    rather than re-parsed. *)

val emit_program : Ir.program_ir -> string
