(** Lowering normalized Fortran 90D/HPF to the SPMD IR: computation
    partitioning (§4), communication detection (§5.2, via [F90d_commdet])
    and communication insertion (§5.3).

    Each FORALL becomes a pre-communication phase, a local loop nest and
    an optional write-back phase; everything else (scalar code, DO/IF,
    CALL with automatic redistribution, whole-array intrinsic movement)
    lowers structurally. *)

open F90d_frontend

val lower_program : Sema.program_env -> F90d_ir.Ir.program_ir
(** @raise F90d_base.Diag.Error on constructs outside the supported subset. *)
