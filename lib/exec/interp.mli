(** The SPMD node-program interpreter.

    [node_main ir ctx] runs the compiled program on one simulated
    processor, calling the run-time support system for every
    communication; the engine's fibers run one [node_main] per processor.
    Virtual time is charged for the interpreted local computation from
    static per-iteration operation counts, so the simulated clock reflects
    the machine model rather than host speed. *)

open F90d_frontend

type outcome = {
  output : string;  (** rank-0 PRINT output *)
  finals : (string * F90d_base.Ndarray.t) list;
      (** gathered global contents of the main unit's arrays *)
  final_scalars : (string * F90d_base.Scalar.t) list;
}

val log_src : Logs.src
(** Communication trace: set to [Debug] to log every collective primitive
    with its processor and virtual time ([f90dc --trace]). *)

type prepared
(** The rank-invariant state of one run: each unit's statements compiled
    to closures (FORALLs with their kernel plans), its scalar and array
    slot tables, and each array's DAD.  Built once, before the engine
    starts, and shared by every rank fiber of the run; one domain runs
    all of them, so it needs no lock. *)

val prepare : grid:F90d_dist.Grid.t -> F90d_ir.Ir.program_ir -> prepared
(** DADs are built over [grid] with the IR's ghost widths.  Unknown
    function or array names are not errors here: they raise their located
    [Diag] error when, and only if, their statement executes. *)

val planned_sids : prepared -> int list
(** The sids that hold a kernel plan, ascending (exposed for tests). *)

val node_main :
  ?collect_finals:bool ->
  ?coalesce:bool ->
  prepared ->
  F90d_runtime.Rctx.t ->
  outcome
(** Execute the main program unit.  When [collect_finals] (default true)
    every array is gathered at the end so callers can verify results; turn
    it off for benchmarking, where the gathers would pollute timing.
    [coalesce] (default false) enables the run-time half of the message
    coalescing pass: the multicast replica cache, which serves repeated
    broadcasts of an unmodified slice — and remote single-element reads
    inside such a slice — locally with zero messages.  The driver sets it
    from the compiled program's pass flags. *)

val ops_of_expr : Ast.expr -> int * int
(** Static (flops, iops) estimate per evaluation, used for time charging. *)

val apply_elemental :
  string -> F90d_base.Loc.t -> F90d_base.Scalar.t list -> F90d_base.Scalar.t
(** Elemental intrinsic application (ABS, MOD, MERGE, ...).  Exposed so the
    fuzzing reference evaluator computes bit-identical element values. *)
