(** Node-kernel specializer — the stand-in for the node Fortran
    compiler's scalar optimizer/vectorizer that §7 delegates to.

    A FORALL whose iteration sets are arithmetic progressions, whose
    references all resolve to flat offsets affine in the loop counters,
    and whose body is arithmetic into a REAL array, runs in two halves:

    - {!plan} decides everything value-independent once per statement —
      eligibility, the operator tree, which references and scalars feed
      which leaves, integer-vs-real division — before the run starts;
      every rank and every execution under a DO loop shares the one plan.
      Masks, write-back phases, snapshots and non-canonical stores are
      ineligible here and nowhere else;
    - {!execute} resolves the reference slots and scalar values once
      against the current layouts, scalars and iteration sets, then runs
      the whole local nest as row strips (fused multiply-update loops for
      gauss's rank-1 body).  Row strips are the only compiled evaluator.

    Strips may run the nest in any order because {!F90d_codegen.Lower}
    alone decides read/write hazards: [f_snapshot = false] guarantees
    that every direct read of the left-hand-side array is its identity
    subscript or provably separated from every write.  The kernel keeps
    two run-time checks of its own — an injective store map (a
    many-to-one store is last-writer-wins, the interpreter's order) and a
    physical-alias guard (an operand other than a direct read of the
    left-hand-side array sharing the store's storage).  Results are
    bit-identical to the interpreter: per element, the same operations
    in the same order. *)

open F90d_frontend

type temp_nd =
  | Tbox of F90d_base.Ndarray.t
  | Tflat of F90d_base.Ndarray.t
  | Tglobal of F90d_base.Ndarray.t

type plan
(** The structure-only half of specialization for one FORALL: immutable,
    and safe to share between ranks, worker domains and executions (it
    captures no array storage and no scalar values), including across the
    interpreter's array movers.  An ineligible plan is shared too —
    structural rejection is value-independent. *)

val plan :
  env:Sema.unit_env -> scalar_kind:(string -> F90d_base.Scalar.kind option) -> f:F90d_ir.Ir.forall -> plan
(** Analyze a FORALL.  [scalar_kind] gives the kind of each scalar the
    body may read (from declarations), which decides integer vs. real
    division. *)

val execute :
  plan ->
  me:int ->
  scalar_lookup:(string -> F90d_base.Scalar.t option) ->
  darr_of:(string -> F90d_runtime.Darray.t) ->
  temp_of:(int -> temp_nd option) ->
  values:int array list ->
  (unit, F90d_machine.Stats.kernel_fallback) result option
(** Runs the whole local loop nest.  [None]: the plan is ineligible.
    [Some (Error why)]: the kernel declined and the caller must
    interpret the nest.  [values] are this processor's per-variable
    global index values in nest order, none empty.  A zero divisor is
    found while the strips run, after earlier strips were stored; the
    interpreter then reports the division as an error, so those stores
    are never observed. *)
