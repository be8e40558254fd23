(** Blocked node-kernel specializer — the stand-in for the node Fortran
    compiler's scalar optimizer/vectorizer that §7 delegates to.

    A FORALL whose iteration sets are arithmetic progressions, whose
    references all resolve to flat offsets affine in the loop counters,
    and whose body is real arithmetic, is specialized in two halves:

    - {!plan} decides everything value-independent once per statement —
      eligibility, the operator tree, which references feed which leaves,
      integer-vs-real division — before the run starts; every rank and
      every execution under a DO loop shares the one plan;
    - {!execute} re-derives the affine offsets against the current
      layouts, scalars and iteration sets, then runs the whole local
      nest: through strided row strips and fused multiply-update loops
      when blocked execution is legal (injective store map, self-reads
      identity or disjoint — gauss's rank-1 update qualifies), otherwise
      through the canonical-order tree walk.

    Anything else (masks, integer stores, indirection, write-back
    phases) reports failure and falls back to the general interpreter;
    results are bit-identical on every path (same per-element operations
    in the same per-element order). *)

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

type outcome = { blocked_loops : int  (** 1 if the nest ran blocked/fused, else 0 *) }

val execute :
  plan ->
  me:int ->
  scalar_lookup:(string -> F90d_base.Scalar.t option) ->
  darr_of:(string -> F90d_runtime.Darray.t) ->
  temp_of:(int -> temp_nd option) ->
  values:int array list ->
  outcome option
(** Runs the whole local loop nest if specialization applies; [None]
    means the caller must interpret.  [values] are this processor's
    per-variable global index values in nest order.  A scalar whose value
    is not of the kind the plan assumed also means [None]. *)
