(** Node-kernel specializer — the stand-in for the node Fortran
    compiler's scalar optimizer/vectorizer that §7 delegates to.

    A FORALL whose iteration sets are arithmetic progressions (the
    [set_BOUND] ranges of {!F90d_dist.Layout.set_bound}), whose
    references all resolve to flat offsets affine in the loop counters,
    and whose body is arithmetic into a REAL array, runs in two halves:

    - {!plan} decides everything value-independent once per statement —
      eligibility, the operator tree, which references and scalars feed
      which leaves, integer-vs-real division — before the run starts, and
      resolves every array, scalar and temporary name to its slot; every
      rank and every execution under a DO loop shares the one plan.
      Masks, snapshots and non-REAL stores of a write-back phase are
      ineligible here and nowhere else;
    - {!execute} reads the slots once against the current layouts,
      scalars and iteration sets — each operand's flat offset folded
      into one linear form in place — then runs the whole local nest as
      row strips (fused multiply-update loops for gauss's rank-1 body).
      Row strips are the only compiled evaluator.

    Strips may run the nest in any order because {!F90d_codegen.Lower}
    alone decides read/write hazards: [f_snapshot = false] guarantees
    that every direct read of the left-hand-side array is its identity
    subscript or provably separated from every write.  The kernel keeps
    two run-time checks of its own — an injective store map (a
    many-to-one store is last-writer-wins, the interpreter's order) and a
    physical-alias guard (an operand other than a direct read of the
    left-hand-side array sharing the store's storage).  Results are
    bit-identical to the interpreter: per element, the same operations
    in the same order, with every INTEGER-kind subexpression computed on
    ints (63-bit, wrapping) as the interpreter computes it, never in
    float. *)

open F90d_frontend

val unset : F90d_base.Scalar.t
(** The value of a scalar slot nothing has assigned yet, told apart by
    physical identity: a plan reads an unset slot as its PARAMETER's
    value, if the name has one. *)

type scope = {
  env : Sema.unit_env;
  scalar_kind : string -> F90d_base.Scalar.kind option;
      (** the kind of each scalar the body may read (from declarations),
          which decides integer vs. real division *)
  scalar_slot : string -> int;  (** a scalar name's slot in [scalars] *)
  array_slot : string -> int;  (** a declared array's slot in [arrays] *)
}
(** How a unit's names resolve, consulted only while planning. *)

type plan
(** The structure-only half of specialization for one FORALL: immutable,
    and safe to share between a run's ranks and executions (it captures
    slots, no array storage and no scalar values), including across the
    interpreter's array movers.  An ineligible plan is shared too —
    structural rejection is value-independent. *)

val plan : scope -> f:F90d_ir.Ir.forall -> plan
(** Analyze a FORALL.  A temporary is its id's slot in [temps]. *)

type stored =
  | Stored  (** the nest stored into the left-hand side's local section *)
  | Scattered of F90d_base.Ndarray.t
      (** a scatter plan's values: entry [i * c + j] is iteration [i]'s
          value (nest order) for the [j]th of the [c] ranks holding its
          element, in {!F90d_dist.Dad.owning_ranks} order *)

val execute :
  plan ->
  me:int ->
  arrays:F90d_runtime.Darray.t array ->
  scalars:F90d_base.Scalar.t array ->
  temps:F90d_base.Ndarray.t option array ->
  space:F90d_dist.Layout.t list ->
  (stored, F90d_machine.Stats.kernel_fallback) result option
(** Runs the whole local loop nest.  [None]: the plan is ineligible.
    [Some (Error why)]: the kernel declined and the caller must
    interpret the nest.  [space] is this processor's iteration space, one
    set per FORALL variable in nest order, none empty; an index vector
    (a CYCLIC(k) dimension) declines as [Explicit_layout].  A zero divisor is
    found while the strips run, after earlier strips were stored; the
    interpreter then reports the division as an error, so those stores
    are never observed. *)

(** {2 Inspector subscripts} *)

type lin = { mutable base : int; coefs : int array }
(** [base + sum_k coefs.(k) * x_k]; built in place. *)

type index_plan
(** How one subscript expression of a FORALL is evaluated for the PARTI
    inspector, decided once per run like {!plan}. *)

val plan_index : scope -> f:F90d_ir.Ir.forall -> Ast.expr -> index_plan

type index =
  | Iaffine of lin
      (** affine in the FORALL variables' values, [x_k] being the [k]th
          variable's value *)
  | Ivalues of int array  (** the value at each iteration, in nest order *)
  | Iinterp  (** neither form applies: the interpreter evaluates it *)

val index :
  index_plan ->
  me:int ->
  arrays:F90d_runtime.Darray.t array ->
  scalars:F90d_base.Scalar.t array ->
  temps:F90d_base.Ndarray.t option array ->
  space:F90d_dist.Layout.t list option ->
  index
(** Resolves a subscript for one execution.  An affine subscript gets its
    coefficients from the current scalar values; another integer-valued
    one runs as int strips over [space], this processor's iteration
    space ([None] for another rank's, whose temporaries are not here). *)
