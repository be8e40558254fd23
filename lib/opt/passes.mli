(** The communication optimizations of §7, as IR-to-IR passes.  Each can
    be toggled independently so the ablation benchmarks can measure its
    contribution (message vectorization, the fourth §7 item, is inherent
    in the runtime primitives and has its own ablation knob there).

    - {e shift union}: several overlap shifts of the same array dimension
      in one statement collapse into the widest one (the paper's
      [B(I+2)+B(I+3)] example);
    - {e multicast_shift fusion}: a multicast and a shift on different
      dimensions of one reference combine into the fused primitive
      (§5.3.1 example 3); disabling lowers to the two-step sequence;
    - {e schedule reuse}: inspector-built schedules whose index sets are
      provably loop-invariant (all inputs are named constants) get stable
      cache keys, so re-executions skip preprocessing entirely;
    - {e communication hoisting}: comms over arrays a DO/WHILE body never
      writes, with loop-invariant subscripts, move to a guarded
      {!F90d_ir.Ir.Comm_block} pre-header and run once instead of every
      iteration;
    - {e message coalescing}: within a straight-line FORALL run,
      same-direction overlap shifts and same-endpoint transfers on
      different arrays batch into one {!F90d_ir.Ir.Comm_batch} — one
      packed message (one latency charge) per communicating rank pair.
      The flag also enables the runtime's multicast replica cache, which
      serves later reads of an unmodified broadcast slice locally;
    - {e split-phase communication}: each FORALL's plain multicasts split
      into a {!F90d_ir.Ir.Comm_issue} that moves up across provably
      independent statements and a {!F90d_ir.Ir.Comm_wait} immediately
      before the reading statement, so the message travels while the
      processor computes;
    - {e lookahead pipelining}: a loop-carried split multicast whose
      slice moves with the DO variable (gauss's pivot column) is issued
      one step ahead — the in-body issue for step k+1 slots after the
      last statement writing that slice (fissioned out of the bulk
      update when possible), the first step's issue moves in front of
      the loop, and the wait stays at the top of the body.  Implies
      nothing unless split-phase is also on. *)

type flags = {
  shift_union : bool;
  fuse_mshift : bool;
  schedule_reuse : bool;
  hoist_comm : bool;
  coalesce : bool;
  split_comm : bool;
  lookahead : bool;
  blocked_kernels : bool;
      (** enable the blocked node-kernel execution layer
          ({!F90d_exec.Kernel}); not an IR transformation — [apply]
          ignores it, the interpreter and intrinsics read it.  On in
          both [all_on] and [all_off] (which toggle only the
          communication passes); disable with [--fno-blocked-kernels]. *)
}

val all_on : flags
val all_off : flags

type pass = {
  name : string;  (** [--fno-NAME] and the daemon's ["fno"] spelling *)
  tag : string;  (** the pass's part of the compile-cache fingerprint *)
  doc : string;  (** what [--fno-NAME] disables, for its help text *)
  get : flags -> bool;
  set : bool -> flags -> flags;
}

val passes : pass list
(** One entry per field of {!flags}, in the order the cache fingerprint
    lists them: the command line, the daemon, the compile caches and the
    bench reports all read the set of passes from here. *)

val union_shifts : F90d_ir.Ir.comm list -> F90d_ir.Ir.comm list
(** Keep only the widest overlap shift per (array, dim, direction);
    zero-amount shifts are no-ops and are dropped.  Exposed for unit
    testing. *)

val apply : flags -> F90d_ir.Ir.program_ir -> F90d_ir.Ir.program_ir
