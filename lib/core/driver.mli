(** The Fortran 90D/HPF compiler driver: source text in, SPMD program out,
    executed on the simulated distributed-memory machine.

    {[
      let compiled = Driver.compile source in
      let result = Driver.run ~nprocs:16 ~model:Model.ipsc860 compiled in
      print_string result.outcome.output
    ]} *)

open F90d_machine

type compiled = {
  c_source : string;
  c_env : F90d_frontend.Sema.program_env;
  c_ir : F90d_ir.Ir.program_ir;
  c_flags : F90d_opt.Passes.flags;
}

val compile : ?flags:F90d_opt.Passes.flags -> ?file:string -> string -> compiled
(** Lex, parse, analyze, normalize, detect communication, lower and
    optimize.  @raise F90d_base.Diag.Error on any front-end or lowering
    diagnostic. *)

type front = {
  f_source : string;
  f_env : F90d_frontend.Sema.program_env;
  f_ir : F90d_ir.Ir.program_ir;  (** lowered, pre-optimization *)
}
(** The pass-flag-independent half of {!compile}.  Both [front] and
    {!compiled} are immutable once built: the serve-mode caches hand one
    instance to concurrent {!optimize}/{!run} calls on separate domains. *)

val front : ?file:string -> string -> front
(** Parse, analyze and lower — everything up to (but excluding) the
    optimization passes. *)

val optimize : ?flags:F90d_opt.Passes.flags -> front -> compiled
(** Apply the optimization passes ([Passes.all_on] by default).  Pure:
    the same [front] can be optimized under several flag sets. *)

type run_result = {
  outcome : F90d_exec.Interp.outcome;
  elapsed : float;  (** simulated parallel execution time, seconds *)
  clocks : float array;
  stats : Stats.t;
  trace : F90d_trace.Trace.t option;  (** [Some] iff [run ~trace:true] *)
}

val run :
  ?collect_finals:bool ->
  ?model:Model.t ->
  ?topology:Topology.t ->
  ?jobs:int ->
  ?trace:bool ->
  ?poll:(unit -> unit) ->
  ?sched_preload:(int -> (string * string) list) ->
  ?sched_collect:(int -> (string * string) list -> unit) ->
  nprocs:int ->
  compiled ->
  run_result
(** Instantiate the processor grid (PROCESSORS directive, or a 1-D grid of
    the whole machine), embed it in the topology, and execute.  Defaults:
    ideal model, fully connected.  Every rank fiber runs on the calling
    domain ({!F90d_machine.Engine.run}).  Run-time state (mailboxes,
    statistics, schedule caches) is per-run, so consecutive runs are
    fully independent.

    [jobs] is kept only because the host benchmark ([hostbench/]) passes
    [~jobs:1], and that directory changes only together with the
    benchmark definition; 1 (the default) is the only accepted value.
    @raise Invalid_argument for any other [jobs].

    [poll] is the engine's cooperative-cancellation hook (see
    {!F90d_machine.Engine.config}): serve mode raises from it to enforce
    per-request timeouts.

    [sched_preload rank] supplies persisted PARTI schedules (as
    {!F90d_runtime.Schedule.export} pairs) to seed that grid rank's cache
    before its node program starts; [sched_collect rank entries] receives
    the rank's cache contents when its node program finishes.  Both are
    called from the node's fiber, on the calling domain. *)

val final : run_result -> string -> F90d_base.Ndarray.t
(** A gathered final array by name (requires [collect_finals]). *)

val final_scalar : run_result -> string -> F90d_base.Scalar.t
