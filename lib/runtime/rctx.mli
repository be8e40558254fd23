(** Grid-aware processor context.

    The engine deals in physical node ids; the run-time system and the
    compiled node programs deal in logical grid ranks (stage 3 of the
    paper's mapping keeps them distinct).  An [Rctx.t] carries both the
    engine context and the grid, translating at every send/receive, and
    the rank's per-run run-time caches: PARTI schedules and structured
    peer plans.  Per-array program state (write versions, multicast
    replicas, communication temporaries) belongs to the interpreter,
    which keeps it in slots resolved when a unit is compiled. *)

type t

type cache_entry = ..
(** Per-processor, per-run memo slot.  Each module that caches run-time
    state (e.g. {!Schedule}) extends this variant with its own
    constructor; keeping the table inside the context means concurrent
    ranks, and back-to-back runs with different programs or machine
    sizes, can never observe each other's entries. *)

val make : ?kernels:bool -> F90d_machine.Engine.ctx -> F90d_dist.Grid.t -> t
(** The grid must exactly cover the machine ([Grid.size = nprocs]).  The
    context owns a fresh (empty) cache.  [kernels] (default true) enables
    the blocked node-kernel layer ({!F90d_exec.Kernel} and the tiled
    intrinsics). *)

val kernels : t -> bool

val cache_find : t -> string -> cache_entry option
val cache_store : t -> string -> cache_entry -> unit

val cache_fold : t -> (string -> cache_entry -> 'a -> 'a) -> 'a -> 'a
(** Iterate the cache (order unspecified).  {!F90d_runtime.Schedule}
    uses this to export its entries for cross-process persistence. *)

type plan = ..
(** A peer plan of a structured primitive ({!Structured} extends this
    variant).  The table is per rank and per run like the schedule cache,
    but holds typed entries keyed by the caller, with no string keys.
    One domain runs all of a run's fibers, so it needs no lock. *)

val plans : t -> plan list
(** The plans added so far, newest first. *)

val add_plan : t -> plan -> unit

val trace : t -> F90d_trace.Trace.handle
(** This processor's trace recorder (no-op handle when tracing is off). *)

val set_stmt : t -> sid:int -> loc:F90d_base.Loc.t -> unit
(** Declare the statement about to execute (see
    {!F90d_machine.Engine.set_stmt}): stamps subsequent trace events and
    names the source line in deadlock diagnostics. *)

val at_stmt : t -> sid:int -> loc:F90d_base.Loc.t -> (unit -> 'a) -> 'a
(** [at_stmt t ~sid ~loc f] runs [f] as part of the statement [sid] at
    [loc] (a communication lifted from it), then restores the current
    statement.  A location-less [Diag] error from [f] is reported at
    [loc]. *)

val engine : t -> F90d_machine.Engine.ctx
val grid : t -> F90d_dist.Grid.t

val me : t -> int
(** This processor's logical grid rank. *)

val nprocs : t -> int
val my_coords : t -> int array
val time : t -> float

val send :
  ?parts:(int * int) array -> t -> dest:int -> tag:int -> F90d_machine.Message.payload -> unit
(** [dest] is a grid rank.  [parts] is the traced per-member
    (sid, bytes) split of a coalesced batch message. *)

val recv : t -> src:int -> tag:int -> F90d_machine.Message.t

val irecv : t -> src:int -> tag:int -> F90d_machine.Engine.handle
(** Post a split-phase receive ([src] is a grid rank; the logical ->
    physical translation happens here, at issue time). *)

val wait_recv : t -> F90d_machine.Engine.handle -> F90d_machine.Message.t
(** Complete a receive posted with {!irecv}. *)

val next_split_seq : t -> int
(** Replicated instance number for a split-phase collective.  Every rank
    executes the same sequence of collective calls, so per-rank counting
    agrees machine-wide; the caller folds it into the tag so concurrent
    in-flight trees never share a (source, tag) channel. *)

val relay : t -> from_t:float -> dest:int -> tag:int -> F90d_machine.Message.payload -> float
(** {!F90d_machine.Engine.relay} with a grid-rank destination. *)

val charge_flops : t -> int -> unit
val charge_iops : t -> int -> unit
val charge_copy_bytes : t -> int -> unit
