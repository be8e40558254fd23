(** The simulated distributed-memory MIMD machine.

    [run config node_main] executes one fiber per processor (OCaml effect
    handlers provide the blocking-receive suspension).  Each processor has
    a virtual clock: computation advances it explicitly ({!advance},
    {!charge_flops}, ...), a send charges the sender
    [alpha + bytes*beta], and a message becomes consumable at
    [sender-completion + hop * (hops-1)]; a receive completes at
    [max(local clock, arrival)].

    Sends are asynchronous and buffered (csend-style); receives match
    exactly on (source, tag) in FIFO order, so simulations are
    deterministic.  If every unfinished fiber is blocked on a receive that
    can never be satisfied the engine raises {!Deadlock}. *)

type config = {
  nprocs : int;
  model : Model.t;
  topology : Topology.t;
  tracing : bool;
  poll : (unit -> unit) option;
      (** cooperative-cancellation hook, called inside node fibers at
          every receive point (and by the interpreter per statement);
          raise from it to abort the run — the engine unwinds every
          fiber and re-raises *)
}

val config :
  ?model:Model.t -> ?topology:Topology.t -> ?tracing:bool -> ?poll:(unit -> unit) -> int -> config
(** Defaults: {!Model.ideal}, [Full] crossbar, tracing off, no poll hook.
    With [~tracing:true] every send, receive, collective span and compute
    charge is recorded into per-rank {!F90d_trace.Trace} buffers and the
    merged trace is returned in the report; with tracing off every
    recording call is a no-op and the run is unchanged.

    The (topology, nprocs) pair is validated here ({!Topology.validate})
    — a hypercube whose nprocs is not a power of two raises
    [F90d_base.Diag.Error] instead of silently simulating wrong hop
    counts — and the topology geometry is resolved once, so per-message
    routing does no size-dependent work. *)

type ctx
(** A processor's view of the machine, passed to node programs. *)

exception Deadlock of string
(** The payload lists, for every blocked processor, the awaited
    [(src, tag)] channel, the source [file:line] and statement id the
    rank was executing (when the node program supplied provenance via
    {!set_stmt}), the channels actually pending in its mailbox {e and}
    any issued-but-unwaited split-phase handles (channel plus issuing
    statement id) — enough to diagnose tag/source mismatches and lost
    waits from the message alone.

    At scale the report is bounded rather than exhaustive: at most 8
    blocked ranks are detailed (suffixed ["... and N more blocked
    ranks"]) and at most 8 pending channels are shown per mailbox
    (suffixed ["... +N more channels"]); small machines still get the
    full detail. *)

(** {2 Node-program API} *)

val rank : ctx -> int
(** Physical node id in [0 .. nprocs-1]. *)

val nprocs : ctx -> int
val model : ctx -> Model.t
val time : ctx -> float
(** This processor's virtual clock, seconds. *)

val send : ?parts:(int * int) array -> ctx -> dest:int -> tag:int -> Message.payload -> unit
(** [parts], when given, tags the traced event with a (member sid,
    member bytes) split for coalesced batch messages; the engine still
    charges and counts exactly one message. *)

val recv : ctx -> src:int -> tag:int -> Message.t

val relay : ctx -> from_t:float -> dest:int -> tag:int -> Message.payload -> float
(** Forward a just-arrived message without occupying the CPU: the
    transfer runs on the message system's timeline starting at [from_t]
    (the relayed message's arrival, or the link-idle time a previous
    relay returned), modelling interrupt-driven forwarding.  The
    caller's clock
    is not advanced; returns the time the outgoing link falls idle so
    consecutive relays can serialize on it.  Counted and traced exactly
    like a {!send}. *)

type handle
(** A posted (split-phase) receive — see {!irecv}/{!wait}. *)

val irecv : ctx -> src:int -> tag:int -> handle
(** Post a nonblocking receive on the (src, tag) channel.  Costs nothing
    and never suspends; it records the post time and the posting
    statement's provenance.  The message is consumed by the matching
    {!wait} — through the same exact-match FIFO a blocking {!recv} uses,
    so splitting a receive never changes which message it pairs with. *)

val wait : ctx -> handle -> Message.t
(** Complete a posted receive: suspend until the message is deliverable,
    charge only the wait remaining at the wait site (clock advances to
    the arrival if it is still in the future) and account the latency
    that elapsed since {!irecv} as [recv_wait_hidden].  Waits on one
    channel must be issued in the same order as their irecvs.  Waiting
    twice on a handle is a bug. *)

val advance : ctx -> float -> unit
(** Charge raw seconds of local computation. *)

val charge_flops : ctx -> int -> unit
val charge_iops : ctx -> int -> unit
val charge_copy_bytes : ctx -> int -> unit

val rank_stats : ctx -> Stats.rank
(** This processor's private statistics collector (the run-time system
    records schedule-cache builds/hits through it). *)

val live_channels : ctx -> int
(** Number of (src, tag) channels currently holding undelivered messages
    in this processor's mailbox.  Drained channels are dropped from the
    table eagerly, so this is the sparse-mailbox invariant made
    observable: after a completed broadcast it returns to 0 no matter
    how many ranks took part.  A debugging/test probe. *)

val trace : ctx -> F90d_trace.Trace.handle
(** This processor's private trace recorder ({!F90d_trace.Trace.disabled}
    when the config has tracing off).  The run-time system and the
    interpreter record collective/inspector/compute spans through it. *)

val set_stmt : ctx -> sid:int -> loc:F90d_base.Loc.t -> unit
(** Declare the statement this processor is about to execute.  The pair
    is kept per rank even when tracing is off (it names the stuck source
    line in {!Deadlock} payloads) and, when tracing is on, stamps every
    subsequent trace event with [sid] until the next call. *)

val check_cancel : ctx -> unit
(** Run the config's poll hook, if any.  The interpreter calls this once
    per statement so a request-timeout can interrupt long computations
    between communication points; {!recv} and {!wait} call it
    themselves. *)

(** {2 Driving the machine} *)

type 'a report = {
  results : 'a array;  (** per-processor return values *)
  elapsed : float;  (** max over final clocks: parallel execution time *)
  clocks : float array;
  stats : Stats.t;
  trace : F90d_trace.Trace.t option;  (** [Some] iff the config enables tracing *)
}

val run : config -> (ctx -> 'a) -> 'a report
(** Runs the SPMD program to completion, every fiber on the calling
    domain.  Any exception raised by a node program is re-raised after
    the machine stops; unsatisfiable receives raise {!Deadlock}.

    Scheduling is event-driven: a ready queue holds exactly the fibers
    that can make progress (not yet started, or blocked on a channel
    that has mail), so scheduler work is O(slices + messages) and
    independent of how many of the P fibers are finished or idle.
    Visit order differs from a round-robin scan, but every channel is a
    single-producer single-consumer exact-match FIFO and all clocks and
    statistics are rank-private, so the report is a function of the
    node programs alone. *)
