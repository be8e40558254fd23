(** Per-run communication and computation statistics, used by the
    benchmark harness and by tests that assert message counts (e.g. that
    schedule reuse removes preprocessing messages).

    Recording is sharded: each simulated processor owns a private {!rank}
    collector, written only by that processor's fiber, and the engine
    {!merge}s the collectors into the read-only totals record {!t} when
    the run completes.

    Sends are also accounted per message-tag family so benches can print
    a breakdown by communication primitive. *)

type rank
(** One processor's private statistics collector. *)

(** Why the node-kernel layer handed a FORALL nest back to the
    interpreter (see [F90d_exec.Kernel.execute]). *)
type kernel_fallback =
  | Scalar_kind  (** a scalar's value is not of the kind the plan assumed *)
  | Explicit_layout
      (** a dimension's local layout or iteration set is an explicit index list *)
  | Out_of_bounds  (** a reference reaches outside the local storage *)
  | Not_injective  (** several iterations store to one element *)
  | Missing_temp  (** a communication temporary is absent or of another shape *)
  | Zero_divisor  (** an integer division, MOD or MODULO by zero *)
  | Storage_alias
      (** an operand other than a direct read of the left-hand-side array
          shares the store's storage *)

type t = {
  messages : int;
  bytes : int;
  recv_wait : float;  (** total time receivers spent blocked *)
  recv_wait_hidden : float;
      (** latency absorbed between issue and wait of split-phase receives
          — time the message spent in flight while the receiver kept
          computing, which a blocking receive would have charged to
          [recv_wait] *)
  per_rank_messages : int array;
  per_rank_bytes : int array;
  by_tag : (int, int * int) Hashtbl.t;  (** tag -> (messages, bytes) *)
  sched_builds : int;  (** inspector schedules built (see {!F90d_runtime.Schedule}) *)
  sched_hits : int;  (** schedule-cache hits *)
  kernel_runs : int;  (** FORALL nests executed by the node kernel layer *)
  kernel_fallbacks : int;  (** nests the kernel layer handed back to the interpreter *)
  kernel_fallbacks_by : (kernel_fallback * int) list;
      (** [kernel_fallbacks] split by reason: every reason, in
          declaration order, zeros included *)
  kernel_blocked : int;
      (** nests that went through row strips — every kernel run does, so
          this equals [kernel_runs] *)
}

val rank_create : unit -> rank
val record_send : ?tag:int -> rank -> bytes:int -> unit
val record_wait : rank -> float -> unit
val record_wait_hidden : rank -> float -> unit
val record_sched_build : rank -> unit
val record_sched_hit : rank -> unit
val record_kernel_run : rank -> unit
val record_kernel_fallback : rank -> kernel_fallback -> unit

val merge : rank array -> t
(** Fold per-processor collectors (indexed by physical rank) into the
    per-run totals. *)

val per_tag : t -> (int * (int * int)) list
(** [(tag, (messages, bytes))] sorted by tag — a canonical form for
    equality checks between runs. *)

val breakdown : t -> name_of:(int -> string) -> (string * int * int) list
(** (family name, messages, bytes) per tag family (tags grouped by
    hundreds, matching the runtime's namespace), most messages first. *)

val pp : Format.formatter -> t -> unit

val metric_families : t -> (string * (string * string) list * string * float) list
(** The run's totals as [(Prometheus family name, labels, help, value)]
    rows — the canonical contract between a finished run and the
    fleet-metrics layer ([f90d_sim_messages_total], [f90d_sim_bytes_total],
    [f90d_sim_recv_wait_seconds_total],
    [f90d_sim_recv_wait_hidden_seconds_total], [f90d_sched_builds_total],
    [f90d_sched_hits_total], the [f90d_kernel_*] counters, and one
    [f90d_kernel_fallback_reasons_total{reason}] row per fallback
    reason).  Consumers build their counter set from this list, so a new
    [t] field propagates by adding one row here. *)

val empty : t
(** An all-zero totals record ([merge] of no ranks) — the family list of
    [metric_families empty] names every family at value 0. *)
