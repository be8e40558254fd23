(** Communication tracing: per-processor event streams on the virtual
    clock.

    Each simulated processor owns a private {!handle} — a ring of events
    written only by that processor's fiber — threaded through
    [Engine.ctx] alongside the [Stats.rank] collector.  Because recording
    is rank-private and the simulation is deterministic, the merged event
    streams are byte-identical from run to run.

    Recording through a [disabled] handle is a no-op: no allocation, no
    event, no change to any statistic, so tracing is zero-cost when off.

    Events:
    - sends and receives carry peer, tag, bytes and arrival time —
      enough to rebuild the message DAG (channels are exact-match
      (src, tag) FIFOs, so the k-th receive on a channel pairs with the
      k-th send);
    - named spans ([span_begin]/[span_end]) cover collective primitives,
      inspector/executor phases and compute statements, and may nest;
    - marks are instants (schedule-cache build/hit).

    Every event also carries the statement id ([sid]) of the IR
    statement executing when it was recorded — the interpreter stamps
    the current sid with {!set_stmt} before each statement, so every
    message resolves back to a source [file:line] through the program's
    provenance table.  [sid = 0] means "<runtime>" (outside any
    statement). *)

type kind =
  | Send of {
      dest : int;
      tag : int;
      bytes : int;
      arrival : float;
      sid : int;
      parts : (int * int) array;
      relay : bool;
    }
      (** [parts] is non-empty only for coalesced batch sends: (member
          sid, member bytes) in packing order, summing to [bytes].
          [relay] marks a message-system forward of just-arrived data
          (split-phase broadcast): its [t0]/[t1] lie on the relay
          timeline, not the CPU's, so relays must be excluded when
          reconciling per-rank CPU time. *)
  | Recv of { src : int; tag : int; arrival : float; sid : int; posted : float }
      (** [t1 > t0] iff the receiver blocked ([t1] = arrival).  [posted]
          is when the receive was issued — [t0] for a blocking receive,
          earlier for the wait half of a split-phase receive; the latency
          hidden by the split is [max 0 (arrival - posted) - (t1 - t0)]. *)
  | Span of { name : string; cat : string; bytes : int; sid : int }
      (** [sid] is captured at [span_begin] time. *)
  | Mark of { name : string; cat : string; sid : int }

type event = { t0 : float; t1 : float; kind : kind }

(** {2 Per-processor recording} *)

type handle
(** A processor's recorder, or the shared no-op [disabled] handle. *)

val disabled : handle
val rank_create : me:int -> handle
val enabled : handle -> bool
(** Guard for call sites that would otherwise build event names
    eagerly. *)

val set_stmt : handle -> sid:int -> unit
(** Set the current statement id; subsequent events are stamped with it
    until the next call.  No-op on [disabled]. *)

val send :
  ?parts:(int * int) array ->
  ?relay:bool ->
  handle ->
  t0:float ->
  t1:float ->
  dest:int ->
  tag:int ->
  bytes:int ->
  arrival:float ->
  unit

val recv :
  ?posted:float -> handle -> t0:float -> t1:float -> src:int -> tag:int -> arrival:float -> unit
(** [posted] defaults to [t0] (blocking receive). *)

val computed : handle -> float -> unit
(** Accumulate charged local-computation seconds (not an event). *)

val span_begin : handle -> t:float -> string -> cat:string -> unit
val span_end : ?bytes:int -> handle -> t:float -> unit
(** Spans nest; [span_end] closes the innermost open span. *)

val mark : handle -> t:float -> string -> cat:string -> unit

(** {2 Merged trace} *)

type t

val merge : clocks:float array -> handle array -> t
(** Collect per-processor streams (indexed by physical rank) and the
    final virtual clocks into a read-only trace. *)

val events : t -> rank:int -> event array
val nprocs : t -> int
val clocks : t -> float array
val compute_time : t -> rank:int -> float
val total_events : t -> int

val to_chrome_json : t -> string
(** Chrome [trace_event] JSON (load via chrome://tracing or Perfetto):
    one pid per processor, spans as "X" complete events, marks as "i"
    instants, timestamps in virtual microseconds.  Output is
    byte-deterministic for a given trace. *)
