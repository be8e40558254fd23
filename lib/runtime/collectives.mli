(** The collective communication library (§5 of the paper).

    Every routine is collective over a {e team} — an ordered set of grid
    ranks, typically a grid row/column ({!team_along}) or the whole grid
    ({!team_all}) — and must be called by every member in the same program
    order.  All routines are built on the simulated machine's
    point-to-point messages, mirroring the paper's library-on-Express
    portability layer (§8.1).  Most routines send and receive every
    message through the mailboxes; the two barrier collectives,
    {!allreduce} and {!allgather}, each run as one engine rendezvous that
    replays the same binomial tree and charges every tree edge through
    the engine's send and receive accounting.

    Tree-shaped operations (broadcast, allreduce, allgather) use binomial
    trees, giving the O(log P) behaviour the paper cites for its
    broadcast. *)

open F90d_machine

type team = int array
(** Grid ranks in team order. *)

val team_all : Rctx.t -> team
val team_along : Rctx.t -> dim:int -> team
(** The grid row/column through this processor along grid dimension
    [dim].  Both teams are lookups into arrays the grid built once for the
    whole run and shares between ranks; callers must treat the returned
    array as read-only. *)

val index_in : team -> int -> int
(** Position of a grid rank in a team; fails if absent.  O(1) on
    identity teams ({!team_all}, any 1-D grid row). *)

val transfer : Rctx.t -> team -> src:int -> dest:int -> Message.payload option -> Message.payload option
(** Single source to single destination (team indices).  The source passes
    [Some p]; everyone else passes [None]; the destination receives
    [Some p], everyone else [None].  Self-transfer charges a local copy. *)

val broadcast : Rctx.t -> team -> root:int -> Message.payload -> Message.payload
(** Binomial-tree multicast from team index [root]; only the root's
    [payload] argument is meaningful. *)

type bcast_pending
(** A split-phase broadcast in flight (see {!broadcast_issue}). *)

val broadcast_issue : Rctx.t -> team -> root:int -> Message.payload -> bcast_pending
(** The nonblocking half of {!broadcast}: the root sends to its binomial
    children immediately, every other team member posts a receive on its
    tree parent.  Peers, message count and per-channel send order are
    identical to the blocking tree.  Collective — every team member must
    call it, and must later complete it with {!broadcast_wait} (in the
    same relative order when several are in flight). *)

val broadcast_wait : Rctx.t -> bcast_pending -> Message.payload
(** Complete a split broadcast: block for the parent's message (latency
    since the issue is accounted as hidden), forward to this node's own
    children, and return the payload. *)

val allreduce :
  Rctx.t ->
  team ->
  combine:(Message.payload -> Message.payload -> Message.payload) ->
  Message.payload ->
  Message.payload
(** Every member gets the combination of all members' payloads.
    [combine] must be associative; combination cost is charged as flops
    proportional to the payload size.

    The result is that of a binomial-tree reduction to team index 0
    followed by a binomial broadcast, and so are the charges: every tree
    edge is accounted as a point-to-point message (its sender's clock,
    stats and trace, its receiver's wait and trace), every member's
    ["reduce"] and ["broadcast"] spans are traced.  The tree is not sent
    through mailboxes, though: an allreduce is a barrier, so it runs as
    one {!Engine.rendezvous} whose last member replays the whole tree,
    and the cancellation poll runs once per member, not once per
    receive. *)

val allgather :
  Rctx.t -> team -> assemble:(Message.payload array -> Message.payload) -> Message.payload ->
  Message.payload
(** The paper's {e concatenation} primitive.  [assemble] runs once per
    call, on the team-ordered payloads, and every member returns its one
    result — physically shared, so readers must not write into it.

    The charges are those of a binomial-tree gather of the payloads to
    team index 0 (each tree edge carries the bytes of the segment it
    has gathered so far) followed by a binomial broadcast of them all,
    with every member's ["gather"] and ["broadcast"] spans inside its
    ["allgather"] span; no flops are charged.  Like {!allreduce}, it runs
    as one {!Engine.rendezvous} replaying that tree. *)

val shift_edge : Rctx.t -> team -> delta:int -> Message.payload -> Message.payload option
(** Send to team index [i+delta], receive from [i-delta]; ends of the team
    send/receive nothing ([None] = nothing arrived) — EOSHIFT's pattern. *)

val shift_circular : Rctx.t -> team -> delta:int -> Message.payload -> Message.payload
(** Circular shift (CSHIFT's pattern).  [delta] may be negative or exceed
    the team size. *)

