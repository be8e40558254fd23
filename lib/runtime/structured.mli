(** Structured communication primitives (§5.1, Table 1).

    All primitives are collective over the processor-grid dimension that
    the named array dimension is distributed on; every grid processor must
    call them in the same program order (inactive processors participate
    with empty roles).  Results are {e temporaries} shaped like this
    processor's owned box of the array, with broadcast/transferred
    dimensions collapsed to extent 1; the generated loop indexes them with
    its local loop indices.

    Global indices ([g], [gsrc], ...) are 0-based positions in the array
    dimension (the caller converts from Fortran indices).  A slice index
    outside the declared bounds is the located [Diag] error of
    {!F90d_dist.Dad.checked_a0}. *)

open F90d_base

val multicast : Rctx.t -> Darray.t -> dim:int -> g:int -> Ndarray.t
(** Broadcast the slice [dim = g] from its owner along the grid dimension:
    result has extent 1 in [dim], the owned box elsewhere. *)

val multicast_issue : Rctx.t -> Darray.t -> dim:int -> g:int -> Collectives.bcast_pending
(** Nonblocking half of {!multicast}: the owner gathers its slab — the
    data in flight is the source {e as of the issue point} — and starts
    the broadcast tree; everyone else posts a receive.  Collective; must
    be completed with {!multicast_wait} before the result is read. *)

val multicast_wait : Rctx.t -> Collectives.bcast_pending -> Ndarray.t
(** Complete a {!multicast_issue}: the latency since the issue is
    accounted as hidden rather than charged as blocking wait. *)

val transfer : Rctx.t -> Darray.t -> dim:int -> gsrc:int -> gdest:int -> Ndarray.t option
(** One-to-one: processors owning [gsrc] send the slice to those owning
    [gdest] (pointwise along the other grid dimensions).  [Some slab] on
    receivers, [None] elsewhere. *)

val overlap_shift : Rctx.t -> Darray.t -> dim:int -> amount:int -> unit
(** Shift boundary slices into ghost cells in place ([amount > 0] fetches
    from the next coordinate).  Requires a BLOCK-contiguous layout and
    ghost widths of at least [|amount|] — the compiler guarantees both. *)

(** {2 Ghost plans} *)

type shift_plan = { sends : (int * int array) list; recvs : (int * int array) list }
(** Per peer rank, in team order: the flat storage offsets of the slab
    sent to it (in [darr.local], in the order the peer unpacks them) and
    of the ghost cells its slab fills here. *)

type Rctx.plan += Ghost of { dad : F90d_dist.Dad.t; dim : int; amount : int; plan : shift_plan }
(** The rank's plan-table entry of one overlap shift. *)

val ghost_plan : Rctx.t -> Darray.t -> dim:int -> amount:int -> shift_plan
(** The {!overlap_shift} plan ([amount <> 0]), built on first use from
    the owners of the [|amount|] cells next to this rank's block and kept
    in the rank's plan table ({!Rctx.plans}) under the DAD's physical
    identity, [dim] and [amount] for the rest of the run. *)

val exchange_wants :
  Rctx.t -> Darray.t -> dim:int -> wants:(int -> int array) -> Ndarray.t
(** Generic exchange along the grid dimension of [dim]: coordinate [c]
    receives the slices for global dim-indices [wants c] (in that order;
    out-of-range entries are left zero).  The want-function is common
    knowledge, so both sides of every pair are derived locally and data
    moves in one vectorized message per pair.  Building block of
    {!temporary_shift} and of CSHIFT/EOSHIFT. *)

val temporary_shift : Rctx.t -> Darray.t -> dim:int -> amount:int -> Ndarray.t
(** General shift into a temporary: position [l] along [dim] holds the
    value of global index [g_l + amount] (zero when outside the array;
    the loop bounds never read those).  Works for any distribution and
    shift amount; one vectorized message per communicating pair. *)

val multicast_shift :
  Rctx.t -> Darray.t -> fused:bool -> mdim:int -> g:int -> sdim:int -> amount:int -> Ndarray.t
(** Multicast of a shifted slice: the result of {!multicast} on
    [dim = mdim] of {!temporary_shift} along [sdim].  Unfused, every
    processor shifts and the owner row broadcasts its slice.  Fused
    (§5.3.1, example 3), only the owner row shifts among itself before
    the broadcast — saving the temporary copies and message unpacking of
    running the two primitives over the full grid. *)

(** {2 Coalesced batches}

    A batch is another transport for the same peer plans: each member
    computes exactly the plan its single primitive would, and every
    member slab bound for the same rank pair travels in one
    [Message.List] (member order) instead of one [Message.Arr] each,
    charging one latency per pair instead of one per member.  Members
    carry the sid of the statement whose traffic they perform; each
    packed send is traced with the per-member (sid, bytes) split. *)

val overlap_shift_batch : Rctx.t -> (Darray.t * int * int * int) list -> unit
(** Members are [(darr, dim, amount, sid)]; semantics of each member are
    exactly {!overlap_shift}, through the same {!ghost_plan}.  Arrays may
    have different distributions — pair membership is derived per member
    from the layouts. *)

type transfer_member
(** One member's {!transfer} plan, with the slab on its source. *)

val transfer_member :
  Rctx.t -> Darray.t -> dim:int -> gsrc:int -> gdest:int -> sid:int -> transfer_member
(** The plan of a batch member [sid]; a slice outside the declared
    bounds is its located error, as for {!transfer}. *)

val transfer_batch : Rctx.t -> transfer_member list -> Ndarray.t option list
(** Returns each member's {!transfer} result in order. *)
