(** The PARTI inspector's one pass (§5.3.2).

    For every iteration of a FORALL on each rank it must cover, the pass
    maps one reference's subscripts to the rank owning the element and
    the element's flat storage position there, through the DAD's lookup
    tables ({!F90d_dist.Dad.locate}).  Results go into two unboxed
    arrays, rank by rank, which {!F90d_runtime.Schedule.owner_index}
    sorts by owner.  A schedule built locally (precomp_read, unmasked
    postcomp_write) needs every rank's entries, a communicating one
    (gather, scatter) only the caller's.  A local build's pass does not
    depend on the rank that walks it: the interpreter walks it once per
    run, on the first rank to need it, and hands its owner index to
    every rank. *)

type space = F90d_dist.Layout.t list
(** An iteration space: each FORALL variable's values in nest order (the
    first variable outermost), as the arithmetic progression the paper's
    [set_BOUND] yields — or, on a CYCLIC(k) dimension, the owned index
    vector.  Nothing enumerates a space into index arrays; {!iter} steps
    through it. *)

val replicated : (int * int * int) list -> space
(** Every iteration of the [(lo, hi, stride)] ranges. *)

val even : nprocs:int -> rank:int -> (int * int * int) list -> space
(** [rank]'s share of an even iteration partition: the first variable's
    iterations split into [nprocs] equal chunks. *)

val canonical :
  F90d_dist.Dad.t ->
  var_dims:int option list ->
  guards:(int * int) list ->
  ranges:(int * int * int) list ->
  rank:int ->
  space option
(** Owner-computes iterations of [rank] for a left-hand side with DAD
    [dad]: a variable that indexes dimension [Some d] runs over
    {!F90d_dist.Layout.set_bound} of [rank]'s part of it, ascending.
    [None] when a constant subscript [(dim, value)] of [guards] is not
    owned by [rank]. *)

val points : space -> int
(** The number of points in a space (none without variables). *)

val iter : space -> (int array -> int -> unit) -> unit
(** [iter space f] calls [f x c] at every point of [space] in nest order
    (the last variable varying fastest), with [x] the variables' values
    — one array, updated in place — and [c] the point's position. *)

(** One subscript of the inspected reference. *)
type sub =
  | Lin of Kernel.lin  (** affine in the FORALL variables' values *)
  | Vals of int array  (** the value at each iteration of the space *)
  | Fn of (int array -> int -> int)
      (** evaluated per point from the variables' values (an array the
          pass reuses) and the iteration's position in the space *)

type pass = { owners : int array; flats : int array; starts : int array }
(** Entry [i] locates one iteration's element; slot [s] of the input
    fills entries [starts.(s)] .. [starts.(s + 1) - 1]. *)

val run : F90d_dist.Dad.t -> every_owner:bool -> (space * sub array) option array -> pass
(** [run dad ~every_owner slots] walks each slot's space with its
    subscripts (one per dimension of [dad]); a [None] slot is a rank
    masked out by a guard.  With [every_owner] each iteration gets one
    entry per copy of its element, as {!F90d_dist.Dad.locate} writes
    them.  Raises a [Diag] error for a subscript outside the array's
    declared bounds. *)
