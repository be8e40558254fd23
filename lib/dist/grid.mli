(** Stage-3 mapping (§3): the logical processor grid and its embedding onto
    physical nodes.

    Grid ranks are column-major (dimension 0 varies fastest), matching the
    Fortran convention used everywhere else.  The embedding φ (grid rank →
    physical node) is a permutation supplied by the machine topology — for
    hypercubes a Gray-code embedding so grid neighbours are physical
    neighbours; the identity for fully connected models. *)

type t

val make : ?phys_of_rank:int array -> int array -> t
(** [make dims] builds a grid with extents [dims]; the embedding defaults to
    the identity.  [phys_of_rank] must be a permutation of [0..size-1]. *)

val dims : t -> int array
val ndims : t -> int
val size : t -> int

val rank_of_coords : t -> int array -> int
val coords_of_rank : t -> int -> int array

val coord : t -> rank:int -> dim:int -> int
(** [(coords_of_rank t rank).(dim)] without allocating. *)

val stride : t -> dim:int -> int
(** Rank distance between neighbours along [dim]. *)

val phys_of_rank : t -> int -> int
(** φ *)

val rank_of_phys : t -> int -> int
(** φ⁻¹ *)

val all_ranks : t -> int array
(** [0..size-1]: the team of the whole grid. *)

val ranks_along : t -> rank:int -> dim:int -> int array
(** All grid ranks whose coordinates agree with [rank] except along [dim],
    ordered by that coordinate — the processor row/column used by multicast
    and shift primitives.

    {!make} builds every team once: all members of a line get the same
    physical array, and every caller of {!all_ranks} gets the same array.
    The grid is shared by all ranks of a run and by parallel worker
    domains, so a returned team must never be mutated. *)

val neighbour : t -> rank:int -> dim:int -> delta:int -> int option
(** Grid rank at coordinate+delta along [dim], or [None] off the edge. *)

val pp : Format.formatter -> t -> unit
