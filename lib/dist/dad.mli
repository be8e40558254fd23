(** Distributed Array Descriptors (§6).

    A DAD carries everything the run-time primitives need about a
    distributed array: global shape, per-dimension alignment to the
    template, the template dimensions' distributions, the grid dimensions
    they map to, and the ghost ("overlap") widths used by overlap_shift.

    Array indices in the public API are Fortran indices (declared lower
    bound, usually 1); template indices and local indices are 0-based. *)

type dim = {
  flb : int;  (** Fortran declared lower bound *)
  extent : int;
  align : F90d_base.Affine.t;
      (** 0-based array index -> 0-based template index *)
  dist : Distrib.t;
  pdim : int option;  (** grid dimension, [None] when replicated/collapsed *)
  ghost_lo : int;  (** overlap cells below the owned section *)
  ghost_hi : int;
}

type t
(** Immutable: built once per run and shared by every rank fiber of that
    run. *)

val make : name:string -> kind:F90d_base.Scalar.kind -> grid:Grid.t -> dim array -> t
(** Checks that no two dimensions map to the same grid dimension, and
    resolves every dimension's layout on every grid coordinate up front. *)

val collapse : t -> dim:int -> t
(** [t] with dimension [dim] collapsed to a single replicated element and
    no ghost cells, reusing [t]'s resolved layouts for the other
    dimensions. *)

val name : t -> string
val kind : t -> F90d_base.Scalar.kind
val grid : t -> Grid.t
val dims : t -> dim array

val replicated_dim : flb:int -> extent:int -> dim
(** A dimension that is not distributed at all. *)

val block_dim :
  ?align:F90d_base.Affine.t ->
  ?tn:int ->
  flb:int ->
  extent:int ->
  pdim:int ->
  p:int ->
  unit ->
  dim
(** Convenience: dimension aligned by [align] (identity by default) to a
    template dimension of size [tn] (defaults to covering the array)
    distributed BLOCK over [p] processors on grid dimension [pdim]. *)

val cyclic_dim :
  ?align:F90d_base.Affine.t ->
  ?tn:int ->
  flb:int ->
  extent:int ->
  pdim:int ->
  p:int ->
  unit ->
  dim

val rank : t -> int
val is_replicated : t -> bool
val global_extents : t -> int array
val global_size : t -> int
val elem_bytes : t -> int

val layout_at : t -> dim:int -> rank:int -> Layout.t
(** Owned 0-based array indices of dimension [dim] on a grid rank: a
    lookup in the table [make] built, at the rank's coordinate along the
    dimension's [pdim]. *)

val local_counts : t -> rank:int -> int array
(** Owned element counts per dimension on a grid rank. *)

val alloc_local : t -> rank:int -> F90d_base.Ndarray.t
(** Fresh zeroed local section including ghost cells; the storage lower
    bound of each dimension is [-ghost_lo] so owned local indices start
    at 0. *)

val checked_a0 : t -> int -> int -> int
(** [checked_a0 t dim g]: the 0-based position of Fortran subscript [g]
    in dimension [dim], or the located [Diag] error naming the array, the
    index and the declared bounds when [g] is outside the declaration. *)

val home_rank : t -> int array -> int
(** The rank owning a global (Fortran-indexed) element, at coordinate 0
    along grid dimensions the array is not distributed over; does not
    allocate.  Like every function here that maps a global element to
    its owner, it raises a [Diag] error naming the array, the index and
    the declared bounds when a subscript is outside the declaration. *)

val owning_ranks : t -> int array -> int list
(** Every rank holding the element (several when replicated along unused
    grid dimensions): the home rank first, the first unused grid
    dimension varying slowest. *)

val copies : t -> int
(** How many ranks hold each element: [List.length (owning_ranks t g)]
    for every [g]. *)

val locate :
  t -> int array -> every_owner:bool -> owners:int array -> flats:int array -> at:int -> unit
(** [locate t g ~every_owner ~owners ~flats ~at] writes the home rank of
    global element [g] to [owners.(at)] and the element's storage flat on
    it to [flats.(at)].  With [every_owner] it writes all {!copies}
    entries instead, [at + j] for the [j]th rank of {!owning_ranks} (the
    flat is equal on every copy): a write must land on each copy, a read
    needs one.  Table lookups only, with no allocation: the inspector's
    per-element mapping. *)

val is_local : t -> rank:int -> int array -> bool

val local_indices : t -> rank:int -> int array -> int array option
(** Storage indices (per-dimension local positions, valid for
    [Ndarray.get] on [alloc_local]) of a global element, or [None] if the
    element does not live on [rank].  A subscript outside the declared
    bounds is the located [Diag] error of {!home_rank}, not [None]. *)

val global_of_local : t -> rank:int -> int array -> int array
(** Inverse of {!local_indices} for owned (non-ghost) positions, returning
    Fortran global indices. *)

val storage_flat : t -> rank:int -> int array -> int
(** Flat position of per-dimension local indices within [rank]'s local
    section (column-major, ghost offsets applied) — computable for any
    rank without materialising its section, which is how locally-built
    communication schedules address remote memory. *)

val iter_local : t -> rank:int -> (int array -> int array -> unit) -> unit
(** Iterate [rank]'s owned elements in local column-major order as
    [(global Fortran indices, local positions)]. *)

val pp : Format.formatter -> t -> unit
