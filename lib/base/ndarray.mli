(** Column-major (Fortran order) multi-dimensional arrays.

    The element payload is monomorphic per array — real, integer or
    logical — so inner loops over reals run on flat [float array]s.
    Indices are expressed in each dimension's declared bounds
    ([lb.(d) .. lb.(d) + extent.(d) - 1]), as in Fortran. *)

type data =
  | Reals of float array
  | Ints of int array
  | Logs of bool array

type t = { lb : int array; extents : int array; data : data }

val kind : t -> Scalar.kind
val rank : t -> int
val size : t -> int
(** Total number of elements. *)

val elem_bytes : t -> int
(** Bytes per element under the machine model (real: 8, integer: 4,
    logical: 4), used for communication costing. *)

val bytes : t -> int

val create : Scalar.kind -> ?lb:int array -> int array -> t
(** [create kind ~lb extents]; [lb] defaults to all-ones.  Elements are
    zero-initialised. *)

val reuse : t option -> Scalar.kind -> int -> t
(** [reuse into k n] is [into] when it is a rank-1 array of kind [k] and
    [n] elements, with its contents as they are, and a fresh
    [create k [| n |]] otherwise: a buffer kept between executions is
    used again while it still fits. *)

val of_reals : ?lb:int array -> int array -> float array -> t

val strides : t -> int array
(** Column-major strides (first dimension contiguous). *)

val offset : t -> int array -> int
(** Flat offset of a multi-index (checked against bounds). *)

val get : t -> int array -> Scalar.t
val set : t -> int array -> Scalar.t -> unit

val get_flat : t -> int -> Scalar.t
val set_flat : t -> int -> Scalar.t -> unit

val reals : t -> float array
(** Underlying payload; errors if the array is not real (resp. below). *)

val ints : t -> int array

val fill : t -> Scalar.t -> unit
val copy : t -> t

val iteri : t -> (int array -> Scalar.t -> unit) -> unit
(** Iterates in column-major order with full multi-indices. *)

val init : Scalar.kind -> ?lb:int array -> int array -> (int array -> Scalar.t) -> t

val equal : t -> t -> bool
val approx_equal : ?eps:float -> t -> t -> bool
(** Same shape and elementwise within [eps] for reals ([1e-9] default). *)

val pp : Format.formatter -> t -> unit
(** Compact rendering for diagnostics and tests. *)

val slice_flat : t -> pos:int -> len:int -> t
(** One-dimensional window over the flat payload (copies). *)

val blit_flat : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
(** Flat blit between arrays of the same kind. *)

val gather_flat : t -> int array -> t
(** [gather_flat src positions] is the rank-1 array whose element [i] is
    [src]'s flat element [positions.(i)] — the executor's message-pack
    primitive, copying without a {!Scalar} or float box per element. *)

val scatter_flat : t -> int array -> t -> unit
(** [scatter_flat dst positions values] writes rank-1 [values] element
    [i] to [dst]'s flat position [positions.(i)] (kinds must match). *)

val copy_flat : src:t -> src_positions:int array -> dst:t -> dst_positions:int array -> unit
(** Pairwise flat copy [dst.(dst_positions.(i)) <- src.(src_positions.(i))]
    between same-kind arrays — the self-segment of an exchange. *)
