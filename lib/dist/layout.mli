(** Resolved local layout of one array dimension on one processor
    coordinate: the set of owned 0-based array indices, combining stage 1
    (alignment [t = a*i + b]) and stage 2 (distribution of the template
    dimension).

    For BLOCK and CYCLIC with affine alignment the owned indices always form
    an arithmetic progression; CYCLIC(k) falls back to an explicit sorted
    index vector.  The local index of an owned global index is its position
    in this set — that is how node programs address their local memory.
    The same type describes a FORALL variable's iterations: {!set_bound}
    intersects an owned set with a global range. *)

type t =
  | Prog of { first : int; step : int; count : int }
  | Explicit of int array  (** sorted ascending *)

val empty : t
val count : t -> int

val resolve : Distrib.t -> align:F90d_base.Affine.t -> extent:int -> proc:int -> t
(** Owned 0-based array indices of a dimension of [extent] elements whose
    index [i] is aligned to template cell [align i], on grid coordinate
    [proc].  [align] must be invertible unless the distribution is
    [Replicated]. *)

val is_owned : t -> int -> bool
val local_of_global : t -> int -> int
(** Position of an owned global index; errors if not owned. *)

val global_of_local : t -> int -> int
val to_list : t -> int list

val set_bound : t -> glb:int -> gub:int -> gst:int -> t
(** The paper's [set_BOUND] primitive (§4): the owned indices the global
    range [glb:gub:gst] (0-based, [gst] may be negative) visits, in
    ascending order — a progression for a progression layout, the
    filtered index vector for an explicit one, and {!empty} when this
    processor has no iterations (masking inactive processors). *)

val pp : Format.formatter -> t -> unit
