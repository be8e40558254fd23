(** Stage-2 mapping of the paper's three-stage scheme (§3): distribution of
    one template dimension of global size [n] over [p] processor-grid
    coordinates.  All indices here are 0-based template indices.

    [Block] divides the template into contiguous chunks of [ceil(n/p)];
    [Cyclic] deals indices round-robin; [Block_cyclic k] deals chunks of [k]
    round-robin (HPF's CYCLIC(k), included as the natural generalisation);
    [Replicated] leaves the dimension undistributed (collapsed template
    dimension or [*] in DISTRIBUTE). *)

type form = Block | Cyclic | Block_cyclic of int | Replicated

type t = private { n : int; p : int; form : form; chunk : int }
(** Built by {!make} only: [chunk] is derived from [n] and [p]. *)

val make : form -> n:int -> p:int -> t
(** Validates [n >= 0], [p >= 1], [k >= 1]. *)

val pp : Format.formatter -> t -> unit
val form_name : form -> string

val chunk : t -> int
(** Block chunk size [ceil(n/p)] (meaningful for [Block]). *)

val owner : t -> int -> int
(** Processor coordinate owning global template index [g]; [0] for
    [Replicated]. *)

val is_owned : t -> proc:int -> int -> bool

val local_of_global : t -> int -> int
(** µ: local index of [g] on [owner g] (for [Replicated], [g] itself). *)

val global_of_local : t -> proc:int -> int -> int
(** µ⁻¹: global index of local index [l] on processor [proc]. *)

val local_count : t -> proc:int -> int
(** Number of template indices owned by [proc]. *)

val owned_indices : t -> proc:int -> int list
(** All owned global indices in ascending order (test oracle; O(n/p)). *)
