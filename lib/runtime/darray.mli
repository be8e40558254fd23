(** A processor's handle on a distributed array: the shared DAD plus this
    processor's local section (including ghost cells).

    Every processor of the grid holds one [Darray.t] per program array;
    collective operations take the handles SPMD-style. *)

open F90d_base

type t = { dad : F90d_dist.Dad.t; local : Ndarray.t }

val create : Rctx.t -> F90d_dist.Dad.t -> t
(** Allocate a zeroed local section for this processor. *)

val init_global : Rctx.t -> F90d_dist.Dad.t -> (int array -> Scalar.t) -> t
(** Every processor fills its owned elements from a (deterministic) global
    initialiser — the standard way tests and examples set up inputs
    without communication. *)

val kind : t -> Scalar.kind

val get_local : t -> rank:int -> int array -> Scalar.t option
(** Value of a global element if owned here ([rank] is the grid rank). *)

val set_local : t -> rank:int -> int array -> Scalar.t -> bool
(** Store into a global element if owned here; returns whether it was. *)

val iter_owned : t -> rank:int -> (int array -> int -> unit) -> unit
(** Iterate owned elements in local column-major order as
    [(global_indices, flat_storage_position)]. *)

val iter_owned_flat : t -> rank:int -> (int -> unit) -> unit
(** The flat storage positions of {!iter_owned}, in the same order,
    without building the global indices. *)

val owned_count : t -> rank:int -> int

val pack_owned : t -> rank:int -> Ndarray.t
(** Compact copy of the owned elements (no ghosts), local column-major. *)

val gather_global : Rctx.t -> t -> Ndarray.t
(** The full global array on every processor (the paper's concatenation
    primitive; also the test oracle).  Each processor packs and is
    charged for its own block and for a copy of the whole array, but the
    array is built once per call, by {!Collectives.allgather}'s
    rendezvous, and every processor returns that one physically shared
    array: callers only read it. *)

val get_global : Rctx.t -> t -> int array -> Scalar.t
(** Collective: the home owner broadcasts one element to everyone. *)
