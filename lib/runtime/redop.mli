(** Reduction operators used by the reduction intrinsics (Table 3,
    category 2) and by reduction collectives.

    Combiners work on message payloads so they can ride directly on
    {!Collectives.allreduce}: scalar payloads combine pointwise, array
    payloads elementwise, and [Pair (Scalar v, Ints loc)] payloads
    implement MAXLOC/MINLOC (ties keep the earlier location, matching
    Fortran's first-occurrence rule when combined in team order). *)

type t = Sum | Prod | Max | Min | And | Or

val scalar : t -> F90d_base.Scalar.t -> F90d_base.Scalar.t -> F90d_base.Scalar.t

val payload : t -> F90d_machine.Message.payload -> F90d_machine.Message.payload -> F90d_machine.Message.payload
(** Elementwise combination of equal-shaped payloads. *)

val maxloc : F90d_machine.Message.payload -> F90d_machine.Message.payload -> F90d_machine.Message.payload
val minloc : F90d_machine.Message.payload -> F90d_machine.Message.payload -> F90d_machine.Message.payload

val identity : t -> F90d_base.Scalar.kind -> F90d_base.Scalar.t
(** Neutral element ([0] for Sum, [1] for Prod, type extrema for Max/Min,
    [.TRUE.]/[.FALSE.] for And/Or). *)

val name : t -> string
