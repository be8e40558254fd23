(** Integer affine forms [a*i + b] over a single index variable.

    Array subscripts in canonical and near-canonical FORALLs reduce to this
    form; alignment directives ([ALIGN A(I) WITH T(2*I+1)]) are also affine.
    The paper's precomp_read test (§5.3.2, Table 2) requires invertibility:
    [f(i) = a*i + b] with [a <> 0], whose inverse [g(t) = (t - b) / a] is
    exact only when [a] divides [t - b]. *)

type t = { a : int; b : int }

val const : int -> t
val ident : t
(** The identity form [i]. *)

val make : a:int -> b:int -> t
val eval : t -> int -> int
val is_identity : t -> bool
val is_const : t -> bool

val invertible : t -> bool
(** [a <> 0]. *)

val apply_inverse : t -> int -> int option
(** [apply_inverse f t] is [Some i] with [f i = t] if it exists. *)

val compose : t -> t -> t
(** [compose f g] is [fun i -> f (g i)]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
