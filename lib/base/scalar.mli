(** Fortran scalar values and their arithmetic.

    The interpreter evaluates expressions over these values; integers are
    promoted to reals when mixed, as in Fortran. *)

type t =
  | Int of int
  | Real of float
  | Log of bool
  | Str of string

type kind = Kint | Kreal | Klog | Kstr

val kind : t -> kind
val pp : Format.formatter -> t -> unit
val pp_kind : Format.formatter -> kind -> unit

val to_int : t -> int
(** Truncates reals; errors on logicals/strings. *)

val to_real : t -> float
val to_bool : t -> bool

val zero : kind -> t
(** Additive identity of the kind ([Log] -> [false], [Str] -> [""]). *)

(** Binary operations; numeric ops promote [Int] to [Real] as needed,
    comparisons yield [Log]. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : ?loc:Loc.t -> t -> t -> t
(** Integer division truncates; an integer division by zero is a
    {!Diag.error}, located at [loc] when given. *)

val pow : t -> t -> t
val neg : t -> t
val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val cmp_eq : t -> t -> t
val cmp_ne : t -> t -> t
val cmp_lt : t -> t -> t
val cmp_le : t -> t -> t
val cmp_gt : t -> t -> t
val cmp_ge : t -> t -> t

val min2 : t -> t -> t
val max2 : t -> t -> t

val equal : t -> t -> bool
(** Structural equality (exact on floats); for tests. *)
