(** Small arithmetic and combinatorial helpers shared across the compiler
    and the machine simulator. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is [a/b] rounded towards positive infinity; [b > 0]. *)

val floor_div : int -> int -> int
(** Floor division, correct for negative numerators. *)

val modulo : int -> int -> int
(** Mathematical modulo: result in [0, b); [b > 0]. *)

val gcd : int -> int -> int

val egcd : int -> int -> int * int * int
(** [egcd a b = (g, x, y)] with [a*x + b*y = g = gcd a b]. *)

val crt_first_ge :
  lo:int -> r1:int -> m1:int -> r2:int -> m2:int -> int option
(** Smallest [x >= lo] with [x = r1 (mod m1)] and [x = r2 (mod m2)], or
    [None] if the congruences are incompatible.  Used by the cyclic
    [set_BOUND] algorithm (§4 of the paper). *)

val is_pow2 : int -> bool
val ilog2 : int -> int
(** [ilog2 n] for [n >= 1] is the floor of log2 n. *)

val ceil_log2 : int -> int
(** Smallest [k] with [2^k >= n]; [n >= 1]. *)

val gray : int -> int
(** Binary-reflected Gray code, used for ring/grid embedding in hypercubes. *)

val gray_inverse : int -> int

val popcount : int -> int

val range : int -> int -> int list
(** [range a b] is [[a; a+1; ...; b]] (empty if [a > b]). *)

val mean : float list -> float

val package_version : string
(** The dune package name and version ("f90d 1.0.0"), recorded in every
    bench JSON document and persisted cache artifact. *)

val cache_version : int
(** Layout version of on-disk cache artifacts ([f90d_cache_version] in
    their headers); readers reject artifacts from other versions. *)
