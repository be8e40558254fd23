(** Classification of one array subscript relative to the FORALL index
    variables — the raw material of Tables 1 and 2.

    [s] denotes a loop-invariant scalar expression (known only at run
    time), [c] a compile-time constant, [i] a FORALL index. *)

open F90d_frontend

type t =
  | Canonical of string  (** exactly [i] *)
  | Var_const of string * int  (** [i + c], [c <> 0] *)
  | Var_scalar of string * Ast.expr  (** [i + s] *)
  | Const of Ast.expr  (** no FORALL variable: [c] or [s] *)
  | Affine of string * F90d_base.Affine.t  (** [a*i + b], [a not in {0,1}]: invertible *)
  | Vector of string * Ast.expr  (** [V(f(i))]: indirection array *)
  | Unknown  (** several indices ([i+j]), non-linear, ... *)

val classify :
  vars:string list ->
  is_const:(string -> F90d_base.Scalar.t option) ->
  is_int_array:(string -> bool) ->
  Ast.expr ->
  t

val pp : Format.formatter -> t -> unit
