(** Integer affine forms of subscript expressions: a constant plus an
    integer coefficient per variable (§5.2 classifies subscripts by this
    form).  Literals, variables, unary minus, [+], [-] and a [*] with one
    constant side are affine; anything else has no form.  Every analysis
    that proves two subscripts equal or apart reads this one form. *)

type t

val of_expr : ?lookup:(string -> int option) -> Ast.expr -> t option
(** [lookup] folds a variable to its value (INTEGER PARAMETERs); by
    default every variable stays symbolic. *)

val const : t -> int
val coeff : string -> t -> int
(** 0 for a variable the form does not mention. *)

val vars : t -> string list
(** The variables with a non-zero coefficient, sorted. *)

val const_diff : Ast.expr -> Ast.expr -> int option
(** [Some d] when [e1 - e2] folds to the constant [d]: every variable
    term cancels symbolically. *)
