(** The array-statement normalizer (§2): every array assignment and WHERE
    statement becomes an equivalent FORALL, so all later passes deal with
    FORALL only.

    - [A = B + 1]                  -> [FORALL (i1=..,i2=..) A(i1,i2) = B(i1,i2) + 1]
    - [A(1:N,k) = 2*B(2:N+1,k)]    -> [FORALL (i=1:N) A(i,k) = 2*B(i+1,k)]
    - [WHERE (M > 0) A = B]        -> [FORALL (...) with mask M(...) > 0]
    - multi-statement FORALL constructs split into consecutive
      single-statement FORALLs (Fortran's statement-at-a-time semantics).

    Elemental intrinsics distribute over the new indices; transformational
    intrinsics (SUM, CSHIFT, MATMUL, ...) keep whole-array arguments. *)

val normalize_unit : Sema.unit_env -> Ast.stmt list -> Ast.stmt list
(** @raise F90d_base.Diag.Error on non-conforming array expressions. *)

val mover_call : Ast.expr -> Ast.ref_ option
(** The call when the expression is a whole-array movement intrinsic
    (CSHIFT, TRANSPOSE, ...), which stays a statement of its own. *)
