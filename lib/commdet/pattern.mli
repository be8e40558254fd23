(** Communication detection for FORALL statements — Algorithm 1 of the
    paper, driven by Tables 1 (structured) and 2 (unstructured).

    For every array reference in the statement (right-hand side and mask),
    each distributed dimension's subscript is paired with the left-hand
    side subscript aligned to the same processor-grid dimension and
    matched against Table 1; references that fail all structured patterns
    fall back to the unstructured primitives of Table 2.  The left-hand
    side itself is tagged canonical (owner computes), postcomp_write or
    scatter (§4's computation-partitioning cases 3/4), or replicated.

    One refinement over the paper's Algorithm 1 as printed: when the lhs
    is not distributed (line 11), a rhs dimension whose subscript is
    {e constant} is tagged multicast of that slice rather than
    concatenation of the whole array — the slab broadcast the paper's own
    Gaussian-elimination results rely on; concatenation remains the
    fallback for varying subscripts. *)

open F90d_frontend

type dim_tag =
  | No_comm
  | Local_dim  (** dimension not distributed: direct local access *)
  | Multicast of Ast.expr
  | Transfer of { src : Ast.expr; dest : Ast.expr }
  | Overlap of int
  | Temp_shift of Ast.expr  (** signed, run-time shift amount *)

type ref_plan =
  | Direct  (** fully local (replicated array or all dims owned) *)
  | Structured of dim_tag array
  | Precomp_read  (** invertible subscripts: schedule1 inspector *)
  | Gather  (** vector-valued / unknown: schedule2 inspector *)
  | Concat

type lhs_kind =
  | Lhs_canonical of {
      var_dims : (string * int option) list;
          (** each FORALL variable's lhs dimension (None: unconstrained) *)
      guards : (int * Ast.expr) list;
          (** constant-subscript distributed dimensions: only owners are active *)
    }
  | Lhs_replicated
  | Lhs_postcomp  (** non-canonical but invertible: write-back after compute *)
  | Lhs_scatter

type plan = {
  lhs_ref : Ast.ref_;
  lhs : lhs_kind;
  refs : (Ast.ref_ * ref_plan) list;  (** every rhs/mask array reference *)
  lhs_why : string;
      (** human-readable reason for the lhs classification (which §4
          computation-partitioning case applied) *)
  ref_whys : (int * string list) list;
      (** per-reference decision trail keyed by [Ast.ref_.rid]: one line
          per distributed dimension naming the Table 1 row that matched,
          or why the reference fell through to Table 2 *)
}

val analyze_forall :
  Sema.unit_env ->
  vars:(string * Ast.range) list ->
  mask:Ast.expr option ->
  lhs:Ast.expr ->
  rhs:Ast.expr ->
  plan

val tag_name : dim_tag -> string
val plan_name : ref_plan -> string
(** Short names for explain reports ("multicast", "structured[...]",
    ...). *)

val classify_pair : Subscript.t -> Subscript.t -> string
(** Table 1/2 row name for an (lhs, rhs) subscript pair assuming aligned
    block-distributed dimensions — used to regenerate the paper's tables. *)
