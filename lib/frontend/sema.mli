(** Semantic analysis: symbol tables and directive resolution.

    For each program unit, PARAMETER constants are folded, scalars and
    arrays are catalogued, and the PROCESSORS / TEMPLATE / ALIGN /
    DISTRIBUTE directives are resolved into per-array mapping {e specs} —
    alignment affine functions, distribution forms, template extents and
    processor-grid dimensions.  Specs are machine-independent;
    {!instantiate} turns them into DADs over a concrete grid (whose
    physical embedding the driver picks from the target topology), which
    is what keeps compilation decoupled from the machine (§3, stage 3). *)

open F90d_base

type sdim = {
  sflb : int;  (** declared lower bound *)
  sext : int;
  salign : Affine.t;  (** 0-based array index -> 0-based template index *)
  sform : Ast.distform;
  stn : int;  (** template extent *)
  spdim : int option;  (** processor-grid dimension *)
}

type array_spec = { skind : Ast.kind; sdims : sdim array }

type unit_env = {
  usub : Ast.subprogram;
  uparams : (string * Scalar.t) list;
  uscalars : (string * Ast.kind) list;
  uarrays : (string * array_spec) list;
  ugrid : (int array * Loc.t) option;
      (** evaluated PROCESSORS extents, and the directive's location *)
}

type program_env = { uprog : Ast.program; uunits : (string * unit_env) list }

val analyze : Ast.program -> program_env
(** @raise Diag.Error on semantic errors (unknown template, non-affine
    alignment, more distributed dimensions than grid dimensions, ...). *)

val main_env : program_env -> unit_env

val grid_dims : program_env -> nprocs:int -> int array
(** The main program's PROCESSORS extents; a 1-D grid covering the whole
    machine when the directive is absent.  Errors, at the directive, if
    the product does not equal [nprocs]. *)

val instantiate :
  ghosts:(string * int * int * int) list ->
  unit_env ->
  grid:F90d_dist.Grid.t ->
  (string * F90d_dist.Dad.t) list
(** Build this unit's DADs over a concrete grid.  [ghosts] lists
    [(array, dim, lo, hi)] overlap requirements (the IR's [u_ghosts]);
    each dimension gets the widest [lo] and [hi] asked of it. *)

val array_spec : unit_env -> string -> array_spec option
val scalar_kind : unit_env -> string -> Ast.kind option
val is_distributed : array_spec -> bool

val affine_of : var:string -> lookup:(string -> Scalar.t option) -> Ast.expr -> Affine.t option
(** Recognise [a*var + b] with constant [a], [b]. *)
