(** The loosely synchronous SPMD intermediate representation.

    A lowered FORALL is an explicit phase sequence — collective
    pre-communication into temporaries, a purely local loop nest over
    [set_BOUND]-restricted bounds, and an optional write-back phase — the
    code shape of §5.3.  Scalar expressions stay as front-end ASTs; array
    references are resolved through {!access} annotations keyed by the
    reference's [rid]. *)

open F90d_frontend

type mshift = {
  ms_arr : string;
  mdim : int;
  ms_g : Ast.expr;
  sdim : int;
  ms_amount : Ast.expr;
  ms_temp : int;
  fused : bool;  (** §5.3.1 example 3; unfused variant kept for ablation *)
}

type inspector = { r : Ast.ref_; itemp : int; key : string option }

(** Pre-communication operations (one per communicating rhs reference). *)
type comm =
  | Multicast of { arr : string; dim : int; g : Ast.expr; temp : int }
      (** broadcast slice [dim = g] along its grid dimension *)
  | Transfer of { arr : string; dim : int; src : Ast.expr; dest : Ast.expr; temp : int }
  | Overlap_shift of { arr : string; dim : int; amount : int }
      (** fills ghost cells in place; no temporary *)
  | Temp_shift of { arr : string; dim : int; amount : Ast.expr; temp : int }
  | Multicast_shift of mshift
  | Concat of { arr : string; temp : int }
  | Precomp_read of inspector
      (** schedule1 inspector over the reference's subscripts *)
  | Gather_read of inspector
  | Comm_batch of (comm * int) list
      (** cross-statement coalesced batch: structurally-compatible
          members (same-direction overlap shifts, same-endpoint
          transfers) in program order, each tagged with the sid of the
          statement whose traffic it performs.  The runtime packs all
          members bound for the same rank pair into one message, so the
          engine charges one latency [alpha] per pair instead of one per
          member. *)

(** Post-communication (non-canonical lhs). *)
type post =
  | Postcomp_write of { key : string option }
  | Scatter_write of { key : string option }

(** How a reference is addressed inside the local loop. *)
type box_dim =
  | Collapsed  (** communicated dimension of the temporary: extent 1 *)
  | By_sub of Ast.expr
      (** indexed by the local position (under this array dimension's own
          layout) of the given global index expression — the FORALL
          variable itself for no-comm and shifted dimensions *)

type access =
  | Acc_direct  (** own local section (ghosts included) or a replicated array *)
  | Acc_box of { temp : int; dims : box_dim array }
  | Acc_flat of { temp : int }  (** unstructured temp, iteration-counter order *)
  | Acc_global_temp of { temp : int }  (** concatenated full copy *)

(** Computation partitioning (§4). *)
type iter =
  | It_canonical of {
      var_dims : (string * int option) list;
      guards : (int * Ast.expr) list;
    }  (** owner computes: set_BOUND per lhs dimension *)
  | It_even  (** iteration space block-split over all processors *)
  | It_replicated  (** lhs replicated: every processor runs every iteration *)

type forall = {
  f_vars : (string * Ast.range) list;
  f_mask : Ast.expr option;
  f_lhs : Ast.ref_;
  f_rhs : Ast.expr;
  f_iter : iter;
  f_pre : comm list;
  f_access : (int * access) list;  (** rid -> access *)
  f_post : post option;
  f_snapshot : bool;
      (** the rhs/mask reads the lhs array through {!Acc_direct} with a
          subscript that is neither the lhs subscript nor provably
          separated from every write (one dimension where the lhs has a
          bare FORALL variable and the read a loop-invariant value outside
          that variable's range, e.g. gauss's [A(I,J)], [I = 1:K-1],
          reading [A(K,J)]): the loop must read a pre-loop snapshot of the
          local section, or in-place stores would leak new values into
          later iterations (FORALL evaluates every rhs before any write).
          Decided by [Lower.needs_snapshot] alone.  [false] is a guarantee
          the node kernel relies on: every direct read of the lhs array is
          the identity subscript or never reads an element the statement
          writes, so the iterations may run in any order. *)
}

(** One communication lifted out of a loop by the hoisting pass, tagged
    with the provenance of the statement it was lifted from so traces
    and profiles still attribute the traffic to the originating line. *)
type hoisted = { hc : comm; hc_sid : int; hc_loc : F90d_base.Loc.t }

(** Pre-header guard: hoisted comms may only run when the loop body
    would execute at least once (a zero-trip loop must communicate
    nothing, and its subscripts may not even be evaluable). *)
type cb_guard = Guard_do of Ast.range | Guard_while of Ast.expr

(** Guard on a split-phase communication half (see [Comm_issue] /
    [Comm_wait]).  The split pass arranges that an issue and its wait
    always execute the same number of times, so guards are how lookahead
    handles loop edges: the pre-loop (prologue) issue runs only when the
    loop trips at least once, and the in-body issue for step k+1 runs
    only while the loop variable has a next iteration. *)
type split_guard =
  | Sg_always
  | Sg_trip of Ast.range
      (** execute iff the DO range yields at least one iteration
          (same trip test as [Guard_do]) *)
  | Sg_next of { var : string; range : Ast.range }
      (** execute iff [var + step] is still within the range bounds —
          i.e. the surrounding DO loop has another iteration coming *)

(** One half of a split-phase communication.  [sp_hid] pairs an issue
    with its wait at run time (a unit-unique slot id); [sp_comm] carries
    the original comm and its origin sid/loc so traffic stays attributed
    to the statement the data is for. *)
type split = { sp_hid : int; sp_comm : hoisted; sp_guard : split_guard }

(* Every statement carries provenance: a program-unique statement id
   (sid, allocated by Lower in emission order, > 0) and the source
   location of the Ast statement it was lowered from.  The sid is the
   join key between the compile-time explain report, trace events and
   the per-statement runtime profile. *)
type stmt = { sid : int; sloc : F90d_base.Loc.t; s : stmt_node }

and stmt_node =
  | Forall of forall
  | Scalar_assign of { name : string; rhs : Ast.expr }
  | Element_assign of { lhs : Ast.ref_; rhs : Ast.expr }
      (** all-scalar subscripts: owners store, everyone evaluates *)
  | Mover of { target : string; call : Ast.ref_ }
      (** whole-array intrinsic movement: A = CSHIFT(B, 1) etc. *)
  | Do_loop of { var : string; range : Ast.range; body : stmt list }
  | While_loop of { cond : Ast.expr; body : stmt list }
  | If_block of { arms : (Ast.expr * stmt list) list; els : stmt list }
  | Call_sub of { sub : string; args : Ast.expr list }
  | Print_stmt of Ast.expr list
  | Return_stmt
  | Comm_block of { cb_members : hoisted list; cb_guard : cb_guard; cb_loop : string }
      (** loop pre-header synthesized by the hoisting pass: the
          loop-invariant communications of the loop it precedes (which
          shares its sid/sloc), executed once under the trip guard.
          [cb_loop] is a rendering of the loop head for reports, e.g.
          ["DO K"]. *)
  | Comm_issue of split
      (** start the communication: snapshot/send the source data and
          post the receives, without blocking.  Synthesized by the
          split-comm pass from a FORALL pre-comm; shares the reading
          statement's sid/sloc. *)
  | Comm_wait of split
      (** complete the matching [Comm_issue]: block until the data has
          arrived and store the communication temporary.  Placed
          immediately before the first statement that reads the data. *)

(** One provenance table entry: what a sid resolves to. *)
type prov = {
  pv_sid : int;
  pv_loc : F90d_base.Loc.t;
  pv_unit : string;  (** owning program unit *)
  pv_desc : string;  (** short statement description, e.g. ["forall A"] *)
}

(** Compile-time communication decision for one rhs/mask reference of a
    comm-bearing statement, as the explain report presents it. *)
type explain_ref = {
  xr_ref : string;  (** rendered reference, e.g. ["B(i,k)"] *)
  xr_plan : string;  (** {!Pattern.plan_name} of the chosen plan *)
  xr_why : string list;  (** per-dimension Table 1/2 decision trail *)
}

(** Explain record for one comm-bearing statement (FORALL / array
    assignment / intrinsic mover), keyed by sid. *)
type explain = {
  x_sid : int;
  x_loc : F90d_base.Loc.t;
  x_unit : string;
  x_stmt : string;  (** rendered statement head, e.g. ["FORALL (i,j) A(i,j) = ..."] *)
  x_lhs : string;  (** lhs array *)
  x_iter : string;  (** computation partitioning (§4 case) *)
  x_iter_why : string;
  x_dist : string list;  (** distribution facts for every array involved *)
  x_refs : explain_ref list;
  x_comms : string list;  (** comm primitives actually emitted (post-optimization) *)
  x_post : string option;  (** write-back phase, if any *)
}

type unit_ir = {
  u_name : string;
  u_env : Sema.unit_env;
  u_body : stmt list;
  u_ghosts : (string * int * int * int) list;
      (** (array, dim, ghost_lo, ghost_hi) requirements from overlap shifts *)
  u_prov : prov list;  (** provenance of every sid in this unit, in sid order *)
  u_explain : explain list;  (** comm-bearing statements, in sid order *)
  u_epilogue : prov;
      (** synthetic sid for the unit's epilogue (final-value gather,
          copy-back): real communication that belongs to no body
          statement still resolves to the unit header's line *)
}

type program_ir = { p_env : Sema.program_env; p_units : (string * unit_ir) list }

(** [sid -> prov] over the whole program (body statements and unit
    epilogues). *)
let prov_table ir =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (_, u) ->
      List.iter (fun p -> Hashtbl.replace tbl p.pv_sid p) u.u_prov;
      Hashtbl.replace tbl u.u_epilogue.pv_sid u.u_epilogue)
    ir.p_units;
  tbl

(** [fn] on every statement of a body, each before its nested bodies. *)
let rec iter_stmts fn stmts =
  List.iter
    (fun s ->
      fn s;
      match s.s with
      | Do_loop { body; _ } | While_loop { body; _ } -> iter_stmts fn body
      | If_block { arms; els } ->
          List.iter (fun (_, body) -> iter_stmts fn body) arms;
          iter_stmts fn els
      | _ -> ())
    stmts

let comm_temp = function
  | Multicast { temp; _ } | Transfer { temp; _ } | Temp_shift { temp; _ } | Concat { temp; _ } ->
      Some temp
  | Multicast_shift { ms_temp; _ } -> Some ms_temp
  | Precomp_read { itemp; _ } | Gather_read { itemp; _ } -> Some itemp
  | Overlap_shift _ | Comm_batch _ -> None

let rec comm_name = function
  | Multicast _ -> "multicast"
  | Transfer _ -> "transfer"
  | Overlap_shift _ -> "overlap_shift"
  | Temp_shift _ -> "temporary_shift"
  | Multicast_shift { fused; _ } -> if fused then "multicast_shift" else "multicast+shift"
  | Concat _ -> "concatenation"
  | Precomp_read _ -> "precomp_read"
  | Gather_read _ -> "gather"
  | Comm_batch [] -> "comm_batch"
  | Comm_batch ((c, _) :: _ as members) ->
      Printf.sprintf "%s[batch of %d]" (comm_name c) (List.length members)

(** The array whose data a comm moves (None for batches, which carry
    several). *)
let comm_source = function
  | Multicast { arr; _ }
  | Transfer { arr; _ }
  | Overlap_shift { arr; _ }
  | Temp_shift { arr; _ }
  | Concat { arr; _ } ->
      Some arr
  | Multicast_shift { ms_arr; _ } -> Some ms_arr
  | Precomp_read { r; _ } | Gather_read { r; _ } -> Some r.Ast.base
  | Comm_batch _ -> None
