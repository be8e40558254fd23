open F90d_base
open F90d_dist
open F90d_machine
open F90d_runtime
open F90d_frontend
open F90d_ir

exception Return_unwind

(* communication tracing: enable with Logs.Src.set_level src (Some Debug),
   or f90dc --trace *)
let log_src = Logs.Src.create "f90d.exec" ~doc:"SPMD interpreter communication trace"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* One rank's copy of the last multicast slab of an array: the slice
   [rv_dim = rv_g0] (zero-based) as broadcast when the array's write
   version was [rv_version].  While the version is unchanged the slab
   still holds live data, so a repeated multicast of the same slice —
   or a remote single-element read inside it — can be served locally
   with zero messages.  All fields are identical on every rank (the
   publish is collective and versions are bumped replicatedly), so the
   serve decision can never diverge across ranks. *)
type replica = { rv_version : int; rv_dim : int; rv_g0 : int; rv_slab : Ndarray.t }

(* A split-phase pre-communication between its issue and its wait.
   [Pserved]: the issue was answered from the replica cache, nothing in
   flight — the wait just publishes the slab.  [Pflight]: the broadcast
   tree is running; the wait completes it and (like the blocking path)
   publishes the received slab to the replica cache. *)
type pending_comm =
  | Pserved of { pc_temp : int; pc_slab : Ndarray.t }
  | Pflight of {
      pc_temp : int;
      pc_arr : string;
      pc_dim : int;
      pc_g0 : int;
      pc_bp : Collectives.bcast_pending;
    }

(* What a reference's base name denotes, resolved once per run: element
   references are the innermost loop of every compiled program, and
   re-deciding array-vs-intrinsic per access means string comparisons
   against the whole intrinsic table on the hottest path. *)
type ref_class = Rarray | Relemental | Rtransformational

(* The rank-invariant half of a program unit, built by [prepare] before
   the engine starts and never mutated after: every rank fiber and worker
   domain reads the same tables. *)
type prepared_unit = {
  pu_ir : Ir.unit_ir;
  pu_classes : (string, ref_class) Hashtbl.t;
      (** every name a reference may denote; a miss is an unknown name *)
  pu_plans : (int, Kernel.plan) Hashtbl.t;  (** kernel plan of each FORALL, by sid *)
  pu_index : (int * int, (Ast.expr * Kernel.index_plan) array) Hashtbl.t;
      (** each inspected reference's subscripts and how the inspector
          evaluates them, by (FORALL sid, reference id) *)
  pu_dads : (string, Dad.t) Hashtbl.t;  (** every array's DAD, ghost widths applied *)
}

type prepared = (string * prepared_unit) list  (* main unit first *)

type ustate = {
  ctx : Rctx.t;
  prog : prepared;
  u : prepared_unit;
  scalars : (string, Scalar.t ref) Hashtbl.t;
  arrays : (string, Darray.t) Hashtbl.t;
  out : Buffer.t;
  ptemps : (int, Kernel.temp_nd) Hashtbl.t;
      (** communication temporaries produced outside any FORALL frame
          (loop pre-headers, cross-statement batches); frames fall back
          here when their own table misses *)
  replicas : (string, replica) Hashtbl.t;
  coalesce : bool;  (** runtime half of the coalesce pass (replica cache) *)
  pending : (int, pending_comm) Hashtbl.t;
      (** split-phase comms issued but not yet waited, keyed by the
          pass-assigned slot id ([Ir.split.sp_hid]); empty between any
          issue/wait-balanced program points *)
}

type frame = {
  fvals : (string * int) list;  (** FORALL variable -> global value *)
  faccess : (int * Ir.access) list;
  ftemps : (int, Kernel.temp_nd) Hashtbl.t;
  fsnap : (string * Ndarray.t) option;
      (** pre-loop copy of the lhs local section: Acc_direct reads of the
          lhs array go here when the FORALL also writes it in place
          ([Ir.f_snapshot]), preserving evaluate-before-write semantics *)
  counter : int;  (** the iteration's position in the rank's space *)
}

type mode = Mscalar | Mloop of frame

let me st = Rctx.me st.ctx

let dad_of st name =
  match Hashtbl.find_opt st.u.pu_dads name with
  | Some d -> d
  | None -> Diag.bug "interp: no DAD for '%s'" name

let darray_of st name =
  match Hashtbl.find_opt st.arrays name with
  | Some a -> a
  | None -> Diag.bug "interp: no array '%s'" name

let kind_of_decl = function
  | Ast.Integer -> Scalar.Kint
  | Ast.Real -> Scalar.Kreal
  | Ast.Logical -> Scalar.Klog

(* ------------------------------------------------------------------ *)
(* Operation counting (time charging)                                  *)
(* ------------------------------------------------------------------ *)

let rec ops_of_expr (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Int_lit _ | Ast.Real_lit _ | Ast.Log_lit _ | Ast.Str_lit _ | Ast.Var _ -> (0, 0)
  | Ast.Un (_, a) ->
      let f, i = ops_of_expr a in
      (f + 1, i)
  | Ast.Bin (op, a, b) ->
      let f1, i1 = ops_of_expr a and f2, i2 = ops_of_expr b in
      let fl, io =
        match op with
        | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow -> (1, 0)
        | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (1, 0)
        | Ast.And | Ast.Or -> (0, 1)
      in
      (f1 + f2 + fl, i1 + i2 + io)
  | Ast.Ref r ->
      let inner =
        List.map
          (function
            | Ast.Elem x -> ops_of_expr x
            | Ast.Range _ -> (0, 0))
          r.Ast.args
      in
      let f, i = List.fold_left (fun (a, b) (c, d) -> (a + c, b + d)) (0, 0) inner in
      if Intrinsic_names.is_elemental r.Ast.base then (f + 4, i + List.length r.Ast.args)
      else (f, i + (2 * List.length r.Ast.args))

(* ------------------------------------------------------------------ *)
(* Elemental intrinsics                                                *)
(* ------------------------------------------------------------------ *)

let apply_elemental name loc args =
  let real1 f = Scalar.Real (f (Scalar.to_real (List.nth args 0))) in
  match (name, args) with
  | "ABS", [ Scalar.Int n ] -> Scalar.Int (abs n)
  | "ABS", [ _ ] -> real1 Float.abs
  | "SQRT", [ _ ] -> real1 Float.sqrt
  | "EXP", [ _ ] -> real1 Float.exp
  | "LOG", [ _ ] -> real1 Float.log
  | "LOG10", [ _ ] -> real1 Float.log10
  | "SIN", [ _ ] -> real1 sin
  | "COS", [ _ ] -> real1 cos
  | "TAN", [ _ ] -> real1 tan
  | "ASIN", [ _ ] -> real1 asin
  | "ACOS", [ _ ] -> real1 acos
  | "ATAN", [ _ ] -> real1 atan
  | "ATAN2", [ a; b ] -> Scalar.Real (Float.atan2 (Scalar.to_real a) (Scalar.to_real b))
  | ("MOD" | "MODULO"), [ Scalar.Int _; Scalar.Int 0 ] -> Diag.error ~loc "integer division by zero"
  | "MOD", [ Scalar.Int a; Scalar.Int b ] -> Scalar.Int (a mod b)
  | "MOD", [ a; b ] -> Scalar.Real (Float.rem (Scalar.to_real a) (Scalar.to_real b))
  | "MODULO", [ Scalar.Int a; Scalar.Int b ] -> Scalar.Int (Util.modulo a b)
  | "MIN", (_ :: _ :: _ as l) -> List.fold_left Scalar.min2 (List.hd l) (List.tl l)
  | "MAX", (_ :: _ :: _ as l) -> List.fold_left Scalar.max2 (List.hd l) (List.tl l)
  | "SIGN", [ a; b ] ->
      let x = Scalar.to_real a in
      Scalar.Real (if Scalar.to_real b >= 0. then Float.abs x else -.Float.abs x)
  | "INT", [ a ] -> Scalar.Int (Scalar.to_int a)
  | "NINT", [ a ] -> Scalar.Int (int_of_float (Float.round (Scalar.to_real a)))
  | ("REAL" | "FLOAT" | "DBLE"), [ a ] -> Scalar.Real (Scalar.to_real a)
  | "MERGE", [ t; f; m ] -> if Scalar.to_bool m then t else f
  | _ -> Diag.error ~loc "bad arguments for intrinsic %s" name

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

(* Storage position (per dimension) of a global Fortran index, allowing
   ghost-area reads on contiguous layouts. *)
let storage_pos st dad ~dim g =
  let d = (Dad.dims dad).(dim) in
  let a0 = g - d.Dad.flb in
  match Dad.layout_at dad ~dim ~rank:(me st) with
  | Layout.Prog { first; step = 1; count } ->
      let pos = a0 - first in
      if pos < -d.Dad.ghost_lo || pos >= count + d.Dad.ghost_hi then
        Diag.error "index %d of %s dim %d is outside the local section (+ghosts)" g
          (Dad.name dad) (dim + 1);
      pos
  | lay ->
      if Layout.is_owned lay a0 then Layout.local_of_global lay a0
      else
        Diag.error "index %d of %s dim %d is not owned by this processor" g (Dad.name dad)
          (dim + 1)

let version_key st name = st.u.pu_ir.Ir.u_name ^ ":" ^ name

(* Communication temporaries normally live in the FORALL's own frame;
   hoisted and cross-statement-batched comms store theirs in the unit's
   persistent table instead. *)
let find_temp st ftemps temp =
  match Hashtbl.find_opt ftemps temp with
  | Some _ as v -> v
  | None -> Hashtbl.find_opt st.ptemps temp

(* Serve a remote single-element read from the replica cache.  The miss
   path ([Darray.get_global]) is a collective, so the hit/miss decision
   must be identical on every rank: the version counter, the cached
   (dim, g0) and the distribution are all replicated, and we only serve
   when every *other* dimension is undistributed — then each rank's slab
   spans those dimensions fully and all ranks agree. *)
let replica_serve st name (darr : Darray.t) g =
  if not st.coalesce then None
  else
    match Hashtbl.find_opt st.replicas name with
    | None -> None
    | Some rv ->
        let dad = darr.Darray.dad in
        let dims = Dad.dims dad in
        if
          rv.rv_version <> Rctx.version st.ctx (version_key st name)
          || g.(rv.rv_dim) - dims.(rv.rv_dim).Dad.flb <> rv.rv_g0
        then None
        else begin
          let uniform = ref true in
          Array.iteri
            (fun d dd -> if d <> rv.rv_dim && dd.Dad.pdim <> None then uniform := false)
            dims;
          if not !uniform then None
          else begin
            let idx =
              Array.mapi
                (fun d gi -> if d = rv.rv_dim then 1 else storage_pos st dad ~dim:d gi + 1)
                g
            in
            Some (Ndarray.get rv.rv_slab idx)
          end
        end

let rec eval st mode (e : Ast.expr) : Scalar.t =
  match e.Ast.e with
  | Ast.Int_lit n -> Scalar.Int n
  | Ast.Real_lit r -> Scalar.Real r
  | Ast.Log_lit b -> Scalar.Log b
  | Ast.Str_lit s -> Scalar.Str s
  | Ast.Var v -> eval_var st mode e.Ast.loc v
  | Ast.Un (Ast.Neg, a) -> Scalar.neg (eval st mode a)
  | Ast.Un (Ast.Not, a) -> Scalar.not_ (eval st mode a)
  | Ast.Bin (op, a, b) ->
      let x = eval st mode a in
      (* short-circuit logicals to keep masks cheap *)
      (match (op, x) with
      | Ast.And, Scalar.Log false -> Scalar.Log false
      | Ast.Or, Scalar.Log true -> Scalar.Log true
      | _ ->
          let y = eval st mode b in
          let f =
            match op with
            | Ast.Add -> Scalar.add
            | Ast.Sub -> Scalar.sub
            | Ast.Mul -> Scalar.mul
            | Ast.Div -> Scalar.div ~loc:e.Ast.loc
            | Ast.Pow -> Scalar.pow
            | Ast.Eq -> Scalar.cmp_eq
            | Ast.Ne -> Scalar.cmp_ne
            | Ast.Lt -> Scalar.cmp_lt
            | Ast.Le -> Scalar.cmp_le
            | Ast.Gt -> Scalar.cmp_gt
            | Ast.Ge -> Scalar.cmp_ge
            | Ast.And -> Scalar.and_
            | Ast.Or -> Scalar.or_
          in
          f x y)
  | Ast.Ref r -> eval_ref st mode e.Ast.loc r

and eval_var st mode loc v =
  (match mode with
  | Mloop f -> (
      match List.assoc_opt v f.fvals with Some g -> Some (Scalar.Int g) | None -> None)
  | Mscalar -> None)
  |> function
  | Some s -> s
  | None -> (
      match Hashtbl.find_opt st.scalars v with
      | Some r -> !r
      | None -> (
          match List.assoc_opt v st.u.pu_ir.Ir.u_env.Sema.uparams with
          | Some s -> s
          | None -> Diag.error ~loc "undefined variable '%s'" v))

and eval_ref st mode loc (r : Ast.ref_) =
  let elem_args () =
    List.map
      (function
        | Ast.Elem x -> x
        | Ast.Range _ -> Diag.error ~loc "unexpected array section")
      r.Ast.args
  in
  let cls =
    match Hashtbl.find_opt st.u.pu_classes r.Ast.base with
    | Some c -> c
    | None -> Diag.error ~loc "unknown function or array '%s'" r.Ast.base
  in
  match cls with
  | Relemental -> apply_elemental r.Ast.base loc (List.map (eval st mode) (elem_args ()))
  | Rtransformational -> eval_transformational st mode loc r
  | Rarray -> (
      let subs = List.map (fun e -> Scalar.to_int (eval st mode e)) (elem_args ()) in
      let g = Array.of_list subs in
      match mode with
      | Mscalar -> read_element_scalar st r.Ast.base g
      | Mloop f -> read_element_loop st f loc r g)

and read_element_scalar st name g =
  let darr = darray_of st name in
  if Dad.is_replicated darr.Darray.dad then
    match Darray.get_local darr ~rank:(me st) g with
    | Some v -> v
    | None -> Diag.bug "interp: replicated array misses an element"
  else
    match replica_serve st name darr g with
    | Some v -> v
    | None -> Darray.get_global st.ctx darr g

and read_element_loop st f loc (r : Ast.ref_) g =
  match List.assoc_opt r.Ast.rid f.faccess with
  | None | Some Ir.Acc_direct ->
      let darr = darray_of st r.Ast.base in
      let dad = darr.Darray.dad in
      let idx = Array.mapi (fun d gi -> storage_pos st dad ~dim:d gi) g in
      let storage =
        match f.fsnap with
        | Some (base, nd) when base = r.Ast.base -> nd
        | _ -> darr.Darray.local
      in
      Ndarray.get storage idx
  | Some (Ir.Acc_box { temp; dims }) -> (
      match find_temp st f.ftemps temp with
      | Some (Kernel.Tbox nd) ->
          let darr = darray_of st r.Ast.base in
          let dad = darr.Darray.dad in
          let idx =
            Array.mapi
              (fun d bd ->
                match bd with
                | Ir.Collapsed -> 1
                | Ir.By_sub e ->
                    let gv = Scalar.to_int (eval st (Mloop f) e) in
                    storage_pos st dad ~dim:d gv + 1)
              (Array.of_list (Array.to_list dims))
          in
          Ndarray.get nd idx
      | _ -> Diag.error ~loc "communication temporary missing for '%s'" r.Ast.base)
  | Some (Ir.Acc_flat { temp }) -> (
      match find_temp st f.ftemps temp with
      | Some (Kernel.Tflat nd) -> Ndarray.get_flat nd f.counter
      | _ -> Diag.error ~loc "inspector temporary missing for '%s'" r.Ast.base)
  | Some (Ir.Acc_global_temp { temp }) -> (
      match find_temp st f.ftemps temp with
      | Some (Kernel.Tglobal nd) -> Ndarray.get nd g
      | _ -> Diag.error ~loc "concatenation temporary missing for '%s'" r.Ast.base)

and eval_transformational st mode loc (r : Ast.ref_) =
  (match mode with
  | Mloop _ -> Diag.error ~loc "transformational intrinsic %s inside FORALL" r.Ast.base
  | Mscalar -> ());
  let args =
    List.map
      (function
        | Ast.Elem x -> x
        | Ast.Range _ -> Diag.error ~loc "array section argument for %s" r.Ast.base)
      r.Ast.args
  in
  let whole_array (e : Ast.expr) =
    match e.Ast.e with
    | Ast.Var v when Sema.array_spec st.u.pu_ir.Ir.u_env v <> None -> darray_of st v
    | _ -> Diag.error ~loc "%s expects a whole array argument" r.Ast.base
  in
  match (r.Ast.base, args) with
  | ("SUM" | "PRODUCT" | "MAXVAL" | "MINVAL" | "ALL" | "ANY"), [ a ] ->
      let op =
        match r.Ast.base with
        | "SUM" -> Redop.Sum
        | "PRODUCT" -> Redop.Prod
        | "MAXVAL" -> Redop.Max
        | "MINVAL" -> Redop.Min
        | "ALL" -> Redop.And
        | _ -> Redop.Or
      in
      Intrinsics.reduce st.ctx op (whole_array a)
  | "COUNT", [ a ] -> Intrinsics.count st.ctx (whole_array a)
  | ("DOT_PRODUCT" | "DOTPRODUCT"), [ a; b ] ->
      Intrinsics.dotproduct st.ctx (whole_array a) (whole_array b)
  | ("MAXLOC" | "MINLOC"), [ a ] ->
      let darr = whole_array a in
      if Array.length (Dad.dims darr.Darray.dad) <> 1 then
        Diag.error ~loc "%s is supported for rank-1 arrays (assign to a scalar)" r.Ast.base;
      let locv =
        if r.Ast.base = "MAXLOC" then Intrinsics.maxloc st.ctx darr
        else Intrinsics.minloc st.ctx darr
      in
      Scalar.Int locv.(0)
  | "SIZE", [ a ] -> Scalar.Int (Dad.global_size (whole_array a).Darray.dad)
  | "SIZE", [ a; d ] ->
      let dim = Scalar.to_int (eval st Mscalar d) in
      Scalar.Int (Dad.dims (whole_array a).Darray.dad).(dim - 1).Dad.extent
  | "LBOUND", [ a; d ] ->
      let dim = Scalar.to_int (eval st Mscalar d) in
      Scalar.Int (Dad.dims (whole_array a).Darray.dad).(dim - 1).Dad.flb
  | "UBOUND", [ a; d ] ->
      let dim = Scalar.to_int (eval st Mscalar d) in
      let dd = (Dad.dims (whole_array a).Darray.dad).(dim - 1) in
      Scalar.Int (dd.Dad.flb + dd.Dad.extent - 1)
  | _ -> Diag.error ~loc "unsupported use of intrinsic %s" r.Ast.base

(* ------------------------------------------------------------------ *)
(* Iteration spaces                                                    *)
(* ------------------------------------------------------------------ *)

(* Global values of each FORALL variable for [rank], in nest order.
   Returns None when the rank is masked out by a guard. *)
let iteration_values st (f : Ir.forall) ~ranges ~guard_vals ~rank =
  match f.Ir.f_iter with
  | Ir.It_replicated -> Some (Inspector.replicated ranges)
  | Ir.It_canonical { var_dims; guards } ->
      Inspector.canonical (dad_of st f.Ir.f_lhs.Ast.base) ~var_dims:(List.map snd var_dims)
        ~guards:(List.map2 (fun (dim, _) g -> (dim, g)) guards guard_vals)
        ~ranges ~rank
  | Ir.It_even -> Some (Inspector.even ~nprocs:(Rctx.nprocs st.ctx) ~rank ranges)

let scalar_lookup st v =
  match Hashtbl.find_opt st.scalars v with
  | Some r -> Some !r
  | None -> List.assoc_opt v st.u.pu_ir.Ir.u_env.Sema.uparams

(* ------------------------------------------------------------------ *)
(* Inspector                                                           *)
(* ------------------------------------------------------------------ *)

(* One inspector pass over reference [r] of FORALL [sid]: every rank's
   iterations for a locally built schedule ([all_ranks]), else this
   rank's.  This rank's subscripts may read the statement's own
   communication temporaries (e.g. V in A(V(I)), read by an earlier pre
   op), which cover only this rank's iterations: under an even partition
   Pattern makes such a reference a gather, never a local build.
   Strip-compiled subscripts run over this rank's space only, and
   through the interpreter on another rank's. *)
let inspect st ~sid (f : Ir.forall) ~ranges ~guard_vals ~ftemps ~every_owner ~all_ranks
    (r : Ast.ref_) =
  let me = me st in
  let subs values ~mine =
    Array.map
      (fun (e, x) ->
        match
          Kernel.index x ~f ~me ~scalar_lookup:(scalar_lookup st) ~darr_of:(darray_of st)
            ~temp_of:(find_temp st ftemps)
            ~values:(if mine then Some values else None)
        with
        | Kernel.Iaffine l -> Inspector.Lin l
        | Kernel.Ivalues a -> Inspector.Vals a
        | Kernel.Iinterp ->
            (* the counter keeps Acc_flat subscript reads in step with
               the iteration they were built for *)
            Inspector.Fn
              (fun x counter ->
                let fvals = List.mapi (fun k (v, _) -> (v, x.(k))) f.Ir.f_vars in
                let fr = { fvals; faccess = f.Ir.f_access; ftemps; fsnap = None; counter } in
                Scalar.to_int (eval st (Mloop fr) e)))
      (Hashtbl.find st.u.pu_index (sid, r.Ast.rid))
  in
  let slot rank =
    Option.map
      (fun values -> (values, subs values ~mine:(rank = me)))
      (iteration_values st f ~ranges ~guard_vals ~rank)
  in
  Inspector.run (dad_of st r.Ast.base) ~every_owner
    (if all_ranks then Array.init (Rctx.nprocs st.ctx) slot else [| slot me |])

(* ------------------------------------------------------------------ *)
(* Schedule-reuse write versioning                                      *)
(* ------------------------------------------------------------------ *)

(* [Passes.key_schedules] proves a schedule's index sets depend only on
   named constants, the FORALL variables — and the *contents* of any index
   arrays in the subscripts (e.g. V in B(V(I))), which it cannot see
   change.  Every array assignment bumps a per-unit write counter
   (identically on every rank, so collective rebuilds stay consistent),
   and the current counters of a schedule's index arrays are appended to
   its cache key: a reuse after the index array was overwritten misses and
   rebuilds instead of serving the stale index sets. *)

let bump_written st name =
  if Hashtbl.mem st.arrays name then Rctx.bump_version st.ctx (version_key st name)

let version_sig st (r : Ast.ref_) =
  let bases =
    List.concat_map
      (function Ast.Elem e -> Ast.refs_of e | Ast.Range _ -> [])
      r.Ast.args
    |> List.filter_map (fun (ri : Ast.ref_) ->
           if Hashtbl.mem st.arrays ri.Ast.base then Some ri.Ast.base else None)
    |> List.sort_uniq compare
  in
  String.concat ""
    (List.map
       (fun b -> Printf.sprintf "|%s=%d" b (Rctx.version st.ctx (version_key st b)))
       bases)

(* ------------------------------------------------------------------ *)
(* Pre-communication                                                   *)
(* ------------------------------------------------------------------ *)

let zero_based_sub st name ~dim e =
  let dad = dad_of st name in
  Scalar.to_int (eval st Mscalar e) - (Dad.dims dad).(dim).Dad.flb

let log_comm st (c : Ir.comm) =
  Log.debug (fun m ->
      m "p%d t=%.6f %s(%s)" (me st) (Rctx.time st.ctx) (Ir.comm_name c)
        (match Ir.comm_source c with Some a -> a | None -> "<batch>"))

(* The multicast slab, through the replica cache when the coalesce pass is
   on: a repeat of the same (array, dim, slice) broadcast while the array
   is unmodified is served from the cached slab with no messages.  The
   reuse decision is replicated (see {!replica_serve} on why), so no rank
   skips a collective the others enter. *)
let multicast_slab st arr ~dim ~g0 =
  let darr = darray_of st arr in
  if not st.coalesce then Structured.multicast st.ctx darr ~dim ~g:g0
  else begin
    let ver = Rctx.version st.ctx (version_key st arr) in
    match Hashtbl.find_opt st.replicas arr with
    | Some rv when rv.rv_version = ver && rv.rv_dim = dim && rv.rv_g0 = g0 -> rv.rv_slab
    | _ ->
        let slab = Structured.multicast st.ctx darr ~dim ~g:g0 in
        Hashtbl.replace st.replicas arr { rv_version = ver; rv_dim = dim; rv_g0 = g0; rv_slab = slab };
        slab
  end

(* The two halves of a split-phase multicast (pass 6).  The issue makes
   the replica-cache serve/miss decision — at issue time, with the same
   replicated inputs as {!multicast_slab}, so no rank diverges — and on a
   miss starts the nonblocking broadcast tree.  The wait publishes the
   slab into the unit's persistent temp table (split comms, like hoisted
   ones, live outside any FORALL frame) and, on the in-flight path,
   refreshes the replica cache exactly as the blocking path would. *)
let exec_comm_issue st hid (c : Ir.comm) =
  log_comm st c;
  match c with
  | Ir.Multicast { arr; dim; g; temp } ->
      if Hashtbl.mem st.pending hid then Diag.bug "interp: double issue on split slot %d" hid;
      let g0 = zero_based_sub st arr ~dim g in
      let darr = darray_of st arr in
      let served =
        if not st.coalesce then None
        else
          let ver = Rctx.version st.ctx (version_key st arr) in
          match Hashtbl.find_opt st.replicas arr with
          | Some rv when rv.rv_version = ver && rv.rv_dim = dim && rv.rv_g0 = g0 ->
              Some rv.rv_slab
          | _ -> None
      in
      (match served with
      | Some slab -> Hashtbl.replace st.pending hid (Pserved { pc_temp = temp; pc_slab = slab })
      | None ->
          let bp = Structured.multicast_issue st.ctx darr ~dim ~g:g0 in
          Hashtbl.replace st.pending hid
            (Pflight { pc_temp = temp; pc_arr = arr; pc_dim = dim; pc_g0 = g0; pc_bp = bp }))
  | c -> Diag.bug "interp: split issue of non-multicast comm %s" (Ir.comm_name c)

let exec_comm_wait st hid =
  match Hashtbl.find_opt st.pending hid with
  | None -> Diag.bug "interp: wait on empty split slot %d" hid
  | Some p -> (
      Hashtbl.remove st.pending hid;
      match p with
      | Pserved { pc_temp; pc_slab } -> Hashtbl.replace st.ptemps pc_temp (Kernel.Tbox pc_slab)
      | Pflight { pc_temp; pc_arr; pc_dim; pc_g0; pc_bp } ->
          let slab = Structured.multicast_wait st.ctx pc_bp in
          Hashtbl.replace st.ptemps pc_temp (Kernel.Tbox slab);
          if st.coalesce then
            (* The intervening statements provably did not write the
               broadcast slice (split legality), so the slab equals the
               slice under the current version even if other parts of
               the array changed since the issue. *)
            Hashtbl.replace st.replicas pc_arr
              {
                rv_version = Rctx.version st.ctx (version_key st pc_arr);
                rv_dim = pc_dim;
                rv_g0 = pc_g0;
                rv_slab = slab;
              })

(* Comms that do not need the FORALL frame (everything but the inspector
   ops) — executable from a loop pre-header, where [ftemps] is the unit's
   persistent table [st.ptemps]. *)
let exec_comm_simple st ftemps (c : Ir.comm) =
  log_comm st c;
  match c with
  | Ir.Multicast { arr; dim; g; temp } ->
      let g0 = zero_based_sub st arr ~dim g in
      Hashtbl.replace ftemps temp (Kernel.Tbox (multicast_slab st arr ~dim ~g0))
  | Ir.Transfer { arr; dim; src; dest; temp } -> (
      let s0 = zero_based_sub st arr ~dim src and d0 = zero_based_sub st arr ~dim dest in
      match Structured.transfer st.ctx (darray_of st arr) ~dim ~gsrc:s0 ~gdest:d0 with
      | Some slab -> Hashtbl.replace ftemps temp (Kernel.Tbox slab)
      | None -> ())
  | Ir.Overlap_shift { arr; dim; amount } ->
      Structured.overlap_shift st.ctx (darray_of st arr) ~dim ~amount
  | Ir.Temp_shift { arr; dim; amount; temp } ->
      let a = Scalar.to_int (eval st Mscalar amount) in
      let slab = Structured.temporary_shift st.ctx (darray_of st arr) ~dim ~amount:a in
      Hashtbl.replace ftemps temp (Kernel.Tbox slab)
  | Ir.Multicast_shift { ms_arr; mdim; ms_g; sdim; ms_amount; ms_temp; fused } ->
      let g0 = zero_based_sub st ms_arr ~dim:mdim ms_g in
      let a = Scalar.to_int (eval st Mscalar ms_amount) in
      let darr = darray_of st ms_arr in
      let slab =
        if fused then Structured.multicast_shift st.ctx darr ~mdim ~g:g0 ~sdim ~amount:a
        else begin
          (* unfused: shift everywhere, then broadcast the slice *)
          let shifted = Structured.temporary_shift st.ctx darr ~dim:sdim ~amount:a in
          let dad = darr.Darray.dad in
          let pd =
            match (Dad.dims dad).(mdim).Dad.pdim with
            | Some p -> p
            | None -> Diag.bug "interp: multicast dim not distributed"
          in
          let team = Collectives.team_along st.ctx ~dim:pd in
          let d = (Dad.dims dad).(mdim) in
          let root = Distrib.owner d.Dad.dist (Affine.eval d.Dad.align g0) in
          let payload =
            if (Rctx.my_coords st.ctx).(pd) = root then begin
              let pos =
                Layout.local_of_global (Dad.layout_at dad ~dim:mdim ~rank:(me st)) g0
              in
              let lo = Array.map (fun lb -> lb) shifted.Ndarray.lb in
              let extents = Array.copy shifted.Ndarray.extents in
              lo.(mdim) <- lo.(mdim) + pos;
              extents.(mdim) <- 1;
              Message.Arr (Ndarray.get_box shifted ~lo ~extents)
            end
            else Message.Empty
          in
          match Collectives.broadcast st.ctx team ~root payload with
          | Message.Arr s -> s
          | _ -> Diag.bug "interp: multicast protocol error"
        end
      in
      Hashtbl.replace ftemps ms_temp (Kernel.Tbox slab)
  | Ir.Concat { arr; temp } ->
      Hashtbl.replace ftemps temp (Kernel.Tglobal (Darray.gather_global st.ctx (darray_of st arr)))
  | Ir.Comm_batch members -> (
      (* one packed message per rank pair; members were proven homogeneous
         by the coalescing pass *)
      match members with
      | [] -> ()
      | (Ir.Overlap_shift _, _) :: _ ->
          let items =
            List.map
              (function
                | Ir.Overlap_shift { arr; dim; amount }, sid ->
                    (darray_of st arr, dim, amount, sid)
                | _ -> Diag.bug "interp: mixed comm batch")
              members
          in
          Structured.overlap_shift_batch st.ctx items
      | (Ir.Transfer _, _) :: _ ->
          let items =
            List.map
              (function
                | Ir.Transfer { arr; dim; src; dest; temp }, sid ->
                    ( darray_of st arr,
                      dim,
                      zero_based_sub st arr ~dim src,
                      zero_based_sub st arr ~dim dest,
                      sid,
                      temp )
                | _ -> Diag.bug "interp: mixed comm batch")
              members
          in
          let results =
            Structured.transfer_batch st.ctx
              (List.map (fun (d, dim, s0, d0, sid, _) -> (d, dim, s0, d0, sid)) items)
          in
          List.iter2
            (fun (_, _, _, _, _, temp) res ->
              match res with
              | Some slab ->
                  Hashtbl.replace ftemps temp (Kernel.Tbox slab);
                  (* consumers downstream of the anchor statement read the
                     persistent table *)
                  Hashtbl.replace st.ptemps temp (Kernel.Tbox slab)
              | None -> ())
            items results
      | _ -> Diag.bug "interp: unsupported comm batch")
  | Ir.Precomp_read _ | Ir.Gather_read _ ->
      Diag.bug "interp: inspector comm outside a FORALL frame"

(* A keyed schedule is reused while the index arrays [r]'s subscripts
   read keep their write versions; the builder runs only on a miss. *)
let cached_schedule st key (r : Ast.ref_) build =
  match key with
  | Some k -> Schedule.cached st.ctx ~key:(k ^ version_sig st r) build
  | None -> build ()

let exec_comm st ~sid (f : Ir.forall) ~ranges ~guard_vals ftemps (c : Ir.comm) =
  match c with
  | Ir.Precomp_read { r; itemp; key } ->
      log_comm st c;
      let sched =
        cached_schedule st key r (fun () ->
            let p =
              inspect st ~sid f ~ranges ~guard_vals ~ftemps ~every_owner:false ~all_ranks:true r
            in
            Schedule.build_read_local st.ctx ~owners:p.Inspector.owners ~flats:p.Inspector.flats
              ~starts:p.Inspector.starts)
      in
      Hashtbl.replace ftemps itemp (Kernel.Tflat (Schedule.read st.ctx sched (darray_of st r.Ast.base)))
  | Ir.Gather_read { r; itemp; key } ->
      log_comm st c;
      let sched =
        cached_schedule st key r (fun () ->
            let p =
              inspect st ~sid f ~ranges ~guard_vals ~ftemps ~every_owner:false ~all_ranks:false r
            in
            Schedule.build_gather st.ctx ~owners:p.Inspector.owners ~flats:p.Inspector.flats)
      in
      Hashtbl.replace ftemps itemp (Kernel.Tflat (Schedule.read st.ctx sched (darray_of st r.Ast.base)))
  | c -> exec_comm_simple st ftemps c

(* ------------------------------------------------------------------ *)
(* FORALL execution                                                    *)
(* ------------------------------------------------------------------ *)

(* Hand the whole local nest to the kernel layer.  [--fno-blocked-kernels]
   disables the layer outright — every FORALL interprets element by
   element, which is both the honest ablation baseline and the reference
   the fuzz differential compares bit-for-bit against.  Counts a run or
   a fallback (by reason) in this rank's collector; an ineligible plan
   and an empty slab (gauss's non-owning ranks) count as neither.  [None]:
   the interpreter must run the nest. *)
let run_kernel st ~sid ftemps vv =
  if not (Rctx.kernels st.ctx && List.for_all (fun a -> Array.length a > 0) vv) then None
  else
    let rs = Engine.rank_stats (Rctx.engine st.ctx) in
    match
      Kernel.execute (Hashtbl.find st.u.pu_plans sid) ~me:(me st) ~scalar_lookup:(scalar_lookup st)
        ~darr_of:(darray_of st) ~temp_of:(find_temp st ftemps) ~values:vv
    with
    | None -> None
    | Some (Ok out) ->
        Stats.record_kernel_run rs;
        Some out
    | Some (Error why) ->
        Stats.record_kernel_fallback rs why;
        None

let exec_forall_body st ~sid (f : Ir.forall) =
  let ranges =
    List.map
      (fun (_, (rg : Ast.range)) ->
        ( Scalar.to_int (eval st Mscalar rg.Ast.lo),
          Scalar.to_int (eval st Mscalar rg.Ast.hi),
          match rg.Ast.st with Some e -> Scalar.to_int (eval st Mscalar e) | None -> 1 ))
      f.Ir.f_vars
  in
  let guard_vals =
    match f.Ir.f_iter with
    | Ir.It_canonical { guards; _ } ->
        List.map (fun (_, e) -> Scalar.to_int (eval st Mscalar e)) guards
    | _ -> []
  in
  let ftemps = Hashtbl.create 8 in
  (* phase 1: collective pre-communication *)
  List.iter (exec_comm st ~sid f ~ranges ~guard_vals ftemps) f.Ir.f_pre;
  (* phase 2: local loop nest *)
  let lhs_darr = darray_of st f.Ir.f_lhs.Ast.base in
  let lhs_dad = lhs_darr.Darray.dad in
  (* the rhs reads the lhs array in place with a different subscript:
     snapshot the local section (ghosts already filled by phase 1) so the
     loop reads pre-statement values throughout *)
  let snapshot =
    if f.Ir.f_snapshot then begin
      Rctx.charge_copy_bytes st.ctx (Ndarray.bytes lhs_darr.Darray.local);
      Some (f.Ir.f_lhs.Ast.base, Ndarray.copy lhs_darr.Darray.local)
    end
    else None
  in
  let canonical_store =
    match f.Ir.f_iter with Ir.It_canonical _ | Ir.It_replicated -> true | Ir.It_even -> false
  in
  (* an even partition's values for the write-back phase, and, when the
     interpreter ran the nest, the (owner, flat) of each *)
  let scattered = ref None and writes = ref [] and values = ref [] in
  let flops_per_iter, iops_per_iter = ops_of_expr f.Ir.f_rhs in
  let iters = ref 0 in
  (match iteration_values st f ~ranges ~guard_vals ~rank:(me st) with
  | None -> ()
  | Some vv -> (
      match run_kernel st ~sid ftemps vv with
      | Some out ->
          (* the kernel ran the whole nest *)
          iters := List.fold_left (fun acc a -> acc * Array.length a) 1 vv;
          (match out with Kernel.Scattered tmp -> scattered := Some tmp | Kernel.Stored -> ())
      | None ->
          let copies = if canonical_store then 0 else Dad.copies lhs_dad in
          let owners = Array.make copies 0 and flats = Array.make copies 0 in
          Inspector.iter vv (fun x counter ->
              let fvals = List.mapi (fun k (v, _) -> (v, x.(k))) f.Ir.f_vars in
              let fr2 = { fvals; faccess = f.Ir.f_access; ftemps; fsnap = snapshot; counter } in
              incr iters;
              let masked =
                match f.Ir.f_mask with
                | None -> false
                | Some m -> not (Scalar.to_bool (eval st (Mloop fr2) m))
              in
              if not masked then begin
                let v = eval st (Mloop fr2) f.Ir.f_rhs in
                let g =
                  List.map
                    (function
                      | Ast.Elem e -> Scalar.to_int (eval st (Mloop fr2) e)
                      | Ast.Range _ -> Diag.bug "interp: lhs section")
                    f.Ir.f_lhs.Ast.args
                  |> Array.of_list
                in
                if canonical_store then begin
                  let idx = Array.mapi (fun d gi -> storage_pos st lhs_dad ~dim:d gi) g in
                  Ndarray.set lhs_darr.Darray.local idx v
                end
                else begin
                  (* one write per owning rank, in the inspector's order
                     so the peer-exchange index lists line up *)
                  Dad.locate lhs_dad g ~every_owner:true ~owners ~flats ~at:0;
                  for j = 0 to copies - 1 do
                    writes := (owners.(j), flats.(j)) :: !writes;
                    values := v :: !values
                  done
                end
              end)));
  Rctx.charge_flops st.ctx (!iters * (flops_per_iter + 1));
  Rctx.charge_iops st.ctx (!iters * (iops_per_iter + 2));
  (* phase 3: write-back *)
  match f.Ir.f_post with
  | None -> ()
  | Some post ->
      let tmp =
        match !scattered with
        | Some tmp -> tmp
        | None ->
            let vals = Array.of_list (List.rev !values) in
            let tmp = Ndarray.create (Darray.kind lhs_darr) [| Array.length vals |] in
            Array.iteri (fun i v -> Ndarray.set_flat tmp i v) vals;
            tmp
      in
      (* the write list: the interpreter's, or, after the kernel, one
         inspector pass — only when the schedule is not cached *)
      let inspect = inspect st ~sid f ~ranges ~guard_vals ~ftemps ~every_owner:true f.Ir.f_lhs in
      let my_writes () =
        match !scattered with
        | None ->
            let w = Array.of_list (List.rev !writes) in
            (Array.map fst w, Array.map snd w)
        | Some _ ->
            let p = inspect ~all_ranks:false in
            (p.Inspector.owners, p.Inspector.flats)
      in
      let sched =
        match post with
        | Ir.Postcomp_write { key } when f.Ir.f_mask = None ->
            cached_schedule st key f.Ir.f_lhs (fun () ->
                let p = inspect ~all_ranks:true in
                Schedule.build_write_local st.ctx ~owners:p.Inspector.owners
                  ~flats:p.Inspector.flats ~starts:p.Inspector.starts)
        | Ir.Postcomp_write { key } | Ir.Scatter_write { key } ->
            cached_schedule st key f.Ir.f_lhs (fun () ->
                let owners, flats = my_writes () in
                Schedule.build_scatter st.ctx ~owners ~flats)
      in
      Schedule.write st.ctx sched lhs_darr tmp

(* Statement-level compute span: names the FORALL by its left-hand side
   so a trace reads like the source program. *)
let exec_forall st ~sid (f : Ir.forall) =
  let tr = Rctx.trace st.ctx in
  if not (F90d_trace.Trace.enabled tr) then exec_forall_body st ~sid f
  else begin
    F90d_trace.Trace.span_begin tr ~t:(Rctx.time st.ctx)
      ("forall " ^ f.Ir.f_lhs.Ast.base) ~cat:"compute";
    exec_forall_body st ~sid f;
    F90d_trace.Trace.span_end tr ~t:(Rctx.time st.ctx)
  end

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let coerce kind v =
  match kind with
  | Scalar.Kint -> Scalar.Int (Scalar.to_int v)
  | Scalar.Kreal -> Scalar.Real (Scalar.to_real v)
  | Scalar.Klog -> Scalar.Log (Scalar.to_bool v)
  | Scalar.Kstr -> v

let same_dist (a : Dad.t) (b : Dad.t) =
  Array.length (Dad.dims a) = Array.length (Dad.dims b)
  && Array.for_all2
       (fun (x : Dad.dim) (y : Dad.dim) ->
         x.Dad.flb = y.Dad.flb && x.Dad.extent = y.Dad.extent
         && Affine.equal x.Dad.align y.Dad.align
         && x.Dad.dist.Distrib.form = y.Dad.dist.Distrib.form
         && x.Dad.dist.Distrib.n = y.Dad.dist.Distrib.n
         && x.Dad.dist.Distrib.p = y.Dad.dist.Distrib.p
         && x.Dad.pdim = y.Dad.pdim)
       (Dad.dims a) (Dad.dims b)

(* Materialise [src] under descriptor [dad] (locally when the mapping is
   identical, by redistribution otherwise). *)
let adopt st (src : Darray.t) dad =
  if same_dist src.Darray.dad dad then begin
    let dst = Darray.create st.ctx dad in
    Darray.iter_owned dst ~rank:(me st) (fun g flat ->
        Ndarray.set_flat dst.Darray.local flat
          (Option.get (Darray.get_local src ~rank:(me st) g)));
    Rctx.charge_copy_bytes st.ctx (Ndarray.bytes dst.Darray.local);
    dst
  end
  else Redistribute.redistribute st.ctx src dad

let exec_mover_body st ~target ~(call : Ast.ref_) loc =
  let args =
    List.map
      (function
        | Ast.Elem x -> x
        | Ast.Range _ -> Diag.error ~loc "array section argument for %s" call.Ast.base)
      call.Ast.args
  in
  let arr_arg (e : Ast.expr) =
    match e.Ast.e with
    | Ast.Var v when Hashtbl.mem st.arrays v -> darray_of st v
    | _ -> Diag.error ~loc "%s expects whole-array arguments" call.Ast.base
  in
  let int_arg e = Scalar.to_int (eval st Mscalar e) in
  let target_dad = dad_of st target in
  let result =
    match (call.Ast.base, args) with
    | "CSHIFT", [ a; s ] -> Intrinsics.cshift st.ctx (arr_arg a) ~dim:0 ~shift:(int_arg s)
    | "CSHIFT", [ a; s; d ] ->
        Intrinsics.cshift st.ctx (arr_arg a) ~dim:(int_arg d - 1) ~shift:(int_arg s)
    | "EOSHIFT", [ a; s ] ->
        let src = arr_arg a in
        Intrinsics.eoshift st.ctx src ~dim:0 ~shift:(int_arg s)
          ~boundary:(Scalar.zero (Darray.kind src))
    | "EOSHIFT", [ a; s; b ] ->
        Intrinsics.eoshift st.ctx (arr_arg a) ~dim:0 ~shift:(int_arg s)
          ~boundary:(eval st Mscalar b)
    | "EOSHIFT", [ a; s; b; d ] ->
        Intrinsics.eoshift st.ctx (arr_arg a) ~dim:(int_arg d - 1) ~shift:(int_arg s)
          ~boundary:(eval st Mscalar b)
    | "TRANSPOSE", [ a ] -> Intrinsics.transpose st.ctx (arr_arg a) ~dad:target_dad
    | "SPREAD", [ a; d; _n ] ->
        Intrinsics.spread st.ctx (arr_arg a) ~dim:(int_arg d - 1) ~dad:target_dad
    | "RESHAPE", (a :: _) -> Intrinsics.reshape st.ctx (arr_arg a) ~dad:target_dad
    | "MATMUL", [ a; b ] -> Intrinsics.matmul st.ctx (arr_arg a) (arr_arg b) ~dad:target_dad
    | ("SUM" | "PRODUCT" | "MAXVAL" | "MINVAL" | "ALL" | "ANY"), [ a; d ] ->
        let op =
          match call.Ast.base with
          | "SUM" -> Redop.Sum
          | "PRODUCT" -> Redop.Prod
          | "MAXVAL" -> Redop.Max
          | "MINVAL" -> Redop.Min
          | "ALL" -> Redop.And
          | _ -> Redop.Or
        in
        Intrinsics.reduce_dim st.ctx op (arr_arg a) ~dim:(int_arg d - 1) ~dad:target_dad
    | "PACK", [ a; m ] -> fst (Intrinsics.pack st.ctx (arr_arg a) ~mask:(arr_arg m) ~dad:target_dad)
    | "UNPACK", [ v; m; fl ] ->
        Intrinsics.unpack st.ctx (arr_arg v) ~mask:(arr_arg m) ~field:(arr_arg fl)
    | _ -> Diag.error ~loc "unsupported intrinsic call %s" call.Ast.base
  in
  Hashtbl.replace st.arrays target (adopt st result target_dad)

let exec_mover st ~target ~(call : Ast.ref_) loc =
  let tr = Rctx.trace st.ctx in
  if not (F90d_trace.Trace.enabled tr) then exec_mover_body st ~target ~call loc
  else begin
    F90d_trace.Trace.span_begin tr ~t:(Rctx.time st.ctx)
      (call.Ast.base ^ " -> " ^ target) ~cat:"compute";
    exec_mover_body st ~target ~call loc;
    F90d_trace.Trace.span_end tr ~t:(Rctx.time st.ctx)
  end

(* ------------------------------------------------------------------ *)
(* Per-run preparation                                                 *)
(* ------------------------------------------------------------------ *)

let prepare_unit ~grid (u : Ir.unit_ir) =
  let env = u.Ir.u_env in
  let classes = Hashtbl.create 64 in
  let add cls names = List.iter (fun n -> Hashtbl.replace classes n cls) names in
  add Relemental Intrinsic_names.elemental;
  add Rtransformational Intrinsic_names.(reductions @ locations @ movers @ queries);
  (* a declared array shadows any intrinsic of the same name *)
  add Rarray (List.map fst env.Sema.uarrays);
  let do_vars = ref [] and foralls = ref [] in
  Ir.iter_stmts
    (fun s ->
      match s.Ir.s with
      | Ir.Do_loop { var; _ } -> do_vars := var :: !do_vars
      | Ir.Forall f -> foralls := (s.Ir.sid, f) :: !foralls
      | _ -> ())
    u.Ir.u_body;
  (* the interpreter stores DO indices as integers whatever their
     declaration says *)
  let scalar_kind v =
    if List.mem v !do_vars then Some Scalar.Kint
    else
      match Sema.scalar_kind env v with
      | Some k -> Some (kind_of_decl k)
      | None -> Option.map Scalar.kind (List.assoc_opt v env.Sema.uparams)
  in
  let plans = Hashtbl.create 16 and index = Hashtbl.create 16 in
  List.iter
    (fun (sid, (f : Ir.forall)) ->
      Hashtbl.replace plans sid (Kernel.plan ~env ~scalar_kind ~f);
      let inspected (r : Ast.ref_) =
        Hashtbl.replace index (sid, r.Ast.rid)
          (Array.of_list
             (List.map
                (function
                  | Ast.Elem e -> (e, Kernel.plan_index ~env ~scalar_kind ~f e)
                  | Ast.Range _ -> Diag.bug "interp: section in inspector")
                r.Ast.args))
      in
      List.iter
        (function Ir.Precomp_read { r; _ } | Ir.Gather_read { r; _ } -> inspected r | _ -> ())
        f.Ir.f_pre;
      if f.Ir.f_post <> None then inspected f.Ir.f_lhs)
    !foralls;
  let dads = Hashtbl.create 8 in
  List.iter
    (fun (n, d) -> Hashtbl.replace dads n d)
    (Sema.instantiate ~ghosts:u.Ir.u_ghosts env ~grid);
  { pu_ir = u; pu_classes = classes; pu_plans = plans; pu_index = index; pu_dads = dads }

let prepare ~grid (prog : Ir.program_ir) =
  List.map (fun (n, u) -> (n, prepare_unit ~grid u)) prog.Ir.p_units

let planned_sids (prog : prepared) =
  List.concat_map (fun (_, pu) -> Hashtbl.fold (fun sid _ acc -> sid :: acc) pu.pu_plans []) prog
  |> List.sort compare

(* Local storage only: the DADs are shared, and array dummies are bound
   by the CALL. *)
let fresh_ustate st (u : prepared_unit) =
  let scalars = Hashtbl.create 16 in
  List.iter
    (fun (n, k) -> Hashtbl.replace scalars n (ref (Scalar.zero (kind_of_decl k))))
    u.pu_ir.Ir.u_env.Sema.uscalars;
  let arrays = Hashtbl.create 8 in
  let dummies = u.pu_ir.Ir.u_env.Sema.usub.Ast.args in
  Hashtbl.iter
    (fun n dad ->
      if not (List.mem n dummies) then Hashtbl.replace arrays n (Darray.create st.ctx dad))
    u.pu_dads;
  {
    st with
    u;
    scalars;
    arrays;
    ptemps = Hashtbl.create 8;
    replicas = Hashtbl.create 4;
    pending = Hashtbl.create 4;
  }

(* Every statement stamps its provenance into the engine before running:
   trace events recorded during it carry its sid, and a deadlock or a
   location-less runtime error is reported against its source line. *)
let rec exec_stmt st (s : Ir.stmt) =
  Engine.check_cancel (Rctx.engine st.ctx);
  Rctx.set_stmt st.ctx ~sid:s.Ir.sid ~loc:s.Ir.sloc;
  try exec_node st s with
  | Diag.Error (loc, msg) when loc.Loc.line = 0 ->
      raise (Diag.Error (s.Ir.sloc, msg))
  | Failure msg -> raise (Diag.Error (s.Ir.sloc, msg))

and exec_node st (s : Ir.stmt) =
  match s.Ir.s with
  | Ir.Forall f ->
      exec_forall st ~sid:s.Ir.sid f;
      bump_written st f.Ir.f_lhs.Ast.base
  | Ir.Scalar_assign { name; rhs } -> (
      let v = eval st Mscalar rhs in
      match Hashtbl.find_opt st.scalars name with
      | Some r ->
          let kind =
            match Sema.scalar_kind st.u.pu_ir.Ir.u_env name with
            | Some k -> kind_of_decl k
            | None -> Scalar.kind v
          in
          r := coerce kind v
      | None ->
          (* implicitly declared integer (DO indices etc.) *)
          Hashtbl.replace st.scalars name (ref v))
  | Ir.Element_assign { lhs; rhs } ->
      let v = eval st Mscalar rhs in
      let g =
        List.map
          (function
            | Ast.Elem e -> Scalar.to_int (eval st Mscalar e)
            | Ast.Range _ -> Diag.bug "interp: section in element assignment")
          lhs.Ast.args
        |> Array.of_list
      in
      let darr = darray_of st lhs.Ast.base in
      ignore (Darray.set_local darr ~rank:(me st) g (coerce (Darray.kind darr) v));
      bump_written st lhs.Ast.base
  | Ir.Mover { target; call } ->
      exec_mover st ~target ~call s.Ir.sloc;
      bump_written st target
  | Ir.Do_loop { var; range; body } ->
      let lo = Scalar.to_int (eval st Mscalar range.Ast.lo) in
      let hi = Scalar.to_int (eval st Mscalar range.Ast.hi) in
      let stp =
        match range.Ast.st with Some e -> Scalar.to_int (eval st Mscalar e) | None -> 1
      in
      if stp = 0 then Diag.error "zero DO stride";
      let cell =
        match Hashtbl.find_opt st.scalars var with
        | Some r -> r
        | None ->
            let r = ref (Scalar.Int lo) in
            Hashtbl.replace st.scalars var r;
            r
      in
      let i = ref lo in
      while (stp > 0 && !i <= hi) || (stp < 0 && !i >= hi) do
        cell := Scalar.Int !i;
        List.iter (exec_stmt st) body;
        i := !i + stp
      done
  | Ir.While_loop { cond; body } ->
      (* re-stamp before each condition eval: the body left its last
         statement's sid current *)
      let restamp () = Rctx.set_stmt st.ctx ~sid:s.Ir.sid ~loc:s.Ir.sloc in
      while
        restamp ();
        Scalar.to_bool (eval st Mscalar cond)
      do
        List.iter (exec_stmt st) body
      done
  | Ir.If_block { arms; els } ->
      let rec go = function
        | [] -> List.iter (exec_stmt st) els
        | (c, body) :: rest ->
            if Scalar.to_bool (eval st Mscalar c) then List.iter (exec_stmt st) body
            else go rest
      in
      go arms
  | Ir.Call_sub { sub; args } -> exec_call st ~sid:s.Ir.sid ~loc:s.Ir.sloc sub args
  | Ir.Print_stmt args ->
      let line = Buffer.create 64 in
      List.iter
        (fun (e : Ast.expr) ->
          if Buffer.length line > 0 then Buffer.add_char line ' ';
          match e.Ast.e with
          | Ast.Var v when Hashtbl.mem st.arrays v ->
              let g = Darray.gather_global st.ctx (darray_of st v) in
              Buffer.add_string line (Format.asprintf "%a" Ndarray.pp g)
          | _ -> Buffer.add_string line (Format.asprintf "%a" Scalar.pp (eval st Mscalar e)))
        args;
      if Rctx.me st.ctx = 0 then begin
        Buffer.add_buffer st.out line;
        Buffer.add_char st.out '\n'
      end
  | Ir.Return_stmt -> raise Return_unwind
  | Ir.Comm_block { cb_members; cb_guard; cb_loop = _ } ->
      (* loop pre-header: run the hoisted comms once, iff the loop will
         execute at least one iteration (a zero-trip loop must not
         communicate).  The guard re-evaluates the loop's own bounds /
         condition, which hoisting legality proved invariant up to here. *)
      let active =
        match cb_guard with
        | Ir.Guard_do range ->
            let lo = Scalar.to_int (eval st Mscalar range.Ast.lo) in
            let hi = Scalar.to_int (eval st Mscalar range.Ast.hi) in
            let stp =
              match range.Ast.st with Some e -> Scalar.to_int (eval st Mscalar e) | None -> 1
            in
            if stp = 0 then Diag.error "zero DO stride";
            (stp > 0 && lo <= hi) || (stp < 0 && lo >= hi)
        | Ir.Guard_while cond -> Scalar.to_bool (eval st Mscalar cond)
      in
      if active then
        List.iter
          (fun { Ir.hc; hc_sid; hc_loc } ->
            (* traffic stays attributed to the statement it was lifted
               from, not to the pre-header *)
            Rctx.set_stmt st.ctx ~sid:hc_sid ~loc:hc_loc;
            exec_comm_simple st st.ptemps hc)
          cb_members;
      Rctx.set_stmt st.ctx ~sid:s.Ir.sid ~loc:s.Ir.sloc
  | Ir.Comm_issue { sp_hid; sp_comm; sp_guard } ->
      if split_guard_active st sp_guard then begin
        Rctx.set_stmt st.ctx ~sid:sp_comm.Ir.hc_sid ~loc:sp_comm.Ir.hc_loc;
        exec_comm_issue st sp_hid sp_comm.Ir.hc;
        Rctx.set_stmt st.ctx ~sid:s.Ir.sid ~loc:s.Ir.sloc
      end
  | Ir.Comm_wait { sp_hid; sp_comm; sp_guard } ->
      if split_guard_active st sp_guard then begin
        Rctx.set_stmt st.ctx ~sid:sp_comm.Ir.hc_sid ~loc:sp_comm.Ir.hc_loc;
        exec_comm_wait st sp_hid;
        Rctx.set_stmt st.ctx ~sid:s.Ir.sid ~loc:s.Ir.sloc
      end

(* Whether a split-phase half executes.  [Sg_trip] re-evaluates the
   loop's own trip test (as [Guard_do] does); [Sg_next] asks whether the
   surrounding DO loop — whose variable holds the current iteration —
   has another iteration coming, using the same continuation test as the
   loop itself so an issue for step k+1 never runs on the last step. *)
and split_guard_active st = function
  | Ir.Sg_always -> true
  | Ir.Sg_trip range ->
      let lo = Scalar.to_int (eval st Mscalar range.Ast.lo) in
      let hi = Scalar.to_int (eval st Mscalar range.Ast.hi) in
      let stp =
        match range.Ast.st with Some e -> Scalar.to_int (eval st Mscalar e) | None -> 1
      in
      if stp = 0 then Diag.error "zero DO stride";
      (stp > 0 && lo <= hi) || (stp < 0 && lo >= hi)
  | Ir.Sg_next { var; range } ->
      let v =
        match Hashtbl.find_opt st.scalars var with
        | Some r -> Scalar.to_int !r
        | None -> Diag.bug "interp: split guard reads unset loop variable %s" var
      in
      let hi = Scalar.to_int (eval st Mscalar range.Ast.hi) in
      let stp =
        match range.Ast.st with Some e -> Scalar.to_int (eval st Mscalar e) | None -> 1
      in
      if stp = 0 then Diag.error "zero DO stride";
      let v' = v + stp in
      (stp > 0 && v' <= hi) || (stp < 0 && v' >= hi)

and exec_call st ~sid ~loc sub args =
  let callee =
    match List.assoc_opt sub st.prog with
    | Some pu -> pu
    | None -> Diag.error "unknown subroutine '%s'" sub
  in
  let cst = fresh_ustate st callee in
  let dummies = callee.pu_ir.Ir.u_env.Sema.usub.Ast.args in
  if List.length dummies <> List.length args then
    Diag.error "CALL %s: expected %d arguments, got %d" sub (List.length dummies)
      (List.length args);
  (* bind arguments; remember what to copy back *)
  let backs = ref [] in
  List.iter2
    (fun dummy (actual : Ast.expr) ->
      match (Hashtbl.find_opt callee.pu_dads dummy, actual.Ast.e) with
      | Some ddad, Ast.Var v when Hashtbl.mem st.arrays v ->
          Hashtbl.replace cst.arrays dummy (adopt st (darray_of st v) ddad);
          backs := `Array (dummy, v) :: !backs
      | Some _, _ ->
          Diag.error ~loc "CALL %s: array dummy '%s' needs a whole-array actual argument" sub dummy
      | None, Ast.Var v when Hashtbl.mem st.arrays v ->
          Diag.error ~loc "CALL %s: dummy '%s' is not an array" sub dummy
      | None, Ast.Var v when Hashtbl.mem st.scalars v ->
          (match Hashtbl.find_opt cst.scalars dummy with
          | Some r -> r := !(Hashtbl.find st.scalars v)
          | None -> Hashtbl.replace cst.scalars dummy (ref !(Hashtbl.find st.scalars v)));
          backs := `Scalar (dummy, v) :: !backs
      | None, _ -> (
          let v = eval st Mscalar actual in
          match Hashtbl.find_opt cst.scalars dummy with
          | Some r -> r := v
          | None -> Hashtbl.replace cst.scalars dummy (ref v)))
    dummies args;
  (try List.iter (exec_stmt cst) callee.pu_ir.Ir.u_body with Return_unwind -> ());
  if Hashtbl.length cst.pending > 0 then
    Diag.bug "interp: %d split-phase comm(s) issued but never waited in %s"
      (Hashtbl.length cst.pending) sub;
  (* copy-back redistribution belongs to the CALL statement, not to
     whatever the callee executed last *)
  Rctx.set_stmt st.ctx ~sid ~loc;
  (* copy back (Fortran reference semantics) *)
  List.iter
    (function
      | `Array (dummy, v) ->
          let caller_dad = (darray_of st v).Darray.dad in
          Hashtbl.replace st.arrays v (adopt st (darray_of cst dummy) caller_dad);
          bump_written st v
      | `Scalar (dummy, v) -> Hashtbl.find st.scalars v := !(Hashtbl.find cst.scalars dummy))
    (List.rev !backs)

(* ------------------------------------------------------------------ *)
(* Entry                                                               *)
(* ------------------------------------------------------------------ *)

type outcome = {
  output : string;
  finals : (string * Ndarray.t) list;
  final_scalars : (string * Scalar.t) list;
}

let node_main ?(collect_finals = true) ?(coalesce = false) (prog : prepared) ctx =
  let main = snd (List.hd prog) in
  let proto =
    {
      ctx;
      prog;
      u = main;
      scalars = Hashtbl.create 1;
      arrays = Hashtbl.create 1;
      out = Buffer.create 256;
      ptemps = Hashtbl.create 1;
      replicas = Hashtbl.create 1;
      coalesce;
      pending = Hashtbl.create 1;
    }
  in
  let st = fresh_ustate proto main in
  let u = main.pu_ir in
  (try List.iter (exec_stmt st) u.Ir.u_body with Return_unwind -> ());
  if Hashtbl.length st.pending > 0 then
    Diag.bug "interp: %d split-phase comm(s) issued but never waited" (Hashtbl.length st.pending);
  (* the finals gather below is real communication: attribute it to the
     unit's epilogue sid so no event is left on the last body statement *)
  Rctx.set_stmt ctx ~sid:u.Ir.u_epilogue.Ir.pv_sid ~loc:u.Ir.u_epilogue.Ir.pv_loc;
  let finals =
    if collect_finals then
      List.map
        (fun (name, _) -> (name, Darray.gather_global ctx (darray_of st name)))
        u.Ir.u_env.Sema.uarrays
    else []
  in
  let final_scalars =
    Hashtbl.fold (fun n r acc -> (n, !r) :: acc) st.scalars []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { output = Buffer.contents st.out; finals; final_scalars }
