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

(* The value of a scalar slot nothing has assigned yet, told apart by
   physical identity: reading it is an undefined-variable error unless
   the name is a PARAMETER. *)
let unset = Scalar.Str "<unset>"

(* The rank-invariant half of a program unit, built by [prepare] before
   the engine starts: every rank fiber of the run, all on one domain,
   runs the same compiled statements over its own [ustate]. *)
type prepared_unit = {
  pu_ir : Ir.unit_ir;
  pu_body : ustate -> unit;  (** the unit's statements, compiled *)
  pu_slots : (string, int) Hashtbl.t;  (** scalar name -> its slot in [vals] *)
  pu_arrays : (string * Dad.t) array;
      (** every array in declaration order, ghost widths applied; the
          index is the array's slot in [arrays] *)
  pu_aslots : (string, int) Hashtbl.t;
  pu_planned : int list;  (** the FORALL sids [compile_forall] built a kernel plan for *)
}

and prepared = (string * prepared_unit) list (* main unit first *)

and ustate = {
  ctx : Rctx.t;
  prog : prepared;
  u : prepared_unit;
  vals : Scalar.t array;  (** scalar slots, [unset] until assigned *)
  arrays : Darray.t array;
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

(* One FORALL point as compiled code sees it. *)
and frame = {
  mutable x : int array;  (** the FORALL variables' values, in nest order *)
  mutable counter : int;  (** the point's position in the rank's space *)
  ftemps : (int, Kernel.temp_nd) Hashtbl.t;
  fsnap : Ndarray.t option;
      (** pre-loop copy of the lhs local section: Acc_direct reads of the
          lhs array go here when the FORALL also writes it in place
          ([Ir.f_snapshot]), preserving evaluate-before-write semantics *)
}

(* Compiled code: a value at one point.  Scalar code reads no frame and
   runs on [no_frame]. *)
type 'a code = ustate -> frame -> 'a

let no_frame = { x = [||]; counter = 0; ftemps = Hashtbl.create 1; fsnap = None }
let me st = Rctx.me st.ctx

let aslot aslots name =
  match Hashtbl.find_opt aslots name with
  | Some k -> k
  | None -> Diag.bug "interp: no array '%s'" name

(* An array by name, for the kernel layer's callbacks; compiled code
   reads its array slot directly. *)
let darray_of st name = st.arrays.(aslot st.u.pu_aslots name)

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

(* Resolved by name once: [apply_elemental name loc] applies the
   intrinsic to evaluated arguments. *)
let apply_elemental name loc =
  let bad _ = Diag.error ~loc "bad arguments for intrinsic %s" name in
  let real1 f = function [ a ] -> Scalar.Real (f (Scalar.to_real a)) | l -> bad l in
  let real2 f = function
    | [ a; b ] -> Scalar.Real (f (Scalar.to_real a) (Scalar.to_real b))
    | l -> bad l
  in
  match name with
  | "ABS" -> ( function [ Scalar.Int n ] -> Scalar.Int (abs n) | l -> real1 Float.abs l)
  | "SQRT" -> real1 Float.sqrt
  | "EXP" -> real1 Float.exp
  | "LOG" -> real1 Float.log
  | "LOG10" -> real1 Float.log10
  | "SIN" -> real1 sin
  | "COS" -> real1 cos
  | "TAN" -> real1 tan
  | "ASIN" -> real1 asin
  | "ACOS" -> real1 acos
  | "ATAN" -> real1 atan
  | "ATAN2" -> real2 Float.atan2
  | "MOD" | "MODULO" -> (
      function
      | [ Scalar.Int _; Scalar.Int 0 ] -> Diag.error ~loc "integer division by zero"
      | [ Scalar.Int a; Scalar.Int b ] ->
          Scalar.Int (if name = "MOD" then a mod b else Util.modulo a b)
      | l -> if name = "MOD" then real2 Float.rem l else bad l)
  | "MIN" | "MAX" -> (
      let pick = if name = "MIN" then Scalar.min2 else Scalar.max2 in
      function x :: (_ :: _ as tl) -> List.fold_left pick x tl | l -> bad l)
  | "SIGN" -> real2 (fun x y -> if y >= 0. then Float.abs x else -.Float.abs x)
  | "INT" -> ( function [ a ] -> Scalar.Int (Scalar.to_int a) | l -> bad l)
  | "NINT" -> (
      function [ a ] -> Scalar.Int (int_of_float (Float.round (Scalar.to_real a))) | l -> bad l)
  | "REAL" | "FLOAT" | "DBLE" -> real1 Fun.id
  | "MERGE" -> ( function [ t; f; m ] -> if Scalar.to_bool m then t else f | l -> bad l)
  | _ -> bad

let redop = function
  | "SUM" -> Redop.Sum
  | "PRODUCT" -> Redop.Prod
  | "MAXVAL" -> Redop.Max
  | "MINVAL" -> Redop.Min
  | "ALL" -> Redop.And
  | _ -> Redop.Or

(* ------------------------------------------------------------------ *)
(* Element access                                                      *)
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

(* The replica cache's slab of slice [g0] of [arr] along [dim], while
   still current, and its refresh.  The hit/miss decision must be
   identical on every rank, since a miss runs a collective: the version
   counter, the cached (dim, g0) and the distribution are all
   replicated. *)
let cached_slab st arr ~dim ~g0 =
  if not st.coalesce then None
  else
    match Hashtbl.find_opt st.replicas arr with
    | Some rv
      when rv.rv_version = Rctx.version st.ctx (version_key st arr)
           && rv.rv_dim = dim && rv.rv_g0 = g0 ->
        Some rv.rv_slab
    | _ -> None

let publish st arr ~dim ~g0 slab =
  if st.coalesce then
    let rv_version = Rctx.version st.ctx (version_key st arr) in
    Hashtbl.replace st.replicas arr { rv_version; rv_dim = dim; rv_g0 = g0; rv_slab = slab }

(* Serve a remote single-element read from the replica cache, only when
   every dimension but the slab's is undistributed: then each rank's slab
   spans those dimensions fully and all ranks agree. *)
let replica_serve st name (darr : Darray.t) g =
  match Hashtbl.find_opt st.replicas name with
  | None -> None
  | Some { rv_dim = dim; _ } ->
      let dad = darr.Darray.dad in
      let dims = Dad.dims dad in
      if Array.exists Fun.id (Array.mapi (fun d dd -> d <> dim && dd.Dad.pdim <> None) dims)
      then None
      else
        Option.map
          (fun slab ->
            Ndarray.get slab
              (Array.mapi (fun d gi -> if d = dim then 1 else storage_pos st dad ~dim:d gi + 1) g))
          (cached_slab st name ~dim ~g0:(g.(dim) - dims.(dim).Dad.flb))

(* ------------------------------------------------------------------ *)
(* Compiled expressions                                                *)
(* ------------------------------------------------------------------ *)

(* What one unit's code is compiled against: names resolve to scalar
   slots (allocated as they are met) and array slots once, before the
   run.  [c_f] is the FORALL whose points the code runs at: its
   variables read the frame, and its references resolve their access
   kind.  A name that cannot be resolved compiles to its located error,
   raised only if the code runs. *)
type cctx = {
  c_env : Sema.unit_env;
  c_kind : string -> Scalar.kind option;  (** the kernel plans' scalar kinds *)
  c_slots : (string, int) Hashtbl.t;
  c_aslots : (string, int) Hashtbl.t;
  c_dads : (string * Dad.t) array;
  c_f : Ir.forall option;
  c_planned : int list ref;  (** the FORALL sids compiled with a kernel plan *)
}

let slot cx v =
  match Hashtbl.find_opt cx.c_slots v with
  | Some k -> k
  | None ->
      let k = Hashtbl.length cx.c_slots in
      Hashtbl.replace cx.c_slots v k;
      k

let caslot cx name = aslot cx.c_aslots name
let cdad cx name = snd cx.c_dads.(caslot cx name)

(* The subscripts of a reference, or [None] if one is a section. *)
let elems (r : Ast.ref_) =
  try Some (List.map (function Ast.Elem x -> x | Ast.Range _ -> raise Exit) r.Ast.args)
  with Exit -> None

(* The zero-based dimension of intrinsic [name]'s DIM argument [dim] over
   [darr]: 1..rank, or 1..rank+1 for SPREAD, whose DIM may name the new
   dimension after the last. *)
let dim_index ?(spread = false) ~loc name (darr : Darray.t) dim =
  let hi = Dad.rank darr.Darray.dad + if spread then 1 else 0 in
  if dim < 1 || dim > hi then
    Diag.error ~loc "DIM=%d of %s is outside the range 1:%d of array %s" dim name hi
      (Dad.name darr.Darray.dad);
  dim - 1

(* A subscript list's values. *)
let values subs : int array code = fun st fr -> Array.map (fun c -> c st fr) subs

let rec cexpr cx (e : Ast.expr) : Scalar.t code =
  let loc = e.Ast.loc in
  let const v _ _ = v in
  match e.Ast.e with
  | Ast.Int_lit n -> const (Scalar.Int n)
  | Ast.Real_lit r -> const (Scalar.Real r)
  | Ast.Log_lit b -> const (Scalar.Log b)
  | Ast.Str_lit s -> const (Scalar.Str s)
  | Ast.Var v -> (
      match Option.bind cx.c_f (fun f -> List.find_index (fun (x, _) -> x = v) f.Ir.f_vars) with
      | Some k -> fun _ fr -> Scalar.Int fr.x.(k)
      | None ->
          let k = slot cx v and param = List.assoc_opt v cx.c_env.Sema.uparams in
          fun st _ ->
            let x = st.vals.(k) in
            if x != unset then x
            else
              match param with
              | Some p -> p
              | None -> Diag.error ~loc "undefined variable '%s'" v)
  | Ast.Un (op, a) ->
      let a = cexpr cx a and f = match op with Ast.Neg -> Scalar.neg | Ast.Not -> Scalar.not_ in
      fun st fr -> f (a st fr)
  | Ast.Bin (op, a, b) -> (
      let a = cexpr cx a and b = cexpr cx b in
      match op with
      (* short-circuit logicals to keep masks cheap *)
      | Ast.And -> (
          fun st fr -> match a st fr with Scalar.Log false as x -> x | x -> Scalar.and_ x (b st fr))
      | Ast.Or -> (
          fun st fr -> match a st fr with Scalar.Log true as x -> x | x -> Scalar.or_ x (b st fr))
      | _ ->
          let f =
            match op with
            | Ast.Add -> Scalar.add
            | Ast.Sub -> Scalar.sub
            | Ast.Mul -> Scalar.mul
            | Ast.Div -> Scalar.div ~loc
            | Ast.Pow -> Scalar.pow
            | Ast.Eq -> Scalar.cmp_eq
            | Ast.Ne -> Scalar.cmp_ne
            | Ast.Lt -> Scalar.cmp_lt
            | Ast.Le -> Scalar.cmp_le
            | Ast.Gt -> Scalar.cmp_gt
            | Ast.Ge -> Scalar.cmp_ge
            | Ast.And | Ast.Or -> assert false
          in
          fun st fr ->
            let x = a st fr in
            f x (b st fr))
  | Ast.Ref r -> (
      let name = r.Ast.base in
      (* a declared array shadows any intrinsic of the same name *)
      match (Hashtbl.find_opt cx.c_aslots name, elems r) with
      | Some k, Some args -> carray cx loc r k (Array.of_list (List.map (cint cx) args))
      | None, Some args when Intrinsic_names.is_elemental name ->
          let f = apply_elemental name loc and args = List.map (cexpr cx) args in
          fun st fr -> f (List.map (fun a -> a st fr) args)
      | None, _ when Intrinsic_names.is_transformational name -> ctransformational cx loc r
      | Some _, None -> fun _ _ -> Diag.error ~loc "unexpected array section"
      | None, None when Intrinsic_names.is_elemental name ->
          fun _ _ -> Diag.error ~loc "unexpected array section"
      | _ -> fun _ _ -> Diag.error ~loc "unknown function or array '%s'" name)

and cint cx e =
  let c = cexpr cx e in
  fun st fr -> Scalar.to_int (c st fr)

(* An element read.  Scalar code reads a replicated array's own copy and
   fetches a distributed element from its owner (a collective every rank
   runs); a FORALL point reads through the reference's access kind. *)
and carray cx loc (r : Ast.ref_) k subs =
  let dad = snd cx.c_dads.(k) in
  let g = values subs in
  match cx.c_f with
  | None when Dad.is_replicated dad ->
      (* every rank holds the whole array, at the home rank's flats *)
      fun st fr ->
        let owners = [| 0 |] and flats = [| 0 |] in
        Dad.locate dad (g st fr) ~every_owner:false ~owners ~flats ~at:0;
        Ndarray.get_flat st.arrays.(k).Darray.local flats.(0)
  | None -> (
      fun st fr ->
        let g = g st fr and darr = st.arrays.(k) in
        match replica_serve st r.Ast.base darr g with
        | Some v -> v
        | None -> Darray.get_global st.ctx darr g)
  | Some f -> (
      let missing what = Diag.error ~loc "%s temporary missing for '%s'" what r.Ast.base in
      match List.assoc_opt r.Ast.rid f.Ir.f_access with
      | None | Some Ir.Acc_direct ->
          let snap = r.Ast.base = f.Ir.f_lhs.Ast.base in
          fun st fr ->
            let idx = Array.mapi (fun d gi -> storage_pos st dad ~dim:d gi) (g st fr) in
            Ndarray.get
              (match fr.fsnap with Some nd when snap -> nd | _ -> st.arrays.(k).Darray.local)
              idx
      | Some (Ir.Acc_box { temp; dims }) -> (
          let dims =
            Array.map (function Ir.Collapsed -> None | Ir.By_sub e -> Some (cint cx e)) dims
          in
          let pos st fr d = function
            | None -> 1
            | Some c -> storage_pos st dad ~dim:d (c st fr) + 1
          in
          fun st fr ->
            match find_temp st fr.ftemps temp with
            | Some (Kernel.Tbox nd) -> Ndarray.get nd (Array.mapi (pos st fr) dims)
            | _ -> missing "communication")
      | Some (Ir.Acc_flat { temp }) -> (
          fun st fr ->
            match find_temp st fr.ftemps temp with
            | Some (Kernel.Tflat nd) -> Ndarray.get_flat nd fr.counter
            | _ -> missing "inspector")
      | Some (Ir.Acc_global_temp { temp }) -> (
          fun st fr ->
            match find_temp st fr.ftemps temp with
            | Some (Kernel.Tglobal nd) -> Ndarray.get nd (g st fr)
            | _ -> missing "concatenation"))

and ctransformational cx loc (r : Ast.ref_) =
  let name = r.Ast.base in
  match (cx.c_f, elems r) with
  | Some _, _ -> fun _ _ -> Diag.error ~loc "transformational intrinsic %s inside FORALL" name
  | None, None -> fun _ _ -> Diag.error ~loc "array section argument for %s" name
  | None, Some args -> (
      let whole (e : Ast.expr) =
        match e.Ast.e with
        | Ast.Var v when Hashtbl.mem cx.c_aslots v ->
            let k = caslot cx v in
            fun st -> st.arrays.(k)
        | _ -> fun _ -> Diag.error ~loc "%s expects a whole array argument" name
      in
      match (name, args) with
      | ("SUM" | "PRODUCT" | "MAXVAL" | "MINVAL" | "ALL" | "ANY"), [ a ] ->
          let op = redop name and a = whole a in
          fun st _ -> Intrinsics.reduce st.ctx op (a st)
      | "COUNT", [ a ] ->
          let a = whole a in
          fun st _ -> Intrinsics.count st.ctx (a st)
      | ("DOT_PRODUCT" | "DOTPRODUCT"), [ a; b ] ->
          let a = whole a and b = whole b in
          fun st _ -> Intrinsics.dotproduct st.ctx (a st) (b st)
      | ("MAXLOC" | "MINLOC"), [ a ] ->
          let a = whole a in
          fun st _ ->
            let darr = a st in
            if Dad.rank darr.Darray.dad <> 1 then
              Diag.error ~loc "%s is supported for rank-1 arrays (assign to a scalar)" name;
            Scalar.Int
              (if name = "MAXLOC" then Intrinsics.maxloc st.ctx darr
               else Intrinsics.minloc st.ctx darr).(0)
      | "SIZE", [ a ] ->
          let a = whole a in
          fun st _ -> Scalar.Int (Dad.global_size (a st).Darray.dad)
      | ("SIZE" | "LBOUND" | "UBOUND"), [ a; d ] ->
          let a = whole a and d = cint cx d in
          fun st _ ->
            let darr = a st in
            let dd = (Dad.dims darr.Darray.dad).(dim_index ~loc name darr (d st no_frame)) in
            Scalar.Int
              (match name with
              | "SIZE" -> dd.Dad.extent
              | "LBOUND" -> dd.Dad.flb
              | _ -> dd.Dad.flb + dd.Dad.extent - 1)
      | _ -> fun _ _ -> Diag.error ~loc "unsupported use of intrinsic %s" name)

(* An assignment's left-hand side subscripts (never a section). *)
let csubs cx (r : Ast.ref_) =
  Array.of_list
    (List.map
       (function
         | Ast.Elem e -> cint cx e
         | Ast.Range _ -> fun _ _ -> Diag.bug "interp: section in %s" r.Ast.base)
       r.Ast.args)

(* A DO range's bounds and stride, evaluated in that order. *)
let crange cx (rg : Ast.range) =
  let lo = cint cx rg.Ast.lo and hi = cint cx rg.Ast.hi in
  let stp = match rg.Ast.st with Some e -> cint cx e | None -> fun _ _ -> 1 in
  fun st ->
    let lo = lo st no_frame in
    let hi = hi st no_frame in
    (lo, hi, stp st no_frame)

(* Whether a DO loop of stride [stp] up to [hi] runs an iteration at [v]. *)
let continues ~stp ~hi v = (stp > 0 && v <= hi) || (stp < 0 && v >= hi)

let do_stride stp = if stp = 0 then Diag.error "zero DO stride"

(* The DO trip test: at least one iteration. *)
let ctrip cx range =
  let range = crange cx range in
  fun st ->
    let lo, hi, stp = range st in
    do_stride stp;
    continues ~stp ~hi lo

(* The kernel layer's view of the scalar slots. *)
let scalar_lookup st v =
  match Hashtbl.find_opt st.u.pu_slots v with
  | Some k when st.vals.(k) != unset -> Some st.vals.(k)
  | _ -> List.assoc_opt v st.u.pu_ir.Ir.u_env.Sema.uparams

(* ------------------------------------------------------------------ *)
(* Inspector                                                           *)
(* ------------------------------------------------------------------ *)

(* One inspector pass over a reference of FORALL [f] (its DAD, and each
   subscript's index plan and compiled code): every rank's iterations
   ([space rank]) for a locally built schedule ([all_ranks]), else this
   rank's.  This rank's subscripts may read the statement's own
   communication temporaries (e.g. V in A(V(I)), read by an earlier pre
   op), which cover only this rank's iterations: under an even partition
   Pattern makes such a reference a gather, never a local build.
   Strip-compiled subscripts run over this rank's space only, and as
   compiled code per point on another rank's. *)
let inspect st (f : Ir.forall) ~space ~ftemps ~every_owner ~all_ranks (dad, subs) =
  let me = me st in
  let subs values ~mine =
    Array.map
      (fun (x, c) ->
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
            let fr = { x = [||]; counter = 0; ftemps; fsnap = None } in
            Inspector.Fn
              (fun x counter ->
                fr.x <- x;
                fr.counter <- counter;
                c st fr))
      subs
  in
  let slot rank =
    Option.map (fun values -> (values, subs values ~mine:(rank = me))) (space rank)
  in
  Inspector.run dad ~every_owner
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

let bump_written st name = Rctx.bump_version st.ctx (version_key st name)

(* The index arrays [r]'s subscripts read are found at compile time; the
   code yields their current write versions. *)
let version_sig cx (r : Ast.ref_) =
  let bases =
    List.concat_map
      (function Ast.Elem e -> Ast.refs_of e | Ast.Range _ -> [])
      r.Ast.args
    |> List.filter_map (fun (ri : Ast.ref_) ->
           if Hashtbl.mem cx.c_aslots ri.Ast.base then Some ri.Ast.base else None)
    |> List.sort_uniq compare
  in
  fun st ->
    String.concat ""
      (List.map
         (fun b -> Printf.sprintf "|%s=%d" b (Rctx.version st.ctx (version_key st b)))
         bases)

(* ------------------------------------------------------------------ *)
(* Pre-communication                                                   *)
(* ------------------------------------------------------------------ *)

(* A comm's zero-based slice index along [dim] of [arr]. *)
let csub cx arr ~dim e =
  let c = cint cx e and flb = (Dad.dims (cdad cx arr)).(dim).Dad.flb in
  fun st -> c st no_frame - flb

let log_comm st (c : Ir.comm) =
  Log.debug (fun m ->
      m "p%d t=%.6f %s(%s)" (me st) (Rctx.time st.ctx) (Ir.comm_name c)
        (match Ir.comm_source c with Some a -> a | None -> "<batch>"))

(* The multicast slab, through the replica cache when the coalesce pass is
   on: a repeat of the same (array, dim, slice) broadcast while the array
   is unmodified is served from the cached slab with no messages. *)
let multicast_slab st arr darr ~dim ~g0 =
  match cached_slab st arr ~dim ~g0 with
  | Some slab -> slab
  | None ->
      let slab = Structured.multicast st.ctx darr ~dim ~g:g0 in
      publish st arr ~dim ~g0 slab;
      slab

(* The two halves of a split-phase multicast (pass 6).  The issue makes
   the replica-cache serve/miss decision — at issue time, with the same
   replicated inputs as {!multicast_slab}, so no rank diverges — and on a
   miss starts the nonblocking broadcast tree.  The wait publishes the
   slab into the unit's persistent temp table (split comms, like hoisted
   ones, live outside any FORALL frame) and, on the in-flight path,
   refreshes the replica cache exactly as the blocking path would. *)
let compile_issue cx hid (c : Ir.comm) =
  match c with
  | Ir.Multicast { arr; dim; g; temp } -> (
      let g0 = csub cx arr ~dim g and k = caslot cx arr in
      fun st ->
        log_comm st c;
        if Hashtbl.mem st.pending hid then Diag.bug "interp: double issue on split slot %d" hid;
        let g0 = g0 st in
        match cached_slab st arr ~dim ~g0 with
        | Some slab -> Hashtbl.replace st.pending hid (Pserved { pc_temp = temp; pc_slab = slab })
        | None ->
            let bp = Structured.multicast_issue st.ctx st.arrays.(k) ~dim ~g:g0 in
            Hashtbl.replace st.pending hid
              (Pflight { pc_temp = temp; pc_arr = arr; pc_dim = dim; pc_g0 = g0; pc_bp = bp }))
  | c -> fun _ -> Diag.bug "interp: split issue of non-multicast comm %s" (Ir.comm_name c)

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
          (* The intervening statements provably did not write the
             broadcast slice (split legality), so the slab equals the
             slice under the current version even if other parts of the
             array changed since the issue. *)
          publish st pc_arr ~dim:pc_dim ~g0:pc_g0 slab)

(* Comms that do not need the FORALL frame (everything but the inspector
   ops) — executable from a loop pre-header, where the temporaries table
   is the unit's persistent [ptemps]. *)
let compile_comm cx (c : Ir.comm) =
  let run =
    match c with
    | Ir.Multicast { arr; dim; g; temp } ->
        let g0 = csub cx arr ~dim g and k = caslot cx arr in
        fun st ftemps ->
          let slab = multicast_slab st arr st.arrays.(k) ~dim ~g0:(g0 st) in
          Hashtbl.replace ftemps temp (Kernel.Tbox slab)
    | Ir.Transfer { arr; dim; src; dest; temp } -> (
        let s0 = csub cx arr ~dim src and d0 = csub cx arr ~dim dest and k = caslot cx arr in
        fun st ftemps ->
          let s0 = s0 st in
          let d0 = d0 st in
          match Structured.transfer st.ctx st.arrays.(k) ~dim ~gsrc:s0 ~gdest:d0 with
          | Some slab -> Hashtbl.replace ftemps temp (Kernel.Tbox slab)
          | None -> ())
    | Ir.Overlap_shift { arr; dim; amount } ->
        let k = caslot cx arr in
        fun st _ -> Structured.overlap_shift st.ctx st.arrays.(k) ~dim ~amount
    | Ir.Temp_shift { arr; dim; amount; temp } ->
        let amount = cint cx amount and k = caslot cx arr in
        fun st ftemps ->
          let a = amount st no_frame in
          let slab = Structured.temporary_shift st.ctx st.arrays.(k) ~dim ~amount:a in
          Hashtbl.replace ftemps temp (Kernel.Tbox slab)
    | Ir.Multicast_shift { ms_arr; mdim; ms_g; sdim; ms_amount; ms_temp; fused } ->
        let g0 = csub cx ms_arr ~dim:mdim ms_g and amount = cint cx ms_amount in
        let k = caslot cx ms_arr in
        fun st ftemps ->
          let g0 = g0 st in
          let a = amount st no_frame in
          let darr = st.arrays.(k) in
          let slab =
            if fused then Structured.multicast_shift st.ctx darr ~mdim ~g:g0 ~sdim ~amount:a
            else begin
              (* unfused: shift everywhere, then broadcast the slice *)
              let shifted = Structured.temporary_shift st.ctx darr ~dim:sdim ~amount:a in
              let dad = darr.Darray.dad in
              let d = (Dad.dims dad).(mdim) in
              let pd =
                match d.Dad.pdim with
                | Some p -> p
                | None -> Diag.bug "interp: multicast dim not distributed"
              in
              let team = Collectives.team_along st.ctx ~dim:pd in
              let root = Distrib.owner d.Dad.dist (Affine.eval d.Dad.align g0) in
              let payload =
                if (Rctx.my_coords st.ctx).(pd) <> root then Message.Empty
                else begin
                  let lo = Array.copy shifted.Ndarray.lb in
                  let extents = Array.copy shifted.Ndarray.extents in
                  let lay = Dad.layout_at dad ~dim:mdim ~rank:(me st) in
                  lo.(mdim) <- lo.(mdim) + Layout.local_of_global lay g0;
                  extents.(mdim) <- 1;
                  Message.Arr (Ndarray.get_box shifted ~lo ~extents)
                end
              in
              match Collectives.broadcast st.ctx team ~root payload with
              | Message.Arr s -> s
              | _ -> Diag.bug "interp: multicast protocol error"
            end
          in
          Hashtbl.replace ftemps ms_temp (Kernel.Tbox slab)
    | Ir.Concat { arr; temp } ->
        let k = caslot cx arr in
        fun st ftemps ->
          Hashtbl.replace ftemps temp (Kernel.Tglobal (Darray.gather_global st.ctx st.arrays.(k)))
    | Ir.Comm_batch members -> (
        (* one packed message per rank pair; members were proven homogeneous
           by the coalescing pass *)
        match members with
        | [] -> fun _ _ -> ()
        | (Ir.Overlap_shift _, _) :: _ ->
            let members =
              List.map
                (function
                  | Ir.Overlap_shift { arr; dim; amount }, sid -> (caslot cx arr, dim, amount, sid)
                  | _ -> Diag.bug "interp: mixed comm batch")
                members
            in
            fun st _ ->
              Structured.overlap_shift_batch st.ctx
                (List.map (fun (k, dim, amount, sid) -> (st.arrays.(k), dim, amount, sid)) members)
        | (Ir.Transfer _, _) :: _ ->
            let members =
              List.map
                (function
                  | Ir.Transfer { arr; dim; src; dest; temp }, sid ->
                      (caslot cx arr, dim, csub cx arr ~dim src, csub cx arr ~dim dest, sid, temp)
                  | _ -> Diag.bug "interp: mixed comm batch")
                members
            in
            fun st ftemps ->
              Structured.transfer_batch st.ctx
                (List.map
                   (fun (k, dim, s0, d0, sid, _) -> (st.arrays.(k), dim, s0 st, d0 st, sid))
                   members)
              |> List.iter2
                   (fun (_, _, _, _, _, temp) -> function
                     | Some slab ->
                         Hashtbl.replace ftemps temp (Kernel.Tbox slab);
                         (* consumers downstream of the anchor statement read
                            the persistent table *)
                         Hashtbl.replace st.ptemps temp (Kernel.Tbox slab)
                     | None -> ())
                   members
        | _ -> fun _ _ -> Diag.bug "interp: unsupported comm batch")
    | Ir.Precomp_read _ | Ir.Gather_read _ ->
        fun _ _ -> Diag.bug "interp: inspector comm outside a FORALL frame"
  in
  fun st ftemps ->
    log_comm st c;
    run st ftemps

(* A keyed schedule is reused while the index arrays its reference's
   subscripts read keep their write versions ([vsig], from
   [version_sig]); the builder runs only on a miss. *)
let cached_schedule st key vsig build =
  match key with
  | Some k -> Schedule.cached st.ctx ~key:(k ^ vsig st) build
  | None -> build ()

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
let run_kernel st plan ftemps vv =
  if not (Rctx.kernels st.ctx && List.for_all (fun a -> Array.length a > 0) vv) then None
  else
    let rs = Engine.rank_stats (Rctx.engine st.ctx) in
    match
      Kernel.execute plan ~me:(me st) ~scalar_lookup:(scalar_lookup st) ~darr_of:(darray_of st)
        ~temp_of:(find_temp st ftemps) ~values:vv
    with
    | None -> None
    | Some (Ok out) ->
        Stats.record_kernel_run rs;
        Some out
    | Some (Error why) ->
        Stats.record_kernel_fallback rs why;
        None

(* Statement-level compute span, named like the source program. *)
let spanned name run st =
  let tr = Rctx.trace st.ctx in
  if not (F90d_trace.Trace.enabled tr) then run st
  else begin
    F90d_trace.Trace.span_begin tr ~t:(Rctx.time st.ctx) name ~cat:"compute";
    run st;
    F90d_trace.Trace.span_end tr ~t:(Rctx.time st.ctx)
  end

let compile_forall cx ~sid (f : Ir.forall) =
  let env = cx.c_env and scalar_kind = cx.c_kind in
  let ranges = List.map (fun (_, rg) -> crange cx rg) f.Ir.f_vars in
  let guards =
    match f.Ir.f_iter with
    | Ir.It_canonical { guards; _ } -> List.map (fun (_, e) -> cint cx e) guards
    | _ -> []
  in
  let fx = { cx with c_f = Some f } in
  let inspected (r : Ast.ref_) =
    ( cdad cx r.Ast.base,
      Array.of_list
        (List.map
           (function
             | Ast.Elem e -> (Kernel.plan_index ~env ~scalar_kind ~f e, cint fx e)
             | Ast.Range _ -> Diag.bug "interp: section in inspector")
           r.Ast.args) )
  in
  let pre =
    List.map
      (fun (c : Ir.comm) ->
        match c with
        | Ir.Precomp_read { r; itemp; key } | Ir.Gather_read { r; itemp; key } ->
            let ins = inspected r and vsig = version_sig cx r and k = caslot cx r.Ast.base in
            let local = match c with Ir.Precomp_read _ -> true | _ -> false in
            fun st ~space ftemps ->
              log_comm st c;
              let sched =
                cached_schedule st key vsig (fun () ->
                    let p =
                      inspect st f ~space ~ftemps ~every_owner:false ~all_ranks:local ins
                    in
                    if local then
                      Schedule.build_read_local st.ctx ~owners:p.Inspector.owners
                        ~flats:p.Inspector.flats ~starts:p.Inspector.starts
                    else
                      Schedule.build_gather st.ctx ~owners:p.Inspector.owners
                        ~flats:p.Inspector.flats)
              in
              Hashtbl.replace ftemps itemp
                (Kernel.Tflat (Schedule.read st.ctx sched st.arrays.(k)))
        | c ->
            let run = compile_comm cx c in
            fun st ~space:_ ftemps -> run st ftemps)
      f.Ir.f_pre
  in
  let mask = Option.map (cexpr fx) f.Ir.f_mask and rhs = cexpr fx f.Ir.f_rhs in
  let lhs = values (csubs fx f.Ir.f_lhs) in
  let post =
    Option.map (fun post -> (post, inspected f.Ir.f_lhs, version_sig cx f.Ir.f_lhs)) f.Ir.f_post
  in
  let plan = Kernel.plan ~env ~scalar_kind ~f in
  cx.c_planned := sid :: !(cx.c_planned);
  let lk = caslot cx f.Ir.f_lhs.Ast.base in
  let lhs_dad = snd cx.c_dads.(lk) in
  let canonical_store = match f.Ir.f_iter with Ir.It_even -> false | _ -> true in
  let flops_per_iter, iops_per_iter = ops_of_expr f.Ir.f_rhs in
  spanned ("forall " ^ f.Ir.f_lhs.Ast.base) (fun st ->
      let ranges = List.map (fun r -> r st) ranges in
      let guard_vals = List.map (fun g -> g st no_frame) guards in
      (* global values of each FORALL variable for [rank], in nest order;
         [None] when a guard masks the rank out *)
      let space rank =
        match f.Ir.f_iter with
        | Ir.It_replicated -> Some (Inspector.replicated ranges)
        | Ir.It_canonical { var_dims; guards } ->
            Inspector.canonical lhs_dad ~var_dims:(List.map snd var_dims)
              ~guards:(List.map2 (fun (dim, _) g -> (dim, g)) guards guard_vals)
              ~ranges ~rank
        | Ir.It_even -> Some (Inspector.even ~nprocs:(Rctx.nprocs st.ctx) ~rank ranges)
      in
      let ftemps = Hashtbl.create 8 in
      (* phase 1: collective pre-communication *)
      List.iter (fun p -> p st ~space ftemps) pre;
      (* phase 2: local loop nest *)
      let lhs_darr = st.arrays.(lk) in
      (* the rhs reads the lhs array in place with a different subscript:
         snapshot the local section (ghosts already filled by phase 1) so
         the loop reads pre-statement values throughout *)
      let snapshot =
        if f.Ir.f_snapshot then begin
          Rctx.charge_copy_bytes st.ctx (Ndarray.bytes lhs_darr.Darray.local);
          Some (Ndarray.copy lhs_darr.Darray.local)
        end
        else None
      in
      (* an even partition's values for the write-back phase, and, when
         the interpreter ran the nest, the (owner, flat) of each *)
      let scattered = ref None and writes = ref [] and values = ref [] in
      let iters = ref 0 in
      (match space (me st) with
      | None -> ()
      | Some vv -> (
          match run_kernel st plan ftemps vv with
          | Some out ->
              (* the kernel ran the whole nest *)
              iters := List.fold_left (fun acc a -> acc * Array.length a) 1 vv;
              (match out with Kernel.Scattered tmp -> scattered := Some tmp | Kernel.Stored -> ())
          | None ->
              let copies = if canonical_store then 0 else Dad.copies lhs_dad in
              let owners = Array.make copies 0 and flats = Array.make copies 0 in
              let fr = { x = [||]; counter = 0; ftemps; fsnap = snapshot } in
              Inspector.iter vv (fun x counter ->
                  fr.x <- x;
                  fr.counter <- counter;
                  incr iters;
                  let masked =
                    match mask with None -> false | Some m -> not (Scalar.to_bool (m st fr))
                  in
                  if not masked then begin
                    let v = rhs st fr in
                    let g = lhs st fr in
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
      match post with
      | None -> ()
      | Some (post, ins, vsig) ->
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
          let inspect = inspect st f ~space ~ftemps ~every_owner:true in
          let my_writes () =
            match !scattered with
            | None ->
                let w = Array.of_list (List.rev !writes) in
                (Array.map fst w, Array.map snd w)
            | Some _ ->
                let p = inspect ~all_ranks:false ins in
                (p.Inspector.owners, p.Inspector.flats)
          in
          let sched =
            match post with
            | Ir.Postcomp_write { key } when f.Ir.f_mask = None ->
                cached_schedule st key vsig (fun () ->
                    let p = inspect ~all_ranks:true ins in
                    Schedule.build_write_local st.ctx ~owners:p.Inspector.owners
                      ~flats:p.Inspector.flats ~starts:p.Inspector.starts)
            | Ir.Postcomp_write { key } | Ir.Scatter_write { key } ->
                cached_schedule st key vsig (fun () ->
                    let owners, flats = my_writes () in
                    Schedule.build_scatter st.ctx ~owners ~flats)
          in
          Schedule.write st.ctx sched lhs_darr tmp)

(* ------------------------------------------------------------------ *)
(* Movers and calls                                                    *)
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

let compile_mover cx ~target ~(call : Ast.ref_) loc =
  let name = call.Ast.base and tk = caslot cx target in
  let target_dad = snd cx.c_dads.(tk) in
  match elems call with
  | None -> fun _ -> Diag.error ~loc "array section argument for %s" name
  | Some args ->
      let arg (e : Ast.expr) =
        ((match e.Ast.e with Ast.Var v -> Hashtbl.find_opt cx.c_aslots v | _ -> None), cexpr cx e)
      in
      let args = List.map arg args in
      spanned (name ^ " -> " ^ target) (fun st ->
          let arr_arg = function
            | Some k, _ -> st.arrays.(k)
            | None, _ -> Diag.error ~loc "%s expects whole-array arguments" name
          in
          let int_arg (_, c) = Scalar.to_int (c st no_frame) in
          let dim_arg ?spread a d =
            let darr = arr_arg a in
            (darr, dim_index ?spread ~loc name darr (int_arg d))
          in
          let result =
            match (name, args) with
            | "CSHIFT", [ a; s ] -> Intrinsics.cshift st.ctx (arr_arg a) ~dim:0 ~shift:(int_arg s)
            | "CSHIFT", [ a; s; d ] ->
                let src, dim = dim_arg a d in
                Intrinsics.cshift st.ctx src ~dim ~shift:(int_arg s)
            | "EOSHIFT", [ a; s ] ->
                let src = arr_arg a in
                Intrinsics.eoshift st.ctx src ~dim:0 ~shift:(int_arg s)
                  ~boundary:(Scalar.zero (Darray.kind src))
            | "EOSHIFT", [ a; s; (_, b) ] ->
                Intrinsics.eoshift st.ctx (arr_arg a) ~dim:0 ~shift:(int_arg s)
                  ~boundary:(b st no_frame)
            | "EOSHIFT", [ a; s; (_, b); d ] ->
                let src, dim = dim_arg a d in
                Intrinsics.eoshift st.ctx src ~dim ~shift:(int_arg s) ~boundary:(b st no_frame)
            | "TRANSPOSE", [ a ] -> Intrinsics.transpose st.ctx (arr_arg a) ~dad:target_dad
            | "SPREAD", [ a; d; _n ] ->
                let src, dim = dim_arg ~spread:true a d in
                Intrinsics.spread st.ctx src ~dim ~dad:target_dad
            | "RESHAPE", a :: _ -> Intrinsics.reshape st.ctx (arr_arg a) ~dad:target_dad
            | "MATMUL", [ a; b ] ->
                Intrinsics.matmul st.ctx (arr_arg a) (arr_arg b) ~dad:target_dad
            | ("SUM" | "PRODUCT" | "MAXVAL" | "MINVAL" | "ALL" | "ANY"), [ a; d ] ->
                let src, dim = dim_arg a d in
                Intrinsics.reduce_dim st.ctx (redop name) src ~dim ~dad:target_dad
            | "PACK", [ a; m ] ->
                fst (Intrinsics.pack st.ctx (arr_arg a) ~mask:(arr_arg m) ~dad:target_dad)
            | "UNPACK", [ v; m; fl ] ->
                Intrinsics.unpack st.ctx (arr_arg v) ~mask:(arr_arg m) ~field:(arr_arg fl)
            | _ -> Diag.error ~loc "unsupported intrinsic call %s" name
          in
          st.arrays.(tk) <- adopt st result target_dad)

(* A unit's local state: declared scalars start at zero, the rest unset;
   arrays are fresh local sections, except the dummies [bound] by the
   CALL. *)
let unit_state ~ctx ~prog ~coalesce ~out (u : prepared_unit) ~bound =
  let vals = Array.make (Hashtbl.length u.pu_slots) unset in
  List.iter
    (fun (n, k) -> vals.(Hashtbl.find u.pu_slots n) <- Scalar.zero (kind_of_decl k))
    u.pu_ir.Ir.u_env.Sema.uscalars;
  let arrays =
    Array.mapi
      (fun k (_, dad) ->
        match List.assoc_opt k bound with Some d -> d | None -> Darray.create ctx dad)
      u.pu_arrays
  in
  let ptemps = Hashtbl.create 8 and replicas = Hashtbl.create 4 and pending = Hashtbl.create 4 in
  { ctx; prog; u; vals; arrays; out; ptemps; replicas; coalesce; pending }

(* [actuals]: each argument with its array slot or scalar slot, when it
   is a bare name, and its code. *)
let exec_call st ~sid ~loc sub actuals =
  let callee =
    try List.assoc sub st.prog with Not_found -> Diag.error "unknown subroutine '%s'" sub
  in
  let dummies = callee.pu_ir.Ir.u_env.Sema.usub.Ast.args in
  if List.length dummies <> List.length actuals then
    Diag.error "CALL %s: expected %d arguments, got %d" sub (List.length dummies)
      (List.length actuals);
  (* bind arguments; remember what to copy back *)
  let bound = ref [] and scalars = ref [] and backs = ref [] in
  List.iter2
    (fun dummy actual ->
      match (Hashtbl.find_opt callee.pu_aslots dummy, actual) with
      | Some d, (`Array k, _) ->
          bound := (d, adopt st st.arrays.(k) (snd callee.pu_arrays.(d))) :: !bound;
          backs := `Array (d, k) :: !backs
      | Some _, _ ->
          Diag.error ~loc "CALL %s: array dummy '%s' needs a whole-array actual argument" sub dummy
      | None, (`Array _, _) -> Diag.error ~loc "CALL %s: dummy '%s' is not an array" sub dummy
      | None, (`Var k, _) when st.vals.(k) != unset ->
          let d = Hashtbl.find callee.pu_slots dummy in
          scalars := (d, st.vals.(k)) :: !scalars;
          backs := `Scalar (d, k) :: !backs
      | None, (_, c) -> scalars := (Hashtbl.find callee.pu_slots dummy, c st no_frame) :: !scalars)
    dummies actuals;
  let cst =
    unit_state ~ctx:st.ctx ~prog:st.prog ~coalesce:st.coalesce ~out:st.out callee ~bound:!bound
  in
  List.iter (fun (d, v) -> cst.vals.(d) <- v) !scalars;
  (try callee.pu_body cst with Return_unwind -> ());
  if Hashtbl.length cst.pending > 0 then
    Diag.bug "interp: %d split-phase comm(s) issued but never waited in %s"
      (Hashtbl.length cst.pending) sub;
  (* copy-back redistribution belongs to the CALL statement, not to
     whatever the callee executed last *)
  Rctx.set_stmt st.ctx ~sid ~loc;
  (* copy back (Fortran reference semantics) *)
  List.iter
    (function
      | `Array (d, k) ->
          let name, caller_dad = st.u.pu_arrays.(k) in
          st.arrays.(k) <- adopt st cst.arrays.(d) caller_dad;
          bump_written st name
      | `Scalar (d, k) -> st.vals.(k) <- cst.vals.(d))
    (List.rev !backs)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(* Every statement stamps its provenance into the engine and polls for
   cancellation before running: trace events recorded during it carry
   its sid, and a deadlock or a location-less runtime error is reported
   against its source line. *)
let rec cstmt cx (s : Ir.stmt) =
  let sid = s.Ir.sid and loc = s.Ir.sloc in
  let run = cnode cx s in
  fun st ->
    Engine.check_cancel (Rctx.engine st.ctx);
    Rctx.set_stmt st.ctx ~sid ~loc;
    try run st with
    | Diag.Error (l, msg) when l.Loc.line = 0 -> raise (Diag.Error (loc, msg))
    | Failure msg -> raise (Diag.Error (loc, msg))

and cbody cx stmts =
  let body = Array.of_list (List.map (cstmt cx) stmts) in
  fun st -> Array.iter (fun s -> s st) body

and cnode cx (s : Ir.stmt) : ustate -> unit =
  let sid = s.Ir.sid and loc = s.Ir.sloc in
  let bumping name run st =
    run st;
    bump_written st name
  in
  (* a pre-header or split half runs its comm under the provenance of
     the statement it was lifted from, then restores its own *)
  let as_origin (h : Ir.hoisted) run st =
    Rctx.set_stmt st.ctx ~sid:h.Ir.hc_sid ~loc:h.Ir.hc_loc;
    run st
  in
  match s.Ir.s with
  | Ir.Forall f -> bumping f.Ir.f_lhs.Ast.base (compile_forall cx ~sid f)
  | Ir.Scalar_assign { name; rhs } ->
      let k = slot cx name and rhs = cexpr cx rhs in
      (* an implicitly declared name keeps the value's kind *)
      let store =
        match Sema.scalar_kind cx.c_env name with Some d -> coerce (kind_of_decl d) | None -> Fun.id
      in
      fun st -> st.vals.(k) <- store (rhs st no_frame)
  | Ir.Element_assign { lhs; rhs } ->
      let rhs = cexpr cx rhs and k = caslot cx lhs.Ast.base and g = values (csubs cx lhs) in
      let kind = Dad.kind (snd cx.c_dads.(k)) in
      bumping lhs.Ast.base (fun st ->
          let v = rhs st no_frame in
          let g = g st no_frame in
          ignore (Darray.set_local st.arrays.(k) ~rank:(me st) g (coerce kind v)))
  | Ir.Mover { target; call } -> bumping target (compile_mover cx ~target ~call loc)
  | Ir.Do_loop { var; range; body } ->
      let k = slot cx var and range = crange cx range and body = cbody cx body in
      fun st ->
        let lo, hi, stp = range st in
        do_stride stp;
        (* an implicit index exists from the loop on, even zero-trip *)
        if st.vals.(k) == unset then st.vals.(k) <- Scalar.Int lo;
        let i = ref lo in
        while continues ~stp ~hi !i do
          st.vals.(k) <- Scalar.Int !i;
          body st;
          i := !i + stp
        done
  | Ir.While_loop { cond; body } ->
      let cond = cexpr cx cond and body = cbody cx body in
      fun st ->
        (* re-stamp before each condition eval: the body left its last
           statement's sid current *)
        while
          Rctx.set_stmt st.ctx ~sid ~loc;
          Scalar.to_bool (cond st no_frame)
        do
          body st
        done
  | Ir.If_block { arms; els } ->
      List.fold_right
        (fun (c, body) rest ->
          let c = cexpr cx c and body = cbody cx body in
          fun st -> if Scalar.to_bool (c st no_frame) then body st else rest st)
        arms (cbody cx els)
  | Ir.Call_sub { sub; args } ->
      let actuals =
        List.map
          (fun (e : Ast.expr) ->
            ( (match e.Ast.e with
              | Ast.Var v when Hashtbl.mem cx.c_aslots v -> `Array (caslot cx v)
              | Ast.Var v -> `Var (slot cx v)
              | _ -> `Expr),
              cexpr cx e ))
          args
      in
      fun st -> exec_call st ~sid ~loc sub actuals
  | Ir.Print_stmt args ->
      let items =
        List.map
          (fun (e : Ast.expr) ->
            match e.Ast.e with
            | Ast.Var v when Hashtbl.mem cx.c_aslots v ->
                let k = caslot cx v in
                fun st ->
                  Format.asprintf "%a" Ndarray.pp (Darray.gather_global st.ctx st.arrays.(k))
            | _ ->
                let c = cexpr cx e in
                fun st -> Format.asprintf "%a" Scalar.pp (c st no_frame))
          args
      in
      fun st ->
        let line = String.concat " " (List.map (fun item -> item st) items) in
        if Rctx.me st.ctx = 0 then Buffer.add_string st.out (line ^ "\n")
  | Ir.Return_stmt -> fun _ -> raise Return_unwind
  | Ir.Comm_block { cb_members; cb_guard; cb_loop = _ } ->
      (* loop pre-header: run the hoisted comms once, iff the loop will
         execute at least one iteration (a zero-trip loop must not
         communicate).  The guard re-evaluates the loop's own bounds /
         condition, which hoisting legality proved invariant up to here. *)
      let active =
        match cb_guard with
        | Ir.Guard_do range -> ctrip cx range
        | Ir.Guard_while cond ->
            let cond = cexpr cx cond in
            fun st -> Scalar.to_bool (cond st no_frame)
      in
      let members =
        List.map
          (fun (h : Ir.hoisted) ->
            let run = compile_comm cx h.Ir.hc in
            as_origin h (fun st -> run st st.ptemps))
          cb_members
      in
      fun st ->
        if active st then List.iter (fun m -> m st) members;
        Rctx.set_stmt st.ctx ~sid ~loc
  | (Ir.Comm_issue { sp_hid; sp_comm; sp_guard } | Ir.Comm_wait { sp_hid; sp_comm; sp_guard }) as n
    ->
      let active = csplit_guard cx sp_guard in
      let run =
        as_origin sp_comm
          (match n with
          | Ir.Comm_issue _ -> compile_issue cx sp_hid sp_comm.Ir.hc
          | _ -> fun st -> exec_comm_wait st sp_hid)
      in
      fun st ->
        if active st then begin
          run st;
          Rctx.set_stmt st.ctx ~sid ~loc
        end

(* Whether a split-phase half executes.  [Sg_trip] re-evaluates the
   loop's own trip test (as [Guard_do] does); [Sg_next] asks whether the
   surrounding DO loop — whose variable holds the current iteration —
   has another iteration coming, using the same continuation test as the
   loop itself so an issue for step k+1 never runs on the last step. *)
and csplit_guard cx = function
  | Ir.Sg_always -> fun _ -> true
  | Ir.Sg_trip range -> ctrip cx range
  | Ir.Sg_next { var; range } ->
      let k = slot cx var and hi = cint cx range.Ast.hi in
      let stp = match range.Ast.st with Some e -> cint cx e | None -> fun _ _ -> 1 in
      fun st ->
        let v = st.vals.(k) in
        if v == unset then Diag.bug "interp: split guard reads unset loop variable %s" var;
        let hi = hi st no_frame in
        let stp = stp st no_frame in
        do_stride stp;
        continues ~stp ~hi (Scalar.to_int v + stp)

(* ------------------------------------------------------------------ *)
(* Per-run preparation                                                 *)
(* ------------------------------------------------------------------ *)

let prepare_unit ~grid (u : Ir.unit_ir) =
  let env = u.Ir.u_env in
  let arrays = Array.of_list (Sema.instantiate ~ghosts:u.Ir.u_ghosts env ~grid) in
  let aslots = Hashtbl.create 8 in
  Array.iteri (fun k (n, _) -> Hashtbl.replace aslots n k) arrays;
  let do_vars = ref [] in
  Ir.iter_stmts
    (fun s ->
      match s.Ir.s with
      | Ir.Do_loop { var; _ } -> do_vars := var :: !do_vars
      | _ -> ())
    u.Ir.u_body;
  (* DO indices are stored as integers whatever their declaration says *)
  let c_kind v =
    if List.mem v !do_vars then Some Scalar.Kint
    else
      match Sema.scalar_kind env v with
      | Some k -> Some (kind_of_decl k)
      | None -> Option.map Scalar.kind (List.assoc_opt v env.Sema.uparams)
  in
  let c_slots = Hashtbl.create 16 in
  let cx =
    { c_env = env; c_kind; c_slots; c_aslots = aslots; c_dads = arrays; c_f = None;
      c_planned = ref [] }
  in
  (* declared scalars and scalar dummies hold a slot even when unused *)
  List.iter (fun (n, _) -> ignore (slot cx n)) env.Sema.uscalars;
  List.iter (fun n -> if not (Hashtbl.mem aslots n) then ignore (slot cx n)) env.Sema.usub.Ast.args;
  let body = cbody cx u.Ir.u_body in
  { pu_ir = u; pu_body = body; pu_slots = cx.c_slots; pu_arrays = arrays; pu_aslots = aslots;
    pu_planned = !(cx.c_planned) }

let prepare ~grid (prog : Ir.program_ir) =
  List.map (fun (n, u) -> (n, prepare_unit ~grid u)) prog.Ir.p_units

let planned_sids (prog : prepared) =
  List.concat_map (fun (_, pu) -> pu.pu_planned) prog |> List.sort compare

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
  let st = unit_state ~ctx ~prog ~coalesce ~out:(Buffer.create 256) main ~bound:[] in
  let u = main.pu_ir in
  (try main.pu_body st with Return_unwind -> ());
  if Hashtbl.length st.pending > 0 then
    Diag.bug "interp: %d split-phase comm(s) issued but never waited" (Hashtbl.length st.pending);
  (* the finals gather below is real communication: attribute it to the
     unit's epilogue sid so no event is left on the last body statement *)
  Rctx.set_stmt ctx ~sid:u.Ir.u_epilogue.Ir.pv_sid ~loc:u.Ir.u_epilogue.Ir.pv_loc;
  let finals =
    if collect_finals then
      Array.to_list
        (Array.mapi (fun k (n, _) -> (n, Darray.gather_global ctx st.arrays.(k))) main.pu_arrays)
    else []
  in
  let final_scalars =
    Hashtbl.fold
      (fun n k acc -> if st.vals.(k) != unset then (n, st.vals.(k)) :: acc else acc)
      main.pu_slots []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { output = Buffer.contents st.out; finals; final_scalars }
