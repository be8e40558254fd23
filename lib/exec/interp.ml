open F90d_base
open F90d_dist
open F90d_machine
open F90d_runtime
open F90d_frontend
open F90d_ir

exception Return_unwind

(* One rank's copy of the last multicast slab of an array: the slice
   [rv_dim = rv_g0] (zero-based) as broadcast when the array's write
   version was [rv_version].  While the version is unchanged the slab
   still holds live data, so a repeated multicast of the same slice —
   or a remote single-element read inside it — can be served locally
   with zero messages.  All fields are identical on every rank (the
   publish is collective and versions are bumped replicatedly), so the
   serve decision can never diverge across ranks. *)
type replica = { rv_version : int; rv_dim : int; rv_g0 : int; rv_slab : Ndarray.t }

(* A split-phase multicast between its issue and its wait.  [Pserved]:
   the issue was answered from the replica cache, nothing in flight — the
   wait just stores the slab.  [Pflight]: the broadcast tree of slice
   [g0] is running; the wait completes it and (like the blocking path)
   publishes the received slab to the replica cache. *)
type pending_comm = Pserved of Ndarray.t | Pflight of int * Collectives.bcast_pending

(* The value of a scalar slot nothing has assigned yet: reading it is an
   undefined-variable error unless the name is a PARAMETER. *)
let unset = Kernel.unset

(* Work every rank would repeat on identical inputs is done once per run
   and handed to the other ranks.  A cell lives in one compiled closure,
   built by [prepare] for one run whose fibers all run on one domain: it
   needs no lock.  Each rank numbers its calls through the cell; the
   numbers agree machine-wide, because every rank makes the same calls
   in the same order.  The first rank to reach call [n] computes the
   value and stores it; the other ranks take it, and the last of them
   drops it.  Nothing is stored at P = 1.  A cell holds at most
   [once_cap] entries, since a rank that never blocks can run arbitrarily
   far ahead: past the cap the first rank stores nothing, and a rank
   that finds no entry computes the value itself (the same value). *)
type 'a once = {
  mutable calls : int array;  (** per rank: calls so far *)
  mutable begun : int;  (** calls begun by any rank: the first to reach call [n] finds [n] *)
  entries : (int, 'a * int ref) Hashtbl.t;
      (** by call number: the value, and the ranks yet to take it *)
  mutable peak : int;  (** the most entries held at once *)
}

(* What the first rank to run an instance of a replicated scalar region
   ({!shared_region}) leaves for the others. *)
type region = { r_vals : Scalar.t array; r_sid : int; r_loc : Loc.t }

(* The rank-invariant half of a program unit, built by [prepare] before
   the engine starts: every rank fiber of the run, all on one domain,
   runs the same compiled statements over its own [ustate]. *)
type prepared_unit = {
  pu_ir : Ir.unit_ir;
  pu_index : int;  (** the unit's position in [prepared] *)
  pu_body : ustate -> unit;  (** the unit's statements, compiled *)
  pu_slots : (string, int) Hashtbl.t;  (** scalar name -> its slot in [vals] *)
  pu_vals : Scalar.t array;  (** a new instance's scalar slots *)
  pu_arrays : (string * Dad.t) array;
      (** every array in declaration order, ghost widths applied; the
          index is the array's slot in [arrays] *)
  pu_nsplits : int;  (** one more than the largest split-phase slot id *)
  pu_nspares : int;  (** the number of executor buffer slots ([spares]) *)
  pu_planned : int list;  (** the FORALL sids [compile_forall] built a kernel plan for *)
  pu_regions : region once list;  (** the cells of its shared regions *)
}

and prepared = prepared_unit array (* main unit first *)

(* One instance of a unit on one rank: everything is indexed by a slot
   resolved when the unit was compiled. *)
and ustate = {
  ctx : Rctx.t;
  prog : prepared;
  u : prepared_unit;
  vals : Scalar.t array;  (** scalar slots, [unset] until assigned *)
  arrays : Darray.t array;
  versions : int array;
      (** each array slot's write version: this rank's counters for the
          unit, shared by all its instances *)
  unit_versions : int array array;  (** every unit's [versions], by [pu_index] *)
  replicas : replica option array;  (** the replica cache, by array slot *)
  temps : Ndarray.t option array;
      (** communication temporaries by id: a FORALL's own, until it
          finishes, and those of loop pre-headers, cross-statement
          batches and split-phase waits *)
  spares : Ndarray.t option array;
      (** the executor's buffers by slot, kept for the statement's next
          execution on this rank: a FORALL's inspector-read temporaries
          and its kernel scatter buffer.  Per rank, never in the shared
          kernel plan: a read or a write-back suspends with its buffer
          half filled, and another rank can run the statement meanwhile *)
  pending : pending_comm option array;
      (** split-phase comms issued but not yet waited, by the
          pass-assigned slot id ([Ir.split.sp_hid]); empty between any
          issue/wait-balanced program points *)
  out : Buffer.t;
  coalesce : bool;  (** runtime half of the coalesce pass (replica cache) *)
}

(* One FORALL point as compiled code sees it. *)
and frame = {
  mutable x : int array;  (** the FORALL variables' values, in nest order *)
  mutable counter : int;  (** the point's position in the rank's space *)
  fsnap : Ndarray.t option;
      (** pre-loop copy of the lhs local section: Acc_direct reads of the
          lhs array go here when the FORALL also writes it in place
          ([Ir.f_snapshot]), preserving evaluate-before-write semantics *)
}

(* Compiled code: a value at one point.  Scalar code reads no frame and
   runs on [no_frame]. *)
type 'a code = ustate -> frame -> 'a

let no_frame = { x = [||]; counter = 0; fsnap = None }
let me st = Rctx.me st.ctx

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

(* An elemental intrinsic resolved by name and argument count once, so
   a call of one or two arguments applies it without building a list. *)
type elemental =
  | Fix1 of (Scalar.t -> Scalar.t)
  | Fix2 of (Scalar.t -> Scalar.t -> Scalar.t)
  | Any of (Scalar.t list -> Scalar.t)

let elemental name loc ~arity =
  let bad () = Diag.error ~loc "bad arguments for intrinsic %s" name in
  let real1 f = Fix1 (fun a -> Scalar.Real (f (Scalar.to_real a))) in
  let real2 f = Fix2 (fun a b -> Scalar.Real (f (Scalar.to_real a) (Scalar.to_real b))) in
  match (name, arity) with
  | "ABS", 1 ->
      Fix1
        (function
        | Scalar.Int n -> Scalar.Int (abs n) | a -> Scalar.Real (Float.abs (Scalar.to_real a)))
  | "SQRT", 1 -> real1 Float.sqrt
  | "EXP", 1 -> real1 Float.exp
  | "LOG", 1 -> real1 Float.log
  | "LOG10", 1 -> real1 Float.log10
  | "SIN", 1 -> real1 sin
  | "COS", 1 -> real1 cos
  | "TAN", 1 -> real1 tan
  | "ASIN", 1 -> real1 asin
  | "ACOS", 1 -> real1 acos
  | "ATAN", 1 -> real1 atan
  | "ATAN2", 2 -> real2 Float.atan2
  | ("MOD" | "MODULO"), 2 ->
      Fix2
        (fun a b ->
          match (a, b) with
          | Scalar.Int _, Scalar.Int 0 -> Diag.error ~loc "integer division by zero"
          | Scalar.Int a, Scalar.Int b ->
              Scalar.Int (if name = "MOD" then a mod b else Util.modulo a b)
          | a, b ->
              if name = "MOD" then Scalar.Real (Float.rem (Scalar.to_real a) (Scalar.to_real b))
              else bad ())
  | ("MIN" | "MAX"), n when n >= 2 ->
      let pick = if name = "MIN" then Scalar.min2 else Scalar.max2 in
      if n = 2 then Fix2 pick
      else Any (function x :: tl -> List.fold_left pick x tl | [] -> bad ())
  | "SIGN", 2 -> real2 (fun x y -> if y >= 0. then Float.abs x else -.Float.abs x)
  | "INT", 1 -> Fix1 (fun a -> Scalar.Int (Scalar.to_int a))
  | "NINT", 1 -> Fix1 (fun a -> Scalar.Int (int_of_float (Float.round (Scalar.to_real a))))
  | ("REAL" | "FLOAT" | "DBLE"), 1 -> real1 Fun.id
  | "MERGE", 3 -> Any (function [ t; f; m ] -> if Scalar.to_bool m then t else f | _ -> bad ())
  | _ -> Any (fun _ -> bad ())

let apply_elemental name loc args =
  match (elemental name loc ~arity:(List.length args), args) with
  | Fix1 f, [ a ] -> f a
  | Fix2 f, [ a; b ] -> f a b
  | Any f, l -> f l
  | _ -> Diag.bug "interp: elemental %s resolved for another arity" name

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

let set_temp st temp nd = st.temps.(temp) <- Some nd

(* The replica cache's slab of slice [g0] of array slot [k] along [dim],
   while still current, and its refresh.  The hit/miss decision must be
   identical on every rank, since a miss runs a collective: the version
   counter, the cached (dim, g0) and the distribution are all
   replicated. *)
let cached_slab st k ~dim ~g0 =
  if not st.coalesce then None
  else
    match st.replicas.(k) with
    | Some rv when rv.rv_version = st.versions.(k) && rv.rv_dim = dim && rv.rv_g0 = g0 ->
        Some rv.rv_slab
    | _ -> None

let publish st k ~dim ~g0 slab =
  if st.coalesce then
    st.replicas.(k) <-
      Some { rv_version = st.versions.(k); rv_dim = dim; rv_g0 = g0; rv_slab = slab }

(* Serve a remote single-element read from the replica cache, only when
   every dimension but the slab's is undistributed: then each rank's slab
   spans those dimensions fully and all ranks agree. *)
let replica_serve st k g =
  match st.replicas.(k) with
  | None -> None
  | Some { rv_dim = dim; _ } ->
      let dad = st.arrays.(k).Darray.dad in
      let dims = Dad.dims dad in
      if Array.exists Fun.id (Array.mapi (fun d dd -> d <> dim && dd.Dad.pdim <> None) dims)
      then None
      else
        Option.map
          (fun slab ->
            Ndarray.get slab
              (Array.mapi (fun d gi -> if d = dim then 1 else storage_pos st dad ~dim:d gi + 1) g))
          (cached_slab st k ~dim ~g0:(g.(dim) - dims.(dim).Dad.flb))

(* ------------------------------------------------------------------ *)
(* Once per run                                                        *)
(* ------------------------------------------------------------------ *)

(* gauss N=255 on 16 ranks holds up to 64 scan entries at once, and
   N=255 on 4 or N=511 on 16 up to 128 *)
let once_cap = 256
let once () = { calls = [||]; begun = 0; entries = Hashtbl.create 1; peak = 0 }

(* Call [n]'s value: computed by [compute ()] on the first rank to reach
   it, and on every rank that finds no entry; [take n v] runs on each
   rank that takes stored value [v] instead. *)
let share o st ~compute ~take =
  let p = Rctx.nprocs st.ctx and me = me st in
  if Array.length o.calls = 0 then o.calls <- Array.make p 0;
  let n = o.calls.(me) in
  o.calls.(me) <- n + 1;
  match Hashtbl.find_opt o.entries n with
  | Some (v, left) ->
      decr left;
      if !left = 0 then Hashtbl.remove o.entries n;
      take n v;
      v
  | None ->
      let first = n = o.begun in
      if first then o.begun <- n + 1;
      let v = compute () in
      if first && p > 1 && Hashtbl.length o.entries < once_cap then begin
        Hashtbl.replace o.entries n (v, ref (p - 1));
        o.peak <- max o.peak (Hashtbl.length o.entries)
      end;
      v

(* ------------------------------------------------------------------ *)
(* Compiled expressions                                                *)
(* ------------------------------------------------------------------ *)

(* What one unit's code is compiled against: names resolve to scalar
   slots (allocated as they are met) and array slots once, before the
   run, and a CALL to its callee's index in [c_units] and dummy slots.
   [c_f] is the FORALL whose points the code runs at: its variables read
   the frame, and its references resolve their access kind.  A name that
   cannot be resolved compiles to its located error, raised only if the
   code runs. *)
type cctx = {
  c_env : Sema.unit_env;
  c_kind : string -> Scalar.kind option;  (** the kernel plans' scalar kinds *)
  c_slots : (string, int) Hashtbl.t;
  c_aslots : (string, int) Hashtbl.t;
  c_dads : (string * Dad.t) array;
  c_units : (string * cctx) array;  (** every unit of the program, main first *)
  c_f : Ir.forall option;
  c_planned : int list ref;  (** the FORALL sids compiled with a kernel plan *)
  c_nsplits : int ref;  (** one more than the largest split-phase slot id *)
  c_nspares : int ref;  (** the executor buffer slots allocated so far *)
  c_regions : region once list ref;  (** the cells of the unit's shared regions *)
}

(* A new slot in [spares].  A slot's buffer is handed to the statement's
   next execution on the same rank, which overwrites all of it; it is
   free by then, since a rank finishes a statement before it runs the
   statement again and no reader keeps a temporary past its statement:
   compiled reads copy elements out, and the kernel drops its operands
   when a call returns ([Kernel.release]). *)
let spare_slot cx =
  let k = !(cx.c_nspares) in
  cx.c_nspares := k + 1;
  k

let slot cx v =
  match Hashtbl.find_opt cx.c_slots v with
  | Some k -> k
  | None ->
      let k = Hashtbl.length cx.c_slots in
      Hashtbl.replace cx.c_slots v k;
      k

let caslot cx name =
  match Hashtbl.find_opt cx.c_aslots name with
  | Some k -> k
  | None -> Diag.bug "interp: no array '%s'" name

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

(* A replicated array's local storage as a flat offset [base + sum of
   a0 * stride] over zero-based subscripts [a0]: every dimension of a
   replicated DAD resolves to its whole extent on every rank. *)
let replicated_strides dad =
  let dims = Dad.dims dad in
  let stored (dd : Dad.dim) = dd.Dad.extent + dd.Dad.ghost_lo + dd.Dad.ghost_hi in
  let strides = Array.make (Array.length dims) 1 and base = ref 0 in
  Array.iteri
    (fun d (dd : Dad.dim) ->
      if dd.Dad.dist.Distrib.form <> Distrib.Replicated then
        Diag.bug "interp: dim %d of %s is not replicated" (d + 1) (Dad.name dad);
      if d > 0 then strides.(d) <- strides.(d - 1) * stored dims.(d - 1);
      base := !base + (dd.Dad.ghost_lo * strides.(d)))
    dims;
  (!base, strides)

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
      | None, Some args when Intrinsic_names.is_elemental name -> (
          (* arguments are evaluated left to right, then applied *)
          match (elemental name loc ~arity:(List.length args), List.map (cexpr cx) args) with
          | Fix1 f, [ a ] -> fun st fr -> f (a st fr)
          | Fix2 f, [ a; b ] ->
              fun st fr ->
                let x = a st fr in
                f x (b st fr)
          | Fix1 _, _ | Fix2 _, _ -> Diag.bug "interp: elemental %s resolved for another arity" name
          | Any f, args -> fun st fr -> f (List.map (fun a -> a st fr) args))
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
      (* every rank holds the whole array: the subscripts compile to one
         flat offset.  All are evaluated before the first out-of-bounds
         one, in dimension order, raises [Dad.checked_a0]'s error. *)
      let base, strides = replicated_strides dad in
      let dims = Dad.dims dad in
      fun st fr ->
        let off = ref base and bad = ref (-1) and bad_g = ref 0 in
        for d = 0 to Array.length subs - 1 do
          let g = subs.(d) st fr in
          let a0 = g - dims.(d).Dad.flb in
          if a0 >= 0 && a0 < dims.(d).Dad.extent then off := !off + (a0 * strides.(d))
          else if !bad < 0 then begin
            bad := d;
            bad_g := g
          end
        done;
        if !bad >= 0 then ignore (Dad.checked_a0 dad !bad !bad_g);
        Ndarray.get_flat st.arrays.(k).Darray.local !off
  | None -> (
      fun st fr ->
        let g = g st fr in
        match replica_serve st k g with
        | Some v -> v
        | None -> Darray.get_global st.ctx st.arrays.(k) g)
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
            match st.temps.(temp) with
            | Some nd -> Ndarray.get nd (Array.mapi (pos st fr) dims)
            | _ -> missing "communication")
      | Some (Ir.Acc_flat { temp }) -> (
          fun st fr ->
            match st.temps.(temp) with
            | Some nd -> Ndarray.get_flat nd fr.counter
            | _ -> missing "inspector")
      | Some (Ir.Acc_global_temp { temp }) -> (
          fun st fr ->
            match st.temps.(temp) with
            | Some nd -> Ndarray.get nd (g st fr)
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
let inspect st ~space ~every_owner ~all_ranks (dad, subs) =
  let me = me st in
  let subs space ~mine =
    Array.map
      (fun (x, c) ->
        match
          Kernel.index x ~me ~arrays:st.arrays ~scalars:st.vals ~temps:st.temps
            ~space:(if mine then Some space else None)
        with
        | Kernel.Iaffine l -> Inspector.Lin l
        | Kernel.Ivalues a -> Inspector.Vals a
        | Kernel.Iinterp ->
            (* the counter keeps Acc_flat subscript reads in step with
               the iteration they were built for *)
            let fr = { x = [||]; counter = 0; fsnap = None } in
            Inspector.Fn
              (fun x counter ->
                fr.x <- x;
                fr.counter <- counter;
                c st fr))
      subs
  in
  let slot rank =
    Option.map (fun sp -> (sp, subs sp ~mine:(rank = me))) (space rank)
  in
  Inspector.run dad ~every_owner
    (if all_ranks then Array.init (Rctx.nprocs st.ctx) slot else [| slot me |])

(* A local build's pass covers every rank's iterations, and nothing in
   it depends on the rank that walks it, so each local-build op walks it
   once per run and indexes it by owner; the calls through the op's cell
   are its builder calls, whose numbers agree because every rank misses
   the same schedule keys.  A taking rank checks its own entry count. *)
let shared_pass cell st ~space ~every_owner ((dad, _) as ins) =
  let p = Rctx.nprocs st.ctx and me = me st in
  share cell st
    ~compute:(fun () ->
      let pass = inspect st ~space ~every_owner ~all_ranks:true ins in
      Schedule.owner_index ~nprocs:p ~owners:pass.Inspector.owners ~flats:pass.Inspector.flats
        ~starts:pass.Inspector.starts)
    ~take:(fun n ix ->
      let points = match space me with None -> 0 | Some sp -> Inspector.points sp in
      let want = points * if every_owner then Dad.copies dad else 1 in
      if Schedule.entries ix me <> want then
        Diag.bug "interp: shared inspector pass %d has %d entries for rank %d, not %d" n
          (Schedule.entries ix me) me want)

(* ------------------------------------------------------------------ *)
(* Schedule-reuse write versioning                                      *)
(* ------------------------------------------------------------------ *)

(* [Passes.key_schedules] proves a schedule's index sets depend only on
   named constants, the FORALL variables — and the *contents* of any index
   arrays in the subscripts (e.g. V in B(V(I))), which it cannot see
   change.  Every array slot has a write version: every assignment to the
   array bumps it (identically on every rank, so collective rebuilds stay
   consistent), and the current versions of a schedule's index arrays are
   appended to its cache key, so a reuse after the index array was
   overwritten misses and rebuilds instead of serving the stale index
   sets.  A unit's versions persist across its CALL instances on the rank,
   as its keyed schedules do, and binding an array dummy at a CALL bumps
   the dummy's version: the actual may hold new contents. *)

let bump_written st k = st.versions.(k) <- st.versions.(k) + 1

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
    |> List.map (fun b -> ("|" ^ b ^ "=", caslot cx b))
  in
  fun st -> String.concat "" (List.map (fun (b, k) -> b ^ string_of_int st.versions.(k)) bases)

(* ------------------------------------------------------------------ *)
(* Pre-communication                                                   *)
(* ------------------------------------------------------------------ *)

(* A comm's zero-based slice index along [dim] of [arr]. *)
let csub cx arr ~dim e =
  let c = cint cx e and flb = (Dad.dims (cdad cx arr)).(dim).Dad.flb in
  fun st -> c st no_frame - flb

(* The multicast slab, through the replica cache when the coalesce pass is
   on: a repeat of the same (array, dim, slice) broadcast while the array
   is unmodified is served from the cached slab with no messages. *)
let multicast_slab st k ~dim ~g0 =
  match cached_slab st k ~dim ~g0 with
  | Some slab -> slab
  | None ->
      let slab = Structured.multicast st.ctx st.arrays.(k) ~dim ~g:g0 in
      publish st k ~dim ~g0 slab;
      slab

(* The two halves of a split-phase multicast (pass 6).  The issue makes
   the replica-cache serve/miss decision — at issue time, with the same
   replicated inputs as {!multicast_slab}, so no rank diverges — and on a
   miss starts the nonblocking broadcast tree.  The wait stores the slab
   in its temporary, which (like a hoisted comm's) outlives the FORALL
   reading it, and, on the in-flight path, refreshes the replica cache
   exactly as the blocking path would. *)
let compile_split cx ~issue hid (c : Ir.comm) =
  cx.c_nsplits := max !(cx.c_nsplits) (hid + 1);
  match c with
  | Ir.Multicast { arr; dim; g; _ } when issue -> (
      let g0 = csub cx arr ~dim g and k = caslot cx arr in
      fun st ->
        if Option.is_some st.pending.(hid) then
          Diag.bug "interp: double issue on split slot %d" hid;
        let g0 = g0 st in
        st.pending.(hid) <-
          Some
            (match cached_slab st k ~dim ~g0 with
            | Some slab -> Pserved slab
            | None -> Pflight (g0, Structured.multicast_issue st.ctx st.arrays.(k) ~dim ~g:g0)))
  | Ir.Multicast { arr; dim; temp; _ } -> (
      let k = caslot cx arr in
      fun st ->
        match st.pending.(hid) with
        | None -> Diag.bug "interp: wait on empty split slot %d" hid
        | Some (Pserved slab) ->
            st.pending.(hid) <- None;
            set_temp st temp slab
        | Some (Pflight (g0, bp)) ->
            st.pending.(hid) <- None;
            let slab = Structured.multicast_wait st.ctx bp in
            set_temp st temp slab;
            (* The intervening statements provably did not write the
               broadcast slice (split legality), so the slab equals the
               slice under the current version even if other parts of the
               array changed since the issue. *)
            publish st k ~dim ~g0 slab)
  | c -> fun _ -> Diag.bug "interp: split half of non-multicast comm %s" (Ir.comm_name c)

(* Comms that do not need the FORALL frame (everything but the inspector
   ops) — executable from a loop pre-header too. *)
let compile_comm cx (c : Ir.comm) =
  match c with
  | Ir.Multicast { arr; dim; g; temp } ->
      let g0 = csub cx arr ~dim g and k = caslot cx arr in
      fun st -> set_temp st temp (multicast_slab st k ~dim ~g0:(g0 st))
  | Ir.Transfer { arr; dim; src; dest; temp } -> (
      let s0 = csub cx arr ~dim src and d0 = csub cx arr ~dim dest and k = caslot cx arr in
      fun st ->
        let s0 = s0 st in
        let d0 = d0 st in
        match Structured.transfer st.ctx st.arrays.(k) ~dim ~gsrc:s0 ~gdest:d0 with
        | Some slab -> set_temp st temp slab
        | None -> ())
  | Ir.Overlap_shift { arr; dim; amount } ->
      let k = caslot cx arr in
      fun st -> Structured.overlap_shift st.ctx st.arrays.(k) ~dim ~amount
  | Ir.Temp_shift { arr; dim; amount; temp } ->
      let amount = cint cx amount and k = caslot cx arr in
      fun st ->
        let a = amount st no_frame in
        let slab = Structured.temporary_shift st.ctx st.arrays.(k) ~dim ~amount:a in
        set_temp st temp slab
  | Ir.Multicast_shift { ms_arr; mdim; ms_g; sdim; ms_amount; ms_temp; fused } ->
      let g0 = csub cx ms_arr ~dim:mdim ms_g and amount = cint cx ms_amount in
      let k = caslot cx ms_arr in
      fun st ->
        let g0 = g0 st in
        let a = amount st no_frame in
        let slab =
          Structured.multicast_shift st.ctx st.arrays.(k) ~fused ~mdim ~g:g0 ~sdim ~amount:a
        in
        set_temp st ms_temp slab
  | Ir.Concat { arr; temp } ->
      let k = caslot cx arr in
      fun st -> set_temp st temp (Darray.gather_global st.ctx st.arrays.(k))
  | Ir.Comm_batch members -> (
      (* one packed message per rank pair; members were proven homogeneous
         by the coalescing pass *)
      match members with
      | [] -> fun _ -> ()
      | { Ir.hc = Ir.Overlap_shift _; _ } :: _ ->
          let members =
            List.map
              (function
                | { Ir.hc = Ir.Overlap_shift { arr; dim; amount }; hc_sid; _ } ->
                    (caslot cx arr, dim, amount, hc_sid)
                | _ -> Diag.bug "interp: mixed comm batch")
              members
          in
          fun st ->
            Structured.overlap_shift_batch st.ctx
              (List.map (fun (k, dim, amount, sid) -> (st.arrays.(k), dim, amount, sid)) members)
      | { Ir.hc = Ir.Transfer _; _ } :: _ ->
          let members =
            List.map
              (function
                | { Ir.hc = Ir.Transfer { arr; dim; src; dest; temp }; hc_sid = sid; hc_loc } ->
                    let k = caslot cx arr and s0 = csub cx arr ~dim src in
                    let d0 = csub cx arr ~dim dest in
                    (* the member's slices belong to its own statement *)
                    let plan st =
                      Rctx.at_stmt st.ctx ~sid ~loc:hc_loc (fun () ->
                          Structured.transfer_member st.ctx st.arrays.(k) ~dim ~gsrc:(s0 st)
                            ~gdest:(d0 st) ~sid)
                    in
                    (plan, temp)
                | _ -> Diag.bug "interp: mixed comm batch")
              members
          in
          fun st ->
            Structured.transfer_batch st.ctx (List.map (fun (plan, _) -> plan st) members)
            |> List.iter2
                 (fun (_, temp) -> Option.iter (set_temp st temp))
                 members
      | _ -> fun _ -> Diag.bug "interp: unsupported comm batch")
  | Ir.Precomp_read _ | Ir.Gather_read _ ->
      fun _ -> Diag.bug "interp: inspector comm outside a FORALL frame"

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

(* Hand the whole local nest, never empty, to the kernel layer.
   [--fno-blocked-kernels] disables the layer outright — every FORALL
   interprets element by element, which is both the honest ablation
   baseline and the reference the fuzz differential compares bit-for-bit
   against.  Counts a run or a fallback (by reason) in this rank's
   collector; an ineligible plan counts as neither.  [None]: the
   interpreter must run the nest. *)
let run_kernel ?scatter st plan space =
  if not (Rctx.kernels st.ctx) then None
  else
    let rs = Engine.rank_stats (Rctx.engine st.ctx) in
    match
      Kernel.execute ?scatter plan ~me:(me st) ~arrays:st.arrays ~scalars:st.vals
        ~temps:st.temps ~space
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
  let scope =
    { Kernel.env = cx.c_env; scalar_kind = cx.c_kind; scalar_slot = slot cx;
      array_slot = caslot cx }
  in
  let ranges = List.map (fun (_, rg) -> crange cx rg) f.Ir.f_vars in
  (* a canonical space's dimensions: each variable's (-1: none) and each
     guard's, with the guard's value *)
  let var_dims, guard_dims, guards =
    match f.Ir.f_iter with
    | Ir.It_canonical { var_dims; guards } ->
        ( Array.of_list (List.map (fun (_, d) -> Option.value d ~default:(-1)) var_dims),
          Array.of_list (List.map fst guards),
          Array.of_list (List.map (fun (_, e) -> cint cx e) guards) )
    | _ -> ([||], [||], [||])
  in
  let fx = { cx with c_f = Some f } in
  let inspected (r : Ast.ref_) =
    ( cdad cx r.Ast.base,
      Array.of_list
        (List.map
           (function
             | Ast.Elem e -> (Kernel.plan_index scope ~f e, cint fx e)
             | Ast.Range _ -> Diag.bug "interp: section in inspector")
           r.Ast.args) )
  in
  let pre =
    List.map
      (fun (c : Ir.comm) ->
        match c with
        | Ir.Precomp_read { r; itemp; key } | Ir.Gather_read { r; itemp; key } ->
            let ins = inspected r and vsig = version_sig cx r and k = caslot cx r.Ast.base in
            let local = match c with Ir.Precomp_read _ -> Some (once ()) | _ -> None in
            let spare = spare_slot cx in
            fun st ~space ->
              let sched =
                cached_schedule st key vsig (fun () ->
                    match local with
                    | Some sh ->
                        Schedule.build_read_local st.ctx
                          (shared_pass sh st ~space ~every_owner:false ins)
                    | None ->
                        let p = inspect st ~space ~every_owner:false ~all_ranks:false ins in
                        Schedule.build_gather st.ctx ~owners:p.Inspector.owners
                          ~flats:p.Inspector.flats)
              in
              let tmp = Schedule.read st.ctx ?into:st.spares.(spare) sched st.arrays.(k) in
              st.spares.(spare) <- Some tmp;
              set_temp st itemp tmp
        | c ->
            let run = compile_comm cx c in
            fun st ~space:_ -> run st)
      f.Ir.f_pre
  in
  (* the statement's own temporaries do not outlive it *)
  let own_temps = List.filter_map Ir.comm_temp f.Ir.f_pre in
  let mask = Option.map (cexpr fx) f.Ir.f_mask and rhs = cexpr fx f.Ir.f_rhs in
  let lhs = values (csubs fx f.Ir.f_lhs) in
  let post =
    Option.map
      (fun post -> (post, inspected f.Ir.f_lhs, version_sig cx f.Ir.f_lhs, once ()))
      f.Ir.f_post
  in
  let plan = Kernel.plan scope ~f in
  cx.c_planned := sid :: !(cx.c_planned);
  (* only a FORALL with a write-back phase can scatter *)
  let scatter_spare = Option.map (fun _ -> spare_slot cx) f.Ir.f_post in
  let lk = caslot cx f.Ir.f_lhs.Ast.base in
  let lhs_dad = snd cx.c_dads.(lk) in
  let canonical_store = match f.Ir.f_iter with Ir.It_even -> false | _ -> true in
  let flops_per_iter, iops_per_iter = ops_of_expr f.Ir.f_rhs in
  spanned ("forall " ^ f.Ir.f_lhs.Ast.base) (fun st ->
      let ranges = List.map (fun r -> r st) ranges in
      let guards = Array.map (fun g -> g st no_frame) guards in
      (* each FORALL variable's global values for [rank], in nest order;
         [None] when a guard masks the rank out *)
      let space rank =
        match f.Ir.f_iter with
        | Ir.It_replicated -> Some (Inspector.replicated ranges)
        | Ir.It_canonical _ ->
            Inspector.canonical lhs_dad ~var_dims ~guard_dims ~guards ~ranges ~rank
        | Ir.It_even -> Some (Inspector.even ~nprocs:(Rctx.nprocs st.ctx) ~rank ranges)
      in
      (* phase 1: collective pre-communication *)
      List.iter (fun p -> p st ~space) pre;
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
      | Some sp when Inspector.points sp = 0 ->
          (* no local iterations (gauss's non-owning ranks): neither the
             kernel nor the interpreter has anything to run *)
          ()
      | Some sp -> (
          let scatter = match scatter_spare with Some k -> st.spares.(k) | None -> None in
          match run_kernel ?scatter st plan sp with
          | Some out -> (
              (* the kernel ran the whole nest *)
              iters := Inspector.points sp;
              match out with
              | Kernel.Scattered tmp ->
                  (match scatter_spare with Some k -> st.spares.(k) <- Some tmp | None -> ());
                  scattered := Some tmp
              | Kernel.Stored -> ())
          | None ->
              let copies = if canonical_store then 0 else Dad.copies lhs_dad in
              let owners = Array.make copies 0 and flats = Array.make copies 0 in
              let fr = { x = [||]; counter = 0; fsnap = snapshot } in
              Inspector.iter sp (fun x counter ->
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
      (match post with
      | None -> ()
      | Some (post, ins, vsig, sh) ->
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
          let my_writes () =
            match !scattered with
            | None ->
                let w = Array.of_list (List.rev !writes) in
                (Array.map fst w, Array.map snd w)
            | Some _ ->
                let p = inspect st ~space ~every_owner:true ~all_ranks:false ins in
                (p.Inspector.owners, p.Inspector.flats)
          in
          let sched =
            match post with
            | Ir.Postcomp_write { key } when f.Ir.f_mask = None ->
                cached_schedule st key vsig (fun () ->
                    Schedule.build_write_local st.ctx
                      (shared_pass sh st ~space ~every_owner:true ins))
            | Ir.Postcomp_write { key } | Ir.Scatter_write { key } ->
                cached_schedule st key vsig (fun () ->
                    let owners, flats = my_writes () in
                    Schedule.build_scatter st.ctx ~owners ~flats)
          in
          Schedule.write st.ctx sched lhs_darr tmp);
      List.iter (fun t -> st.temps.(t) <- None) own_temps)

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

(* A unit's instance: declared scalars start at zero, the rest unset;
   arrays are fresh local sections, except the dummies [bound] by the
   CALL, each of which gets a fresh write version (the actual may hold
   new contents). *)
let unit_state ~ctx ~prog ~coalesce ~out ~unit_versions (u : prepared_unit) ~bound =
  let versions = unit_versions.(u.pu_index) in
  let arrays =
    Array.mapi
      (fun k (_, dad) ->
        match bound.(k) with
        | Some d ->
            versions.(k) <- versions.(k) + 1;
            d
        | None -> Darray.create ctx dad)
      u.pu_arrays
  in
  { ctx; prog; u; vals = Array.copy u.pu_vals; arrays; versions; unit_versions; out; coalesce;
    replicas = Array.make (Array.length arrays) None; temps = Array.make u.pu_ir.Ir.u_ntemps None;
    spares = Array.make u.pu_nspares None; pending = Array.make u.pu_nsplits None }

let in_flight st = Array.exists Option.is_some st.pending

(* A CALL site resolves its callee and each argument's dummy slot when
   the caller is compiled. *)
let compile_call cx ~sid ~loc sub args =
  match Array.find_index (fun (n, _) -> n = sub) cx.c_units with
  | None -> fun _ -> Diag.error "unknown subroutine '%s'" sub
  | Some i ->
      let ccx = snd cx.c_units.(i) in
      let dummies = ccx.c_env.Sema.usub.Ast.args in
      let bind dummy (e : Ast.expr) =
        let actual = match e.Ast.e with Ast.Var v -> Hashtbl.find_opt cx.c_aslots v | _ -> None in
        match (Hashtbl.find_opt ccx.c_aslots dummy, actual, e.Ast.e) with
        | Some d, Some k, _ -> `Array (d, k)
        | Some _, None, _ ->
            `Error (fun () ->
                Diag.error ~loc "CALL %s: array dummy '%s' needs a whole-array actual argument" sub
                  dummy)
        | None, Some _, _ ->
            `Error (fun () -> Diag.error ~loc "CALL %s: dummy '%s' is not an array" sub dummy)
        | None, None, Ast.Var v -> `Var (Hashtbl.find ccx.c_slots dummy, slot cx v, cexpr cx e)
        | None, None, _ -> `Value (Hashtbl.find ccx.c_slots dummy, cexpr cx e)
      in
      if List.length dummies <> List.length args then fun _ ->
        Diag.error "CALL %s: expected %d arguments, got %d" sub (List.length dummies)
          (List.length args)
      else
        let actuals = List.map2 bind dummies args in
        fun st ->
          let callee = st.prog.(i) in
          (* bind arguments in order; remember what to copy back *)
          let bound = Array.make (Array.length callee.pu_arrays) None in
          let scalars = ref [] and backs = ref [] in
          List.iter
            (function
              | `Array (d, k) ->
                  bound.(d) <- Some (adopt st st.arrays.(k) (snd callee.pu_arrays.(d)));
                  backs := `Array (d, k) :: !backs
              | `Var (d, k, _) when st.vals.(k) != unset ->
                  scalars := (d, st.vals.(k)) :: !scalars;
                  backs := `Scalar (d, k) :: !backs
              | `Var (d, _, c) | `Value (d, c) -> scalars := (d, c st no_frame) :: !scalars
              | `Error raise_it -> raise_it ())
            actuals;
          let cst =
            unit_state ~ctx:st.ctx ~prog:st.prog ~coalesce:st.coalesce ~out:st.out
              ~unit_versions:st.unit_versions callee ~bound
          in
          List.iter (fun (d, v) -> cst.vals.(d) <- v) !scalars;
          (try callee.pu_body cst with Return_unwind -> ());
          if in_flight cst then
            Diag.bug "interp: split-phase comm issued but never waited in %s" sub;
          (* copy-back redistribution belongs to the CALL statement, not to
             whatever the callee executed last *)
          Rctx.set_stmt st.ctx ~sid ~loc;
          (* copy back (Fortran reference semantics) *)
          List.iter
            (function
              | `Array (d, k) ->
                  st.arrays.(k) <- adopt st cst.arrays.(d) (snd st.u.pu_arrays.(k));
                  bump_written st k
              | `Scalar (d, k) -> st.vals.(k) <- cst.vals.(d))
            (List.rev !backs)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(* Whether scalar code [e] reads only what every rank holds alike,
   without communication. *)
let rec replicated_expr cx (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Int_lit _ | Ast.Real_lit _ | Ast.Log_lit _ | Ast.Str_lit _ -> true
  | Ast.Var v -> not (Hashtbl.mem cx.c_aslots v)
  | Ast.Un (_, a) -> replicated_expr cx a
  | Ast.Bin (_, a, b) -> replicated_expr cx a && replicated_expr cx b
  | Ast.Ref r -> (
      match (Hashtbl.find_opt cx.c_aslots r.Ast.base, elems r) with
      | Some k, Some args ->
          Dad.is_replicated (snd cx.c_dads.(k)) && List.for_all (replicated_expr cx) args
      | None, Some args ->
          Intrinsic_names.is_elemental r.Ast.base && List.for_all (replicated_expr cx) args
      | _, None -> false)

(* The writes of a statement whose own expressions [exprs] qualify and
   whose parts wrote [parts]. *)
let region_writes cx exprs parts =
  if List.for_all (replicated_expr cx) exprs then
    List.fold_left (fun acc w -> Option.bind acc (fun a -> Option.map (( @ ) a) w)) (Some []) parts
  else None

(* A replicated scalar region is a DO, DO WHILE or IF whose whole
   subtree is scalar assignments, DOs, DO WHILEs and IFs that read only
   scalars, PARAMETERs, elemental intrinsics and elements of replicated
   arrays, and write only scalar slots.  Every rank would run it on the
   same values, charging no time and recording no event, so each dynamic
   instance runs once per run: the first rank to reach it evaluates it
   and leaves the final values of the slots it may write (an unset slot
   keeps the [unset] sentinel) and the statement the engine is at; the
   other ranks take those.  Compilation finds regions bottom-up: a
   statement yields its closure and, inside a candidate, the slots it
   may write; only the outermost region is shared. *)
let shared_region cx writes run =
  let writes = Array.of_list (List.sort_uniq compare writes) and cell = once () in
  cx.c_regions := cell :: !(cx.c_regions);
  fun st ->
    ignore
      (share cell st
         ~compute:(fun () ->
           run st;
           let sid, loc = Engine.current_stmt (Rctx.engine st.ctx) in
           { r_vals = Array.map (fun k -> st.vals.(k)) writes; r_sid = sid; r_loc = loc })
         ~take:(fun _ r ->
           Engine.check_cancel (Rctx.engine st.ctx);
           Array.iteri (fun i k -> st.vals.(k) <- r.r_vals.(i)) writes;
           Rctx.set_stmt st.ctx ~sid:r.r_sid ~loc:r.r_loc))

(* Every statement stamps its provenance into the engine and polls for
   cancellation before running: trace events recorded during it carry
   its sid, and a deadlock or a location-less runtime error is reported
   against its source line. *)
let rec cstmt cx (s : Ir.stmt) =
  let sid = s.Ir.sid and loc = s.Ir.sloc in
  let run, writes = cnode cx s in
  ( (fun st ->
      Engine.check_cancel (Rctx.engine st.ctx);
      Rctx.set_stmt st.ctx ~sid ~loc;
      try run st with
      | Diag.Error (l, msg) when l.Loc.line = 0 -> raise (Diag.Error (loc, msg))
      | Failure msg -> raise (Diag.Error (loc, msg))),
    writes )

(* A statement list's writes, if every statement qualifies, and its
   closure: with [share], each region in it runs once per run (its
   enclosing statement is not a region itself). *)
and cbody cx stmts =
  let parts = List.map (fun s -> (s, cstmt cx s)) stmts in
  ( region_writes cx [] (List.map (fun (_, (_, w)) -> w) parts),
    fun ~share ->
      let run (s, (run, w)) =
        match (s.Ir.s, w) with
        | (Ir.Do_loop _ | Ir.While_loop _ | Ir.If_block _), Some w when share ->
            shared_region cx w run
        | _ -> run
      in
      let body = Array.of_list (List.map run parts) in
      fun st -> Array.iter (fun s -> s st) body )

and cnode cx (s : Ir.stmt) : (ustate -> unit) * int list option =
  let sid = s.Ir.sid and loc = s.Ir.sloc in
  let bumping name run =
    let k = caslot cx name in
    fun st ->
      run st;
      bump_written st k
  in
  (* a pre-header or split half runs its comm under the provenance of
     the statement it was lifted from, then restores its own *)
  let as_origin (h : Ir.hoisted) run st =
    Rctx.at_stmt st.ctx ~sid:h.Ir.hc_sid ~loc:h.Ir.hc_loc (fun () -> run st)
  in
  let plain run = (run, None) in
  match s.Ir.s with
  | Ir.Forall f -> plain (bumping f.Ir.f_lhs.Ast.base (compile_forall cx ~sid f))
  | Ir.Scalar_assign { name; rhs = e } ->
      let k = slot cx name and rhs = cexpr cx e in
      (* an implicitly declared name keeps the value's kind *)
      let store =
        match Sema.scalar_kind cx.c_env name with Some d -> coerce (kind_of_decl d) | None -> Fun.id
      in
      ((fun st -> st.vals.(k) <- store (rhs st no_frame)), region_writes cx [ e ] [ Some [ k ] ])
  | Ir.Element_assign { lhs; rhs } ->
      let rhs = cexpr cx rhs and k = caslot cx lhs.Ast.base and g = values (csubs cx lhs) in
      let kind = Dad.kind (snd cx.c_dads.(k)) in
      plain
        (bumping lhs.Ast.base (fun st ->
             let v = rhs st no_frame in
             let g = g st no_frame in
             ignore (Darray.set_local st.arrays.(k) ~rank:(me st) g (coerce kind v))))
  | Ir.Mover { target; call } -> plain (bumping target (compile_mover cx ~target ~call loc))
  | Ir.Do_loop { var; range = rg; body } ->
      let k = slot cx var and range = crange cx rg and bw, body = cbody cx body in
      let writes =
        region_writes cx (rg.Ast.lo :: rg.Ast.hi :: Option.to_list rg.Ast.st) [ Some [ k ]; bw ]
      in
      let body = body ~share:(writes = None) in
      ( (fun st ->
        let lo, hi, stp = range st in
        do_stride stp;
        (* an implicit index exists from the loop on, even zero-trip *)
        if st.vals.(k) == unset then st.vals.(k) <- Scalar.Int lo;
        let i = ref lo in
        while continues ~stp ~hi !i do
          st.vals.(k) <- Scalar.Int !i;
          body st;
          i := !i + stp
        done),
        writes )
  | Ir.While_loop { cond = e; body } ->
      let cond = cexpr cx e and bw, body = cbody cx body in
      let writes = region_writes cx [ e ] [ bw ] in
      let body = body ~share:(writes = None) in
      ( (fun st ->
          (* re-stamp before each condition eval: the body left its last
             statement's sid current *)
          while
            Rctx.set_stmt st.ctx ~sid ~loc;
            Scalar.to_bool (cond st no_frame)
          do
            body st
          done),
        writes )
  | Ir.If_block { arms; els } ->
      (* the ELSE first, then the arms from the last: slots are
         allocated in the order names are met *)
      let ew, els = cbody cx els in
      let arms =
        List.fold_right
          (fun (e, body) acc ->
            let c = cexpr cx e and body = cbody cx body in
            (e, c, body) :: acc)
          arms []
      in
      let writes =
        region_writes cx
          (List.map (fun (e, _, _) -> e) arms)
          (ew :: List.map (fun (_, _, (w, _)) -> w) arms)
      in
      let share = writes = None in
      ( List.fold_right
          (fun (_, c, (_, body)) rest ->
            let body = body ~share in
            fun st -> if Scalar.to_bool (c st no_frame) then body st else rest st)
          arms (els ~share),
        writes )
  | Ir.Call_sub { sub; args } -> plain (compile_call cx ~sid ~loc sub args)
  | Ir.Print_stmt args ->
      plain @@
      (* every rank evaluates every item, since an item can communicate;
         only rank 0, which writes the line, formats them *)
      let items =
        List.map
          (fun (e : Ast.expr) ->
            match e.Ast.e with
            | Ast.Var v when Hashtbl.mem cx.c_aslots v ->
                let k = caslot cx v in
                fun st ->
                  let a = Darray.gather_global st.ctx st.arrays.(k) in
                  fun () -> Format.asprintf "%a" Ndarray.pp a
            | _ ->
                let c = cexpr cx e in
                fun st ->
                  let v = c st no_frame in
                  fun () -> Format.asprintf "%a" Scalar.pp v)
          args
      in
      fun st ->
        let shown = List.map (fun item -> item st) items in
        if Rctx.me st.ctx = 0 then
          let line = String.concat " " (List.map (fun show -> show ()) shown) in
          Buffer.add_string st.out (line ^ "\n")
  | Ir.Return_stmt -> plain (fun _ -> raise Return_unwind)
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
            as_origin h (compile_comm cx h.Ir.hc))
          cb_members
      in
      plain (fun st -> if active st then List.iter (fun m -> m st) members)
  | (Ir.Comm_issue { sp_hid; sp_comm; sp_guard } | Ir.Comm_wait { sp_hid; sp_comm; sp_guard }) as n
    ->
      let active = csplit_guard cx sp_guard in
      let issue = match n with Ir.Comm_issue _ -> true | _ -> false in
      let run = as_origin sp_comm (compile_split cx ~issue sp_hid sp_comm.Ir.hc) in
      plain (fun st -> if active st then run st)

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

(* A unit's names: its arrays' slots and DADs, and its declared scalars'
   and scalar dummies' slots (which hold one even when unused, so a CALL
   site can bind them before the callee is compiled). *)
let unit_scope ~grid (u : Ir.unit_ir) =
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
  let cx =
    { c_env = env; c_kind; c_slots = Hashtbl.create 16; c_aslots = aslots; c_dads = arrays;
      c_units = [||]; c_f = None; c_planned = ref []; c_nsplits = ref 0; c_nspares = ref 0;
      c_regions = ref [] }
  in
  List.iter (fun (n, _) -> ignore (slot cx n)) env.Sema.uscalars;
  List.iter (fun n -> if not (Hashtbl.mem aslots n) then ignore (slot cx n)) env.Sema.usub.Ast.args;
  cx

let prepare ~grid (prog : Ir.program_ir) =
  let units = Array.of_list prog.Ir.p_units in
  let scopes = Array.map (fun (n, u) -> (n, unit_scope ~grid u)) units in
  Array.mapi
    (fun i (_, (u : Ir.unit_ir)) ->
      let cx = { (snd scopes.(i)) with c_units = scopes } in
      let body = (snd (cbody cx u.Ir.u_body)) ~share:true in
      let vals = Array.make (Hashtbl.length cx.c_slots) unset in
      List.iter
        (fun (n, k) -> vals.(Hashtbl.find cx.c_slots n) <- Scalar.zero (kind_of_decl k))
        u.Ir.u_env.Sema.uscalars;
      { pu_ir = u; pu_index = i; pu_body = body; pu_slots = cx.c_slots; pu_vals = vals;
        pu_arrays = cx.c_dads; pu_nsplits = !(cx.c_nsplits); pu_nspares = !(cx.c_nspares);
        pu_planned = !(cx.c_planned); pu_regions = !(cx.c_regions) })
    units

let planned_sids (prog : prepared) =
  Array.to_list prog |> List.concat_map (fun pu -> pu.pu_planned) |> List.sort compare

let shared_regions (prog : prepared) =
  Array.fold_left (fun n pu -> n + List.length pu.pu_regions) 0 prog

let region_peak (prog : prepared) =
  Array.fold_left (fun m pu -> List.fold_left (fun m c -> max m c.peak) m pu.pu_regions) 0 prog

(* ------------------------------------------------------------------ *)
(* Entry                                                               *)
(* ------------------------------------------------------------------ *)

type outcome = {
  output : string;
  finals : (string * Ndarray.t) list;
  final_scalars : (string * Scalar.t) list;
}

let node_main ?(collect_finals = true) ?(coalesce = false) (prog : prepared) ctx =
  let main = prog.(0) in
  let unit_versions = Array.map (fun pu -> Array.make (Array.length pu.pu_arrays) 0) prog in
  let st =
    unit_state ~ctx ~prog ~coalesce ~out:(Buffer.create 256) ~unit_versions main
      ~bound:(Array.make (Array.length main.pu_arrays) None)
  in
  let u = main.pu_ir in
  (try main.pu_body st with Return_unwind -> ());
  if in_flight st then Diag.bug "interp: split-phase comm issued but never waited";
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
