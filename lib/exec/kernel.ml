open F90d_base
open F90d_dist
open F90d_runtime
open F90d_frontend
open F90d_ir
module Stats = F90d_machine.Stats

type temp_nd = Tbox of Ndarray.t | Tflat of Ndarray.t | Tglobal of Ndarray.t

(* [plan] rejects a FORALL for good; [execute] hands one nest back to the
   interpreter, for a named reason. *)
exception Ineligible
exception Decline of Stats.kernel_fallback

(* Linear form over the loop counters: value = base + sum coefs.(k)*c_k. *)
type lin = { base : int; coefs : int array }

let lin_const nvars b = { base = b; coefs = Array.make nvars 0 }

let lin_add a b = { base = a.base + b.base; coefs = Array.map2 ( + ) a.coefs b.coefs }
let lin_scale k a = { base = k * a.base; coefs = Array.map (( * ) k) a.coefs }
let lin_sub a b = lin_add a (lin_scale (-1) b)

(* Extract a linear form in the loop counters from an index expression:
   FORALL variables contribute their progressions, scalars and parameters
   their current integer values.  [plan] admits only the shapes handled
   here, with one counter-free factor in every product. *)
let rec lin_of ~nvars ~var_index ~progs ~ilookup (e : Ast.expr) =
  let go = lin_of ~nvars ~var_index ~progs ~ilookup in
  match e.Ast.e with
  | Ast.Int_lit n -> lin_const nvars n
  | Ast.Var v -> (
      match var_index v with
      | Some k ->
          let g0, gs = progs.(k) in
          let l = lin_const nvars g0 in
          l.coefs.(k) <- gs;
          l
      | None -> (
          match ilookup v with
          | Some n -> lin_const nvars n
          | None -> raise (Decline Stats.Scalar_kind)))
  | Ast.Un (Ast.Neg, a) -> lin_scale (-1) (go a)
  | Ast.Bin (Ast.Add, a, b) -> lin_add (go a) (go b)
  | Ast.Bin (Ast.Sub, a, b) -> lin_sub (go a) (go b)
  | Ast.Bin (Ast.Mul, a, b) ->
      let la = go a and lb = go b in
      if Array.for_all (( = ) 0) la.coefs then lin_scale la.base lb else lin_scale lb.base la
  | _ -> assert false

(* Storage position (per dimension) as a linear form, through a layout. *)
let pos_through_layout layout ~flb (v : lin) =
  match layout with
  | Layout.Prog { first; step; _ } ->
      let num = lin_sub v (lin_const (Array.length v.coefs) (flb + first)) in
      (* off this rank's progression: not in its storage *)
      if num.base mod step <> 0 || Array.exists (fun c -> c mod step <> 0) num.coefs then
        raise (Decline Stats.Out_of_bounds);
      { base = num.base / step; coefs = Array.map (fun c -> c / step) num.coefs }
  | Layout.Explicit _ -> raise (Decline Stats.Explicit_layout)

(* Combine per-dimension positions into a flat linear offset, checking that
   every reachable offset is inside the payload. *)
let flat_of_positions ~lens nd positions =
  let strides = Ndarray.strides nd in
  let nvars = match positions with p :: _ -> Array.length p.coefs | [] -> 0 in
  let acc = ref (lin_const nvars 0) in
  List.iteri
    (fun d p ->
      (* storage index space starts at lb; flat = (pos - lb) * stride *)
      let adjusted = lin_sub p (lin_const nvars nd.Ndarray.lb.(d)) in
      acc := lin_add !acc (lin_scale strides.(d) adjusted))
    positions;
  let flat = !acc in
  (* corner check: linear => extrema at corner points *)
  let size = Ndarray.size nd in
  let rec corners k lo hi =
    if k >= Array.length flat.coefs then begin
      if lo < 0 || hi >= size then raise (Decline Stats.Out_of_bounds)
    end
    else
      let c = flat.coefs.(k) in
      let span = c * (lens.(k) - 1) in
      corners (k + 1) (lo + min 0 span) (hi + max 0 span)
  in
  if size = 0 then raise (Decline Stats.Out_of_bounds);
  corners 0 flat.base flat.base;
  flat

(* ------------------------------------------------------------------ *)
(* Plans: the structure-only half of specialization                    *)
(* ------------------------------------------------------------------ *)

(* Everything about a FORALL that does not depend on run-time values —
   eligibility, the operator tree, which references feed which leaves,
   integer-vs-real division — is decided once per run and shared by all
   ranks.  Scalars stay symbolic ([Tscal] slots, read once per execution:
   gauss's pivot changes each step) and references stay as slots whose
   flat affine offsets are re-derived every execution (layouts, scalar
   subscripts and the iteration space all change under the statement). *)
type iop = Idiv | Imod | Imodulo

type tnode =
  | Tconst of float
  | Tscal of int  (* slot into the plan's scalar vector *)
  | Tcounter of int
  | Tload of int  (* slot into the plan's reference vector *)
  | Tadd of tnode * tnode
  | Tsub of tnode * tnode
  | Tmul of tnode * tnode
  | Tdiv of tnode * tnode
  | Tint of iop * tnode * tnode
      (* both operands integer-valued: Fortran truncating division, MOD
         or MODULO; a zero divisor declines the nest *)
  | Tfun1 of (float -> float) * tnode
  | Tfun2 of (float -> float -> float) * tnode * tnode
  | Tsel of tnode * tnode * tnode  (* MERGE: mask (last) selects t or f *)

type compiled = {
  p_f : Ir.forall;
  p_template : tnode;
  p_refs : Ast.ref_ array;
  p_lhs_reads : bool array;
      (* per slot: a direct read of the left-hand-side array, which Lower's
         [f_snapshot = false] proves hazard-free *)
  p_scalars : (string * Scalar.kind) array;
      (* per scalar slot: the kind the plan assumed; a value of another
         kind declines *)
}

type plan = compiled option  (* [None]: ineligible *)

let make_var_index f =
  let var_names = List.map fst f.Ir.f_vars in
  fun v ->
    let rec go k = function
      | [] -> None
      | x :: _ when x = v -> Some k
      | _ :: tl -> go (k + 1) tl
    in
    go 0 var_names

let subscripts (r : Ast.ref_) =
  List.map (function Ast.Elem e -> e | Ast.Range _ -> raise Ineligible) r.Ast.args

let direct_access (f : Ir.forall) (r : Ast.ref_) =
  match List.assoc_opt r.Ast.rid f.Ir.f_access with
  | None | Some Ir.Acc_direct -> true
  | Some _ -> false

let plan ~env ~scalar_kind ~(f : Ir.forall) =
  try
    (* A snapshot, a mask, a write-back phase or a non-canonical store is
       the interpreter's.  [f_snapshot = false] is Lower's guarantee that
       every direct read of the lhs array is its identity subscript or
       provably separated from every write, so the nest's iterations are
       independent and may run in any order. *)
    if f.Ir.f_mask <> None || f.Ir.f_post <> None || f.Ir.f_snapshot then raise Ineligible;
    (match f.Ir.f_iter with Ir.It_even -> raise Ineligible | _ -> ());
    let nvars_real = List.length f.Ir.f_vars in
    if nvars_real = 0 || nvars_real > 3 then raise Ineligible;
    let var_index = make_var_index f in
    (* subscripts must have the shape [lin_of] handles *)
    let counter_free e = List.for_all (fun v -> var_index v = None) (Ast.vars_of e) in
    let rec affine (e : Ast.expr) =
      match e.Ast.e with
      | Ast.Int_lit _ | Ast.Var _ -> true
      | Ast.Un (Ast.Neg, a) -> affine a
      | Ast.Bin ((Ast.Add | Ast.Sub), a, b) -> affine a && affine b
      | Ast.Bin (Ast.Mul, a, b) -> affine a && affine b && (counter_free a || counter_free b)
      | _ -> false
    in
    let check_affine e = if not (affine e) then raise Ineligible in
    List.iter check_affine (subscripts f.Ir.f_lhs);
    (* dynamic result kind, mirroring Scalar's value dispatch: Ki means the
       interpreter would compute this subexpression on Ints, so division
       must truncate.  MIN/MAX return one of their original operands, so a
       mixed-kind MIN is Int or Real depending on runtime values (Kmix) —
       a division involving Kmix cannot be compiled to either form.
       Scalar kinds come from declarations; [execute] checks each
       scalar's value against the kind assumed here. *)
    let join a b = if a = b then a else `Kmix in
    let rec kind_of (e : Ast.expr) =
      match e.Ast.e with
      | Ast.Int_lit _ -> `Ki
      | Ast.Real_lit _ -> `Kr
      | Ast.Log_lit _ | Ast.Str_lit _ -> `Kmix
      | Ast.Var v -> (
          if var_index v <> None then `Ki
          else
            match scalar_kind v with
            | Some Scalar.Kint -> `Ki
            | Some Scalar.Kreal -> `Kr
            | _ -> `Kmix)
      | Ast.Un (_, a) -> kind_of a
      | Ast.Bin ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div), a, b) -> (
          (* Scalar.num_op: Int op Int -> Int, any Real involved -> Real *)
          match (kind_of a, kind_of b) with
          | `Ki, `Ki -> `Ki
          | `Kr, (`Ki | `Kr | `Kmix) | (`Ki | `Kmix), `Kr -> `Kr
          | _ -> `Kmix)
      | Ast.Bin (Ast.Pow, a, b) -> (
          (* Int ** negative Int is Real: Ki ** Ki is value-dependent *)
          match (kind_of a, kind_of b) with
          | `Kr, _ | _, `Kr -> `Kr
          | _ -> `Kmix)
      | Ast.Bin (_, _, _) -> `Kmix
      | Ast.Ref r -> (
          match Sema.array_spec env r.Ast.base with
          | Some spec -> if spec.Sema.skind = Ast.Integer then `Ki else `Kr
          | None -> (
              match r.Ast.base with
              | "INT" | "NINT" -> `Ki
              | "REAL" | "FLOAT" | "DBLE" | "SQRT" | "EXP" | "LOG" | "LOG10" | "SIN"
              | "COS" | "TAN" | "ASIN" | "ACOS" | "ATAN" | "ATAN2" | "SIGN" ->
                  `Kr
              | "MERGE" -> (
                  (* result is one of the first two args; the mask is logical *)
                  match r.Ast.args with
                  | [ Ast.Elem t; Ast.Elem f; _ ] -> join (kind_of t) (kind_of f)
                  | _ -> `Kmix)
              | "ABS" | "MIN" | "MAX" | "MOD" | "MODULO" -> (
                  let ks =
                    List.map
                      (function Ast.Elem e -> kind_of e | Ast.Range _ -> `Kmix)
                      r.Ast.args
                  in
                  match ks with [] -> `Kmix | k :: tl -> List.fold_left join k tl)
              | _ -> `Kmix))
    in
    let refs = ref [] and nrefs = ref 0 in
    let slot r =
      let s = !nrefs in
      incr nrefs;
      refs := r :: !refs;
      Tload s
    in
    let scalars = ref [] and nscalars = ref 0 in
    let scalar v k =
      match List.assoc_opt v !scalars with
      | Some (s, _) -> Tscal s
      | None ->
          let s = !nscalars in
          incr nscalars;
          scalars := (v, (s, k)) :: !scalars;
          Tscal s
    in
    let rec compile (e : Ast.expr) =
      match e.Ast.e with
      | Ast.Real_lit v -> Tconst v
      | Ast.Int_lit n -> Tconst (float_of_int n)
      | Ast.Var v -> (
          match var_index v with
          | Some k -> Tcounter k
          | None -> (
              match scalar_kind v with
              | Some ((Scalar.Kint | Scalar.Kreal) as k) -> scalar v k
              | _ -> raise Ineligible))
      | Ast.Un (Ast.Neg, a) -> Tfun1 (Float.neg, compile a)
      | Ast.Un (Ast.Not, _) -> raise Ineligible
      | Ast.Bin (op, a, b) -> (
          let ca = compile a and cb = compile b in
          match op with
          | Ast.Add -> Tadd (ca, cb)
          | Ast.Sub -> Tsub (ca, cb)
          | Ast.Mul -> Tmul (ca, cb)
          | Ast.Div -> (
              match (kind_of a, kind_of b) with
              | `Ki, `Ki -> Tint (Idiv, ca, cb)
              | `Kr, _ | _, `Kr -> Tdiv (ca, cb)
              | _ -> raise Ineligible)
          | Ast.Pow -> Tfun2 (Float.pow, ca, cb)
          | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
              (* 1./0. encodes logical; [compare] mirrors Scalar.compare_num
                 on numeric values (total order: NaN and -0. included) *)
              match (kind_of a, kind_of b) with
              | (`Ki | `Kr), (`Ki | `Kr) ->
                  let fn =
                    match op with
                    | Ast.Eq -> fun (x : float) y -> if compare x y = 0 then 1. else 0.
                    | Ast.Ne -> fun (x : float) y -> if compare x y <> 0 then 1. else 0.
                    | Ast.Lt -> fun (x : float) y -> if compare x y < 0 then 1. else 0.
                    | Ast.Le -> fun (x : float) y -> if compare x y <= 0 then 1. else 0.
                    | Ast.Gt -> fun (x : float) y -> if compare x y > 0 then 1. else 0.
                    | _ -> fun (x : float) y -> if compare x y >= 0 then 1. else 0.
                  in
                  Tfun2 (fn, ca, cb)
              | _ -> raise Ineligible)
          | Ast.And | Ast.Or -> raise Ineligible)
      | Ast.Log_lit _ | Ast.Str_lit _ -> raise Ineligible
      | Ast.Ref r when Intrinsic_names.is_elemental r.Ast.base
                       && Sema.array_spec env r.Ast.base = None -> (
          let sargs = subscripts r in
          let args = List.map compile sargs in
          let kinds () = List.map kind_of sargs in
          match (r.Ast.base, args) with
          | "ABS", [ a ] -> Tfun1 (Float.abs, a)
          | "SQRT", [ a ] -> Tfun1 (Float.sqrt, a)
          | "EXP", [ a ] -> Tfun1 (Float.exp, a)
          | "LOG", [ a ] -> Tfun1 (Float.log, a)
          | "SIN", [ a ] -> Tfun1 (sin, a)
          | "COS", [ a ] -> Tfun1 (cos, a)
          (* compare-based, not Float.min/max: Scalar.min2/max2 order -0.
             and NaN by [compare], and return the first operand on ties *)
          | "MIN", [ a; b ] ->
              Tfun2 ((fun (x : float) y -> if compare x y <= 0 then x else y), a, b)
          | "MAX", [ a; b ] ->
              Tfun2 ((fun (x : float) y -> if compare x y >= 0 then x else y), a, b)
          | "MOD", [ a; b ] -> (
              match kinds () with
              | [ `Ki; `Ki ] -> Tint (Imod, a, b)
              | [ (`Ki | `Kr); (`Ki | `Kr) ] -> Tfun2 (Float.rem, a, b)
              | _ -> raise Ineligible)
          | "MODULO", [ a; b ] -> (
              match kinds () with [ `Ki; `Ki ] -> Tint (Imodulo, a, b) | _ -> raise Ineligible)
          | "MERGE", [ t; f; m ] -> (
              (* the mask must compile to a relational (1./0.), never a
                 plain numeric expression *)
              match sargs with
              | [ _; _;
                  { Ast.e = Ast.Bin ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), _, _); _ }
                ] ->
                  Tsel (t, f, m)
              | _ -> raise Ineligible)
          | ("REAL" | "FLOAT" | "DBLE"), [ a ] -> a
          | _ -> raise Ineligible)
      | Ast.Ref r -> (
          match Sema.array_spec env r.Ast.base with
          | None -> raise Ineligible
          | Some spec ->
              if spec.Sema.skind = Ast.Logical then raise Ineligible;
              (match List.assoc_opt r.Ast.rid f.Ir.f_access with
              | None | Some Ir.Acc_direct | Some (Ir.Acc_global_temp _) ->
                  List.iter check_affine (subscripts r)
              | Some (Ir.Acc_box { dims; _ }) ->
                  Array.iter (function Ir.By_sub e -> check_affine e | Ir.Collapsed -> ()) dims
              | Some (Ir.Acc_flat _) -> ());
              slot r)
    in
    let template = compile f.Ir.f_rhs in
    let refs = Array.of_list (List.rev !refs) in
    let lhs = f.Ir.f_lhs.Ast.base in
    Some
      {
        p_f = f;
        p_template = template;
        p_refs = refs;
        p_lhs_reads = Array.map (fun r -> r.Ast.base = lhs && direct_access f r) refs;
        p_scalars =
          List.sort (fun (_, (a, _)) (_, (b, _)) -> compare a b) !scalars
          |> List.map (fun (v, (_, k)) -> (v, k))
          |> Array.of_list;
      }
  with Ineligible -> None

(* ------------------------------------------------------------------ *)
(* Row strips                                                          *)
(* ------------------------------------------------------------------ *)

(* Distinct iterations write distinct flats iff, taking the dimensions
   with more than one iteration in ascending |coef| order, each |coef|
   strictly exceeds the whole span reachable by the smaller ones (a
   mixed-radix digit argument).  With a many-to-one store map the
   canonical element order is observable (last writer wins), so such a
   nest is the interpreter's. *)
let store_injective ~lens (l : lin) =
  let dims = ref [] in
  Array.iteri (fun k c -> if lens.(k) > 1 then dims := (abs c, lens.(k)) :: !dims) l.coefs;
  let dims = List.sort compare !dims in
  let span = ref 0 in
  List.for_all
    (fun (c, len) ->
      if c <= !span then false
      else begin
        span := !span + (c * (len - 1));
        true
      end)
    dims

(* Strided windows over raw float arrays: the unit of evaluation.  A
   load is a zero-copy view; every other node evaluates its operands and
   then runs one tight loop into a pooled buffer.  Per element, the
   operations and their order are those of the interpreter's
   [Scalar] arithmetic, so results are bit-identical to it. *)
type strip = { sa : float array; so : int; st : int }

(* One execution's resolved operands, and the strip being evaluated:
   [cs] carries the fixed outer counter values with [cs.(k) = 0]; the
   strip counter [k] sweeps [0, len). *)
type env = {
  slots : (Ndarray.t * lin) array;
  svals : float array;
  progs : (int * int) array;
  cs : int array;
  k : int;
  len : int;
  pool : float array array ref;
}

let get_buf pool depth len =
  if Array.length !pool <= depth then begin
    let np = Array.make (depth + 4) [||] in
    Array.blit !pool 0 np 0 (Array.length !pool);
    pool := np
  end;
  if Array.length !pool.(depth) < len then !pool.(depth) <- Array.make len 0.;
  !pool.(depth)

let scalar_strip env depth v =
  let b = get_buf env.pool depth 1 in
  b.(0) <- v;
  { sa = b; so = 0; st = 0 }

(* Operand [i] of a node at [depth] evaluates at [depth + i]: a later
   operand's subtree never reaches the buffers of earlier results. *)
let rec strip_eval env depth n =
  let len = env.len and cs = env.cs in
  match n with
  | Tconst v -> scalar_strip env depth v
  | Tscal s -> { sa = env.svals; so = s; st = 0 }
  | Tcounter j ->
      let g0, gs = env.progs.(j) in
      if j <> env.k then scalar_strip env depth (float_of_int (g0 + (gs * cs.(j))))
      else begin
        let out = get_buf env.pool depth len in
        for i = 0 to len - 1 do
          Array.unsafe_set out i (float_of_int (g0 + (gs * i)))
        done;
        { sa = out; so = 0; st = 1 }
      end
  | Tload s -> (
      let nd, l = env.slots.(s) in
      let off = l.base + (l.coefs.(0) * cs.(0)) + (l.coefs.(1) * cs.(1)) + (l.coefs.(2) * cs.(2)) in
      let st = l.coefs.(env.k) in
      match nd.Ndarray.data with
      | Ndarray.Reals d -> { sa = d; so = off; st }
      | Ndarray.Ints d ->
          let out = get_buf env.pool depth len in
          for i = 0 to len - 1 do
            Array.unsafe_set out i (float_of_int (Array.unsafe_get d (off + (st * i))))
          done;
          { sa = out; so = 0; st = 1 }
      | Ndarray.Logs _ -> assert false (* [plan] admits no LOGICAL operand *))
  | Tadd (a, b) -> strip_bin env depth `Add a b
  | Tsub (a, b) -> strip_bin env depth `Sub a b
  | Tmul (a, b) -> strip_bin env depth `Mul a b
  | Tdiv (a, b) -> strip_bin env depth `Div a b
  | Tint (op, a, b) ->
      let sa = strip_eval env (depth + 1) a in
      let sb = strip_eval env (depth + 2) b in
      let out = get_buf env.pool depth len in
      let aa = sa.sa and ao = sa.so and astr = sa.st in
      let ba = sb.sa and bo = sb.so and bstr = sb.st in
      let fn = match op with Idiv -> ( / ) | Imod -> ( mod ) | Imodulo -> Util.modulo in
      for i = 0 to len - 1 do
        let y = int_of_float (Array.unsafe_get ba (bo + (bstr * i))) in
        if y = 0 then raise (Decline Stats.Zero_divisor);
        Array.unsafe_set out i
          (float_of_int (fn (int_of_float (Array.unsafe_get aa (ao + (astr * i)))) y))
      done;
      { sa = out; so = 0; st = 1 }
  | Tfun1 (f, a) ->
      let sa = strip_eval env (depth + 1) a in
      let out = get_buf env.pool depth len in
      let aa = sa.sa and ao = sa.so and astr = sa.st in
      for i = 0 to len - 1 do
        Array.unsafe_set out i (f (Array.unsafe_get aa (ao + (astr * i))))
      done;
      { sa = out; so = 0; st = 1 }
  | Tfun2 (f, a, b) ->
      let sa = strip_eval env (depth + 1) a in
      let sb = strip_eval env (depth + 2) b in
      let out = get_buf env.pool depth len in
      let aa = sa.sa and ao = sa.so and astr = sa.st in
      let ba = sb.sa and bo = sb.so and bstr = sb.st in
      for i = 0 to len - 1 do
        Array.unsafe_set out i
          (f (Array.unsafe_get aa (ao + (astr * i))) (Array.unsafe_get ba (bo + (bstr * i))))
      done;
      { sa = out; so = 0; st = 1 }
  | Tsel (t, f, m) ->
      (* MERGE evaluates both values, as the interpreter does *)
      let st_ = strip_eval env (depth + 1) t in
      let sf = strip_eval env (depth + 2) f in
      let sm = strip_eval env (depth + 3) m in
      let out = get_buf env.pool depth len in
      for i = 0 to len - 1 do
        Array.unsafe_set out i
          (if Array.unsafe_get sm.sa (sm.so + (sm.st * i)) <> 0. then
             Array.unsafe_get st_.sa (st_.so + (st_.st * i))
           else Array.unsafe_get sf.sa (sf.so + (sf.st * i)))
      done;
      { sa = out; so = 0; st = 1 }

and strip_bin env depth op a b =
  let len = env.len in
  let sa = strip_eval env (depth + 1) a in
  let sb = strip_eval env (depth + 2) b in
  let out = get_buf env.pool depth len in
  let aa = sa.sa and ao = sa.so and astr = sa.st in
  let ba = sb.sa and bo = sb.so and bstr = sb.st in
  (match op with
  | `Add ->
      for i = 0 to len - 1 do
        Array.unsafe_set out i
          (Array.unsafe_get aa (ao + (astr * i)) +. Array.unsafe_get ba (bo + (bstr * i)))
      done
  | `Sub ->
      for i = 0 to len - 1 do
        Array.unsafe_set out i
          (Array.unsafe_get aa (ao + (astr * i)) -. Array.unsafe_get ba (bo + (bstr * i)))
      done
  | `Mul ->
      for i = 0 to len - 1 do
        Array.unsafe_set out i
          (Array.unsafe_get aa (ao + (astr * i)) *. Array.unsafe_get ba (bo + (bstr * i)))
      done
  | `Div ->
      for i = 0 to len - 1 do
        Array.unsafe_set out i
          (Array.unsafe_get aa (ao + (astr * i)) /. Array.unsafe_get ba (bo + (bstr * i)))
      done);
  { sa = out; so = 0; st = 1 }

(* Fused multiply-update: gauss's rank-1 body A = A - L*U (and the +
   variants) reads the store at the identity offset, so the whole row is
   one in-place pass with no intermediate buffer. *)
type fmu =
  | Fsub of tnode * tnode  (* store <- store -. x*y *)
  | Fadd_r of tnode * tnode  (* store <- store +. x*y *)
  | Fadd_l of tnode * tnode  (* store <- x*y +. store *)
  | Fnone

let fmu_of body ~slots ~store ~(sflat : lin) =
  let identity s =
    match slots.(s) with
    | { Ndarray.data = Ndarray.Reals d; _ }, l ->
        d == store && l.base = sflat.base && l.coefs = sflat.coefs
    | _ -> false
  in
  match body with
  | Tsub (Tload s, Tmul (x, y)) when identity s -> Fsub (x, y)
  | Tadd (Tload s, Tmul (x, y)) when identity s -> Fadd_r (x, y)
  | Tadd (Tmul (x, y), Tload s) when identity s -> Fadd_l (x, y)
  | _ -> Fnone

(* Run the nest as row strips.  The strip counter is interchanged to the
   store's unit-stride dimension when one exists; the outer two counters
   keep their nest order.  Any order is legal: the store map is
   injective and every read of the store's storage is a direct read of
   the lhs array, which Lower proved to be the identity subscript or
   separated from every write. *)
let exec_strips ~slots ~svals ~progs ~store ~(sflat : lin) ~lens body =
  let ss = sflat.coefs and sb = sflat.base in
  let candidates = List.filter (fun k -> lens.(k) > 1) [ 0; 1; 2 ] in
  let k =
    match List.find_opt (fun k -> abs ss.(k) = 1) candidates with
    | Some k -> k
    | None -> ( match List.rev candidates with k :: _ -> k | [] -> 2)
  in
  let ssk = ss.(k) in
  let o1, o2 = match List.filter (fun j -> j <> k) [ 0; 1; 2 ] with [ a; b ] -> (a, b) | _ -> assert false in
  let cs = [| 0; 0; 0 |] in
  let env = { slots; svals; progs; cs; k; len = lens.(k); pool = ref [||] } in
  let len = env.len in
  let fmu = fmu_of body ~slots ~store ~sflat in
  for a = 0 to lens.(o1) - 1 do
    cs.(o1) <- a;
    for b = 0 to lens.(o2) - 1 do
      cs.(o2) <- b;
      let sbase = sb + (ss.(0) * cs.(0)) + (ss.(1) * cs.(1)) + (ss.(2) * cs.(2)) in
      match fmu with
      | Fsub (x, y) ->
          let xs = strip_eval env 1 x in
          let ys = strip_eval env 2 y in
          let xa = xs.sa and xo = xs.so and xst = xs.st in
          let ya = ys.sa and yo = ys.so and yst = ys.st in
          for i = 0 to len - 1 do
            let o = sbase + (ssk * i) in
            Array.unsafe_set store o
              (Array.unsafe_get store o
              -. (Array.unsafe_get xa (xo + (xst * i)) *. Array.unsafe_get ya (yo + (yst * i))))
          done
      | Fadd_r (x, y) ->
          let xs = strip_eval env 1 x in
          let ys = strip_eval env 2 y in
          let xa = xs.sa and xo = xs.so and xst = xs.st in
          let ya = ys.sa and yo = ys.so and yst = ys.st in
          for i = 0 to len - 1 do
            let o = sbase + (ssk * i) in
            Array.unsafe_set store o
              (Array.unsafe_get store o
              +. (Array.unsafe_get xa (xo + (xst * i)) *. Array.unsafe_get ya (yo + (yst * i))))
          done
      | Fadd_l (x, y) ->
          let xs = strip_eval env 1 x in
          let ys = strip_eval env 2 y in
          let xa = xs.sa and xo = xs.so and xst = xs.st in
          let ya = ys.sa and yo = ys.so and yst = ys.st in
          for i = 0 to len - 1 do
            let o = sbase + (ssk * i) in
            Array.unsafe_set store o
              (Array.unsafe_get xa (xo + (xst * i)) *. Array.unsafe_get ya (yo + (yst * i))
              +. Array.unsafe_get store o)
          done
      | Fnone ->
          (* a plain REAL load is a zero-copy view: one copy loop *)
          let r = strip_eval env 0 body in
          let ra = r.sa and ro = r.so and rst = r.st in
          for i = 0 to len - 1 do
            Array.unsafe_set store (sbase + (ssk * i)) (Array.unsafe_get ra (ro + (rst * i)))
          done
    done
  done

(* ------------------------------------------------------------------ *)
(* Execution: the value-dependent half                                 *)
(* ------------------------------------------------------------------ *)

(* Resolve the slots and scalars against this execution's values, then
   run the nest; raises [Decline] before any store for every reason but a
   zero divisor. *)
let run_nest (p : compiled) ~me ~scalar_lookup ~darr_of ~temp_of ~values =
  let f = p.p_f in
  let nvars = 3 in
  (* progressions and lengths; pad to three counters *)
  let lens = Array.make nvars 1 in
  let progs = Array.make nvars (0, 0) in
  List.iteri
    (fun k vals ->
      let n = Array.length vals in
      let g0 = vals.(0) in
      let gs = if n >= 2 then vals.(1) - vals.(0) else 0 in
      (* iteration sets from set_BOUND are progressions by construction;
         verify cheaply on the last element *)
      if n >= 2 && vals.(n - 1) <> g0 + ((n - 1) * gs) then
        raise (Decline Stats.Not_progression);
      lens.(k) <- n;
      progs.(k) <- (g0, gs))
    values;
  let lhs_darr = darr_of f.Ir.f_lhs.Ast.base in
  let store =
    match lhs_darr.Darray.local.Ndarray.data with
    | Ndarray.Reals d -> d
    | _ -> raise (Decline Stats.Int_store)
  in
  let svals =
    Array.map
      (fun (v, k) ->
        match (k, scalar_lookup v) with
        | Scalar.Kint, Some (Scalar.Int n) -> float_of_int n
        | Scalar.Kreal, Some (Scalar.Real r) -> r
        | _ -> raise (Decline Stats.Scalar_kind))
      p.p_scalars
  in
  let var_index = make_var_index f in
  let ilookup v =
    match scalar_lookup v with Some (Scalar.Int n) -> Some n | _ -> None
  in
  let lin_of e = lin_of ~nvars ~var_index ~progs ~ilookup e in
  let temp want temp =
    match (want, temp_of temp) with
    | `Box, Some (Tbox nd) | `Flat, Some (Tflat nd) | `Global, Some (Tglobal nd) -> nd
    | _ -> raise (Decline Stats.Missing_temp)
  in
  (* flat linear offset of an array reference under its access *)
  let flat_of_ref (r : Ast.ref_) =
    let through_layout dad d e =
      let flb = (Dad.dims dad).(d).Dad.flb in
      pos_through_layout (Dad.layout_at dad ~dim:d ~rank:me) ~flb (lin_of e)
    in
    match List.assoc_opt r.Ast.rid f.Ir.f_access with
    | None | Some Ir.Acc_direct ->
        let darr = darr_of r.Ast.base in
        let nd = darr.Darray.local in
        let positions = List.mapi (through_layout darr.Darray.dad) (subscripts r) in
        (nd, flat_of_positions ~lens nd positions)
    | Some (Ir.Acc_box { temp = t; dims }) ->
        let nd = temp `Box t in
        let dad = (darr_of r.Ast.base).Darray.dad in
        let positions =
          List.mapi
            (fun d bd ->
              match bd with
              | Ir.Collapsed -> lin_const nvars 1
              | Ir.By_sub e ->
                  (* temporaries have lower bound 1 *)
                  lin_add (through_layout dad d e) (lin_const nvars 1))
            (Array.to_list dims)
        in
        (nd, flat_of_positions ~lens nd positions)
    | Some (Ir.Acc_flat { temp = t }) ->
        let nd = temp `Flat t in
        (* the iteration counter in nest order *)
        let counter = ref (lin_const nvars 0) in
        let weight = ref 1 in
        for k = nvars - 1 downto 0 do
          let l = lin_const nvars 0 in
          l.coefs.(k) <- !weight;
          counter := lin_add !counter l;
          weight := !weight * lens.(k)
        done;
        (nd, flat_of_positions ~lens nd [ lin_add !counter (lin_const nvars 1) ])
    | Some (Ir.Acc_global_temp { temp = t }) ->
        let nd = temp `Global t in
        (nd, flat_of_positions ~lens nd (List.map lin_of (subscripts r)))
  in
  let slots = Array.map flat_of_ref p.p_refs in
  (* -1 rid: no access entry, so the lhs resolves Acc_direct *)
  let _, sflat = flat_of_ref { f.Ir.f_lhs with Ast.rid = -1 } in
  if not (store_injective ~lens sflat) then raise (Decline Stats.Not_injective);
  (* Lower vouches for direct reads of the lhs array by name; any other
     operand sharing the store's storage would be an alias it never saw
     (none arises today: dummies are copied in, temporaries are fresh) *)
  Array.iteri
    (fun s (nd, _) ->
      match nd.Ndarray.data with
      | Ndarray.Reals d when d == store && not p.p_lhs_reads.(s) ->
          raise (Decline Stats.Storage_alias)
      | _ -> ())
    slots;
  exec_strips ~slots ~svals ~progs ~store ~sflat ~lens p.p_template

let execute (p : plan) ~me ~scalar_lookup ~darr_of ~temp_of ~values =
  Option.map
    (fun p ->
      match run_nest p ~me ~scalar_lookup ~darr_of ~temp_of ~values with
      | () -> Ok ()
      | exception Decline why -> Error why)
    p
