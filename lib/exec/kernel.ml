open F90d_base
open F90d_dist
open F90d_runtime
open F90d_frontend
open F90d_ir

type temp_nd = Tbox of Ndarray.t | Tflat of Ndarray.t | Tglobal of Ndarray.t

(* Compiled float expressions over up to three loop counters. *)
type node =
  | Nconst of float
  | Nlin of float * float * float * float  (* base + s1*c1 + s2*c2 + s3*c3 *)
  | Nload of float array * int * int * int * int  (* data, base, s1, s2, s3 *)
  | Nloadi of int array * int * int * int * int
  | Nneg of node
  | Nadd of node * node
  | Nsub of node * node
  | Nmul of node * node
  | Ndiv of node * node
  | Nidiv of node * node  (* both operands integer-valued: Fortran truncation *)
  | Nfun1 of (float -> float) * node
  | Nfun2 of (float -> float -> float) * node * node
  | Nsel of node * node * node  (* MERGE: mask (last) selects t or f *)

let rec ev n c1 c2 c3 =
  match n with
  | Nconst v -> v
  | Nlin (b, s1, s2, s3) ->
      b +. (s1 *. float_of_int c1) +. (s2 *. float_of_int c2) +. (s3 *. float_of_int c3)
  | Nload (d, b, s1, s2, s3) -> Array.unsafe_get d (b + (s1 * c1) + (s2 * c2) + (s3 * c3))
  | Nloadi (d, b, s1, s2, s3) ->
      float_of_int (Array.unsafe_get d (b + (s1 * c1) + (s2 * c2) + (s3 * c3)))
  | Nneg a -> -.ev a c1 c2 c3
  | Nadd (a, b) -> ev a c1 c2 c3 +. ev b c1 c2 c3
  | Nsub (a, b) -> ev a c1 c2 c3 -. ev b c1 c2 c3
  | Nmul (a, b) -> ev a c1 c2 c3 *. ev b c1 c2 c3
  | Ndiv (a, b) -> ev a c1 c2 c3 /. ev b c1 c2 c3
  | Nidiv (a, b) ->
      float_of_int (int_of_float (ev a c1 c2 c3) / int_of_float (ev b c1 c2 c3))
  | Nfun1 (f, a) -> f (ev a c1 c2 c3)
  | Nfun2 (f, a, b) -> f (ev a c1 c2 c3) (ev b c1 c2 c3)
  | Nsel (t, f, m) -> if ev m c1 c2 c3 <> 0. then ev t c1 c2 c3 else ev f c1 c2 c3

exception Fallback

(* Linear form over the loop counters: value = base + sum coefs.(k)*c_k. *)
type lin = { base : int; coefs : int array }

let lin_const nvars b = { base = b; coefs = Array.make nvars 0 }

let lin_add a b = { base = a.base + b.base; coefs = Array.map2 ( + ) a.coefs b.coefs }
let lin_scale k a = { base = k * a.base; coefs = Array.map (( * ) k) a.coefs }
let lin_sub a b = lin_add a (lin_scale (-1) b)

(* Extract a linear form in the loop counters from an index expression:
   FORALL variables contribute their progressions, scalars and parameters
   their current integer values. *)
let rec lin_of ~nvars ~var_index ~progs ~ilookup (e : Ast.expr) =
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
          match ilookup v with Some n -> lin_const nvars n | None -> raise Fallback))
  | Ast.Un (Ast.Neg, a) -> lin_scale (-1) (lin_of ~nvars ~var_index ~progs ~ilookup a)
  | Ast.Bin (Ast.Add, a, b) ->
      lin_add (lin_of ~nvars ~var_index ~progs ~ilookup a) (lin_of ~nvars ~var_index ~progs ~ilookup b)
  | Ast.Bin (Ast.Sub, a, b) ->
      lin_sub (lin_of ~nvars ~var_index ~progs ~ilookup a) (lin_of ~nvars ~var_index ~progs ~ilookup b)
  | Ast.Bin (Ast.Mul, a, b) -> (
      let la = lin_of ~nvars ~var_index ~progs ~ilookup a in
      let lb = lin_of ~nvars ~var_index ~progs ~ilookup b in
      match (Array.for_all (( = ) 0) la.coefs, Array.for_all (( = ) 0) lb.coefs) with
      | true, _ -> lin_scale la.base lb
      | _, true -> lin_scale lb.base la
      | false, false -> raise Fallback)
  | _ -> raise Fallback

(* Storage position (per dimension) as a linear form, through a layout. *)
let pos_through_layout layout ~flb (v : lin) =
  match layout with
  | Layout.Prog { first; step; _ } ->
      let num = lin_sub v (lin_const (Array.length v.coefs) (flb + first)) in
      if num.base mod step <> 0 || Array.exists (fun c -> c mod step <> 0) num.coefs then
        raise Fallback;
      { base = num.base / step; coefs = Array.map (fun c -> c / step) num.coefs }
  | Layout.Explicit _ -> raise Fallback

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
      if lo < 0 || hi >= size then raise Fallback
    end
    else
      let c = flat.coefs.(k) in
      let span = c * (lens.(k) - 1) in
      corners (k + 1) (lo + min 0 span) (hi + max 0 span)
  in
  if size = 0 then raise Fallback;
  corners 0 flat.base flat.base;
  flat

let load_node nd flat =
  let pad a = (a.base, a.coefs.(0), a.coefs.(1), a.coefs.(2)) in
  let b, s1, s2, s3 = pad flat in
  match nd.Ndarray.data with
  | Ndarray.Reals d -> Nload (d, b, s1, s2, s3)
  | Ndarray.Ints d -> Nloadi (d, b, s1, s2, s3)
  | Ndarray.Logs _ -> raise Fallback

(* ------------------------------------------------------------------ *)
(* Plans: the structure-only half of specialization                    *)
(* ------------------------------------------------------------------ *)

(* Everything about a FORALL that does not depend on run-time values —
   eligibility, the operator tree, which references feed which leaves,
   integer-vs-real division — is decided once per run and shared by all
   ranks.  Scalars stay symbolic ([Tscal], re-read every execution: gauss's
   pivot changes each step) and references stay as slots whose flat affine
   offsets are re-derived every execution (layouts, scalar subscripts and
   the iteration space all change under the statement). *)
type tnode =
  | Tconst of float
  | Tscal of string * Scalar.kind
      (** the kind the plan assumed; a value of another kind falls back *)
  | Tcounter of int
  | Tload of int  (* slot into the plan's reference vector *)
  | Tneg of tnode
  | Tadd of tnode * tnode
  | Tsub of tnode * tnode
  | Tmul of tnode * tnode
  | Tdiv of tnode * tnode
  | Tidiv of tnode * tnode
  | Tfun1 of (float -> float) * tnode
  | Tfun2 of (float -> float -> float) * tnode * tnode
  | Tsel of tnode * tnode * tnode

type plan = {
  p_f : Ir.forall;
  p_template : tnode;
  p_refs : Ast.ref_ array;
  p_eligible : bool;
}

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
  List.map (function Ast.Elem e -> e | Ast.Range _ -> raise Fallback) r.Ast.args

let plan ~env ~scalar_kind ~(f : Ir.forall) =
  try
    if f.Ir.f_mask <> None || f.Ir.f_post <> None || f.Ir.f_snapshot then raise Fallback;
    let nvars_real = List.length f.Ir.f_vars in
    if nvars_real = 0 || nvars_real > 3 then raise Fallback;
    let var_index = make_var_index f in
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
    let refs = ref [] in
    let nrefs = ref 0 in
    let slot r =
      let s = !nrefs in
      incr nrefs;
      refs := r :: !refs;
      Tload s
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
              | Some ((Scalar.Kint | Scalar.Kreal) as k) -> Tscal (v, k)
              | _ -> raise Fallback))
      | Ast.Un (Ast.Neg, a) -> Tneg (compile a)
      | Ast.Un (Ast.Not, _) -> raise Fallback
      | Ast.Bin (op, a, b) -> (
          let ca = compile a and cb = compile b in
          match op with
          | Ast.Add -> Tadd (ca, cb)
          | Ast.Sub -> Tsub (ca, cb)
          | Ast.Mul -> Tmul (ca, cb)
          | Ast.Div -> (
              match (kind_of a, kind_of b) with
              | `Ki, `Ki -> Tidiv (ca, cb)
              | `Kr, _ | _, `Kr -> Tdiv (ca, cb)
              | _ -> raise Fallback)
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
              | _ -> raise Fallback)
          | Ast.And | Ast.Or -> raise Fallback)
      | Ast.Log_lit _ | Ast.Str_lit _ -> raise Fallback
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
              | [ `Ki; `Ki ] ->
                  Tfun2
                    ((fun x y -> float_of_int (int_of_float x mod int_of_float y)), a, b)
              | [ (`Ki | `Kr); (`Ki | `Kr) ] -> Tfun2 (Float.rem, a, b)
              | _ -> raise Fallback)
          | "MODULO", [ a; b ] -> (
              match kinds () with
              | [ `Ki; `Ki ] ->
                  Tfun2
                    ( (fun x y -> float_of_int (Util.modulo (int_of_float x) (int_of_float y))),
                      a,
                      b )
              | _ -> raise Fallback)
          | "MERGE", [ t; f; m ] -> (
              (* the mask must compile to a relational (1./0.), never a
                 plain numeric expression *)
              match sargs with
              | [ _; _;
                  { Ast.e = Ast.Bin ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), _, _); _ }
                ] ->
                  Tsel (t, f, m)
              | _ -> raise Fallback)
          | ("REAL" | "FLOAT" | "DBLE"), [ a ] -> a
          | _ -> raise Fallback)
      | Ast.Ref r -> (
          match Sema.array_spec env r.Ast.base with
          | None -> raise Fallback
          | Some spec ->
              if spec.Sema.skind = Ast.Logical then raise Fallback;
              slot r)
    in
    let template = compile f.Ir.f_rhs in
    { p_f = f; p_template = template; p_refs = Array.of_list (List.rev !refs); p_eligible = true }
  with Fallback -> { p_f = f; p_template = Tconst 0.; p_refs = [||]; p_eligible = false }

(* ------------------------------------------------------------------ *)
(* Blocked execution                                                   *)
(* ------------------------------------------------------------------ *)

(* The flat offsets an affine form reaches over the iteration box. *)
let range_of ~lens (l : lin) =
  let lo = ref l.base and hi = ref l.base in
  Array.iteri
    (fun k c ->
      let span = c * (lens.(k) - 1) in
      lo := !lo + min 0 span;
      hi := !hi + max 0 span)
    l.coefs;
  (!lo, !hi)

(* Distinct iterations write distinct flats iff, taking the dimensions
   with more than one iteration in ascending |coef| order, each |coef|
   strictly exceeds the whole span reachable by the smaller ones (a
   mixed-radix digit argument).  Reordered/blocked execution is only
   legal when this holds: with a many-to-one store map the canonical
   element order is observable (last writer wins, and identity reads
   see earlier writes). *)
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

(* Strided windows over raw float arrays: the unit of blocked evaluation.
   A load is a zero-copy view; operator nodes evaluate their operands and
   then run one tight loop into a pooled buffer.  Per element, the FP
   operations and their order are exactly those of [ev], so results are
   bit-identical to the tree walk. *)
type strip = { sa : float array; so : int; st : int }

let get_buf pool depth len =
  if Array.length !pool <= depth then begin
    let np = Array.make (depth + 4) [||] in
    Array.blit !pool 0 np 0 (Array.length !pool);
    pool := np
  end;
  if Array.length !pool.(depth) < len then !pool.(depth) <- Array.make len 0.;
  !pool.(depth)

(* [cs] carries the fixed outer counter values with [cs.(k) = 0]; the
   inner counter [k] sweeps [0, len).  Materializing nodes ([Nlin],
   [Nidiv]) re-enter [ev] per element — they are rare in real bodies. *)
let rec strip_eval pool depth n (cs : int array) k len =
  match n with
  | Nconst v ->
      let b = get_buf pool depth 1 in
      b.(0) <- v;
      { sa = b; so = 0; st = 0 }
  | Nload (d, b, s1, s2, s3) ->
      let off = b + (s1 * cs.(0)) + (s2 * cs.(1)) + (s3 * cs.(2)) in
      let st = match k with 0 -> s1 | 1 -> s2 | _ -> s3 in
      { sa = d; so = off; st }
  | Nloadi (d, b, s1, s2, s3) ->
      let off = b + (s1 * cs.(0)) + (s2 * cs.(1)) + (s3 * cs.(2)) in
      let st = match k with 0 -> s1 | 1 -> s2 | _ -> s3 in
      let out = get_buf pool depth len in
      for i = 0 to len - 1 do
        Array.unsafe_set out i (float_of_int (Array.unsafe_get d (off + (st * i))))
      done;
      { sa = out; so = 0; st = 1 }
  | Nlin _ | Nidiv _ | Nsel _ ->
      let out = get_buf pool depth len in
      for i = 0 to len - 1 do
        cs.(k) <- i;
        Array.unsafe_set out i (ev n cs.(0) cs.(1) cs.(2))
      done;
      cs.(k) <- 0;
      { sa = out; so = 0; st = 1 }
  | Nneg a ->
      let sa = strip_eval pool (depth + 1) a cs k len in
      let out = get_buf pool depth len in
      let aa = sa.sa and ao = sa.so and astr = sa.st in
      for i = 0 to len - 1 do
        Array.unsafe_set out i (-.Array.unsafe_get aa (ao + (astr * i)))
      done;
      { sa = out; so = 0; st = 1 }
  | Nadd (a, b) -> strip_bin pool depth `Add a b cs k len
  | Nsub (a, b) -> strip_bin pool depth `Sub a b cs k len
  | Nmul (a, b) -> strip_bin pool depth `Mul a b cs k len
  | Ndiv (a, b) -> strip_bin pool depth `Div a b cs k len
  | Nfun1 (f, a) ->
      let sa = strip_eval pool (depth + 1) a cs k len in
      let out = get_buf pool depth len in
      let aa = sa.sa and ao = sa.so and astr = sa.st in
      for i = 0 to len - 1 do
        Array.unsafe_set out i (f (Array.unsafe_get aa (ao + (astr * i))))
      done;
      { sa = out; so = 0; st = 1 }
  | Nfun2 (f, a, b) ->
      let sa = strip_eval pool (depth + 1) a cs k len in
      let sb = strip_eval pool (depth + 2) b cs k len in
      let out = get_buf pool depth len in
      let aa = sa.sa and ao = sa.so and astr = sa.st in
      let ba = sb.sa and bo = sb.so and bstr = sb.st in
      for i = 0 to len - 1 do
        Array.unsafe_set out i
          (f (Array.unsafe_get aa (ao + (astr * i))) (Array.unsafe_get ba (bo + (bstr * i))))
      done;
      { sa = out; so = 0; st = 1 }

and strip_bin pool depth op a b cs k len =
  let sa = strip_eval pool (depth + 1) a cs k len in
  let sb = strip_eval pool (depth + 2) b cs k len in
  let out = get_buf pool depth len in
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
  | Fsub of node * node  (* store <- store -. x*y *)
  | Fadd_r of node * node  (* store <- store +. x*y *)
  | Fadd_l of node * node  (* store <- x*y +. store *)
  | Fcopy of float array * int * int * int * int  (* store <- plain load *)
  | Fnone

let fmu_of body ~store ~sb ~ss1 ~ss2 ~ss3 =
  let identity d b t1 t2 t3 = d == store && b = sb && t1 = ss1 && t2 = ss2 && t3 = ss3 in
  match body with
  | Nsub (Nload (d, b, t1, t2, t3), Nmul (x, y)) when identity d b t1 t2 t3 -> Fsub (x, y)
  | Nadd (Nload (d, b, t1, t2, t3), Nmul (x, y)) when identity d b t1 t2 t3 -> Fadd_r (x, y)
  | Nadd (Nmul (x, y), Nload (d, b, t1, t2, t3)) when identity d b t1 t2 t3 -> Fadd_l (x, y)
  | Nload (d, b, t1, t2, t3) -> Fcopy (d, b, t1, t2, t3)
  | _ -> Fnone

(* Execute the nest through row strips.  [k] is the chosen innermost
   counter (interchanged to the store's unit-stride dimension when one
   exists); the outer two counters keep their nest order — legal because
   blocked execution is only entered when the store map is injective and
   self-reads are identity/disjoint, which makes iterations independent. *)
let exec_blocked ~store ~sb ~ss1 ~ss2 ~ss3 ~lens body =
  let ssa = [| ss1; ss2; ss3 |] in
  let candidates = List.filter (fun k -> lens.(k) > 1) [ 0; 1; 2 ] in
  match candidates with
  | [] -> false
  | _ ->
      let k =
        match List.find_opt (fun k -> abs ssa.(k) = 1) candidates with
        | Some k -> k
        | None -> List.hd (List.rev candidates)
      in
      let ssk = ssa.(k) in
      let o1, o2 =
        match List.filter (fun j -> j <> k) [ 0; 1; 2 ] with
        | [ a; b ] -> (a, b)
        | _ -> assert false
      in
      let len = lens.(k) in
      let cs = [| 0; 0; 0 |] in
      let pool = ref [||] in
      let fmu = fmu_of body ~store ~sb ~ss1 ~ss2 ~ss3 in
      for a = 0 to lens.(o1) - 1 do
        cs.(o1) <- a;
        for b = 0 to lens.(o2) - 1 do
          cs.(o2) <- b;
          let sbase = sb + (ss1 * cs.(0)) + (ss2 * cs.(1)) + (ss3 * cs.(2)) in
          (match fmu with
          | Fsub (x, y) ->
              let xs = strip_eval pool 1 x cs k len in
              let ys = strip_eval pool 2 y cs k len in
              let xa = xs.sa and xo = xs.so and xst = xs.st in
              let ya = ys.sa and yo = ys.so and yst = ys.st in
              for i = 0 to len - 1 do
                let o = sbase + (ssk * i) in
                Array.unsafe_set store o
                  (Array.unsafe_get store o
                  -. (Array.unsafe_get xa (xo + (xst * i)) *. Array.unsafe_get ya (yo + (yst * i))
                     ))
              done
          | Fadd_r (x, y) ->
              let xs = strip_eval pool 1 x cs k len in
              let ys = strip_eval pool 2 y cs k len in
              let xa = xs.sa and xo = xs.so and xst = xs.st in
              let ya = ys.sa and yo = ys.so and yst = ys.st in
              for i = 0 to len - 1 do
                let o = sbase + (ssk * i) in
                Array.unsafe_set store o
                  (Array.unsafe_get store o
                  +. (Array.unsafe_get xa (xo + (xst * i)) *. Array.unsafe_get ya (yo + (yst * i))
                     ))
              done
          | Fadd_l (x, y) ->
              let xs = strip_eval pool 1 x cs k len in
              let ys = strip_eval pool 2 y cs k len in
              let xa = xs.sa and xo = xs.so and xst = xs.st in
              let ya = ys.sa and yo = ys.so and yst = ys.st in
              for i = 0 to len - 1 do
                let o = sbase + (ssk * i) in
                Array.unsafe_set store o
                  (Array.unsafe_get xa (xo + (xst * i))
                   *. Array.unsafe_get ya (yo + (yst * i))
                  +. Array.unsafe_get store o)
              done
          | Fcopy (d, b0, t1, t2, t3) ->
              let off = b0 + (t1 * cs.(0)) + (t2 * cs.(1)) + (t3 * cs.(2)) in
              let st = match k with 0 -> t1 | 1 -> t2 | _ -> t3 in
              for i = 0 to len - 1 do
                Array.unsafe_set store (sbase + (ssk * i)) (Array.unsafe_get d (off + (st * i)))
              done
          | Fnone ->
              let r = strip_eval pool 0 body cs k len in
              let ra = r.sa and ro = r.so and rst = r.st in
              for i = 0 to len - 1 do
                Array.unsafe_set store (sbase + (ssk * i)) (Array.unsafe_get ra (ro + (rst * i)))
              done)
        done
      done;
      true

(* ------------------------------------------------------------------ *)
(* Execution: the value-dependent half                                 *)
(* ------------------------------------------------------------------ *)

type outcome = { blocked_loops : int }

let execute (p : plan) ~me ~scalar_lookup ~darr_of ~temp_of ~values =
  if not p.p_eligible then None
  else
    try
      let f = p.p_f in
      let nvars = 3 in
      (* progressions and lengths; pad to three counters *)
      let lens = Array.make nvars 1 in
      let progs = Array.make nvars (0, 0) in
      List.iteri
        (fun k vals ->
          let n = Array.length vals in
          if n = 0 then raise Fallback;
          let g0 = vals.(0) in
          let gs = if n >= 2 then vals.(1) - vals.(0) else 0 in
          (* iteration sets from set_BOUND are progressions by construction;
             verify cheaply on the last element *)
          if n >= 2 && vals.(n - 1) <> g0 + ((n - 1) * gs) then raise Fallback;
          lens.(k) <- n;
          progs.(k) <- (g0, gs))
        values;
      let var_index = make_var_index f in
      let ilookup v =
        match scalar_lookup v with Some (Scalar.Int n) -> Some n | _ -> None
      in
      let lin_of e = lin_of ~nvars ~var_index ~progs ~ilookup e in
      (* flat linear offset of an array reference under its access *)
      let flat_of_ref (r : Ast.ref_) =
        let acc = List.assoc_opt r.Ast.rid f.Ir.f_access in
        match acc with
        | None | Some Ir.Acc_direct ->
            let darr = darr_of r.Ast.base in
            let dad = darr.Darray.dad in
            let nd = darr.Darray.local in
            let positions =
              List.mapi
                (fun d e ->
                  let v = lin_of e in
                  let flb = (Dad.dims dad).(d).Dad.flb in
                  pos_through_layout (Dad.layout_at dad ~dim:d ~rank:me) ~flb v)
                (subscripts r)
            in
            (nd, flat_of_positions ~lens nd positions)
        | Some (Ir.Acc_box { temp; dims }) ->
            let nd =
              match temp_of temp with Some (Tbox nd) -> nd | _ -> raise Fallback
            in
            let darr = darr_of r.Ast.base in
            let dad = darr.Darray.dad in
            let positions =
              List.mapi
                (fun d bd ->
                  match bd with
                  | Ir.Collapsed -> lin_const nvars 1
                  | Ir.By_sub e ->
                      let v = lin_of e in
                      let flb = (Dad.dims dad).(d).Dad.flb in
                      let pl = pos_through_layout (Dad.layout_at dad ~dim:d ~rank:me) ~flb v in
                      (* temporaries have lower bound 1 *)
                      lin_add pl (lin_const nvars 1))
                (Array.to_list dims)
            in
            (nd, flat_of_positions ~lens nd positions)
        | Some (Ir.Acc_flat { temp }) ->
            let nd =
              match temp_of temp with Some (Tflat nd) -> nd | _ -> raise Fallback
            in
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
        | Some (Ir.Acc_global_temp { temp }) ->
            let nd =
              match temp_of temp with Some (Tglobal nd) -> nd | _ -> raise Fallback
            in
            let positions = List.map (fun e -> lin_of e) (subscripts r) in
            (nd, flat_of_positions ~lens nd positions)
      in
      (* resolve the reference slots, then the store side *)
      let slots = Array.map flat_of_ref p.p_refs in
      let lhs_darr = darr_of f.Ir.f_lhs.Ast.base in
      let store_nd = lhs_darr.Darray.local in
      let store =
        match store_nd.Ndarray.data with Ndarray.Reals d -> d | _ -> raise Fallback
      in
      let _, sflat = flat_of_ref { f.Ir.f_lhs with Ast.rid = -1 } in
      (* -1 rid: no access entry, so the lhs resolves Acc_direct *)
      let sb = sflat.base
      and ss1 = sflat.coefs.(0)
      and ss2 = sflat.coefs.(1)
      and ss3 = sflat.coefs.(2) in
      (* instantiate the cached template against this execution's values *)
      let rec inst t =
        match t with
        | Tconst v -> Nconst v
        | Tscal (v, k) -> (
            match (k, scalar_lookup v) with
            | Scalar.Kint, Some (Scalar.Int n) -> Nconst (float_of_int n)
            | Scalar.Kreal, Some (Scalar.Real r) -> Nconst r
            | _ -> raise Fallback)
        | Tcounter k ->
            let g0, gs = progs.(k) in
            let s = Array.make nvars 0. in
            s.(k) <- float_of_int gs;
            Nlin (float_of_int g0, s.(0), s.(1), s.(2))
        | Tload s ->
            let nd, flat = slots.(s) in
            load_node nd flat
        | Tneg a -> Nneg (inst a)
        | Tadd (a, b) -> Nadd (inst a, inst b)
        | Tsub (a, b) -> Nsub (inst a, inst b)
        | Tmul (a, b) -> Nmul (inst a, inst b)
        | Tdiv (a, b) -> Ndiv (inst a, inst b)
        | Tidiv (a, b) -> Nidiv (inst a, inst b)
        | Tfun1 (fn, a) -> Nfun1 (fn, inst a)
        | Tfun2 (fn, a, b) -> Nfun2 (fn, inst a, inst b)
        | Tsel (t, fa, m) -> Nsel (inst t, inst fa, inst m)
      in
      let body = inst p.p_template in
      (* Blocked execution is only sound when iterations are independent:
         the store map must be injective over the box, and any rhs read of
         the store array must be the identity offset (reads its own
         element, which is written only after the read in every order) or
         disjoint from the written range. *)
      let blocked_ok =
        store_injective ~lens sflat
        && Array.for_all
             (fun (nd, flat) ->
               match nd.Ndarray.data with
               | Ndarray.Reals d when d == store ->
                   (flat.base = sflat.base && flat.coefs = sflat.coefs)
                   ||
                   let lo, hi = range_of ~lens flat in
                   let slo, shi = range_of ~lens sflat in
                   hi < slo || lo > shi
               | _ -> true)
             slots
      in
      let did_block =
        blocked_ok && exec_blocked ~store ~sb ~ss1 ~ss2 ~ss3 ~lens body
      in
      if not did_block then
        for c1 = 0 to lens.(0) - 1 do
          for c2 = 0 to lens.(1) - 1 do
            for c3 = 0 to lens.(2) - 1 do
              Array.unsafe_set store
                (sb + (ss1 * c1) + (ss2 * c2) + (ss3 * c3))
                (ev body c1 c2 c3)
            done
          done
        done;
      Some { blocked_loops = (if did_block then 1 else 0) }
    with Fallback -> None
