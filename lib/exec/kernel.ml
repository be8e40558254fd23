open F90d_base
open F90d_dist
open F90d_runtime
open F90d_frontend
open F90d_ir
module Stats = F90d_machine.Stats

(* [plan] rejects a FORALL for good; [execute] hands one nest back to the
   interpreter, for a named reason. *)
exception Ineligible
exception Decline of Stats.kernel_fallback

(* Linear form over the loop counters: value = base + sum coefs.(k)*c_k.
   Built by folding terms into a fresh form in place. *)
type lin = { mutable base : int; coefs : int array }

let zero_lin nvars = { base = 0; coefs = Array.make nvars 0 }

(* The value of a scalar slot nothing has assigned yet, told apart by
   physical identity. *)
let unset = Scalar.Str "<unset>"

(* A scalar a plan reads: its slot, and the PARAMETER value an unassigned
   slot stands for. *)
type scalar = { slot : int; param : Scalar.t option }

let read_scalar scalars s =
  let x = scalars.(s.slot) in
  if x != unset then Some x else s.param

(* An affine subscript with its names resolved: FORALL variables by their
   position in the nest, scalars by slot.  [-a] is [-1 * a]; a product's
   counter-free factor comes first. *)
type aff = Aint of int | Avar of int | Ascal of scalar | Aadd of aff * aff | Amul of aff * aff

(* The value of a counter-free form from the current scalars. *)
let rec const_of ~scalars = function
  | Aint n -> n
  | Avar _ -> Diag.bug "kernel: loop counter in a counter-free factor"
  | Ascal s -> (
      match read_scalar scalars s with
      | Some (Scalar.Int n) -> n
      | _ -> raise (Decline Stats.Scalar_kind))
  | Aadd (a, b) -> const_of ~scalars a + const_of ~scalars b
  | Amul (a, b) -> const_of ~scalars a * const_of ~scalars b

(* Add [m * a] into [l]: FORALL variables contribute their progressions
   [(first, step)] over the loop counters, scalars their current integer
   values. *)
let rec add_aff l ~progs ~scalars m = function
  | Avar k ->
      let g0, gs = progs.(k) in
      l.base <- l.base + (m * g0);
      l.coefs.(k) <- l.coefs.(k) + (m * gs)
  | Aadd (a, b) ->
      add_aff l ~progs ~scalars m a;
      add_aff l ~progs ~scalars m b
  | Amul (c, a) -> add_aff l ~progs ~scalars (m * const_of ~scalars c) a
  | (Aint _ | Ascal _) as c -> l.base <- l.base + (m * const_of ~scalars c)

(* Storage position (per dimension) through a layout, in place. *)
let through_layout layout ~flb p =
  match layout with
  | Layout.Prog { first; step; _ } ->
      p.base <- p.base - (flb + first);
      (* off this rank's progression: not in its storage *)
      if p.base mod step <> 0 || Array.exists (fun c -> c mod step <> 0) p.coefs then
        raise (Decline Stats.Out_of_bounds);
      p.base <- p.base / step;
      Array.iteri (fun k c -> p.coefs.(k) <- c / step) p.coefs
  | Layout.Explicit _ -> raise (Decline Stats.Explicit_layout)

(* The flat linear offset into [nd] of the positions [pos d] fills into a
   zeroed form for each of its first [dims] dimensions, checking that
   every reachable offset is inside the payload. *)
let flat_offset ~lens nd ~dims pos =
  let strides = Ndarray.strides nd in
  let nvars = Array.length lens in
  let flat = zero_lin nvars and p = zero_lin nvars in
  for d = 0 to dims - 1 do
    p.base <- 0;
    Array.fill p.coefs 0 nvars 0;
    pos d p;
    (* storage index space starts at lb; flat = (pos - lb) * stride *)
    flat.base <- flat.base + (strides.(d) * (p.base - nd.Ndarray.lb.(d)));
    for k = 0 to nvars - 1 do
      flat.coefs.(k) <- flat.coefs.(k) + (strides.(d) * p.coefs.(k))
    done
  done;
  (* corner check: linear => extrema at corner points *)
  let size = Ndarray.size nd in
  let rec corners k lo hi =
    if k >= nvars then begin
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
   ranks.  Names resolve to slots here: scalars to [Tscal] entries read
   once per execution (gauss's pivot changes each step), references to
   their array or temporary slot with their subscripts, whose flat affine
   offsets are re-derived every execution (layouts, scalar subscripts and
   the iteration space all change under the statement).  An
   INTEGER-kind subexpression is an int tree ([inode]), computed on ints
   as the interpreter computes it on [Scalar.Int]s: exact (wrapping at
   63 bits) where a float would round past 2^53. *)
type iop =
  | Iadd
  | Isub
  | Imul
  | Idiv  (* Fortran truncating division; a zero divisor declines the nest *)
  | Imod
  | Imodulo
  | Imin
  | Imax
  | Ipow  (* by a literal exponent, never negative *)
  | Irel of (int -> int -> bool)  (* a relational: 1 or 0 *)

type inode =
  | Iconst of int
  | Iscal of int  (* slot into the plan's scalar vector *)
  | Icounter of int
  | Iload of int  (* slot into the plan's reference vector *)
  | Iop of iop * inode * inode
  | Iun of (int -> int) * inode  (* negation, ABS *)
  | Isel of inode * inode * tnode  (* MERGE: mask (last) selects t or f *)

and tnode =
  | Tconst of float
  | Tscal of int  (* slot into the plan's scalar vector *)
  | Tload of int  (* slot into the plan's reference vector *)
  | Tint of inode  (* an INTEGER value widened to REAL, as [Scalar.to_real] *)
  | Tadd of tnode * tnode
  | Tsub of tnode * tnode
  | Tmul of tnode * tnode
  | Tdiv of tnode * tnode
  | Tfun1 of (float -> float) * tnode
  | Tfun2 of (float -> float -> float) * tnode * tnode
  | Tsel of tnode * tnode * tnode  (* MERGE: mask (last) selects t or f *)

(* A reference resolved by its access: the array slot and subscripts of a
   direct read, the temporary slot (and, for a box, the array whose
   layout the box follows) of a communicated one. *)
type operand =
  | Odirect of int * aff array
  | Obox of { temp : int; arr : int; dims : aff option array (* [None]: collapsed *) }
  | Oflat of int
  | Oglobal of int * aff array

(* A compiled expression: its operator tree, the operands its load
   slots read and the scalars its scalar slots read. *)
type 'n expr_plan = {
  x_template : 'n;
  x_refs : operand array;
  x_scalars : (scalar * Scalar.kind) array;
      (* per scalar slot: the kind the plan assumed; a value of another
         kind declines *)
}

type compiled = {
  p_rhs : tnode expr_plan;
  p_lhs : int;  (* the left-hand side's array slot *)
  p_lhs_reads : bool array;
      (* per rhs slot: a direct read of the left-hand-side array, which
         Lower's [f_snapshot = false] proves hazard-free *)
  p_store : aff array option;
      (* the left-hand side's subscripts; [None] for an even iteration
         partition, whose values go to a buffer in iteration order for
         the statement's write-back schedule *)
}

type plan = compiled option  (* [None]: ineligible *)

type scope = {
  env : Sema.unit_env;
  scalar_kind : string -> Scalar.kind option;
  scalar_slot : string -> int;
  array_slot : string -> int;
}

let make_var_index f =
  let var_names = List.map fst f.Ir.f_vars in
  fun v -> List.find_index (( = ) v) var_names

let subscripts (r : Ast.ref_) =
  List.map (function Ast.Elem e -> e | Ast.Range _ -> raise Ineligible) r.Ast.args

let scalar_ref sc v = { slot = sc.scalar_slot v; param = List.assoc_opt v sc.env.Sema.uparams }

(* A subscript of the shape [add_aff] handles, resolved; [None] for any
   other. *)
let aff_of sc ~var_index (e : Ast.expr) =
  let rec go (e : Ast.expr) =
    match e.Ast.e with
    | Ast.Int_lit n -> Aint n
    | Ast.Var v -> ( match var_index v with Some k -> Avar k | None -> Ascal (scalar_ref sc v))
    | Ast.Un (Ast.Neg, a) -> Amul (Aint (-1), go a)
    | Ast.Bin (Ast.Add, a, b) -> Aadd (go a, go b)
    | Ast.Bin (Ast.Sub, a, b) -> Aadd (go a, Amul (Aint (-1), go b))
    | Ast.Bin (Ast.Mul, a, b) ->
        let counter_free e = List.for_all (fun v -> var_index v = None) (Ast.vars_of e) in
        if counter_free a then Amul (go a, go b)
        else if counter_free b then Amul (go b, go a)
        else raise Exit
    | _ -> raise Exit
  in
  try Some (go e) with Exit -> None

(* Dynamic result kind, mirroring Scalar's value dispatch: Ki means the
   interpreter would compute this subexpression on Ints, so division
   must truncate.  MIN/MAX return one of their original operands, so a
   mixed-kind MIN is Int or Real depending on runtime values (Kmix) — a
   division involving Kmix cannot be compiled to either form.  Scalar
   kinds come from declarations; execution checks each scalar's value
   against the kind assumed here. *)
let kind_of ~env ~scalar_kind ~var_index =
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
        (* Int ** negative Int is Real: Ki ** Ki is value-dependent unless
           the exponent is a literal *)
        match (kind_of a, kind_of b, b.Ast.e) with
        | `Kr, _, _ | _, `Kr, _ -> `Kr
        | `Ki, `Ki, Ast.Int_lit n when n >= 0 -> `Ki
        | _ -> `Kmix)
    | Ast.Bin (_, _, _) -> `Kmix
    | Ast.Ref r -> (
        match Sema.array_spec env r.Ast.base with
        | Some spec -> if spec.Sema.skind = Ast.Integer then `Ki else `Kr
        | None -> (
            match r.Ast.base with
            | "INT" | "NINT" -> `Ki
            | "REAL" | "FLOAT" | "DBLE" | "SQRT" | "EXP" | "LOG" | "LOG10" | "SIN" | "COS"
            | "TAN" | "ASIN" | "ACOS" | "ATAN" | "ATAN2" | "SIGN" ->
                `Kr
            | "MERGE" -> (
                (* result is one of the first two args; the mask is logical *)
                match r.Ast.args with
                | [ Ast.Elem t; Ast.Elem f; _ ] -> join (kind_of t) (kind_of f)
                | _ -> `Kmix)
            | "ABS" | "MIN" | "MAX" | "MOD" | "MODULO" -> (
                let ks =
                  List.map (function Ast.Elem e -> kind_of e | Ast.Range _ -> `Kmix) r.Ast.args
                in
                match ks with [] -> `Kmix | k :: tl -> List.fold_left join k tl)
            | _ -> `Kmix))
  in
  kind_of

(* Compile an expression of a FORALL body into an operator tree over
   reference and scalar slots; raises [Ineligible] for anything the
   strips cannot reproduce bit for bit.  Every INTEGER-kind subexpression
   is an int tree ([icompile]); [root] picks the tree the whole
   expression compiles to. *)
let compile_plan sc ~(f : Ir.forall) root e =
  let env = sc.env and scalar_kind = sc.scalar_kind in
  let var_index = make_var_index f in
  let resolve e = match aff_of sc ~var_index e with Some a -> a | None -> raise Ineligible in
  let kind_of = kind_of ~env ~scalar_kind ~var_index in
  (* both tables newest first: slot [s] is entry [length - 1 - s] *)
  let refs = ref [] and scalars = ref [] in
  let slot (r : Ast.ref_) =
    refs :=
      (match List.assoc_opt r.Ast.rid f.Ir.f_access with
      | None | Some Ir.Acc_direct ->
          Odirect (sc.array_slot r.Ast.base, Array.of_list (List.map resolve (subscripts r)))
      | Some (Ir.Acc_global_temp { temp }) ->
          Oglobal (temp, Array.of_list (List.map resolve (subscripts r)))
      | Some (Ir.Acc_box { temp; dims }) ->
          let dims =
            Array.map (function Ir.By_sub e -> Some (resolve e) | Ir.Collapsed -> None) dims
          in
          Obox { temp; arr = sc.array_slot r.Ast.base; dims }
      | Some (Ir.Acc_flat { temp }) -> Oflat temp)
      :: !refs;
    List.length !refs - 1
  in
  let scalar v k =
    match List.assoc_opt v !scalars with
    | Some (s, _) -> s
    | None ->
        let s = List.length !scalars in
        scalars := (v, (s, (scalar_ref sc v, k))) :: !scalars;
        s
  in
  (* an elemental intrinsic, not an array of that name *)
  let intrinsic (r : Ast.ref_) =
    Intrinsic_names.is_elemental r.Ast.base && Sema.array_spec env r.Ast.base = None
  in
  (* the mask must compile to a relational (1./0.), never a plain
     numeric expression *)
  let relational = function
    | { Ast.e = Ast.Bin ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), _, _); _ } -> true
    | _ -> false
  in
  let rec compile (e : Ast.expr) =
    if kind_of e = `Ki then Tint (icompile e)
    else
      match e.Ast.e with
      | Ast.Real_lit v -> Tconst v
      | Ast.Var v -> (
          match scalar_kind v with
          | Some Scalar.Kreal -> Tscal (scalar v Scalar.Kreal)
          | _ -> raise Ineligible)
      | Ast.Un (Ast.Neg, a) -> Tfun1 (Float.neg, compile a)
      | Ast.Bin (op, a, b) -> (
          match (op, kind_of a, kind_of b) with
          | Ast.Add, _, _ -> bin (fun a b -> Tadd (a, b)) a b
          | Ast.Sub, _, _ -> bin (fun a b -> Tsub (a, b)) a b
          | Ast.Mul, _, _ -> bin (fun a b -> Tmul (a, b)) a b
          | Ast.Div, `Kr, _ | Ast.Div, _, `Kr -> bin (fun a b -> Tdiv (a, b)) a b
          | Ast.Pow, `Kr, _ | Ast.Pow, _, `Kr -> fun2 Float.pow a b
          | (Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), `Ki, `Ki ->
              Tint (ibin (Irel (rel op)) a b)
          | (Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), (`Ki | `Kr), (`Ki | `Kr) ->
              (* 1./0. encodes logical; [compare] mirrors Scalar.compare_num
                 on numeric values (total order: NaN and -0. included) *)
              let r = rel op in
              fun2 (fun (x : float) y -> if r (compare x y) 0 then 1. else 0.) a b
          | _ -> raise Ineligible)
      | Ast.Ref r when intrinsic r -> (
          let sargs = subscripts r in
          let args () = List.map compile sargs in
          match (r.Ast.base, sargs) with
          | "ABS", [ a ] -> Tfun1 (Float.abs, compile a)
          | "SQRT", [ a ] -> Tfun1 (Float.sqrt, compile a)
          | "EXP", [ a ] -> Tfun1 (Float.exp, compile a)
          | "LOG", [ a ] -> Tfun1 (Float.log, compile a)
          | "SIN", [ a ] -> Tfun1 (sin, compile a)
          | "COS", [ a ] -> Tfun1 (cos, compile a)
          (* compare-based, not Float.min/max: Scalar.min2/max2 order -0.
             and NaN by [compare], and return the first operand on ties *)
          | "MIN", [ a; b ] ->
              fun2 (fun (x : float) y -> if compare x y <= 0 then x else y) a b
          | "MAX", [ a; b ] ->
              fun2 (fun (x : float) y -> if compare x y >= 0 then x else y) a b
          | "MOD", [ a; b ] when List.for_all (fun x -> kind_of x <> `Kmix) sargs ->
              fun2 Float.rem a b
          | "MERGE", [ _; _; m ] when relational m -> (
              match args () with [ t; f; m ] -> Tsel (t, f, m) | _ -> raise Ineligible)
          | ("REAL" | "FLOAT" | "DBLE"), [ a ] -> compile a
          | _ -> raise Ineligible)
      | Ast.Ref r -> (
          match Sema.array_spec env r.Ast.base with
          | Some spec when spec.Sema.skind = Ast.Real -> Tload (slot r)
          | _ -> raise Ineligible)
      | _ -> raise Ineligible
  and icompile (e : Ast.expr) =
    match e.Ast.e with
    | Ast.Int_lit n -> Iconst n
    | Ast.Var v -> (
        match var_index v with
        | Some k -> Icounter k
        | None -> (
            match scalar_kind v with
            | Some Scalar.Kint -> Iscal (scalar v Scalar.Kint)
            | _ -> raise Ineligible))
    | Ast.Un (Ast.Neg, a) -> Iun (( ~- ), icompile a)
    | Ast.Bin (op, a, b) ->
        let op =
          match op with
          | Ast.Add -> Iadd
          | Ast.Sub -> Isub
          | Ast.Mul -> Imul
          | Ast.Div -> Idiv
          | Ast.Pow -> Ipow
          | _ -> raise Ineligible
        in
        ibin op a b
    | Ast.Ref r when intrinsic r -> (
        match (r.Ast.base, subscripts r) with
        | "ABS", [ a ] -> Iun (abs, icompile a)
        | "MIN", [ a; b ] -> ibin Imin a b
        | "MAX", [ a; b ] -> ibin Imax a b
        | "MOD", [ a; b ] -> ibin Imod a b
        | "MODULO", [ a; b ] -> ibin Imodulo a b
        | "MERGE", [ t; f; m ] when relational m ->
            let t = icompile t in
            let f = icompile f in
            Isel (t, f, compile m)
        | _ -> raise Ineligible)
    | Ast.Ref r -> (
        match Sema.array_spec env r.Ast.base with
        | Some spec when spec.Sema.skind = Ast.Integer -> Iload (slot r)
        | _ -> raise Ineligible)
    | _ -> raise Ineligible
  (* operands compile left to right: slots are numbered in source order *)
  and bin node a b =
    let a = compile a in
    node a (compile b)
  and fun2 f a b = bin (fun a b -> Tfun2 (f, a, b)) a b
  and ibin op a b =
    let a = icompile a in
    Iop (op, a, icompile b)
  and rel op =
    match op with
    | Ast.Eq -> ( = )
    | Ast.Ne -> ( <> )
    | Ast.Lt -> ( < )
    | Ast.Le -> ( <= )
    | Ast.Gt -> ( > )
    | _ -> ( >= )
  in
  let template = root compile icompile e in
  {
    x_template = template;
    x_refs = Array.of_list (List.rev !refs);
    x_scalars = Array.of_list (List.rev_map (fun (_, (_, sk)) -> sk) !scalars);
  }

let plan sc ~(f : Ir.forall) =
  let env = sc.env in
  try
    (* A snapshot or a mask is the interpreter's.  [f_snapshot = false]
       is Lower's guarantee that every direct read of the lhs array is its
       identity subscript or provably separated from every write, so the
       nest's iterations are independent and may run in any order.  An
       even iteration partition (the only one with a write-back phase)
       computes into a value buffer, so only its REAL stores compile. *)
    if f.Ir.f_mask <> None || f.Ir.f_snapshot then raise Ineligible;
    let scatter =
      match f.Ir.f_iter with
      | Ir.It_even -> (
          match Sema.array_spec env f.Ir.f_lhs.Ast.base with
          | Some spec when spec.Sema.skind = Ast.Real -> true
          | _ -> raise Ineligible)
      | Ir.It_canonical _ | Ir.It_replicated -> false
    in
    let nvars = List.length f.Ir.f_vars in
    if nvars = 0 || nvars > 3 then raise Ineligible;
    let var_index = make_var_index f in
    let store =
      if scatter then None
      else
        Some
          (Array.of_list
             (List.map
                (fun e -> match aff_of sc ~var_index e with Some a -> a | None -> raise Ineligible)
                (subscripts f.Ir.f_lhs)))
    in
    let rhs = compile_plan sc ~f (fun compile _ -> compile) f.Ir.f_rhs in
    let lhs = sc.array_slot f.Ir.f_lhs.Ast.base in
    Some
      {
        p_rhs = rhs;
        p_lhs = lhs;
        p_lhs_reads = Array.map (function Odirect (k, _) -> k = lhs | _ -> false) rhs.x_refs;
        p_store = store;
      }
  with Ineligible -> None

(* How the inspector evaluates one subscript of a reference, decided once
   per run: an affine form in the FORALL variables, an integer-valued
   expression run as strips over the iteration space, or the
   interpreter. *)
type index_plan =
  | Xaffine of int * aff  (* with the number of FORALL variables *)
  | Xstrips of inode expr_plan
  | Xinterp

let plan_index sc ~(f : Ir.forall) e =
  let var_index = make_var_index f in
  let nvars = List.length f.Ir.f_vars in
  match aff_of sc ~var_index e with
  | Some a -> Xaffine (nvars, a)
  | None ->
      let kind = kind_of ~env:sc.env ~scalar_kind:sc.scalar_kind ~var_index e in
      if nvars >= 1 && nvars <= 3 && kind = `Ki then
        try Xstrips (compile_plan sc ~f (fun _ icompile -> icompile) e) with Ineligible -> Xinterp
      else Xinterp

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

(* Strided windows over raw float or int arrays: the unit of
   evaluation.  A load is a zero-copy view; every other node evaluates
   its operands and then runs one tight loop into a pooled buffer.  Per
   element, the operations and their order are those of the
   interpreter's [Scalar] arithmetic, so results are bit-identical to
   it. *)
type strip = { sa : float array; so : int; st : int }
type istrip = { ia : int array; io : int; ist : int }

(* One execution's resolved operands, and the strip being evaluated:
   [cs] carries the fixed outer counter values with [cs.(k) = 0]; the
   strip counter [k] sweeps [0, len).  Float and int buffers come from
   separate pools, both indexed by depth. *)
type env = {
  slots : (Ndarray.t * lin) array;
  svals : float array;
  ivals : int array;
  progs : (int * int) array;
  cs : int array;
  k : int;
  len : int;
  pool : float array array ref;
  ipool : int array array ref;
}

let get_buf pool depth len zero =
  if Array.length !pool <= depth then begin
    let np = Array.make (depth + 4) [||] in
    Array.blit !pool 0 np 0 (Array.length !pool);
    pool := np
  end;
  if Array.length !pool.(depth) < len then !pool.(depth) <- Array.make len zero;
  !pool.(depth)

let scalar_strip env depth v =
  let b = get_buf env.pool depth 1 0. in
  b.(0) <- v;
  { sa = b; so = 0; st = 0 }

(* The offset of a load at the strip's first element. *)
let load_off env l =
  let cs = env.cs in
  l.base + (l.coefs.(0) * cs.(0)) + (l.coefs.(1) * cs.(1)) + (l.coefs.(2) * cs.(2))

(* Operand [i] of a node at [depth] evaluates at [depth + i]: a later
   operand's subtree never reaches the buffers of earlier results. *)
let rec strip_eval env depth n =
  let len = env.len in
  match n with
  | Tconst v -> scalar_strip env depth v
  | Tscal s -> { sa = env.svals; so = s; st = 0 }
  | Tload s -> (
      let nd, l = env.slots.(s) in
      match nd.Ndarray.data with
      | Ndarray.Reals d -> { sa = d; so = load_off env l; st = l.coefs.(env.k) }
      | _ -> assert false (* [plan] loads INTEGER operands as ints, and no LOGICAL one *))
  | Tint i ->
      let si = istrip_eval env (depth + 1) i in
      let ia = si.ia and io = si.io and ist = si.ist in
      if ist = 0 then scalar_strip env depth (float_of_int ia.(io))
      else begin
        let out = get_buf env.pool depth len 0. in
        for i = 0 to len - 1 do
          Array.unsafe_set out i (float_of_int (Array.unsafe_get ia (io + (ist * i))))
        done;
        { sa = out; so = 0; st = 1 }
      end
  | Tadd (a, b) -> strip_bin env depth `Add a b
  | Tsub (a, b) -> strip_bin env depth `Sub a b
  | Tmul (a, b) -> strip_bin env depth `Mul a b
  | Tdiv (a, b) -> strip_bin env depth `Div a b
  | Tfun1 (f, a) ->
      let sa = strip_eval env (depth + 1) a in
      let out = get_buf env.pool depth len 0. in
      let aa = sa.sa and ao = sa.so and astr = sa.st in
      for i = 0 to len - 1 do
        Array.unsafe_set out i (f (Array.unsafe_get aa (ao + (astr * i))))
      done;
      { sa = out; so = 0; st = 1 }
  | Tfun2 (f, a, b) ->
      let sa = strip_eval env (depth + 1) a in
      let sb = strip_eval env (depth + 2) b in
      let out = get_buf env.pool depth len 0. in
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
      let out = get_buf env.pool depth len 0. in
      for i = 0 to len - 1 do
        Array.unsafe_set out i
          (if Array.unsafe_get sm.sa (sm.so + (sm.st * i)) <> 0. then
             Array.unsafe_get st_.sa (st_.so + (st_.st * i))
           else Array.unsafe_get sf.sa (sf.so + (sf.st * i)))
      done;
      { sa = out; so = 0; st = 1 }

and istrip_eval env depth n =
  let len = env.len in
  match n with
  | Iconst v -> { ia = [| v |]; io = 0; ist = 0 }
  | Iscal s -> { ia = env.ivals; io = s; ist = 0 }
  | Icounter j ->
      let g0, gs = env.progs.(j) in
      if j <> env.k then { ia = [| g0 + (gs * env.cs.(j)) |]; io = 0; ist = 0 }
      else begin
        let out = get_buf env.ipool depth len 0 in
        for i = 0 to len - 1 do
          Array.unsafe_set out i (g0 + (gs * i))
        done;
        { ia = out; io = 0; ist = 1 }
      end
  | Iload s -> (
      let nd, l = env.slots.(s) in
      match nd.Ndarray.data with
      | Ndarray.Ints d -> { ia = d; io = load_off env l; ist = l.coefs.(env.k) }
      | _ -> assert false (* [plan] loads only INTEGER operands as ints *))
  | Iop (op, a, b) ->
      let sa = istrip_eval env (depth + 1) a in
      let sb = istrip_eval env (depth + 2) b in
      let out = get_buf env.ipool depth len 0 in
      let aa = sa.ia and ao = sa.io and astr = sa.ist in
      let ba = sb.ia and bo = sb.io and bstr = sb.ist in
      let each f =
        for i = 0 to len - 1 do
          Array.unsafe_set out i
            (f (Array.unsafe_get aa (ao + (astr * i))) (Array.unsafe_get ba (bo + (bstr * i))))
        done
      in
      let divide f =
        for i = 0 to len - 1 do
          let y = Array.unsafe_get ba (bo + (bstr * i)) in
          if y = 0 then raise (Decline Stats.Zero_divisor);
          Array.unsafe_set out i (f (Array.unsafe_get aa (ao + (astr * i))) y)
        done
      in
      (match op with
      | Iadd -> each ( + )
      | Isub -> each ( - )
      | Imul -> each ( * )
      | Idiv -> divide ( / )
      | Imod -> divide ( mod )
      | Imodulo -> divide Util.modulo
      | Imin -> each min
      | Imax -> each max
      | Ipow -> each (fun x y -> Scalar.to_int (Scalar.pow (Scalar.Int x) (Scalar.Int y)))
      | Irel r -> each (fun x y -> if r x y then 1 else 0));
      { ia = out; io = 0; ist = 1 }
  | Iun (f, a) ->
      let sa = istrip_eval env (depth + 1) a in
      let out = get_buf env.ipool depth len 0 in
      let aa = sa.ia and ao = sa.io and astr = sa.ist in
      for i = 0 to len - 1 do
        Array.unsafe_set out i (f (Array.unsafe_get aa (ao + (astr * i))))
      done;
      { ia = out; io = 0; ist = 1 }
  | Isel (t, f, m) ->
      (* MERGE evaluates both values, as the interpreter does *)
      let st_ = istrip_eval env (depth + 1) t in
      let sf = istrip_eval env (depth + 2) f in
      let sm = strip_eval env (depth + 3) m in
      let out = get_buf env.ipool depth len 0 in
      for i = 0 to len - 1 do
        Array.unsafe_set out i
          (if Array.unsafe_get sm.sa (sm.so + (sm.st * i)) <> 0. then
             Array.unsafe_get st_.ia (st_.io + (st_.ist * i))
           else Array.unsafe_get sf.ia (sf.io + (sf.ist * i)))
      done;
      { ia = out; io = 0; ist = 1 }

and strip_bin env depth op a b =
  let len = env.len in
  let sa = strip_eval env (depth + 1) a in
  let sb = strip_eval env (depth + 2) b in
  let out = get_buf env.pool depth len 0. in
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

(* The nest as row strips into a store with flat offsets [sflat]: the
   strip counter is interchanged to the store's unit-stride dimension
   when one exists, and the outer two counters, returned with the
   strip's environment, keep their nest order. *)
let strips ~slots ~svals ~ivals ~progs ~(sflat : lin) ~lens =
  let candidates = List.filter (fun k -> lens.(k) > 1) [ 0; 1; 2 ] in
  let k =
    match List.find_opt (fun k -> abs sflat.coefs.(k) = 1) candidates with
    | Some k -> k
    | None -> ( match List.rev candidates with k :: _ -> k | [] -> 2)
  in
  let o1, o2 = match List.filter (fun j -> j <> k) [ 0; 1; 2 ] with [ a; b ] -> (a, b) | _ -> assert false in
  let cs = [| 0; 0; 0 |] in
  ({ slots; svals; ivals; progs; cs; k; len = lens.(k); pool = ref [||]; ipool = ref [||] }, o1, o2)

(* Run the nest into [store].  Any order is legal: the store map is
   injective and every read of the store's storage is a direct read of
   the lhs array, which Lower proved to be the identity subscript or
   separated from every write. *)
let exec_strips ~slots ~svals ~ivals ~progs ~store ~(sflat : lin) ~lens body =
  let env, o1, o2 = strips ~slots ~svals ~ivals ~progs ~sflat ~lens in
  let ss = sflat.coefs and sb = sflat.base and cs = env.cs and len = env.len in
  let ssk = ss.(env.k) in
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

(* One execution's view of the nest: per-counter lengths and
   progressions padded to three counters, and the flat linear offset of
   an operand.  Raises [Decline] when an iteration set is an index
   vector; [flat_of_ref] raises it for an operand it cannot resolve. *)
type nest = {
  lens : int array;
  progs : (int * int) array;
  flat_of_ref : operand -> Ndarray.t * lin;
}

(* [m] times the iteration counter in nest order, as a linear form. *)
let counter_lin ~lens m =
  let l = zero_lin (Array.length lens) in
  let weight = ref m in
  for k = Array.length lens - 1 downto 0 do
    l.coefs.(k) <- !weight;
    weight := !weight * lens.(k)
  done;
  l

let nest ~me ~(arrays : Darray.t array) ~scalars ~temps ~space =
  let lens = Array.make 3 1 in
  let progs = Array.make 3 (0, 0) in
  List.iteri
    (fun k -> function
      | Layout.Prog { first; step; count } ->
          lens.(k) <- count;
          (* one iteration has no step, so it never fails a layout's
             division *)
          progs.(k) <- (first, if count >= 2 then step else 0)
      | Layout.Explicit _ -> raise (Decline Stats.Explicit_layout))
    space;
  let add_aff p a = add_aff p ~progs ~scalars 1 a in
  let temp t = match temps.(t) with Some nd -> nd | None -> raise (Decline Stats.Missing_temp) in
  let positioned dad d a p =
    add_aff p a;
    through_layout (Dad.layout_at dad ~dim:d ~rank:me) ~flb:(Dad.dims dad).(d).Dad.flb p
  in
  let flat_of_ref op =
    match op with
    | Odirect (k, subs) ->
        let darr = arrays.(k) in
        let nd = darr.Darray.local in
        ( nd,
          flat_offset ~lens nd ~dims:(Array.length subs) (fun d ->
              positioned darr.Darray.dad d subs.(d)) )
    | Obox { temp = t; arr; dims } ->
        let nd = temp t in
        let dad = arrays.(arr).Darray.dad in
        ( nd,
          flat_offset ~lens nd ~dims:(Array.length dims) (fun d p ->
              (match dims.(d) with None -> () | Some a -> positioned dad d a p);
              (* temporaries have lower bound 1 *)
              p.base <- p.base + 1) )
    | Oflat t ->
        let nd = temp t in
        let counter = counter_lin ~lens 1 in
        ( nd,
          flat_offset ~lens nd ~dims:1 (fun _ p ->
              Array.blit counter.coefs 0 p.coefs 0 (Array.length lens);
              p.base <- 1) )
    | Oglobal (t, subs) ->
        let nd = temp t in
        (nd, flat_offset ~lens nd ~dims:(Array.length subs) (fun d p -> add_aff p subs.(d)))
  in
  { lens; progs; flat_of_ref }

(* The plan's scalar slots, REAL ones in the first vector and INTEGER
   ones in the second. *)
let scalar_values x ~scalars =
  let n = Array.length x.x_scalars in
  let svals = Array.make n 0. and ivals = Array.make n 0 in
  Array.iteri
    (fun i (s, k) ->
      match (k, read_scalar scalars s) with
      | Scalar.Kint, Some (Scalar.Int n) -> ivals.(i) <- n
      | Scalar.Kreal, Some (Scalar.Real r) -> svals.(i) <- r
      | _ -> raise (Decline Stats.Scalar_kind))
    x.x_scalars;
  (svals, ivals)

type stored = Stored | Scattered of Ndarray.t

(* Resolve the slots and scalars against this execution's values, then
   run the nest; raises [Decline] before any store for every reason but a
   zero divisor. *)
let run_nest (p : compiled) ~me ~arrays ~scalars ~temps ~space =
  let n = nest ~me ~arrays ~scalars ~temps ~space in
  let lhs_darr = arrays.(p.p_lhs) in
  match p.p_store with
  | None ->
      (* the write-back phase sends value [i] to the [i]th entry of the
         statement's write list: one entry per copy of each element *)
      let copies = Dad.copies lhs_darr.Darray.dad in
      let points = n.lens.(0) * n.lens.(1) * n.lens.(2) in
      let svals, ivals = scalar_values p.p_rhs ~scalars in
      let slots = Array.map n.flat_of_ref p.p_rhs.x_refs in
      let buf = Array.make (points * copies) 0. in
      exec_strips ~slots ~svals ~ivals ~progs:n.progs ~store:buf
        ~sflat:(counter_lin ~lens:n.lens copies)
        ~lens:n.lens p.p_rhs.x_template;
      for i = 0 to points - 1 do
        for j = 1 to copies - 1 do
          buf.((i * copies) + j) <- buf.(i * copies)
        done
      done;
      Scattered (Ndarray.of_reals [| points * copies |] buf)
  | Some subs ->
      let store =
        match lhs_darr.Darray.local.Ndarray.data with
        | Ndarray.Reals d -> d
        | _ -> raise (Decline Stats.Int_store)
      in
      let svals, ivals = scalar_values p.p_rhs ~scalars in
      let slots = Array.map n.flat_of_ref p.p_rhs.x_refs in
      let _, sflat = n.flat_of_ref (Odirect (p.p_lhs, subs)) in
      if not (store_injective ~lens:n.lens sflat) then raise (Decline Stats.Not_injective);
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
      exec_strips ~slots ~svals ~ivals ~progs:n.progs ~store ~sflat ~lens:n.lens
        p.p_rhs.x_template;
      Stored

let execute (p : plan) ~me ~arrays ~scalars ~temps ~space =
  Option.map
    (fun p ->
      match run_nest p ~me ~arrays ~scalars ~temps ~space with
      | out -> Ok out
      | exception Decline why -> Error why)
    p

type index = Iaffine of lin | Ivalues of int array | Iinterp

let index (x : index_plan) ~me ~arrays ~scalars ~temps ~space =
  match (x, space) with
  | Xinterp, _ -> Iinterp
  | Xaffine (nvars, a), _ -> (
      (* coefficients on the variables' values, not on loop counters *)
      let l = zero_lin nvars in
      try
        add_aff l ~progs:(Array.make nvars (0, 1)) ~scalars 1 a;
        Iaffine l
      with Decline _ -> Iinterp)
  | Xstrips _, None -> Iinterp
  | Xstrips _, Some space when List.exists (fun l -> Layout.count l = 0) space -> Ivalues [||]
  | Xstrips xp, Some space -> (
      try
        let n = nest ~me ~arrays ~scalars ~temps ~space in
        let svals, ivals = scalar_values xp ~scalars in
        let slots = Array.map n.flat_of_ref xp.x_refs in
        let lens = n.lens in
        let buf = Array.make (lens.(0) * lens.(1) * lens.(2)) 0 in
        let sflat = counter_lin ~lens 1 in
        let env, o1, o2 = strips ~slots ~svals ~ivals ~progs:n.progs ~sflat ~lens in
        let ss = sflat.coefs and cs = env.cs in
        for a = 0 to lens.(o1) - 1 do
          cs.(o1) <- a;
          for b = 0 to lens.(o2) - 1 do
            cs.(o2) <- b;
            let sbase = (ss.(0) * cs.(0)) + (ss.(1) * cs.(1)) + (ss.(2) * cs.(2)) in
            let r = istrip_eval env 0 xp.x_template in
            for i = 0 to env.len - 1 do
              buf.(sbase + (ss.(env.k) * i)) <- r.ia.(r.io + (r.ist * i))
            done
          done
        done;
        Ivalues buf
      with Decline _ -> Iinterp)
