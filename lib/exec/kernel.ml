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
   Built in place. *)
type lin = { mutable base : int; coefs : int array }

let zero_lin nvars = { base = 0; coefs = Array.make nvars 0 }

(* The value of a scalar slot nothing has assigned yet, told apart by
   physical identity. *)
let unset = Scalar.Str "<unset>"

(* A scalar a plan reads: its slot, and the PARAMETER value an unassigned
   slot stands for. *)
type scalar = { slot : int; param : Scalar.t option }

(* A scalar's current value: an unassigned slot reads as its PARAMETER,
   and as [unset] without one. *)
let scalar_value scalars s =
  let x = scalars.(s.slot) in
  if x != unset then x else match s.param with Some p -> p | None -> unset

(* An affine subscript with its names resolved and its products
   distributed over its sums, decided once per run: the sum of its
   terms, each [tc] times the product of the scalars [tscal] times
   FORALL variable [tvar] (1 when [tvar < 0]).  Wrapping integer
   arithmetic is a ring, so the sum is the subscript's value exactly, and
   every scalar the subscript reads is in some term, so a non-INTEGER one
   still declines. *)
type term = { tc : int; tscal : scalar array; tvar : int }
type aff = term array

(* [t]'s coefficient from the current scalars. *)
let term_value scalars t =
  let v = ref t.tc in
  for j = 0 to Array.length t.tscal - 1 do
    match scalar_value scalars t.tscal.(j) with
    | Scalar.Int n -> v := !v * n
    | _ -> raise (Decline Stats.Scalar_kind)
  done;
  !v

(* Add subscript [a] into [p]: FORALL variable [k] contributes its
   progression [g0.(k) + gs.(k) * c_k] over loop counter [k]. *)
let add_aff p (a : aff) ~g0 ~gs ~scalars =
  for i = 0 to Array.length a - 1 do
    let t = a.(i) in
    let v = term_value scalars t and k = t.tvar in
    if k < 0 then p.base <- p.base + v
    else begin
      p.base <- p.base + (v * g0.(k));
      p.coefs.(k) <- p.coefs.(k) + (v * gs.(k))
    end
  done

(* Storage position (per dimension) through a layout, in place. *)
let through_layout layout ~flb p =
  match layout with
  | Layout.Prog { first; step; _ } ->
      p.base <- p.base - (flb + first);
      if step <> 1 then begin
        let c = p.coefs in
        (* off this rank's progression: not in its storage *)
        if
          p.base mod step <> 0 || c.(0) mod step <> 0 || c.(1) mod step <> 0
          || c.(2) mod step <> 0
        then raise (Decline Stats.Out_of_bounds);
        p.base <- p.base / step;
        c.(0) <- c.(0) / step;
        c.(1) <- c.(1) / step;
        c.(2) <- c.(2) / step
      end
  | Layout.Explicit _ -> raise (Decline Stats.Explicit_layout)

let clear_lin l =
  l.base <- 0;
  l.coefs.(0) <- 0;
  l.coefs.(1) <- 0;
  l.coefs.(2) <- 0

(* ------------------------------------------------------------------ *)
(* Plans: the structure-only half of specialization                    *)
(* ------------------------------------------------------------------ *)

(* Everything about a FORALL that does not depend on run-time values —
   eligibility, the operator tree, which references feed which leaves,
   integer-vs-real division — is decided once per run and shared by all
   ranks.  Names resolve to slots here: scalars to [Tscal] entries read
   once per execution (gauss's pivot changes each step), references to
   their array or temporary slot with their subscripts flattened into
   terms, whose flat affine offsets are resolved into the plan's
   workspace every execution (layouts, scalar subscripts and the
   iteration space all change under the statement).  An
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

(* One dimension of a reference, resolved: its subscript (no terms for a
   collapsed box dimension), whether the position goes through the
   layout of the reference's array along that dimension, and a constant
   added after it (temporaries have lower bound 1). *)
type fdim = { sub : aff; through : bool; off : int }

(* A reference resolved by its access: the local section of array [arr]
   for a direct read ([temp < 0]), else temporary [temp], positioned
   through the layouts of [arr] (for a box) or of nothing ([arr < 0]).  A
   flat temporary is read in iteration order ([in_order]). *)
type operand = { temp : int; arr : int; dims : fdim array; in_order : bool }

let direct k subs =
  { temp = -1; arr = k; dims = Array.map (fun sub -> { sub; through = true; off = 0 }) subs;
    in_order = false }

(* Fused multiply-update: gauss's rank-1 body A = A - L*U (and the +
   variants) reads the store at the identity offset, so the whole row is
   one in-place pass with no intermediate buffer.  The shape is the
   plan's; whether load [s] is the store's identity is each
   execution's. *)
type fmu =
  | Fsub of int * tnode * tnode  (* store <- store -. x*y *)
  | Fadd_r of int * tnode * tnode  (* store <- store +. x*y *)
  | Fadd_l of int * tnode * tnode  (* store <- x*y +. store *)
  | Fnone

let fmu_of = function
  | Tsub (Tload s, Tmul (x, y)) -> Fsub (s, x, y)
  | Tadd (Tload s, Tmul (x, y)) -> Fadd_r (s, x, y)
  | Tadd (Tmul (x, y), Tload s) -> Fadd_l (s, x, y)
  | _ -> Fnone

(* One plan's storage for its executions, allocated with the plan once
   per run: the nest's lengths and progressions, each operand's storage
   and flat offset, the store's offset, a per-dimension scratch form, the
   scalar vectors and the strip state with its buffer pools.  An
   execution overwrites all of it before reading it, and drops its
   references to arrays and temporaries before it returns.  Sharing it
   between the run's ranks is safe because a kernel call never suspends
   and one domain runs every fiber of a run, so no two calls interleave;
   a workspace is never shared between runs. *)
type work = {
  lens : int array;
  g0 : int array;
  gs : int array;  (* counter [k] runs over [g0.(k) + gs.(k) * c_k] *)
  pos : lin;
  nds : Ndarray.t array;
  lins : lin array;
  sflat : lin;
  svals : float array;
  ivals : int array;
  cs : int array;
      (* the fixed outer counter values, [cs.(k) = 0]; the strip counter
         [k] sweeps [0, len) *)
  mutable k : int;
  mutable len : int;
  mutable o1 : int;
  mutable o2 : int;  (* the outer counters, in nest order *)
  pool : float array array ref;
  ipool : int array array ref;  (* strip buffers by depth *)
}

(* What an operand slot holds between calls: an empty payload. *)
let no_nd = Ndarray.of_reals [| 0 |] [||]

let work ~nrefs ~nscalars =
  { lens = Array.make 3 1; g0 = Array.make 3 0; gs = Array.make 3 0; pos = zero_lin 3;
    nds = Array.make nrefs no_nd; lins = Array.init nrefs (fun _ -> zero_lin 3);
    sflat = zero_lin 3; svals = Array.make nscalars 0.; ivals = Array.make nscalars 0;
    cs = Array.make 3 0; k = 2; len = 0; o1 = 0; o2 = 1; pool = ref [||]; ipool = ref [||] }

(* A compiled expression: its operator tree, the operands its load
   slots read and the scalars its scalar slots read. *)
type 'n expr_plan = {
  x_template : 'n;
  x_refs : operand array;
  x_scalars : (scalar * Scalar.kind) array;
      (* per scalar slot: the kind the plan assumed; a value of another
         kind declines *)
  x_work : work;
}

(* What a nest stores, by the declared kinds of its two sides: a REAL
   left-hand side takes the float tree; an INTEGER one takes the int
   tree of an INTEGER right-hand side, or a REAL one truncated by
   [int_of_float], as [Scalar.to_int] stores it. *)
type body = Breal of tnode | Bint of inode | Btrunc of tnode

type compiled = {
  p_rhs : body expr_plan;
  p_fmu : fmu;
  p_lhs : int;  (* the left-hand side's array slot *)
  p_lhs_reads : bool array;
      (* per rhs slot: a direct read of the left-hand-side array, which
         Lower's [f_snapshot = false] proves hazard-free *)
  p_store : operand option;
      (* the left-hand side, a direct reference; [None] for an even
         iteration partition, whose values go to a buffer in iteration
         order for the statement's write-back schedule *)
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

(* The most terms a resolved subscript may have: distributing products
   over sums multiplies their term counts. *)
let max_terms = 64

(* A subscript of the shape [add_aff] handles, resolved; [None] for any
   other.  A product's counter-free factor comes first. *)
let aff_of sc ~var_index (e : Ast.expr) =
  let term ?(tscal = [||]) ?(tvar = -1) tc = { tc; tscal; tvar } in
  let sum a b = if List.length a + List.length b > max_terms then raise Exit else a @ b in
  let mul cs xs =
    if List.length cs * List.length xs > max_terms then raise Exit;
    List.concat_map
      (fun c ->
        List.map (fun x -> term ~tscal:(Array.append c.tscal x.tscal) ~tvar:x.tvar (c.tc * x.tc)) xs)
      cs
  in
  let rec go (e : Ast.expr) =
    match e.Ast.e with
    | Ast.Int_lit n -> [ term n ]
    | Ast.Var v -> (
        match var_index v with
        | Some k -> [ term ~tvar:k 1 ]
        | None -> [ term ~tscal:[| scalar_ref sc v |] 1 ])
    | Ast.Un (Ast.Neg, a) -> mul [ term (-1) ] (go a)
    | Ast.Bin (Ast.Add, a, b) -> sum (go a) (go b)
    | Ast.Bin (Ast.Sub, a, b) -> sum (go a) (mul [ term (-1) ] (go b))
    | Ast.Bin (Ast.Mul, a, b) ->
        let counter_free e = List.for_all (fun v -> var_index v = None) (Ast.vars_of e) in
        if counter_free a then mul (go a) (go b)
        else if counter_free b then mul (go b) (go a)
        else raise Exit
    | _ -> raise Exit
  in
  try Some (Array.of_list (go e)) with Exit -> None

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
          direct (sc.array_slot r.Ast.base) (Array.of_list (List.map resolve (subscripts r)))
      | Some (Ir.Acc_global_temp { temp }) ->
          let dims =
            List.map (fun e -> { sub = resolve e; through = false; off = 0 }) (subscripts r)
          in
          { temp; arr = -1; dims = Array.of_list dims; in_order = false }
      | Some (Ir.Acc_box { temp; dims }) ->
          let dims =
            Array.map
              (function
                | Ir.By_sub e -> { sub = resolve e; through = true; off = 1 }
                | Ir.Collapsed -> { sub = [||]; through = false; off = 1 })
              dims
          in
          { temp; arr = sc.array_slot r.Ast.base; dims; in_order = false }
      | Some (Ir.Acc_flat { temp }) ->
          { temp; arr = -1; dims = [| { sub = [||]; through = false; off = 1 } |]; in_order = true })
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
  let x_refs = Array.of_list (List.rev !refs) in
  let x_scalars = Array.of_list (List.rev_map (fun (_, (_, sk)) -> sk) !scalars) in
  { x_template = template; x_refs; x_scalars;
    x_work = work ~nrefs:(Array.length x_refs) ~nscalars:(Array.length x_scalars) }

let plan sc ~(f : Ir.forall) =
  let env = sc.env in
  try
    (* A snapshot or a mask is the interpreter's.  [f_snapshot = false]
       is Lower's guarantee that every direct read of the lhs array is its
       identity subscript or provably separated from every write, so the
       nest's iterations are independent and may run in any order.  An
       even iteration partition (the only one with a write-back phase)
       computes into a value buffer of the left-hand side's kind.  A
       LOGICAL store, and an INTEGER one whose value may be of either
       kind, are the interpreter's. *)
    if f.Ir.f_mask <> None || f.Ir.f_snapshot then raise Ineligible;
    let scatter =
      match f.Ir.f_iter with
      | Ir.It_even -> true
      | Ir.It_canonical _ | Ir.It_replicated -> false
    in
    let nvars = List.length f.Ir.f_vars in
    if nvars = 0 || nvars > 3 then raise Ineligible;
    let var_index = make_var_index f in
    let root =
      match Sema.array_spec env f.Ir.f_lhs.Ast.base with
      | Some { Sema.skind = Ast.Real; _ } -> fun compile _ e -> Breal (compile e)
      | Some { Sema.skind = Ast.Integer; _ } -> (
          match kind_of ~env ~scalar_kind:sc.scalar_kind ~var_index f.Ir.f_rhs with
          | `Ki -> fun _ icompile e -> Bint (icompile e)
          | `Kr -> fun compile _ e -> Btrunc (compile e)
          | `Kmix -> raise Ineligible)
      | _ -> raise Ineligible
    in
    let store =
      if scatter then None
      else
        Some
          (List.map
             (fun e -> match aff_of sc ~var_index e with Some a -> a | None -> raise Ineligible)
             (subscripts f.Ir.f_lhs))
    in
    let rhs = compile_plan sc ~f root f.Ir.f_rhs in
    let lhs = sc.array_slot f.Ir.f_lhs.Ast.base in
    Some
      {
        p_rhs = rhs;
        p_fmu = (match rhs.x_template with Breal t -> fmu_of t | Bint _ | Btrunc _ -> Fnone);
        p_lhs = lhs;
        p_lhs_reads = Array.map (fun o -> o.temp < 0 && o.arr = lhs) rhs.x_refs;
        p_store = Option.map (fun subs -> direct lhs (Array.of_list subs)) store;
      }
  with Ineligible -> None

(* How the inspector evaluates one subscript of a reference, decided once
   per run: an affine form in the FORALL variables, an integer-valued
   expression run as strips over the iteration space, or the
   interpreter. *)
type index_plan =
  | Xaffine of int * aff  (* with the number of FORALL variables *)
  | Xstrips of body expr_plan  (* a [Bint] *)
  | Xinterp

let plan_index sc ~(f : Ir.forall) e =
  let var_index = make_var_index f in
  let nvars = List.length f.Ir.f_vars in
  match aff_of sc ~var_index e with
  | Some a -> Xaffine (nvars, a)
  | None ->
      let kind = kind_of ~env:sc.env ~scalar_kind:sc.scalar_kind ~var_index e in
      if nvars >= 1 && nvars <= 3 && kind = `Ki then
        try Xstrips (compile_plan sc ~f (fun _ icompile e -> Bint (icompile e)) e)
        with Ineligible -> Xinterp
      else Xinterp

(* ------------------------------------------------------------------ *)
(* Row strips                                                          *)
(* ------------------------------------------------------------------ *)

(* Distinct iterations write distinct flats iff, taking the dimensions
   with more than one iteration in ascending (|coef|, length) order, each
   |coef| strictly exceeds the whole span reachable by the smaller ones
   (a mixed-radix digit argument).  With a many-to-one store map the
   canonical element order is observable (last writer wins), so such a
   nest is the interpreter's.  The at most three dimensions are taken by
   selection, smallest first. *)
let store_injective ~lens (l : lin) =
  let c = l.coefs in
  let span = ref 0 and taken = ref 0 and ok = ref true and more = ref true in
  while !ok && !more do
    let best = ref (-1) in
    for k = 0 to 2 do
      if lens.(k) > 1 && !taken land (1 lsl k) = 0 then begin
        let b = !best in
        if b < 0 || abs c.(k) < abs c.(b) || (abs c.(k) = abs c.(b) && lens.(k) < lens.(b)) then
          best := k
      end
    done;
    let b = !best in
    if b < 0 then more := false
    else begin
      taken := !taken lor (1 lsl b);
      let cb = abs c.(b) in
      if cb <= !span then ok := false else span := !span + (cb * (lens.(b) - 1))
    end
  done;
  !ok

(* Strided windows over raw float or int arrays: the unit of
   evaluation.  A load is a zero-copy view; every other node evaluates
   its operands and then runs one tight loop into a pooled buffer.  Per
   element, the operations and their order are those of the
   interpreter's [Scalar] arithmetic, so results are bit-identical to
   it.  Float and int buffers come from the workspace's two pools, both
   indexed by depth. *)
type strip = { sa : float array; so : int; st : int }
type istrip = { ia : int array; io : int; ist : int }

let get_buf pool depth len zero =
  if Array.length !pool <= depth then begin
    let np = Array.make (depth + 4) [||] in
    Array.blit !pool 0 np 0 (Array.length !pool);
    pool := np
  end;
  if Array.length !pool.(depth) < len then !pool.(depth) <- Array.make len zero;
  !pool.(depth)

let scalar_strip ws depth v =
  let b = get_buf ws.pool depth 1 0. in
  b.(0) <- v;
  { sa = b; so = 0; st = 0 }

let scalar_istrip ws depth v =
  let b = get_buf ws.ipool depth 1 0 in
  b.(0) <- v;
  { ia = b; io = 0; ist = 0 }

(* The offset of a load at the strip's first element. *)
let load_off ws l =
  let cs = ws.cs in
  l.base + (l.coefs.(0) * cs.(0)) + (l.coefs.(1) * cs.(1)) + (l.coefs.(2) * cs.(2))

(* Operand [i] of a node at [depth] evaluates at [depth + i]: a later
   operand's subtree never reaches the buffers of earlier results. *)
let rec strip_eval ws depth n =
  let len = ws.len in
  match n with
  | Tconst v -> scalar_strip ws depth v
  | Tscal s -> { sa = ws.svals; so = s; st = 0 }
  | Tload s -> (
      let l = ws.lins.(s) in
      match ws.nds.(s).Ndarray.data with
      | Ndarray.Reals d -> { sa = d; so = load_off ws l; st = l.coefs.(ws.k) }
      | _ -> assert false (* [plan] loads INTEGER operands as ints, and no LOGICAL one *))
  | Tint i ->
      let si = istrip_eval ws (depth + 1) i in
      let ia = si.ia and io = si.io and ist = si.ist in
      if ist = 0 then scalar_strip ws depth (float_of_int ia.(io))
      else begin
        let out = get_buf ws.pool depth len 0. in
        for i = 0 to len - 1 do
          Array.unsafe_set out i (float_of_int (Array.unsafe_get ia (io + (ist * i))))
        done;
        { sa = out; so = 0; st = 1 }
      end
  | Tadd (a, b) -> strip_bin ws depth `Add a b
  | Tsub (a, b) -> strip_bin ws depth `Sub a b
  | Tmul (a, b) -> strip_bin ws depth `Mul a b
  | Tdiv (a, b) -> strip_bin ws depth `Div a b
  | Tfun1 (f, a) ->
      let sa = strip_eval ws (depth + 1) a in
      let out = get_buf ws.pool depth len 0. in
      let aa = sa.sa and ao = sa.so and astr = sa.st in
      for i = 0 to len - 1 do
        Array.unsafe_set out i (f (Array.unsafe_get aa (ao + (astr * i))))
      done;
      { sa = out; so = 0; st = 1 }
  | Tfun2 (f, a, b) ->
      let sa = strip_eval ws (depth + 1) a in
      let sb = strip_eval ws (depth + 2) b in
      let out = get_buf ws.pool depth len 0. in
      let aa = sa.sa and ao = sa.so and astr = sa.st in
      let ba = sb.sa and bo = sb.so and bstr = sb.st in
      for i = 0 to len - 1 do
        Array.unsafe_set out i
          (f (Array.unsafe_get aa (ao + (astr * i))) (Array.unsafe_get ba (bo + (bstr * i))))
      done;
      { sa = out; so = 0; st = 1 }
  | Tsel (t, f, m) ->
      (* MERGE evaluates both values, as the interpreter does *)
      let st_ = strip_eval ws (depth + 1) t in
      let sf = strip_eval ws (depth + 2) f in
      let sm = strip_eval ws (depth + 3) m in
      let out = get_buf ws.pool depth len 0. in
      for i = 0 to len - 1 do
        Array.unsafe_set out i
          (if Array.unsafe_get sm.sa (sm.so + (sm.st * i)) <> 0. then
             Array.unsafe_get st_.sa (st_.so + (st_.st * i))
           else Array.unsafe_get sf.sa (sf.so + (sf.st * i)))
      done;
      { sa = out; so = 0; st = 1 }

and istrip_eval ws depth n =
  let len = ws.len in
  match n with
  | Iconst v -> scalar_istrip ws depth v
  | Iscal s -> { ia = ws.ivals; io = s; ist = 0 }
  | Icounter j ->
      let g0 = ws.g0.(j) and gs = ws.gs.(j) in
      if j <> ws.k then scalar_istrip ws depth (g0 + (gs * ws.cs.(j)))
      else begin
        let out = get_buf ws.ipool depth len 0 in
        for i = 0 to len - 1 do
          Array.unsafe_set out i (g0 + (gs * i))
        done;
        { ia = out; io = 0; ist = 1 }
      end
  | Iload s -> (
      let l = ws.lins.(s) in
      match ws.nds.(s).Ndarray.data with
      | Ndarray.Ints d -> { ia = d; io = load_off ws l; ist = l.coefs.(ws.k) }
      | _ -> assert false (* [plan] loads only INTEGER operands as ints *))
  | Iop (op, a, b) ->
      let sa = istrip_eval ws (depth + 1) a in
      let sb = istrip_eval ws (depth + 2) b in
      let out = get_buf ws.ipool depth len 0 in
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
      let sa = istrip_eval ws (depth + 1) a in
      let out = get_buf ws.ipool depth len 0 in
      let aa = sa.ia and ao = sa.io and astr = sa.ist in
      for i = 0 to len - 1 do
        Array.unsafe_set out i (f (Array.unsafe_get aa (ao + (astr * i))))
      done;
      { ia = out; io = 0; ist = 1 }
  | Isel (t, f, m) ->
      (* MERGE evaluates both values, as the interpreter does *)
      let st_ = istrip_eval ws (depth + 1) t in
      let sf = istrip_eval ws (depth + 2) f in
      let sm = strip_eval ws (depth + 3) m in
      let out = get_buf ws.ipool depth len 0 in
      for i = 0 to len - 1 do
        Array.unsafe_set out i
          (if Array.unsafe_get sm.sa (sm.so + (sm.st * i)) <> 0. then
             Array.unsafe_get st_.ia (st_.io + (st_.ist * i))
           else Array.unsafe_get sf.ia (sf.io + (sf.ist * i)))
      done;
      { ia = out; io = 0; ist = 1 }

and strip_bin ws depth op a b =
  let len = ws.len in
  let sa = strip_eval ws (depth + 1) a in
  let sb = strip_eval ws (depth + 2) b in
  let out = get_buf ws.pool depth len 0. in
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

(* The nest as row strips into a store with flat offsets [sflat]: the
   strip counter is interchanged to the store's unit-stride dimension
   when one exists (else the last counter with more than one iteration),
   and the outer two counters keep their nest order. *)
let strips ws ~(sflat : lin) =
  let lens = ws.lens in
  let unit = ref (-1) and last = ref (-1) in
  for j = 2 downto 0 do
    if lens.(j) > 1 then begin
      if !last < 0 then last := j;
      if abs sflat.coefs.(j) = 1 then unit := j
    end
  done;
  let k = if !unit >= 0 then !unit else if !last >= 0 then !last else 2 in
  ws.k <- k;
  ws.len <- lens.(k);
  ws.o1 <- (if k = 0 then 1 else 0);
  ws.o2 <- (if k = 2 then 1 else 2);
  Array.fill ws.cs 0 3 0

(* Whether load [s] reads [store] at the store's own offsets. *)
let identity ws s ~store ~(sflat : lin) =
  let l = ws.lins.(s) in
  match ws.nds.(s).Ndarray.data with
  | Ndarray.Reals d ->
      d == store && l.base = sflat.base
      && l.coefs.(0) = sflat.coefs.(0)
      && l.coefs.(1) = sflat.coefs.(1)
      && l.coefs.(2) = sflat.coefs.(2)
  | _ -> false

(* One strip of [body] into [store] at [sbase + ssk * i]: a REAL store
   through the fused update [fmu] or one copy loop (a plain REAL load is
   a zero-copy view), an INTEGER store from an int strip or a truncated
   float strip. *)
let store_row ws (store : Ndarray.data) ~sbase ~ssk ~fmu body =
  let len = ws.len in
  match (body, store) with
  | Breal body, Ndarray.Reals store -> (
      match fmu with
      | Fsub (_, x, y) ->
          let xs = strip_eval ws 1 x in
          let ys = strip_eval ws 2 y in
          let xa = xs.sa and xo = xs.so and xst = xs.st in
          let ya = ys.sa and yo = ys.so and yst = ys.st in
          for i = 0 to len - 1 do
            let o = sbase + (ssk * i) in
            Array.unsafe_set store o
              (Array.unsafe_get store o
              -. (Array.unsafe_get xa (xo + (xst * i)) *. Array.unsafe_get ya (yo + (yst * i))))
          done
      | Fadd_r (_, x, y) ->
          let xs = strip_eval ws 1 x in
          let ys = strip_eval ws 2 y in
          let xa = xs.sa and xo = xs.so and xst = xs.st in
          let ya = ys.sa and yo = ys.so and yst = ys.st in
          for i = 0 to len - 1 do
            let o = sbase + (ssk * i) in
            Array.unsafe_set store o
              (Array.unsafe_get store o
              +. (Array.unsafe_get xa (xo + (xst * i)) *. Array.unsafe_get ya (yo + (yst * i))))
          done
      | Fadd_l (_, x, y) ->
          let xs = strip_eval ws 1 x in
          let ys = strip_eval ws 2 y in
          let xa = xs.sa and xo = xs.so and xst = xs.st in
          let ya = ys.sa and yo = ys.so and yst = ys.st in
          for i = 0 to len - 1 do
            let o = sbase + (ssk * i) in
            Array.unsafe_set store o
              (Array.unsafe_get xa (xo + (xst * i)) *. Array.unsafe_get ya (yo + (yst * i))
              +. Array.unsafe_get store o)
          done
      | Fnone ->
          let r = strip_eval ws 0 body in
          let ra = r.sa and ro = r.so and rst = r.st in
          for i = 0 to len - 1 do
            Array.unsafe_set store (sbase + (ssk * i)) (Array.unsafe_get ra (ro + (rst * i)))
          done)
  | Bint body, Ndarray.Ints store ->
      let r = istrip_eval ws 0 body in
      let ra = r.ia and ro = r.io and rst = r.ist in
      for i = 0 to len - 1 do
        Array.unsafe_set store (sbase + (ssk * i)) (Array.unsafe_get ra (ro + (rst * i)))
      done
  | Btrunc body, Ndarray.Ints store ->
      let r = strip_eval ws 0 body in
      let ra = r.sa and ro = r.so and rst = r.st in
      for i = 0 to len - 1 do
        Array.unsafe_set store
          (sbase + (ssk * i))
          (int_of_float (Array.unsafe_get ra (ro + (rst * i))))
      done
  | _ -> assert false (* [plan] chose the body by the left-hand side's declared kind *)

(* Run the nest into [store].  Any order is legal: the store map is
   injective and every read of the store's storage is a direct read of
   the lhs array, which Lower proved to be the identity subscript or
   separated from every write. *)
let exec_strips ws ~(store : Ndarray.data) ~(sflat : lin) ~fmu body =
  strips ws ~sflat;
  let lens = ws.lens and o1 = ws.o1 and o2 = ws.o2 in
  let ss = sflat.coefs and sb = sflat.base and cs = ws.cs in
  let ssk = ss.(ws.k) in
  let fmu =
    match (fmu, store) with
    | (Fsub (s, _, _) | Fadd_r (s, _, _) | Fadd_l (s, _, _)), Ndarray.Reals store
      when identity ws s ~store ~sflat ->
        fmu
    | _ -> Fnone
  in
  for a = 0 to lens.(o1) - 1 do
    cs.(o1) <- a;
    for b = 0 to lens.(o2) - 1 do
      cs.(o2) <- b;
      let sbase = sb + (ss.(0) * cs.(0)) + (ss.(1) * cs.(1)) + (ss.(2) * cs.(2)) in
      store_row ws store ~sbase ~ssk ~fmu body
    done
  done

(* ------------------------------------------------------------------ *)
(* Execution: the value-dependent half                                 *)
(* ------------------------------------------------------------------ *)

(* The iteration space into the workspace: per-counter lengths and
   progressions, padded to three counters.  An index vector (a CYCLIC(k)
   dimension) declines. *)
let rec nest ws k = function
  | [] ->
      for j = k to 2 do
        ws.lens.(j) <- 1;
        ws.g0.(j) <- 0;
        ws.gs.(j) <- 0
      done
  | Layout.Prog { first; step; count } :: rest ->
      ws.lens.(k) <- count;
      ws.g0.(k) <- first;
      (* one iteration has no step, so it never fails a layout's
         division *)
      ws.gs.(k) <- (if count >= 2 then step else 0);
      nest ws (k + 1) rest
  | Layout.Explicit _ :: _ -> raise (Decline Stats.Explicit_layout)

(* [m] times the iteration counter in nest order, into [l]. *)
let counter_lin l ~lens m =
  l.base <- 0;
  let weight = ref m in
  for k = 2 downto 0 do
    l.coefs.(k) <- !weight;
    weight := !weight * lens.(k)
  done

(* The flat linear offset of operand [o] into [nd], into [flat]: one
   pass over its dimensions, each positioned in the scratch form and
   folded in with its stride, then a check that every reachable offset is
   inside the payload (a linear form takes its extrema at corners). *)
let flat_offset ws ~me ~(arrays : Darray.t array) ~scalars (o : operand) (nd : Ndarray.t) flat =
  let p = ws.pos and lens = ws.lens in
  clear_lin flat;
  let stride = ref 1 in
  for d = 0 to Array.length o.dims - 1 do
    let fd = o.dims.(d) in
    clear_lin p;
    if o.in_order then counter_lin p ~lens 1;
    add_aff p fd.sub ~g0:ws.g0 ~gs:ws.gs ~scalars;
    if fd.through then begin
      let dad = arrays.(o.arr).Darray.dad in
      through_layout (Dad.layout_at dad ~dim:d ~rank:me) ~flb:(Dad.dims dad).(d).Dad.flb p
    end;
    (* storage index space starts at lb; flat = (pos - lb) * stride *)
    let s = !stride in
    flat.base <- flat.base + (s * (p.base + fd.off - nd.Ndarray.lb.(d)));
    for k = 0 to 2 do
      flat.coefs.(k) <- flat.coefs.(k) + (s * p.coefs.(k))
    done;
    stride := s * nd.Ndarray.extents.(d)
  done;
  let size = Ndarray.size nd in
  if size = 0 then raise (Decline Stats.Out_of_bounds);
  let lo = ref flat.base and hi = ref flat.base in
  for k = 0 to 2 do
    let span = flat.coefs.(k) * (lens.(k) - 1) in
    if span < 0 then lo := !lo + span else hi := !hi + span
  done;
  if !lo < 0 || !hi >= size then raise (Decline Stats.Out_of_bounds)

(* Each operand's storage and flat offset, in slot order. *)
let resolve ws (refs : operand array) ~me ~arrays ~scalars ~temps =
  for s = 0 to Array.length refs - 1 do
    let o = refs.(s) in
    let nd =
      if o.temp < 0 then arrays.(o.arr).Darray.local
      else match temps.(o.temp) with Some nd -> nd | None -> raise (Decline Stats.Missing_temp)
    in
    ws.nds.(s) <- nd;
    flat_offset ws ~me ~arrays ~scalars o nd ws.lins.(s)
  done

(* The plan's scalar slots, REAL ones in the first vector and INTEGER
   ones in the second. *)
let scalar_values ws x ~scalars =
  for i = 0 to Array.length x.x_scalars - 1 do
    let s, k = x.x_scalars.(i) in
    match (k, scalar_value scalars s) with
    | Scalar.Kint, Scalar.Int n -> ws.ivals.(i) <- n
    | Scalar.Kreal, Scalar.Real r -> ws.svals.(i) <- r
    | _ -> raise (Decline Stats.Scalar_kind)
  done

type stored = Stored | Scattered of Ndarray.t

(* Resolve the slots and scalars against this execution's values, then
   run the nest; raises [Decline] before any store for every reason but a
   zero divisor. *)
let run_nest ?scatter (p : compiled) ~me ~arrays ~scalars ~temps ~space =
  let x = p.p_rhs in
  let ws = x.x_work in
  nest ws 0 space;
  let lens = ws.lens in
  let lhs_darr = arrays.(p.p_lhs) in
  match p.p_store with
  | None ->
      (* the write-back phase sends value [i] to the [i]th entry of the
         statement's write list: one entry per copy of each element *)
      let copies = Dad.copies lhs_darr.Darray.dad in
      let points = lens.(0) * lens.(1) * lens.(2) in
      scalar_values ws x ~scalars;
      resolve ws x.x_refs ~me ~arrays ~scalars ~temps;
      (* a reused buffer is not cleared: the strips write entry
         [i * copies] of every point [i] and [spread] the other copies,
         so each entry is written once *)
      let buf = Ndarray.reuse scatter (Darray.kind lhs_darr) (points * copies) in
      counter_lin ws.sflat ~lens copies;
      exec_strips ws ~store:buf.Ndarray.data ~sflat:ws.sflat ~fmu:p.p_fmu x.x_template;
      let spread a =
        for i = 0 to points - 1 do
          for j = 1 to copies - 1 do
            a.((i * copies) + j) <- a.(i * copies)
          done
        done
      in
      (match buf.Ndarray.data with
      | Ndarray.Reals a -> spread a
      | Ndarray.Ints a -> spread a
      | Ndarray.Logs _ -> assert false (* [plan] stores no LOGICAL array *));
      Scattered buf
  | Some lhs ->
      let store = lhs_darr.Darray.local.Ndarray.data in
      scalar_values ws x ~scalars;
      resolve ws x.x_refs ~me ~arrays ~scalars ~temps;
      let sflat = ws.sflat in
      flat_offset ws ~me ~arrays ~scalars lhs lhs_darr.Darray.local sflat;
      if not (store_injective ~lens sflat) then raise (Decline Stats.Not_injective);
      (* Lower vouches for direct reads of the lhs array by name; any other
         operand sharing the store's storage would be an alias it never saw
         (none arises today: dummies are copied in, and a temporary is
         never an array's storage) *)
      for s = 0 to Array.length x.x_refs - 1 do
        match (ws.nds.(s).Ndarray.data, store) with
        | Ndarray.Reals d, Ndarray.Reals st when d == st && not p.p_lhs_reads.(s) ->
            raise (Decline Stats.Storage_alias)
        | Ndarray.Ints d, Ndarray.Ints st when d == st && not p.p_lhs_reads.(s) ->
            raise (Decline Stats.Storage_alias)
        | _ -> ()
      done;
      exec_strips ws ~store ~sflat ~fmu:p.p_fmu x.x_template;
      Stored

(* Drop the workspace's references to this call's arrays and
   temporaries, so that between calls it keeps none of them alive. *)
let release ws = Array.fill ws.nds 0 (Array.length ws.nds) no_nd

let execute ?scatter (p : plan) ~me ~arrays ~scalars ~temps ~space =
  match p with
  | None -> None
  | Some p -> (
      match run_nest ?scatter p ~me ~arrays ~scalars ~temps ~space with
      | out ->
          release p.p_rhs.x_work;
          Some (Ok out)
      | exception Decline why ->
          release p.p_rhs.x_work;
          Some (Error why))

type index = Iaffine of lin | Ivalues of int array | Iinterp

let rec nonempty = function [] -> true | l :: rest -> Layout.count l > 0 && nonempty rest

let index (x : index_plan) ~me ~arrays ~scalars ~temps ~space =
  match (x, space) with
  | Xinterp, _ -> Iinterp
  | Xaffine (nvars, a), _ -> (
      (* coefficients on the variables' values, not on loop counters *)
      let l = zero_lin nvars in
      try
        for i = 0 to Array.length a - 1 do
          let t = a.(i) in
          let v = term_value scalars t in
          if t.tvar < 0 then l.base <- l.base + v else l.coefs.(t.tvar) <- l.coefs.(t.tvar) + v
        done;
        Iaffine l
      with Decline _ -> Iinterp)
  | Xstrips _, None -> Iinterp
  | Xstrips _, Some space when not (nonempty space) -> Ivalues [||]
  | Xstrips xp, Some space -> (
      let ws = xp.x_work in
      try
        nest ws 0 space;
        scalar_values ws xp ~scalars;
        resolve ws xp.x_refs ~me ~arrays ~scalars ~temps;
        let lens = ws.lens in
        let buf = Array.make (lens.(0) * lens.(1) * lens.(2)) 0 in
        counter_lin ws.sflat ~lens 1;
        exec_strips ws ~store:(Ndarray.Ints buf) ~sflat:ws.sflat ~fmu:Fnone xp.x_template;
        release ws;
        Ivalues buf
      with Decline _ ->
        release ws;
        Iinterp)
