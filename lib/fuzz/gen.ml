(* Seeded random-program generator over the compiled Fortran 90D subset.

   Programs are built as a small internal representation (so the shrinker
   can transform them structurally) and pretty-printed to source text.
   Every subscript is in-bounds by construction, FORALL left-hand sides
   are injective, and floating-point accumulation across elements (whose
   order the SPMD schedule may permute) is kept out of the grammar:
   SUM/PRODUCT apply to INTEGER arrays only, so every generated program
   has one bit-exact answer for the differential driver to check.

   The PROCESSORS directive cannot name a fixed machine size when the
   same program runs at 1, 2 and 4 processors, so the internal rep stores
   only the grid *rank*; [print ~nprocs] factorises the actual grid. *)

type kind = KI | KR
type dist = Dblock | Dcyclic | Dcyclic3 | Dstar  (* Dcyclic3: CYCLIC(3) *)

type arr = {
  aname : string;
  akind : kind;
  adims : int list;  (* extents; length 1 or 2; lower bounds are all 1 *)
  adist : dist list;
  aindex : bool;  (* index array: INTEGER, values always within [1, n1] *)
}

(* affine / indirect subscript forms *)
type sub =
  | Splus of string * int  (* var + off *)
  | Sminus of string * int  (* off - var *)
  | Stwo of string * int  (* 2*var + off *)
  | Sconst of int
  | Sind of string * string * int  (* V(var + off): indirection *)
  | Sscal of string * string  (* var + scalar *)

type expr =
  | L of int
  | F of float  (* quarters only: exact in binary *)
  | V of string  (* scalar or loop variable *)
  | A of string * sub list
  | B of string * expr * expr  (* "+" "-" "*" "/" "==" "<" ".AND." ... *)
  | C of string * expr list  (* elemental intrinsic *)

(* whole-array (conformable, elementwise) expression *)
type aexpr =
  | AA of string
  | ACst of expr  (* scalar-valued, broadcast *)
  | AB of string * aexpr * aexpr
  | AC of string * aexpr list

type stm =
  | Forall of {
      vars : (string * int * int * int) list;  (* var, lo, hi, step (as printed) *)
      mask : expr option;
      lhs : string;
      lsubs : sub list;
      rhs : expr;
    }
  | Arr of { lhs : string; rhs : aexpr }
  | Sec of { lhs : string; llo : int; lst : int; rhs : string; rlo : int; rst : int; count : int }
  | Where of { mask : aexpr; lhs : string; rhs : aexpr; els : aexpr option }
  | Mover of { lhs : string; call : string; src : string; amount : int; dim : int; boundary : expr option }
  | Reduce of { target : string; op : string; src : string }
  | SAssign of string * expr
  | Elem of { lhs : string; subs : sub list; rhs : expr }
  | Do of { var : string; lo : int; hi : int; step : int; body : stm list }
  | If of { cond : expr; then_ : stm list; els : stm list }

type prog = {
  pseed : int;
  n1 : int;  (* extent of every 1-D array *)
  n2 : int;  (* 2-D arrays are n2 x n2 *)
  grid : int option;  (* PROCESSORS rank: None, Some 1 or Some 2 *)
  arrays : arr list;
  iscalars : string list;
  rscalars : string list;
  body : stm list;
}

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

type g = {
  rng : Rng.t;
  n1 : int;
  n2 : int;
  arrays : arr list;
  srng : Rng.t;
      (* draws for scatter writes only, so that adding them left every
         other seed's program unchanged *)
  scatter : bool;
      (* FORALLs may write through the index array, X(V(I + o)): every
         assignment to V then keeps it a permutation of [1, n1], so the
         writes of distinct iterations stay distinct *)
  crng : Rng.t;
      (* draws for the inserted comm shapes only ({!comm_shapes}), for the
         same reason *)
  krng : Rng.t;
      (* draws turning one in three CYCLIC dimensions into CYCLIC(3) only,
         for the same reason *)
  wrng : Rng.t;  (* draws for {!widen} only, for the same reason *)
}

let extent g a = if List.length a.adims = 1 then g.n1 else g.n2
let arrays_of_rank g r = List.filter (fun a -> List.length a.adims = r) g.arrays
let writable g = List.filter (fun a -> not a.aindex) g.arrays
let index_arr g = List.find_opt (fun a -> a.aindex) g.arrays

(* venv: variables in scope with the [min,max] range of their values *)
type venv = (string * (int * int)) list

let clamp lo hi v = max lo (min hi v)

(* a subscript for a dimension of extent [e], in-bounds over all of venv *)
let gen_sub g (venv : venv) ~e ~indirect =
  let cands = ref [ Sconst (Rng.range g.rng 1 e) ] in
  List.iter
    (fun (v, (lo, hi)) ->
      if 1 - lo <= e - hi then begin
        let o = Rng.range g.rng (max (1 - lo) (-4)) (min (e - hi) 4) in
        cands := Splus (v, o) :: Splus (v, clamp (1 - lo) (e - hi) 0) :: !cands
      end;
      (* off - var: image [off-hi, off-lo] *)
      if 1 + hi <= e + lo then
        cands := Sminus (v, Rng.range g.rng (1 + hi) (min (e + lo) (1 + hi + 4))) :: !cands;
      if 1 - (2 * lo) <= e - (2 * hi) then
        cands := Stwo (v, Rng.range g.rng (1 - (2 * lo)) (e - (2 * hi))) :: !cands;
      match indirect with
      | Some ia when e = g.n1 && 1 - lo <= g.n1 - hi ->
          cands := Sind (ia.aname, v, Rng.range g.rng (max (1 - lo) (-3)) (min (g.n1 - hi) 3)) :: !cands
      | _ -> ())
    venv;
  Rng.pickl g.rng !cands

let pick_scalar g kind =
  match kind with
  | KI -> Rng.pickl g.rng [ "S1"; "S2" ]
  | KR -> Rng.pickl g.rng [ "R1"; "R2" ]

let quarters g = float_of_int (Rng.range g.rng (-12) 12) /. 4.

(* expression of the wanted kind, all array reads in-bounds over venv *)
let rec gen_expr g (venv : venv) ~depth ~want =
  let leaf () =
    match want with
    | KI -> (
        match Rng.int g.rng 4 with
        | 0 -> L (Rng.range g.rng (-9) 9)
        | 1 when venv <> [] -> V (fst (Rng.pickl g.rng venv))
        | 2 -> V (pick_scalar g KI)
        | _ -> (
            match arrays_of_rank g 1 @ arrays_of_rank g 2 |> List.filter (fun a -> a.akind = KI) with
            | [] -> L (Rng.range g.rng (-9) 9)
            | l -> gen_ref g venv (Rng.pickl g.rng l)))
    | KR -> (
        match Rng.int g.rng 4 with
        | 0 -> F (quarters g)
        | 1 -> V (pick_scalar g KR)
        | 2 -> (
            match List.filter (fun a -> a.akind = KR) g.arrays with
            | [] -> F (quarters g)
            | l -> gen_ref g venv (Rng.pickl g.rng l))
        | _ -> gen_expr g venv ~depth:0 ~want:KI (* promote *))
  in
  if depth <= 0 then leaf ()
  else
    match Rng.int g.rng 10 with
    | 0 | 1 | 2 ->
        let op = Rng.pickl g.rng [ "+"; "-"; "*" ] in
        B (op, gen_expr g venv ~depth:(depth - 1) ~want, gen_expr g venv ~depth:(depth - 1) ~want)
    | 3 ->
        (* division by a nonzero literal only: Scalar.div faults on 0 *)
        let d = Rng.range g.rng 2 4 in
        let divisor = match want with KI -> L d | KR -> F (float_of_int d /. 2.) in
        B ("/", gen_expr g venv ~depth:(depth - 1) ~want, divisor)
    | 4 -> C ("ABS", [ gen_expr g venv ~depth:(depth - 1) ~want ])
    | 5 when want = KI -> C ("MOD", [ gen_expr g venv ~depth:(depth - 1) ~want:KI; L (Rng.range g.rng 2 7) ])
    | 5 -> C ("NINT", [ gen_expr g venv ~depth:(depth - 1) ~want:KR ])
    | 6 ->
        C
          ( Rng.pickl g.rng [ "MIN"; "MAX" ],
            [ gen_expr g venv ~depth:(depth - 1) ~want; gen_expr g venv ~depth:(depth - 1) ~want ] )
    | 7 ->
        C
          ( "MERGE",
            [
              gen_expr g venv ~depth:(depth - 1) ~want;
              gen_expr g venv ~depth:(depth - 1) ~want;
              gen_cond g venv ~depth:(depth - 1);
            ] )
    | _ -> leaf ()

and gen_ref g venv a =
  let ind = index_arr g in
  let indirect = match ind with Some ia when ia.aname <> a.aname -> Some ia | _ -> None in
  A (a.aname, List.map (fun e -> gen_sub g venv ~e ~indirect) a.adims)

and gen_cond g venv ~depth =
  if depth > 0 && Rng.chance g.rng 25 then
    B
      ( Rng.pickl g.rng [ ".AND."; ".OR." ],
        gen_cond g venv ~depth:(depth - 1),
        gen_cond g venv ~depth:(depth - 1) )
  else
    let want = if Rng.chance g.rng 70 then KI else KR in
    let op = Rng.pickl g.rng [ "=="; "/="; "<"; "<="; ">"; ">=" ] in
    B (op, gen_expr g venv ~depth:1 ~want, gen_expr g venv ~depth:0 ~want)

(* The kind of a numeric expression; [None] for a logical one. *)
let rec kind_of g = function
  | L _ -> Some KI
  | F _ -> Some KR
  | V v -> Some (if v = "R1" || v = "R2" then KR else KI)
  | A (a, _) -> Some (List.find (fun x -> x.aname = a) g.arrays).akind
  | B (("+" | "-" | "*" | "/"), a, b) | C ("MERGE", [ a; b; _ ]) -> (
      match (kind_of g a, kind_of g b) with
      | Some KI, Some KI -> Some KI
      | Some _, Some _ -> Some KR
      | _ -> None)
  | B _ -> None
  | C ("NINT", _) -> Some KI
  | C (_, args) ->
      if List.for_all (fun a -> kind_of g a = Some KI) args then Some KI else Some KR

(* Now and then an INTEGER subexpression [x] of a FORALL becomes
   MOD(x * c + d, m) with an odd [c] between 2^52 and 2^53: for |x| >= 2
   the product crosses 2^53, past which a float no longer holds every
   integer, and it stays within 63 bits while |x| < 2^10.  Divisors and
   moduli are left alone, so none can become zero. *)
let rec widen g e =
  let e =
    match e with
    | B ("/", a, d) -> B ("/", widen g a, d)
    | B (op, a, b) -> B (op, widen g a, widen g b)
    | C ("MOD", [ a; m ]) -> C ("MOD", [ widen g a; m ])
    | C (f, args) -> C (f, List.map (widen g) args)
    | L _ | F _ | V _ | A _ -> e
  in
  if kind_of g e = Some KI && Rng.chance g.wrng 6 then
    let c = (1 lsl 52) + (Rng.int g.wrng (1 lsl 52) lor 1) in
    C ("MOD", [ B ("+", B ("*", e, L c), L (Rng.range g.wrng 0 9)); L (Rng.range g.wrng 2 7) ])
  else e

(* FORALL header: a variable per non-constant lhs dimension, iteration
   range and lhs subscript chosen together so the image stays in-bounds *)
let gen_forall g (venv : venv) =
  let a = Rng.pickl g.rng (writable g) in
  let rank = List.length a.adims in
  let var_names = [ "I"; "J" ] in
  let const_dim = rank = 2 && Rng.chance g.rng 25 in
  let const_at = if const_dim then Rng.int g.rng 2 else -1 in
  let vars = ref [] and lsubs = ref [] and fvenv = ref [] in
  List.iteri
    (fun d e ->
      if d = const_at then lsubs := Sconst (Rng.range g.rng 1 e) :: !lsubs
      else begin
        let v = List.nth var_names (List.length !vars) in
        let vlo = Rng.range g.rng 1 (max 1 (e / 3)) in
        let vhi = Rng.range g.rng (min e (vlo + 1)) e in
        let vlo, vhi = if vlo <= vhi then (vlo, vhi) else (vhi, vlo) in
        (* lhs subscript pattern with in-bounds image over [vlo,vhi] *)
        let pat =
          let c = ref [ Splus (v, 0) ] in
          if 1 - vlo <= e - vhi then
            c := Splus (v, Rng.range g.rng (max (1 - vlo) (-3)) (min (e - vhi) 3)) :: !c;
          if 1 + vhi <= e + vlo then c := Sminus (v, Rng.range g.rng (1 + vhi) (min (e + vlo) (1 + vhi + 3))) :: !c;
          if 1 - (2 * vlo) <= e - (2 * vhi) then c := Stwo (v, Rng.range g.rng (1 - (2 * vlo)) (e - (2 * vhi))) :: !c;
          Rng.pickl g.rng !c
        in
        let step = if Rng.chance g.rng 70 then 1 else if Rng.chance g.rng 60 then -1 else 2 in
        let lo, hi = if step < 0 then (vhi, vlo) else (vlo, vhi) in
        vars := (v, lo, hi, step) :: !vars;
        lsubs := pat :: !lsubs;
        fvenv := (v, (vlo, vhi)) :: !fvenv
      end)
    a.adims;
  let venv' = !fvenv @ venv in
  let mask = if Rng.chance g.rng 30 then Some (gen_cond g venv' ~depth:1) else None in
  let rhs = widen g (gen_expr g venv' ~depth:(Rng.range g.rng 1 3) ~want:a.akind) in
  (* a scatter write through the permutation V: in-bounds over [vlo, vhi] *)
  let lsubs =
    match (index_arr g, !fvenv) with
    | Some ia, [ (v, (vlo, vhi)) ] when g.scatter && rank = 1 && Rng.chance g.srng 50 ->
        [ Sind (ia.aname, v, Rng.range g.srng (max (1 - vlo) (-3)) (min (g.n1 - vhi) 3)) ]
    | _ -> List.rev !lsubs
  in
  Forall { vars = List.rev !vars; mask; lhs = a.aname; lsubs; rhs }

(* The multiplier of an index-array assignment MODULO(c*I + d, n1) + 1:
   under scatter writes the next one coprime with n1, which makes V a
   permutation. *)
let multiplier g c =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let rec coprime c = if gcd c g.n1 = 1 then c else coprime (c + 1) in
  if g.scatter then coprime c else c

(* invariant-preserving rewrite of the index array *)
let gen_vrewrite g ia =
  let c1 = multiplier g (Rng.range g.rng 1 5) and c2 = Rng.range g.rng 0 9 in
  Forall
    {
      vars = [ ("I", 1, g.n1, 1) ];
      mask = None;
      lhs = ia.aname;
      lsubs = [ Splus ("I", 0) ];
      rhs = B ("+", C ("MODULO", [ B ("+", B ("*", L c1, V "I"), L c2); L g.n1 ]), L 1);
    }

let rec gen_aexpr g ~rank ~depth =
  let conforming = arrays_of_rank g rank in
  if depth <= 0 || Rng.chance g.rng 40 then
    if Rng.chance g.rng 75 then AA (Rng.pickl g.rng conforming).aname
    else ACst (gen_expr g [] ~depth:1 ~want:(if Rng.bool g.rng then KI else KR))
  else
    match Rng.int g.rng 5 with
    | 0 | 1 -> AB (Rng.pickl g.rng [ "+"; "-"; "*" ], gen_aexpr g ~rank ~depth:(depth - 1), gen_aexpr g ~rank ~depth:(depth - 1))
    | 2 -> AB ("/", gen_aexpr g ~rank ~depth:(depth - 1), ACst (L (Rng.range g.rng 2 4)))
    | 3 -> AC ("ABS", [ gen_aexpr g ~rank ~depth:(depth - 1) ])
    | _ -> AC (Rng.pickl g.rng [ "MIN"; "MAX" ], [ gen_aexpr g ~rank ~depth:(depth - 1); gen_aexpr g ~rank ~depth:(depth - 1) ])

let gen_arr_assign g =
  let lhs = Rng.pickl g.rng (writable g) in
  Arr { lhs = lhs.aname; rhs = gen_aexpr g ~rank:(List.length lhs.adims) ~depth:2 }

let gen_sec g =
  let one_d = List.filter (fun a -> List.length a.adims = 1 && not a.aindex) g.arrays in
  let lhs = Rng.pickl g.rng one_d and rhs = Rng.pickl g.rng one_d in
  let lst = if Rng.chance g.rng 70 then 1 else 2 in
  let rst = if Rng.chance g.rng 70 then 1 else 2 in
  let count = Rng.range g.rng 2 (max 2 (1 + ((g.n1 - 1) / max lst rst))) in
  let count = min count (1 + ((g.n1 - 1) / lst)) in
  let count = min count (1 + ((g.n1 - 1) / rst)) in
  let llo = Rng.range g.rng 1 (g.n1 - ((count - 1) * lst)) in
  let rlo = Rng.range g.rng 1 (g.n1 - ((count - 1) * rst)) in
  Sec { lhs = lhs.aname; llo; lst; rhs = rhs.aname; rlo; rst; count }

let gen_where g =
  let lhs = Rng.pickl g.rng (writable g) in
  let rank = List.length lhs.adims in
  let m = Rng.pickl g.rng (arrays_of_rank g rank) in
  let lit = match m.akind with KI -> L (Rng.range g.rng (-3) 6) | KR -> F (quarters g) in
  let mask = AB (Rng.pickl g.rng [ ">"; "<"; ">="; "=="; "/=" ], AA m.aname, ACst lit) in
  let rhs = gen_aexpr g ~rank ~depth:1 in
  let els = if Rng.chance g.rng 40 then Some (gen_aexpr g ~rank ~depth:1) else None in
  Where { mask; lhs = lhs.aname; rhs; els }

let gen_mover g =
  let lhs = Rng.pickl g.rng (writable g) in
  let rank = List.length lhs.adims in
  let srcs =
    List.filter (fun a -> a.akind = lhs.akind && a.adims = lhs.adims) (arrays_of_rank g rank)
  in
  let src = Rng.pickl g.rng srcs in
  let e = extent g lhs in
  if rank = 2 && Rng.chance g.rng 30 then
    Mover { lhs = lhs.aname; call = "TRANSPOSE"; src = src.aname; amount = 0; dim = 1; boundary = None }
  else begin
    let call = if Rng.chance g.rng 60 then "CSHIFT" else "EOSHIFT" in
    let amount = Rng.range g.rng (-e) e in
    let dim = Rng.range g.rng 1 rank in
    let boundary =
      if call = "EOSHIFT" && Rng.chance g.rng 50 then
        Some (match lhs.akind with KI -> L (Rng.range g.rng (-9) 9) | KR -> F (quarters g))
      else None
    in
    Mover { lhs = lhs.aname; call; src = src.aname; amount; dim; boundary }
  end

let gen_reduce g =
  let ints = List.filter (fun a -> a.akind = KI) g.arrays in
  let choice = Rng.int g.rng 4 in
  match choice with
  | 0 when ints <> [] ->
      let src = Rng.pickl g.rng ints in
      Reduce { target = pick_scalar g KI; op = Rng.pickl g.rng [ "SUM"; "PRODUCT" ]; src = src.aname }
  | 1 ->
      let src = Rng.pickl g.rng g.arrays in
      let t = pick_scalar g (if src.akind = KR then KR else KI) in
      Reduce { target = t; op = Rng.pickl g.rng [ "MAXVAL"; "MINVAL" ]; src = src.aname }
  | _ -> (
      match arrays_of_rank g 1 with
      | [] -> Reduce { target = "S1"; op = "MAXVAL"; src = (List.hd g.arrays).aname }
      | l ->
          let src = Rng.pickl g.rng l in
          Reduce { target = pick_scalar g KI; op = Rng.pickl g.rng [ "MAXLOC"; "MINLOC" ]; src = src.aname })

let gen_elem g venv =
  let a = Rng.pickl g.rng (writable g) in
  let ind = index_arr g in
  let indirect = match ind with Some ia when ia.aname <> a.aname -> Some ia | _ -> None in
  let subs = List.map (fun e -> gen_sub g venv ~e ~indirect) a.adims in
  Elem { lhs = a.aname; subs; rhs = gen_expr g venv ~depth:2 ~want:a.akind }

let rec gen_stm g venv ~depth =
  let r = Rng.int g.rng 100 in
  if r < 28 then gen_forall g venv
  else if r < 42 then gen_arr_assign g
  else if r < 50 then gen_sec g
  else if r < 60 then gen_where g
  else if r < 70 then gen_mover g
  else if r < 78 then gen_reduce g
  else if r < 84 then SAssign (pick_scalar g (if Rng.bool g.rng then KI else KR), gen_expr g venv ~depth:2 ~want:KI)
  else if r < 90 then gen_elem g venv
  else if r < 93 then
    match index_arr g with Some ia -> gen_vrewrite g ia | None -> gen_forall g venv
  else if r < 97 && depth < 2 then begin
    let var = if depth = 0 then "K" else "L" in
    let lo = Rng.range g.rng 1 3 in
    let hi = lo + Rng.range g.rng 1 3 in
    let down = Rng.chance g.rng 20 in
    let body =
      List.init (Rng.range g.rng 1 3) (fun _ ->
          gen_stm g ((var, (lo, hi)) :: venv) ~depth:(depth + 1))
    in
    if down then Do { var; lo = hi; hi = lo; step = -1; body }
    else Do { var; lo; hi; step = 1; body }
  end
  else if depth < 2 then
    If
      {
        cond = gen_cond g venv ~depth:1;
        then_ = List.init (Rng.range g.rng 1 2) (fun _ -> gen_stm g venv ~depth:(depth + 1));
        els =
          (if Rng.chance g.rng 50 then
             List.init (Rng.range g.rng 1 2) (fun _ -> gen_stm g venv ~depth:(depth + 1))
           else []);
      }
  else gen_forall g venv

(* full-range deterministic initialisation of one array *)
let init_stm g (a : arr) =
  match a.adims with
  | [ e ] ->
      let rhs =
        if a.aindex then
          B
            ( "+",
              C
                ( "MODULO",
                  [
                    B ("+", B ("*", L (multiplier g (Rng.range g.rng 1 5)), V "I"), L (Rng.range g.rng 0 7));
                    L g.n1;
                  ] ),
              L 1 )
        else
          let base = B ("+", B ("*", L (Rng.range g.rng (-4) 6), V "I"), L (Rng.range g.rng (-5) 9)) in
          match a.akind with
          | KI -> C ("MOD", [ base; L (Rng.range g.rng 5 13) ])
          | KR -> B ("/", base, F 4.)
      in
      Forall { vars = [ ("I", 1, e, 1) ]; mask = None; lhs = a.aname; lsubs = [ Splus ("I", 0) ]; rhs }
  | [ e1; e2 ] ->
      let base =
        B
          ( "+",
            B ("*", L (Rng.range g.rng (-3) 5), V "I"),
            B ("*", L (Rng.range g.rng (-3) 5), V "J") )
      in
      let rhs =
        match a.akind with
        | KI -> C ("MOD", [ base; L (Rng.range g.rng 5 13) ])
        | KR -> B ("/", base, F 4.)
      in
      Forall
        {
          vars = [ ("I", 1, e1, 1); ("J", 1, e2, 1) ];
          mask = None;
          lhs = a.aname;
          lsubs = [ Splus ("I", 0); Splus ("J", 0) ];
          rhs;
        }
  | _ -> assert false

let gen_dists g ~grid_rank ~rank =
  (* at most [grid_rank] distributed dimensions (sema rejects more) *)
  let forms =
    List.init rank (fun _ ->
        match Rng.pickl g.rng [ Dblock; Dblock; Dcyclic; Dstar ] with
        | Dcyclic when Rng.int g.krng 3 = 0 -> Dcyclic3
        | f -> f)
  in
  let distributed = List.filter (fun f -> f <> Dstar) forms in
  if List.length distributed <= grid_rank then forms
  else
    (* keep the first [grid_rank] distributed dims, star the rest *)
    let kept = ref 0 in
    List.map
      (fun f ->
        if f = Dstar then f
        else if !kept < grid_rank then begin incr kept; f end
        else Dstar)
      forms

(* Comm shapes that random bodies almost never reach, drawn from
   [g.crng] only and inserted at a random top-level position:
   - a coalescable FORALL pair: two same-direction shifts of BLOCK 1-D
     arrays, or two transfers between the same rows of 2-D arrays, the
     first not writing the second's source;
   - on a 2-D grid, the multicast_shift read X(I, J) = Y(c, J + S2)
     (§5.3.1, example 3), after an assignment of its shift to S2. *)
(* (lhs, source) pairs a copy FORALL may assign: same kind and layout *)
let moves arrays =
  List.concat_map
    (fun y ->
      List.filter_map
        (fun x ->
          if x.aindex || x.akind <> y.akind || x.adist <> y.adist then None else Some (x, y))
        arrays)
    arrays

let copy_pairs g arrays =
  let moves = moves arrays in
  List.concat_map
    (fun (x, y) ->
      List.filter_map
        (fun (z, w) -> if w.aname = x.aname then None else Some ((x, y), (z, w)))
        moves)
    moves
  |> function
  | [] -> None
  | l -> Some (Rng.pickl g.crng l)

let shift_pair g =
  match copy_pairs g (List.filter (fun a -> a.adist = [ Dblock ]) (arrays_of_rank g 1)) with
  | None -> []
  | Some (m1, m2) ->
      let sign = if Rng.bool g.crng then 1 else -1 in
      let member (x, y) =
        let o = sign * Rng.range g.crng 1 3 in
        Forall
          {
            vars = [ ("I", max 1 (1 - o), min g.n1 (g.n1 - o), 1) ];
            mask = None;
            lhs = x.aname;
            lsubs = [ Splus ("I", 0) ];
            rhs = A (y.aname, [ Splus ("I", o) ]);
          }
      in
      let first = member m1 in
      [ first; member m2 ]

let transfer_pair g =
  match copy_pairs g (List.filter (fun a -> List.hd a.adist <> Dstar) (arrays_of_rank g 2)) with
  | None -> []
  | Some (m1, m2) ->
      let dest = Rng.range g.crng 1 g.n2 in
      let src = Rng.range g.crng 1 g.n2 in
      let member (x, y) =
        Forall
          {
            vars = [ ("J", 1, g.n2, 1) ];
            mask = None;
            lhs = x.aname;
            lsubs = [ Sconst dest; Splus ("J", 0) ];
            rhs = A (y.aname, [ Sconst src; Splus ("J", 0) ]);
          }
      in
      [ member m1; member m2 ]

let mshift_read g ~grid =
  let full = List.filter (fun a -> not (List.mem Dstar a.adist)) (arrays_of_rank g 2) in
  match (grid, moves full) with
  | Some 2, (_ :: _ as l) ->
      let x, y = Rng.pickl g.crng l in
      let c = Rng.range g.crng 1 g.n2 in
      let o = Rng.range g.crng (1 - g.n2) (g.n2 - 1) in
      [
        SAssign ("S2", L o);
        Forall
          {
            vars = [ ("I", 1, g.n2, 1); ("J", max 1 (1 - o), min g.n2 (g.n2 - o), 1) ];
            mask = None;
            lhs = x.aname;
            lsubs = [ Splus ("I", 0); Splus ("J", 0) ];
            rhs = A (y.aname, [ Sconst c; Sscal ("J", "S2") ]);
          };
      ]
  | _ -> []

let insert g stmts body =
  if stmts = [] then body
  else
    let at = Rng.range g.crng 0 (List.length body) in
    List.filteri (fun i _ -> i < at) body @ stmts @ List.filteri (fun i _ -> i >= at) body

let comm_shapes g ~grid body =
  let body =
    if Rng.chance g.crng 30 then
      insert g (if Rng.bool g.crng then shift_pair g else transfer_pair g) body
    else body
  in
  if Rng.chance g.crng 30 then insert g (mshift_read g ~grid) body else body

let generate ~seed =
  let rng = Rng.make seed in
  let n1 = Rng.range rng 6 12 in
  let n2 = Rng.range rng 4 6 in
  let grid =
    match Rng.int rng 10 with 0 | 1 | 2 -> None | 3 | 4 | 5 | 6 -> Some 1 | _ -> Some 2
  in
  let grid_rank = match grid with None -> 1 | Some r -> r in
  let g0 =
    {
      rng;
      n1;
      n2;
      arrays = [];
      srng = Rng.make ((seed * 7919) + 0x5CA7);
      scatter = false;
      crng = Rng.make ((seed * 6151) + 0xC0A1);
      krng = Rng.make ((seed * 5003) + 0xC7C3);
      wrng = Rng.make ((seed * 4099) + 0xB16);
    }
  in
  let n_one = Rng.range rng 2 4 and n_two = Rng.range rng 1 2 in
  let with_index = Rng.chance rng 50 in
  let arrays = ref [] in
  for i = 1 to n_one do
    let akind = if Rng.chance rng 50 then KI else KR in
    arrays :=
      { aname = Printf.sprintf "A%d" i; akind; adims = [ n1 ];
        adist = gen_dists g0 ~grid_rank ~rank:1; aindex = false }
      :: !arrays
  done;
  for i = 1 to n_two do
    let akind = if Rng.chance rng 50 then KI else KR in
    arrays :=
      { aname = Printf.sprintf "B%d" i; akind; adims = [ n2; n2 ];
        adist = gen_dists g0 ~grid_rank ~rank:2; aindex = false }
      :: !arrays
  done;
  if with_index then
    arrays :=
      { aname = "V"; akind = KI; adims = [ n1 ]; adist = gen_dists g0 ~grid_rank ~rank:1;
        aindex = true }
      :: !arrays;
  let arrays = List.rev !arrays in
  let g = { g0 with arrays; scatter = with_index && Rng.chance g0.srng 50 } in
  let inits =
    List.map (init_stm g) arrays
    @ [
        SAssign ("S1", L (Rng.range rng (-5) 9));
        SAssign ("S2", L (Rng.range rng 1 6));
        SAssign ("R1", F (quarters g));
        SAssign ("R2", F (quarters g));
      ]
  in
  let body = List.init (Rng.range rng 4 10) (fun _ -> gen_stm g [] ~depth:0) in
  let body = comm_shapes g ~grid body in
  {
    pseed = seed;
    n1;
    n2;
    grid;
    arrays;
    iscalars = [ "S1"; "S2"; "K"; "L" ];
    rscalars = [ "R1"; "R2" ];
    body = inits @ body;
  }

(* gauss's pivot search, added to a generated program [p] as a pass of
   its own, so that [generate]'s programs (which the host benchmark's
   serve-mix also compiles) stay as they were.  It draws from its own
   stream and, in about a third of the programs, inserts after the
   initialisations: a FORALL copying column [c] of a 2-D array into the
   replicated array W (a multicast under a column distribution), a scalar
   DO over W keeping the largest magnitude and where it is, or a running
   sum, and a FORALL feeding the scan's scalars and its DO index into a
   distributed array.  A quarter of the scans read the column itself
   instead of W.  The scan writes S1 and R1/R2 only, never S2, which may
   hold a multicast-shift read's shift across it. *)
let with_pivot_scan (p : prog) =
  let rng = Rng.make ((p.pseed * 3571) + 0x91C0) in
  let sources = List.filter (fun a -> List.length a.adims = 2) p.arrays in
  let targets = List.filter (fun a -> List.length a.adims = 1 && not a.aindex) p.arrays in
  if sources = [] || targets = [] || not (Rng.chance rng 35) then p
  else
    let src = Rng.pickl rng sources and t = Rng.pickl rng targets in
    let c = Rng.range rng 1 p.n2 and lo = Rng.range rng 1 p.n2 in
    let elem =
      if Rng.chance rng 25 then A (src.aname, [ Splus ("K", 0); Sconst c ])
      else A ("W", [ Splus ("K", 0) ])
    in
    let r = Rng.pickl rng [ "R1"; "R2" ] and i = [ Splus ("I", 0) ] in
    let scan, v =
      if Rng.bool rng then
        let keep = [ SAssign (r, C ("ABS", [ elem ])); SAssign ("S1", V "K") ] in
        ( [
            SAssign (r, F (-1.));
            SAssign ("S1", L lo);
            Do
              { var = "K"; lo; hi = p.n2; step = 1;
                body = [ If { cond = B (">", C ("ABS", [ elem ]), V r); then_ = keep; els = [] } ] };
          ],
          "S1" )
      else
        let acc, zero = if src.akind = KR then (r, F 0.) else ("S1", L 0) in
        ( [
            SAssign (acc, zero);
            Do { var = "K"; lo; hi = p.n2; step = 1; body = [ SAssign (acc, B ("+", V acc, elem)) ] };
          ],
          (* a REAL sum does not go into an INTEGER array *)
          if acc = r && t.akind = KI then "K" else acc )
    in
    let stmts =
      (Forall
         { vars = [ ("I", 1, p.n2, 1) ]; mask = None; lhs = "W"; lsubs = i;
           rhs = A (src.aname, [ Splus ("I", 0); Sconst c ]) }
       :: scan)
      @ [
          Forall
            { vars = [ ("I", 1, p.n1, 1) ]; mask = None; lhs = t.aname; lsubs = i;
              rhs = B ("+", A (t.aname, i), B ("+", V v, V "K")) };
        ]
    in
    (* [generate] starts the body with one initialisation per array and four scalar ones *)
    let n_init = List.length p.arrays + 4 in
    let k = Rng.range rng n_init (List.length p.body) in
    let w = { aname = "W"; akind = src.akind; adims = [ p.n1 ]; adist = [ Dstar ]; aindex = false } in
    { p with
      arrays = p.arrays @ [ w ];
      body = List.filteri (fun i _ -> i < k) p.body @ stmts @ List.filteri (fun i _ -> i >= k) p.body }

(* The differential fuzzer's program for [seed]. *)
let program ~seed = with_pivot_scan (generate ~seed)

(* ------------------------------------------------------------------ *)
(* Pretty-printer: internal rep -> Fortran 90D source                  *)
(* ------------------------------------------------------------------ *)

let pp_sub = function
  | Splus (v, 0) -> v
  | Splus (v, o) when o > 0 -> Printf.sprintf "%s + %d" v o
  | Splus (v, o) -> Printf.sprintf "%s - %d" v (-o)
  | Sminus (v, o) -> Printf.sprintf "%d - %s" o v
  | Stwo (v, 0) -> Printf.sprintf "2*%s" v
  | Stwo (v, o) when o > 0 -> Printf.sprintf "2*%s + %d" v o
  | Stwo (v, o) -> Printf.sprintf "2*%s - %d" v (-o)
  | Sconst c -> string_of_int c
  | Sind (va, v, 0) -> Printf.sprintf "%s(%s)" va v
  | Sind (va, v, o) when o > 0 -> Printf.sprintf "%s(%s + %d)" va v o
  | Sind (va, v, o) -> Printf.sprintf "%s(%s - %d)" va v (-o)
  | Sscal (v, s) -> Printf.sprintf "%s + %s" v s

let pp_float x =
  if Float.is_integer x then Printf.sprintf "%.1f" x else Printf.sprintf "%.2f" x

let rec pp_expr = function
  | L n when n < 0 -> Printf.sprintf "(%d)" n
  | L n -> string_of_int n
  | F x when x < 0. -> Printf.sprintf "(%s)" (pp_float x)
  | F x -> pp_float x
  | V v -> v
  | A (a, subs) -> Printf.sprintf "%s(%s)" a (String.concat ", " (List.map pp_sub subs))
  | B (op, a, b) -> Printf.sprintf "(%s %s %s)" (pp_expr a) op (pp_expr b)
  | C (f, args) -> Printf.sprintf "%s(%s)" f (String.concat ", " (List.map pp_expr args))

let rec pp_aexpr = function
  | AA a -> a
  | ACst e -> pp_expr e
  | AB (op, a, b) -> Printf.sprintf "(%s %s %s)" (pp_aexpr a) op (pp_aexpr b)
  | AC (f, args) -> Printf.sprintf "%s(%s)" f (String.concat ", " (List.map pp_aexpr args))

let pp_triplet (v, lo, hi, step) =
  if step = 1 then Printf.sprintf "%s = %d:%d" v lo hi
  else Printf.sprintf "%s = %d:%d:%d" v lo hi step

let rec pp_stm buf ind s =
  let pad = String.make ind ' ' in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (pad ^ s ^ "\n")) fmt in
  match s with
  | Forall { vars; mask; lhs; lsubs; rhs } ->
      let heads = List.map pp_triplet vars @ (match mask with Some m -> [ pp_expr m ] | None -> []) in
      line "FORALL (%s) %s(%s) = %s" (String.concat ", " heads) lhs
        (String.concat ", " (List.map pp_sub lsubs))
        (pp_expr rhs)
  | Arr { lhs; rhs } -> line "%s = %s" lhs (pp_aexpr rhs)
  | Sec { lhs; llo; lst; rhs; rlo; rst; count } ->
      let sec lo st =
        let hi = lo + ((count - 1) * st) in
        if st = 1 then Printf.sprintf "%d:%d" lo hi else Printf.sprintf "%d:%d:%d" lo hi st
      in
      line "%s(%s) = %s(%s)" lhs (sec llo lst) rhs (sec rlo rst)
  | Where { mask; lhs; rhs; els = None } -> line "WHERE (%s) %s = %s" (pp_aexpr mask) lhs (pp_aexpr rhs)
  | Where { mask; lhs; rhs; els = Some e } ->
      line "WHERE (%s)" (pp_aexpr mask);
      line "  %s = %s" lhs (pp_aexpr rhs);
      line "ELSEWHERE";
      line "  %s = %s" lhs (pp_aexpr e);
      line "END WHERE"
  | Mover { lhs; call = "TRANSPOSE"; src; _ } -> line "%s = TRANSPOSE(%s)" lhs src
  | Mover { lhs; call; src; amount; dim; boundary } ->
      let b = match boundary with Some e -> ", " ^ pp_expr e | None -> "" in
      (* the 4-argument EOSHIFT form is the only one carrying a dim *)
      if dim = 1 && boundary = None then line "%s = %s(%s, %d)" lhs call src amount
      else if call = "CSHIFT" then line "%s = CSHIFT(%s, %d, %d)" lhs src amount dim
      else
        line "%s = EOSHIFT(%s, %d%s, %d)" lhs src amount
          (if boundary = None then ", 0" else b)
          dim
  | Reduce { target; op; src } -> line "%s = %s(%s)" target op src
  | SAssign (v, e) -> line "%s = %s" v (pp_expr e)
  | Elem { lhs; subs; rhs } ->
      line "%s(%s) = %s" lhs (String.concat ", " (List.map pp_sub subs)) (pp_expr rhs)
  | Do { var; lo; hi; step; body } ->
      if step = 1 then line "DO %s = %d, %d" var lo hi else line "DO %s = %d, %d, %d" var lo hi step;
      List.iter (pp_stm buf (ind + 2)) body;
      line "END DO"
  | If { cond; then_; els } ->
      line "IF (%s) THEN" (pp_expr cond);
      List.iter (pp_stm buf (ind + 2)) then_;
      if els <> [] then begin
        line "ELSE";
        List.iter (pp_stm buf (ind + 2)) els
      end;
      line "END IF"

let pp_dist = function
  | Dblock -> "BLOCK"
  | Dcyclic -> "CYCLIC"
  | Dcyclic3 -> "CYCLIC(3)"
  | Dstar -> "*"

(* factorise [nprocs] over a grid of the requested rank *)
let grid_dims ~rank ~nprocs =
  if rank = 1 then [ nprocs ]
  else begin
    (* largest divisor a <= sqrt(nprocs): the squarest a x b grid *)
    let a = ref 1 in
    let i = ref 1 in
    while !i * !i <= nprocs do
      if nprocs mod !i = 0 then a := !i;
      incr i
    done;
    [ !a; nprocs / !a ]
  end

let print ~nprocs (p : prog) =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "      PROGRAM FZ%d" p.pseed;
  line "      INTEGER, PARAMETER :: N1 = %d" p.n1;
  line "      INTEGER, PARAMETER :: N2 = %d" p.n2;
  line "      INTEGER %s" (String.concat ", " p.iscalars);
  line "      REAL %s" (String.concat ", " p.rscalars);
  List.iter
    (fun a ->
      let kw = match a.akind with KI -> "INTEGER" | KR -> "REAL" in
      let dims = match a.adims with [ _ ] -> "N1" | _ -> "N2, N2" in
      line "      %s %s(%s)" kw a.aname dims)
    p.arrays;
  (match p.grid with
  | None -> ()
  | Some rank ->
      let dims = grid_dims ~rank ~nprocs in
      line "C$    PROCESSORS P(%s)" (String.concat ", " (List.map string_of_int dims)));
  List.iter
    (fun a ->
      if List.exists (fun f -> f <> Dstar) a.adist then begin
        let onto = match p.grid with Some _ -> " ONTO P" | None -> "" in
        line "C$    DISTRIBUTE %s(%s)%s" a.aname
          (String.concat ", " (List.map pp_dist a.adist))
          onto
      end)
    p.arrays;
  List.iter (pp_stm buf 6) p.body;
  line "      END";
  Buffer.contents buf
