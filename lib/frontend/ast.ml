(** Abstract syntax of the Fortran 90D/HPF subset.

    Array references carry a unique id ([rid]) so later passes can attach
    communication annotations without mutating the tree. *)

open F90d_base

type kind = Integer | Real | Logical

type binop = Add | Sub | Mul | Div | Pow | Eq | Ne | Lt | Le | Gt | Ge | And | Or
type unop = Neg | Not

type expr = { e : expr_node; loc : Loc.t }

and expr_node =
  | Int_lit of int
  | Real_lit of float
  | Log_lit of bool
  | Str_lit of string
  | Var of string
  | Ref of ref_  (** array element/section reference, or function call *)
  | Bin of binop * expr * expr
  | Un of unop * expr

and ref_ = { base : string; args : section list; rid : int }

and section =
  | Elem of expr
  | Range of expr option * expr option * expr option  (** lo : hi : stride *)

type range = { lo : expr; hi : expr; st : expr option }

type stmt = { s : stmt_node; sloc : Loc.t }

and stmt_node =
  | Assign of expr * expr  (** lhs is Var or Ref *)
  | Where of expr * stmt list * stmt list
  | Forall of (string * range) list * expr option * stmt list
  | Do of string * range * stmt list
  | While of expr * stmt list
  | If of (expr * stmt list) list * stmt list
  | Call of string * expr list
  | Print of expr list
  | Return

type distform = Dblock | Dcyclic | Dcyclic_k of int | Dstar

type directive =
  | Processors of { pname : string; pdims : expr list }
  | Template of { tname : string; tdims : (expr * expr) list }
  | Align of { array : string; dummies : string list; target : string; subscripts : expr list }
  | Distribute of { template : string; forms : distform list; onto : string option }

type decl = {
  dname : string;
  dkind : kind;
  ddims : (expr * expr) list;  (** (lower, upper) bound expressions; [] = scalar *)
  dparam : expr option;  (** PARAMETER initial value *)
  dloc : Loc.t;
}

type subprogram = {
  pname : string;
  args : string list;
  decls : decl list;
  directives : (directive * Loc.t) list;
  body : stmt list;
  ploc : Loc.t;
}

type program = { main : subprogram; subs : subprogram list }

(* ------------------------------------------------------------------ *)
(* Constructors and helpers                                            *)
(* ------------------------------------------------------------------ *)

(* Reference ids key the IR's access tables, so they must stay unique
   when several domains parse and normalize at once. *)
let next_rid = Atomic.make 1

let fresh_rid () = Atomic.fetch_and_add next_rid 1

let mk ?(loc = Loc.none) e = { e; loc }
let int_lit ?loc n = mk ?loc (Int_lit n)
let var ?loc name = mk ?loc (Var name)

let ref_ ?loc base args = mk ?loc (Ref { base; args; rid = fresh_rid () })
let bin ?loc op a b = mk ?loc (Bin (op, a, b))

let rec map_expr f expr =
  let e =
    match expr.e with
    | Int_lit _ | Real_lit _ | Log_lit _ | Str_lit _ | Var _ -> expr.e
    | Ref r ->
        Ref
          {
            r with
            args =
              List.map
                (function
                  | Elem x -> Elem (map_expr f x)
                  | Range (a, b, c) ->
                      Range
                        ( Option.map (map_expr f) a,
                          Option.map (map_expr f) b,
                          Option.map (map_expr f) c ))
                r.args;
          }
    | Bin (op, a, b) -> Bin (op, map_expr f a, map_expr f b)
    | Un (op, a) -> Un (op, map_expr f a)
  in
  f { expr with e }

(** All array/function references in an expression, left to right. *)
let rec refs_of expr =
  match expr.e with
  | Int_lit _ | Real_lit _ | Log_lit _ | Str_lit _ | Var _ -> []
  | Ref r ->
      let inner =
        List.concat_map
          (function
            | Elem x -> refs_of x
            | Range (a, b, c) ->
                List.concat_map (function Some x -> refs_of x | None -> []) [ a; b; c ])
          r.args
      in
      (r :: inner)
  | Bin (_, a, b) -> refs_of a @ refs_of b
  | Un (_, a) -> refs_of a

(** Free variable names of an expression. *)
let rec vars_of expr =
  match expr.e with
  | Int_lit _ | Real_lit _ | Log_lit _ | Str_lit _ -> []
  | Var v -> [ v ]
  | Ref r ->
      List.concat_map
        (function
          | Elem x -> vars_of x
          | Range (a, b, c) ->
              List.concat_map (function Some x -> vars_of x | None -> []) [ a; b; c ])
        r.args
  | Bin (_, a, b) -> vars_of a @ vars_of b
  | Un (_, a) -> vars_of a

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Pow -> "**"
  | Eq -> ".EQ." | Ne -> ".NE." | Lt -> ".LT." | Le -> ".LE." | Gt -> ".GT." | Ge -> ".GE."
  | And -> ".AND." | Or -> ".OR."

(* The one printer of expressions (F77 text, explain reports, coalescing
   keys).  A buffer, not [Format]: lowering renders every FORALL, and a
   [Format.asprintf] allocates about 300 words. *)
let rec add_expr buf expr =
  let put = Buffer.add_string buf in
  match expr.e with
  | Int_lit n -> put (string_of_int n)
  | Real_lit r -> put (Printf.sprintf "%g" r)
  | Log_lit b -> put (if b then ".TRUE." else ".FALSE.")
  | Str_lit s -> put "'"; put s; put "'"
  | Var v -> put v
  | Ref r ->
      put r.base;
      put "(";
      List.iteri (fun i s -> if i > 0 then put ","; add_section buf s) r.args;
      put ")"
  | Bin (op, a, b) ->
      put "(";
      add_expr buf a;
      put (" " ^ binop_name op ^ " ");
      add_expr buf b;
      put ")"
  | Un (Neg, a) -> put "(-"; add_expr buf a; put ")"
  | Un (Not, a) -> put "(.NOT. "; add_expr buf a; put ")"

and add_section buf = function
  | Elem e -> add_expr buf e
  | Range (a, b, c) ->
      let opt = function Some e -> add_expr buf e | None -> () in
      opt a;
      Buffer.add_char buf ':';
      opt b;
      Option.iter (fun e -> Buffer.add_char buf ':'; add_expr buf e) c

let expr_str e =
  let buf = Buffer.create 32 in
  add_expr buf e;
  Buffer.contents buf

let kind_name = function Integer -> "INTEGER" | Real -> "REAL" | Logical -> "LOGICAL"
