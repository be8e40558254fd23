open F90d_base
open F90d_frontend

type t =
  | Canonical of string
  | Var_const of string * int
  | Var_scalar of string * Ast.expr
  | Const of Ast.expr
  | Affine of string * Affine.t
  | Vector of string * Ast.expr
  | Unknown

(* i + s / s + i / i - s with [s] free of FORALL variables. *)
let var_plus_scalar ~vars (e : Ast.expr) =
  let no_forall_vars x = not (List.exists (fun v -> List.mem v vars) (Ast.vars_of x)) in
  match e.Ast.e with
  | Ast.Bin (Ast.Add, { Ast.e = Ast.Var v; _ }, s) when List.mem v vars && no_forall_vars s ->
      Some (v, s)
  | Ast.Bin (Ast.Add, s, { Ast.e = Ast.Var v; _ }) when List.mem v vars && no_forall_vars s ->
      Some (v, s)
  | Ast.Bin (Ast.Sub, { Ast.e = Ast.Var v; _ }, s) when List.mem v vars && no_forall_vars s ->
      Some (v, Ast.mk (Ast.Un (Ast.Neg, s)))
  | _ -> None

let classify ~vars ~is_const ~is_int_array (e : Ast.expr) =
  let used = List.filter (fun v -> List.mem v vars) (Ast.vars_of e) in
  let used = List.sort_uniq compare used in
  match used with
  | [] -> Const e
  | [ v ] -> (
      match Sema.affine_of ~var:v ~lookup:is_const e with
      | Some f when Affine.is_identity f -> Canonical v
      | Some f when f.Affine.a = 1 -> Var_const (v, f.Affine.b)
      | Some f when Affine.invertible f -> Affine (v, f)
      | Some _ -> Unknown (* a = 0 cannot happen: v occurs in e *)
      | None -> (
          match var_plus_scalar ~vars e with
          | Some (v, s) -> Var_scalar (v, s)
          | None -> (
              (* indirection: V(inner) with V an integer array *)
              match e.Ast.e with
              | Ast.Ref r when is_int_array r.Ast.base -> Vector (v, e)
              | _ -> Unknown)))
  | _ :: _ :: _ -> Unknown

let pp ppf = function
  | Canonical v -> Format.fprintf ppf "(%s)" v
  | Var_const (v, c) -> Format.fprintf ppf "(%s%+d)" v c
  | Var_scalar (v, _) -> Format.fprintf ppf "(%s+s)" v
  | Const _ -> Format.fprintf ppf "(s)"
  | Affine (v, f) -> Format.fprintf ppf "(%d*%s%+d)" f.Affine.a v f.Affine.b
  | Vector (v, _) -> Format.fprintf ppf "(V(%s))" v
  | Unknown -> Format.fprintf ppf "(?)"
