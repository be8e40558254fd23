(* [vs] is sorted by name and holds no zero coefficient, so a form is
   constant iff [vs] is empty.  Subscript forms have a variable or two:
   a sorted list is cheaper than a map. *)
type t = { c : int; vs : (string * int) list }

let rec merge xs ys =
  match (xs, ys) with
  | [], l | l, [] -> l
  | ((x, a) as p) :: xs', ((y, b) as q) :: ys' ->
      let o = String.compare x y in
      if o < 0 then p :: merge xs' ys
      else if o > 0 then q :: merge xs ys'
      else if a + b = 0 then merge xs' ys'
      else (x, a + b) :: merge xs' ys'

let add a b = { c = a.c + b.c; vs = merge a.vs b.vs }

let scale n a =
  let term (v, k) = if n * k = 0 then None else Some (v, n * k) in
  { c = n * a.c; vs = List.filter_map term a.vs }

let rec form lookup (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Int_lit n -> Some { c = n; vs = [] }
  | Ast.Var v -> (
      match lookup v with
      | Some n -> Some { c = n; vs = [] }
      | None -> Some { c = 0; vs = [ (v, 1) ] })
  | Ast.Un (Ast.Neg, a) -> Option.map (scale (-1)) (form lookup a)
  | Ast.Bin (((Ast.Add | Ast.Sub | Ast.Mul) as op), a, b) -> (
      match (op, form lookup a, form lookup b) with
      | Ast.Add, Some x, Some y -> Some (add x y)
      | Ast.Sub, Some x, Some y -> Some (add x (scale (-1) y))
      | Ast.Mul, Some { c = k; vs = [] }, Some x | Ast.Mul, Some x, Some { c = k; vs = [] } ->
          Some (scale k x)
      | _ -> None)
  | _ -> None

let no_lookup _ = None
let of_expr ?(lookup = no_lookup) e = form lookup e

let const a = a.c
let coeff v a = Option.value (List.assoc_opt v a.vs) ~default:0
let vars a = List.map fst a.vs

let const_diff e1 e2 =
  match (of_expr e1, of_expr e2) with
  | Some a, Some b -> (
      match add a (scale (-1) b) with { c; vs = [] } -> Some c | _ -> None)
  | _ -> None
