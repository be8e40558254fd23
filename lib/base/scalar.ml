type t = Int of int | Real of float | Log of bool | Str of string
type kind = Kint | Kreal | Klog | Kstr

let kind = function
  | Int _ -> Kint
  | Real _ -> Kreal
  | Log _ -> Klog
  | Str _ -> Kstr

let pp ppf = function
  | Int i -> Format.pp_print_int ppf i
  | Real r -> Format.fprintf ppf "%g" r
  | Log b -> Format.pp_print_string ppf (if b then ".TRUE." else ".FALSE.")
  | Str s -> Format.fprintf ppf "%S" s

let pp_kind ppf k =
  Format.pp_print_string ppf
    (match k with Kint -> "INTEGER" | Kreal -> "REAL" | Klog -> "LOGICAL" | Kstr -> "CHARACTER")

let to_int = function
  | Int i -> i
  | Real r -> int_of_float r
  | Log _ | Str _ -> Diag.bug "scalar: expected numeric, got logical/string"

let to_real = function
  | Int i -> float_of_int i
  | Real r -> r
  | Log _ | Str _ -> Diag.bug "scalar: expected numeric, got logical/string"

let to_bool = function
  | Log b -> b
  | Int _ | Real _ | Str _ -> Diag.bug "scalar: expected logical"

let zero = function
  | Kint -> Int 0
  | Kreal -> Real 0.
  | Klog -> Log false
  | Kstr -> Str ""

let num_op fint freal a b =
  match (a, b) with
  | Int x, Int y -> Int (fint x y)
  | (Int _ | Real _), (Int _ | Real _) -> Real (freal (to_real a) (to_real b))
  | _ -> Diag.bug "scalar: numeric operation on non-numeric value"

let add = num_op ( + ) ( +. )
let sub = num_op ( - ) ( -. )
let mul = num_op ( * ) ( *. )

let div ?loc a b =
  match (a, b) with
  | Int x, Int y -> if y = 0 then Diag.error ?loc "integer division by zero" else Int (x / y)
  | (Int _ | Real _), (Int _ | Real _) -> Real (to_real a /. to_real b)
  | _ -> Diag.bug "scalar: division on non-numeric value"

let pow a b =
  match (a, b) with
  | Int x, Int y when y >= 0 ->
      let rec go acc b e = if e = 0 then acc else go (if e land 1 = 1 then acc * b else acc) (b * b) (e lsr 1) in
      Int (go 1 x y)
  | (Int _ | Real _), (Int _ | Real _) -> Real (Float.pow (to_real a) (to_real b))
  | _ -> Diag.bug "scalar: power on non-numeric value"

let neg = function
  | Int i -> Int (-i)
  | Real r -> Real (-.r)
  | Log _ | Str _ -> Diag.bug "scalar: negation of non-numeric value"

let not_ = function
  | Log b -> Log (not b)
  | Int _ | Real _ | Str _ -> Diag.bug "scalar: .NOT. of non-logical value"

let and_ a b = Log (to_bool a && to_bool b)
let or_ a b = Log (to_bool a || to_bool b)

let compare_num a b =
  match (a, b) with
  | Int x, Int y -> compare x y
  | (Int _ | Real _), (Int _ | Real _) -> compare (to_real a) (to_real b)
  | Str x, Str y -> compare x y
  | Log x, Log y -> compare x y
  | _ -> Diag.bug "scalar: comparison of incompatible values"

let cmp_eq a b = Log (compare_num a b = 0)
let cmp_ne a b = Log (compare_num a b <> 0)
let cmp_lt a b = Log (compare_num a b < 0)
let cmp_le a b = Log (compare_num a b <= 0)
let cmp_gt a b = Log (compare_num a b > 0)
let cmp_ge a b = Log (compare_num a b >= 0)
let min2 a b = if compare_num a b <= 0 then a else b
let max2 a b = if compare_num a b >= 0 then a else b

let equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Real x, Real y -> Float.equal x y
  | Log x, Log y -> x = y
  | Str x, Str y -> String.equal x y
  | _ -> false
