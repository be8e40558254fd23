type t = { a : int; b : int }

let const b = { a = 0; b }
let ident = { a = 1; b = 0 }
let make ~a ~b = { a; b }
let eval f i = (f.a * i) + f.b
let is_identity f = f.a = 1 && f.b = 0
let is_const f = f.a = 0
let invertible f = f.a <> 0

let apply_inverse f t =
  if f.a = 0 then None
  else
    let d = t - f.b in
    if d mod f.a = 0 then Some (d / f.a) else None

let compose f g = { a = f.a * g.a; b = (f.a * g.b) + f.b }
let equal f g = f.a = g.a && f.b = g.b

let pp ppf f =
  if f.a = 0 then Format.pp_print_int ppf f.b
  else begin
    if f.a = 1 then Format.pp_print_string ppf "i"
    else if f.a = -1 then Format.pp_print_string ppf "-i"
    else Format.fprintf ppf "%d*i" f.a;
    if f.b > 0 then Format.fprintf ppf "+%d" f.b
    else if f.b < 0 then Format.fprintf ppf "%d" f.b
  end
