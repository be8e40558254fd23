open F90d_base

type form = Block | Cyclic | Block_cyclic of int | Replicated
type t = { n : int; p : int; form : form; chunk : int }

let make form ~n ~p =
  if n < 0 then Diag.bug "distrib: negative extent %d" n;
  if p < 1 then Diag.bug "distrib: processor count %d < 1" p;
  (match form with
  | Block_cyclic k when k < 1 -> Diag.bug "distrib: CYCLIC(%d) block size < 1" k
  | _ -> ());
  { n; p; form; chunk = (if n = 0 then 1 else Util.ceil_div n p) }

let form_name = function
  | Block -> "BLOCK"
  | Cyclic -> "CYCLIC"
  | Block_cyclic k -> Printf.sprintf "CYCLIC(%d)" k
  | Replicated -> "*"

let pp ppf t = Format.fprintf ppf "%s[n=%d,p=%d]" (form_name t.form) t.n t.p

let chunk t = t.chunk

let owner t g =
  if g < 0 || g >= t.n then Diag.bug "distrib: index %d outside [0,%d)" g t.n;
  match t.form with
  | Replicated -> 0
  | Block -> g / t.chunk
  | Cyclic -> g mod t.p
  | Block_cyclic k -> g / k mod t.p

let is_owned t ~proc g = match t.form with Replicated -> true | _ -> owner t g = proc

let local_of_global t g =
  match t.form with
  | Replicated -> g
  | Block -> g mod chunk t
  | Cyclic -> g / t.p
  | Block_cyclic k ->
      let course = g / k in
      ((course / t.p) * k) + (g mod k)

let global_of_local t ~proc l =
  match t.form with
  | Replicated -> l
  | Block -> (proc * chunk t) + l
  | Cyclic -> (l * t.p) + proc
  | Block_cyclic k ->
      let course = l / k in
      ((((course * t.p) + proc) * k) + (l mod k))

let local_count t ~proc =
  match t.form with
  | Replicated -> t.n
  | Block ->
      let c = chunk t in
      max 0 (min t.n ((proc + 1) * c) - (proc * c))
  | Cyclic -> if t.n <= proc then 0 else ((t.n - proc - 1) / t.p) + 1
  | Block_cyclic k ->
      (* full courses plus the possibly partial last course *)
      let courses = Util.ceil_div t.n k in
      let rec count acc course =
        if course >= courses then acc
        else if course mod t.p <> proc then count acc (course + 1)
        else
          let len = min k (t.n - (course * k)) in
          count (acc + len) (course + 1)
      in
      count 0 0

let owned_indices t ~proc =
  List.filter (fun g -> is_owned t ~proc g) (Util.range 0 (t.n - 1))
