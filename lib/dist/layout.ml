open F90d_base

type t = Prog of { first : int; step : int; count : int } | Explicit of int array

let empty = Prog { first = 0; step = 1; count = 0 }
let count = function Prog p -> p.count | Explicit a -> Array.length a

(* Owned array indices for BLOCK: align maps the contiguous block of template
   cells back to a contiguous interval of array indices. *)
let resolve_block (d : Distrib.t) (al : Affine.t) extent proc =
  let c = Distrib.chunk d in
  let blo = proc * c and bhi = min d.n ((proc + 1) * c) - 1 in
  if bhi < blo then empty
  else
    let lo, hi =
      if al.a > 0 then (Util.ceil_div (blo - al.b) al.a, Util.floor_div (bhi - al.b) al.a)
      else (Util.ceil_div (bhi - al.b) al.a, Util.floor_div (blo - al.b) al.a)
    in
    let lo = max lo 0 and hi = min hi (extent - 1) in
    if hi < lo then empty else Prog { first = lo; step = 1; count = hi - lo + 1 }

(* Owned array indices for CYCLIC with a > 0: a*i + b = proc (mod P). *)
let resolve_cyclic (d : Distrib.t) (al : Affine.t) extent proc =
  let p = d.p in
  let g = Util.gcd al.a p in
  if Util.modulo (proc - al.b) g <> 0 then empty
  else
    (* solve a*i = proc - b (mod p): solutions are i = first (mod p/g) *)
    let step = p / g in
    let rec find i =
      if i >= extent then None
      else if Affine.eval al i >= 0 && Util.modulo (Affine.eval al i) p = proc then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> empty
    | Some first ->
        (* also require the template index in range [0, n) *)
        let max_i = min (extent - 1) (Util.floor_div (d.n - 1 - al.b) al.a) in
        if max_i < first then empty
        else Prog { first; step; count = ((max_i - first) / step) + 1 }

let resolve_explicit (d : Distrib.t) (al : Affine.t) extent proc =
  let owned = ref [] in
  for i = extent - 1 downto 0 do
    let t = Affine.eval al i in
    if t >= 0 && t < d.n && Distrib.is_owned d ~proc t then owned := i :: !owned
  done;
  Explicit (Array.of_list !owned)

let resolve (d : Distrib.t) ~align ~extent ~proc =
  match d.form with
  | Distrib.Replicated -> Prog { first = 0; step = 1; count = extent }
  | _ when not (Affine.invertible align) ->
      Diag.bug "layout: non-invertible alignment on a distributed dimension"
  | Distrib.Block -> resolve_block d align extent proc
  | Distrib.Cyclic when align.a > 0 -> resolve_cyclic d align extent proc
  | Distrib.Cyclic | Distrib.Block_cyclic _ -> resolve_explicit d align extent proc

(* Position of [g] in the ascending array [a], or -1. *)
let rec bisect a g lo hi =
  if lo > hi then -1
  else
    let mid = (lo + hi) / 2 in
    if a.(mid) = g then mid else if a.(mid) < g then bisect a g (mid + 1) hi else bisect a g lo (mid - 1)

let is_owned t g =
  match t with
  | Prog { first; step; count } ->
      g >= first && (g - first) mod step = 0 && (g - first) / step < count
  | Explicit a -> bisect a g 0 (Array.length a - 1) >= 0

let local_of_global t g =
  match t with
  | Prog { first; step = 1; count } ->
      let l = g - first in
      if l < 0 || l >= count then Diag.bug "layout: global index %d not owned" g;
      l
  | Prog { first; step; count } ->
      let l = (g - first) / step in
      if g < first || (g - first) mod step <> 0 || l >= count then
        Diag.bug "layout: global index %d not owned" g;
      l
  | Explicit a ->
      let l = bisect a g 0 (Array.length a - 1) in
      if l < 0 then Diag.bug "layout: global index %d not owned" g;
      l

let global_of_local t l =
  match t with
  | Prog { first; step; count } ->
      if l < 0 || l >= count then Diag.bug "layout: local index %d out of range" l;
      first + (l * step)
  | Explicit a -> a.(l)

let to_list t = List.init (count t) (global_of_local t)

(* Normalise a possibly-descending Fortran triplet to an ascending one
   describing the same index set. *)
let normalise ~glb ~gub ~gst =
  if gst = 0 then Diag.bug "set_bound: zero stride";
  if gst > 0 then if gub < glb then None else Some (glb, gub, gst)
  else if glb < gub then None
  else
    let k = (glb - gub) / -gst in
    Some (glb + (k * gst), glb, -gst)

(* The general intersection: a progression by the Chinese remainder
   theorem, an index vector by filtering. *)
let intersect t ~glb ~gub ~gst =
  match normalise ~glb ~gub ~gst with
  | None -> empty
  | Some (glb, gub, gst) -> (
      match t with
      | Prog { count = 0; _ } -> empty
      | Prog { first; step; count } -> (
          let hi = min gub (first + ((count - 1) * step)) in
          (* smallest g >= lo with g = glb (mod gst) and g = first (mod step) *)
          match
            Util.crt_first_ge ~lo:(max glb first) ~r1:(Util.modulo glb gst) ~m1:gst
              ~r2:(Util.modulo first step) ~m2:step
          with
          | Some g0 when g0 <= hi ->
              let bigstep = gst / Util.gcd gst step * step in
              Prog { first = g0; step = bigstep; count = ((hi - g0) / bigstep) + 1 }
          | _ -> empty)
      | Explicit a ->
          Explicit
            (Array.of_seq
               (Seq.filter
                  (fun g -> g >= glb && g <= gub && (g - glb) mod gst = 0)
                  (Array.to_seq a))))

let set_bound t ~glb ~gub ~gst =
  match t with
  | Prog { first; step = 1; count } when gst = 1 || gst = -1 ->
      (* unit strides on both sides: an interval intersection *)
      let lo = Int.max (Int.min glb gub) first
      and hi = Int.min (Int.max glb gub) (first + count - 1) in
      if (gst > 0 && gub < glb) || (gst < 0 && glb < gub) || hi < lo then empty
      else Prog { first = lo; step = 1; count = hi - lo + 1 }
  | _ -> intersect t ~glb ~gub ~gst

let pp ppf = function
  | Prog { first; step; count } -> Format.fprintf ppf "prog(first=%d,step=%d,count=%d)" first step count
  | Explicit a -> Format.fprintf ppf "explicit(%d indices)" (Array.length a)
