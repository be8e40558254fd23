open F90d_base
open F90d_dist

type space = Layout.t list

type sub = Lin of Kernel.lin | Vals of int array | Fn of (int array -> int -> int)

type pass = { owners : int array; flats : int array; starts : int array }

(* A stride is only known at run time; a zero one is the program's
   error, located at its statement, on every path to the iteration
   space. *)
let nonzero stp = if stp = 0 then Diag.error "zero FORALL stride" else stp

let count (lo, hi, stp) =
  let stp = nonzero stp in
  if stp > 0 then Int.max 0 (((hi - lo) / stp) + 1) else Int.max 0 (((lo - hi) / -stp) + 1)

let progression ((lo, _, stp) as r) = Layout.Prog { first = lo; step = stp; count = count r }

let replicated ranges = List.map progression ranges

let even ~nprocs ~rank = function
  | [] -> []
  | ((lo, _, stp) as first) :: rest ->
      let n = count first in
      let chunk = Util.ceil_div (max n 1) nprocs in
      let k0 = rank * chunk in
      Layout.Prog { first = lo + (k0 * stp); step = stp; count = max 0 (min n (k0 + chunk) - k0) }
      :: List.map progression rest

(* [rank]'s owned iterations of [lo:hi:stp] over dimension [dim], as
   Fortran indices *)
let owned dad ~dim ~rank (lo, hi, stp) =
  let flb = (Dad.dims dad).(dim).Dad.flb in
  match
    Layout.set_bound (Dad.layout_at dad ~dim ~rank) ~glb:(lo - flb) ~gub:(hi - flb)
      ~gst:(nonzero stp)
  with
  | Layout.Prog p -> Layout.Prog { p with first = p.first + flb }
  | Layout.Explicit a -> Layout.Explicit (Array.map (( + ) flb) a)

(* Whether [rank] owns every guard from [i] on. *)
let rec guarded dad ~guard_dims ~guards ~rank i =
  i >= Array.length guard_dims
  ||
  let dim = guard_dims.(i) in
  Layout.is_owned (Dad.layout_at dad ~dim ~rank) (guards.(i) - (Dad.dims dad).(dim).Dad.flb)
  && guarded dad ~guard_dims ~guards ~rank (i + 1)

let rec owned_dims dad ~var_dims ~rank i = function
  | [] -> []
  | range :: rest ->
      let dim = var_dims.(i) in
      (if dim < 0 then progression range else owned dad ~dim ~rank range)
      :: owned_dims dad ~var_dims ~rank (i + 1) rest

let canonical dad ~var_dims ~guard_dims ~guards ~ranges ~rank =
  if guarded dad ~guard_dims ~guards ~rank 0 then Some (owned_dims dad ~var_dims ~rank 0 ranges)
  else None

let points = function
  | [] -> 0
  | space -> List.fold_left (fun acc l -> acc * Layout.count l) 1 space

let iter space f =
  let ls = Array.of_list space in
  let nv = Array.length ls in
  let x = Array.map (fun l -> if Layout.count l > 0 then Layout.global_of_local l 0 else 0) ls in
  let idx = Array.make nv 0 in
  for c = 0 to points space - 1 do
    f x c;
    (* odometer step: the last variable varies fastest *)
    let k = ref (nv - 1) in
    while !k >= 0 do
      let j = !k in
      idx.(j) <- idx.(j) + 1;
      if idx.(j) < Layout.count ls.(j) then begin
        x.(j) <- Layout.global_of_local ls.(j) idx.(j);
        k := -1
      end
      else begin
        idx.(j) <- 0;
        x.(j) <- Layout.global_of_local ls.(j) 0;
        k := j - 1
      end
    done
  done

(* One rank's iterations, from entry [at] on. *)
let walk dad ~every_owner ~copies ~g ~owners ~flats ~at space subs =
  iter space (fun x c ->
      for d = 0 to Array.length subs - 1 do
        g.(d) <-
          (match subs.(d) with
          | Lin l ->
              let v = ref l.Kernel.base in
              for k = 0 to Array.length x - 1 do
                v := !v + (l.Kernel.coefs.(k) * x.(k))
              done;
              !v
          | Vals a -> a.(c)
          | Fn fn -> fn x c)
      done;
      Dad.locate dad g ~every_owner ~owners ~flats ~at:(at + (c * copies)))

let run dad ~every_owner spaces =
  let copies = if every_owner then Dad.copies dad else 1 in
  let n = Array.length spaces in
  let starts = Array.make (n + 1) 0 in
  Array.iteri
    (fun i s ->
      let p = match s with None -> 0 | Some (space, _) -> points space in
      starts.(i + 1) <- starts.(i) + (p * copies))
    spaces;
  let owners = Array.make starts.(n) 0 and flats = Array.make starts.(n) 0 in
  let g = Array.make (Dad.rank dad) 0 in
  Array.iteri
    (fun i s ->
      match s with
      | None -> ()
      | Some (space, subs) ->
          walk dad ~every_owner ~copies ~g ~owners ~flats ~at:starts.(i) space subs)
    spaces;
  { owners; flats; starts }
