open F90d_base
open F90d_dist

type space = int array list

type sub = Lin of Kernel.lin | Vals of int array | Fn of (int array -> int -> int)

type pass = { owners : int array; flats : int array; starts : int array }

let count (lo, hi, stp) =
  if stp = 0 then Diag.error "zero FORALL stride";
  if stp > 0 then max 0 (((hi - lo) / stp) + 1) else max 0 (((lo - hi) / -stp) + 1)

(* Iterations [k0, k1) of a progression starting at [lo]. *)
let stretch ~lo ~stp k0 k1 =
  let a = Array.make (max 0 (k1 - k0)) 0 in
  for k = k0 to k1 - 1 do
    a.(k - k0) <- lo + (k * stp)
  done;
  a

let progression ((lo, _, stp) as r) = stretch ~lo ~stp 0 (count r)

let replicated ranges = List.map progression ranges

let even ~nprocs ~rank = function
  | [] -> []
  | ((lo, _, stp) as first) :: rest ->
      let n = count first in
      let chunk = Util.ceil_div (max n 1) nprocs in
      let k0 = rank * chunk and k1 = min n ((rank + 1) * chunk) in
      stretch ~lo ~stp k0 k1 :: List.map progression rest

let canonical dad ~var_dims ~guards ~ranges ~rank =
  if
    not
      (List.for_all
         (fun (dim, g) -> Bounds.local_of_global_index dad ~dim ~rank g <> None)
         guards)
  then None
  else
    Some
      (List.map2
         (fun dim_opt range ->
           match dim_opt with
           | None -> progression range
           | Some dim -> (
               let lo, hi, stp = range in
               match Bounds.set_bound dad ~dim ~rank ~glb:lo ~gub:hi ~gst:stp with
               | None -> [||]
               | Some { Bounds.llb; lub; lst } ->
                   let n = if lub < llb then 0 else ((lub - llb) / lst) + 1 in
                   (* resolve the layout once, not per index *)
                   let layout = Dad.layout_at dad ~dim ~rank in
                   let flb = (Dad.dims dad).(dim).Dad.flb in
                   Array.init n (fun k -> Layout.global_of_local layout (llb + (k * lst)) + flb)))
         var_dims ranges)

let points space =
  match space with [] -> 0 | _ -> List.fold_left (fun acc v -> acc * Array.length v) 1 space

let iter space f =
  let vals = Array.of_list space in
  let nv = Array.length vals in
  let x = Array.map (fun v -> if Array.length v > 0 then v.(0) else 0) vals in
  let idx = Array.make nv 0 in
  for c = 0 to points space - 1 do
    f x c;
    (* odometer step: the last variable varies fastest *)
    let k = ref (nv - 1) in
    while !k >= 0 do
      let j = !k in
      idx.(j) <- idx.(j) + 1;
      if idx.(j) < Array.length vals.(j) then begin
        x.(j) <- vals.(j).(idx.(j));
        k := -1
      end
      else begin
        idx.(j) <- 0;
        x.(j) <- vals.(j).(0);
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
