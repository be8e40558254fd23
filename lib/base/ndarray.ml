type data = Reals of float array | Ints of int array | Logs of bool array
type t = { lb : int array; extents : int array; data : data }

let kind t =
  match t.data with Reals _ -> Scalar.Kreal | Ints _ -> Scalar.Kint | Logs _ -> Scalar.Klog

let rank t = Array.length t.extents
let size t = Array.fold_left ( * ) 1 t.extents

let elem_bytes t = match t.data with Reals _ -> 8 | Ints _ -> 4 | Logs _ -> 4
let bytes t = size t * elem_bytes t

let check_shape lb extents =
  if Array.length lb <> Array.length extents then
    Diag.bug "ndarray: lb/extents rank mismatch";
  Array.iter (fun e -> if e < 0 then Diag.bug "ndarray: negative extent") extents

let default_lb extents = Array.make (Array.length extents) 1

let create k ?lb extents =
  let lb = match lb with Some l -> l | None -> default_lb extents in
  check_shape lb extents;
  let n = Array.fold_left ( * ) 1 extents in
  let data =
    match k with
    | Scalar.Kreal -> Reals (Array.make n 0.)
    | Scalar.Kint -> Ints (Array.make n 0)
    | Scalar.Klog -> Logs (Array.make n false)
    | Scalar.Kstr -> Diag.bug "ndarray: string arrays are not supported"
  in
  { lb; extents; data }

let reuse into k n =
  match into with
  | Some t when kind t = k && rank t = 1 && size t = n -> t
  | _ -> create k [| n |]

let of_reals ?lb extents a =
  let lb = match lb with Some l -> l | None -> default_lb extents in
  check_shape lb extents;
  if Array.length a <> Array.fold_left ( * ) 1 extents then
    Diag.bug "ndarray: payload size mismatch";
  { lb; extents; data = Reals a }

let strides t =
  let r = rank t in
  let s = Array.make r 1 in
  for d = 1 to r - 1 do
    s.(d) <- s.(d - 1) * t.extents.(d - 1)
  done;
  s

let offset t idx =
  if Array.length idx <> rank t then Diag.bug "ndarray: index rank mismatch";
  let off = ref 0 and stride = ref 1 in
  for d = 0 to rank t - 1 do
    let i = idx.(d) - t.lb.(d) in
    if i < 0 || i >= t.extents.(d) then
      Diag.bug "ndarray: index %d out of bounds [%d,%d] in dim %d" idx.(d) t.lb.(d)
        (t.lb.(d) + t.extents.(d) - 1)
        (d + 1);
    off := !off + (i * !stride);
    stride := !stride * t.extents.(d)
  done;
  !off

let get_flat t i =
  match t.data with
  | Reals a -> Scalar.Real a.(i)
  | Ints a -> Scalar.Int a.(i)
  | Logs a -> Scalar.Log a.(i)

let set_flat t i v =
  match t.data with
  | Reals a -> a.(i) <- Scalar.to_real v
  | Ints a -> a.(i) <- Scalar.to_int v
  | Logs a -> a.(i) <- Scalar.to_bool v

let get t idx = get_flat t (offset t idx)
let set t idx v = set_flat t (offset t idx) v

let reals t = match t.data with Reals a -> a | _ -> Diag.bug "ndarray: expected REAL payload"
let ints t = match t.data with Ints a -> a | _ -> Diag.bug "ndarray: expected INTEGER payload"

let fill t v =
  match t.data with
  | Reals a -> Array.fill a 0 (Array.length a) (Scalar.to_real v)
  | Ints a -> Array.fill a 0 (Array.length a) (Scalar.to_int v)
  | Logs a -> Array.fill a 0 (Array.length a) (Scalar.to_bool v)

let copy t =
  let data =
    match t.data with
    | Reals a -> Reals (Array.copy a)
    | Ints a -> Ints (Array.copy a)
    | Logs a -> Logs (Array.copy a)
  in
  { t with data }

let iteri t f =
  let r = rank t in
  if size t = 0 then ()
  else begin
    let idx = Array.copy t.lb in
    let n = size t in
    for flat = 0 to n - 1 do
      f idx (get_flat t flat);
      (* advance the column-major odometer *)
      let rec bump d =
        if d < r then
          if idx.(d) < t.lb.(d) + t.extents.(d) - 1 then idx.(d) <- idx.(d) + 1
          else begin
            idx.(d) <- t.lb.(d);
            bump (d + 1)
          end
      in
      bump 0
    done
  end

let init k ?lb extents f =
  let t = create k ?lb extents in
  iteri t (fun idx _ -> set t (Array.copy idx) (f idx));
  t

let equal a b =
  a.lb = b.lb && a.extents = b.extents
  &&
  match (a.data, b.data) with
  | Reals x, Reals y -> x = y
  | Ints x, Ints y -> x = y
  | Logs x, Logs y -> x = y
  | _ -> false

let approx_equal ?(eps = 1e-9) a b =
  a.extents = b.extents
  &&
  match (a.data, b.data) with
  | Reals x, Reals y ->
      let ok = ref true in
      Array.iteri (fun i v -> if Float.abs (v -. y.(i)) > eps then ok := false) x;
      !ok
  | Ints x, Ints y -> x = y
  | Logs x, Logs y -> x = y
  | _ -> false

let pp ppf t =
  let pp_dims ppf () =
    Array.iteri
      (fun d e ->
        if d > 0 then Format.pp_print_string ppf ",";
        Format.fprintf ppf "%d:%d" t.lb.(d) (t.lb.(d) + e - 1))
      t.extents
  in
  Format.fprintf ppf "@[<hov 2>%a(%a)[" Scalar.pp_kind (kind t) pp_dims ();
  let n = min (size t) 16 in
  for i = 0 to n - 1 do
    if i > 0 then Format.fprintf ppf ";@ ";
    Scalar.pp ppf (get_flat t i)
  done;
  if size t > n then Format.fprintf ppf ";@ ...";
  Format.fprintf ppf "]@]"

let slice_flat t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > size t then Diag.bug "ndarray: slice out of range";
  let data =
    match t.data with
    | Reals a -> Reals (Array.sub a pos len)
    | Ints a -> Ints (Array.sub a pos len)
    | Logs a -> Logs (Array.sub a pos len)
  in
  { lb = [| 1 |]; extents = [| len |]; data }

(* Kind-matched unboxed index-list copies: the executor's pack/unpack and
   the kernel layer move whole segments through these.  Plain loops, and
   a REAL gather fills an unboxed float array, so no [Scalar] or float box
   is allocated per element. *)
let gather_flat src positions =
  let n = Array.length positions in
  let data =
    match src.data with
    | Reals a ->
        let d = Array.create_float n in
        for i = 0 to n - 1 do
          d.(i) <- a.(positions.(i))
        done;
        Reals d
    | Ints a ->
        let d = Array.make n 0 in
        for i = 0 to n - 1 do
          d.(i) <- a.(positions.(i))
        done;
        Ints d
    | Logs a ->
        let d = Array.make n false in
        for i = 0 to n - 1 do
          d.(i) <- a.(positions.(i))
        done;
        Logs d
  in
  { lb = [| 1 |]; extents = [| n |]; data }

let scatter_flat dst positions values =
  let n = Array.length positions in
  match (dst.data, values.data) with
  | Reals d, Reals v ->
      for i = 0 to n - 1 do
        d.(positions.(i)) <- v.(i)
      done
  | Ints d, Ints v ->
      for i = 0 to n - 1 do
        d.(positions.(i)) <- v.(i)
      done
  | Logs d, Logs v ->
      for i = 0 to n - 1 do
        d.(positions.(i)) <- v.(i)
      done
  | _ -> Diag.bug "ndarray: scatter between different kinds"

let copy_flat ~src ~src_positions ~dst ~dst_positions =
  let n = Array.length src_positions in
  if Array.length dst_positions <> n then Diag.bug "ndarray: copy_flat length mismatch";
  match (src.data, dst.data) with
  | Reals s, Reals d ->
      for i = 0 to n - 1 do
        d.(dst_positions.(i)) <- s.(src_positions.(i))
      done
  | Ints s, Ints d ->
      for i = 0 to n - 1 do
        d.(dst_positions.(i)) <- s.(src_positions.(i))
      done
  | Logs s, Logs d ->
      for i = 0 to n - 1 do
        d.(dst_positions.(i)) <- s.(src_positions.(i))
      done
  | _ -> Diag.bug "ndarray: copy_flat between different kinds"

let blit_flat ~src ~src_pos ~dst ~dst_pos ~len =
  match (src.data, dst.data) with
  | Reals a, Reals b -> Array.blit a src_pos b dst_pos len
  | Ints a, Ints b -> Array.blit a src_pos b dst_pos len
  | Logs a, Logs b -> Array.blit a src_pos b dst_pos len
  | _ -> Diag.bug "ndarray: blit between different kinds"
