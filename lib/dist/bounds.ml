type triplet = { llb : int; lub : int; lst : int }

let set_bound dad ~dim ~rank ~glb ~gub ~gst =
  let d = (Dad.dims dad).(dim) in
  let layout = Dad.layout_at dad ~dim ~rank in
  match Layout.set_bound layout ~glb:(glb - d.Dad.flb) ~gub:(gub - d.Dad.flb) ~gst with
  | None -> None
  | Some (llb, lub, lst) -> Some { llb; lub; lst }

let global_of_local_index dad ~dim ~rank l =
  let d = (Dad.dims dad).(dim) in
  Layout.global_of_local (Dad.layout_at dad ~dim ~rank) l + d.Dad.flb

let local_of_global_index dad ~dim ~rank g =
  let d = (Dad.dims dad).(dim) in
  let layout = Dad.layout_at dad ~dim ~rank in
  let a0 = g - d.Dad.flb in
  if Layout.is_owned layout a0 then Some (Layout.local_of_global layout a0) else None

let iterations = function
  | None -> 0
  | Some { lst = 0; _ } -> invalid_arg "Bounds.iterations: zero stride"
  | Some { llb; lub; lst } when lst > 0 -> if lub < llb then 0 else ((lub - llb) / lst) + 1
  | Some { llb; lub; lst } -> if lub > llb then 0 else ((llb - lub) / -lst) + 1
