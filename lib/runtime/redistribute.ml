open F90d_dist

(* One inspector pass for moving [src] into [dst] where both descriptors
   are global knowledge: for each of [ranks]' owned dst elements, in local
   order, the source owner and storage flat of its source element.  Rank
   [ranks.(i)]'s entries are [starts.(i)] .. [starts.(i + 1) - 1]. *)
let needs ~(src : Darray.t) ~(dst_dad : Dad.t) ~f ranks =
  let starts = Array.make (Array.length ranks + 1) 0 in
  Array.iteri
    (fun i rank ->
      starts.(i + 1) <- starts.(i) + Array.fold_left ( * ) 1 (Dad.local_counts dst_dad ~rank))
    ranks;
  let n = starts.(Array.length ranks) in
  let owners = Array.make n 0 and flats = Array.make n 0 in
  let at = ref 0 in
  Array.iter
    (fun rank ->
      Dad.iter_local dst_dad ~rank (fun g _ ->
          Dad.locate src.Darray.dad (f g) ~every_owner:false ~owners ~flats ~at:!at;
          incr at))
    ranks;
  (owners, flats, starts)

let store_tmp ctx ~(dst : Darray.t) tmp =
  let me = Rctx.me ctx in
  let i = ref 0 in
  Darray.iter_owned dst ~rank:me (fun _ flat ->
      F90d_base.Ndarray.set_flat dst.Darray.local flat (F90d_base.Ndarray.get_flat tmp !i);
      incr i);
  Rctx.charge_copy_bytes ctx (F90d_base.Ndarray.bytes tmp)

let redistribute ctx (src : Darray.t) dst_dad =
  let dst = Darray.create ctx dst_dad in
  let key = Format.asprintf "redist:%a->%a" Dad.pp src.Darray.dad Dad.pp dst_dad in
  let sched =
    Schedule.cached ctx ~key (fun () ->
        let owners, flats, starts =
          needs ~src ~dst_dad ~f:Fun.id (Grid.all_ranks (Dad.grid dst_dad))
        in
        Schedule.build_read_local ctx ~owners ~flats ~starts)
  in
  let tmp = Schedule.read ctx sched src in
  store_tmp ctx ~dst tmp;
  dst

let remap ctx ~(dst : Darray.t) ~(src : Darray.t) ~f =
  let me = Rctx.me ctx in
  let owners, flats, _ = needs ~src ~dst_dad:dst.Darray.dad ~f [| me |] in
  let sched = Schedule.build_gather ctx ~owners ~flats in
  let tmp = Schedule.read ctx sched src in
  store_tmp ctx ~dst tmp
