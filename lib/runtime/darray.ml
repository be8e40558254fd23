open F90d_base
open F90d_dist
open F90d_machine

type t = { dad : Dad.t; local : Ndarray.t }

let create ctx dad =
  { dad; local = Dad.alloc_local dad ~rank:(Rctx.me ctx) }

let kind t = Dad.kind t.dad

(* flat position in [local]'s payload of a global element, if owned
   (ghost offsets applied) *)
let owned_flat_of_global t ~rank gidx =
  match Dad.local_indices t.dad ~rank gidx with
  | None -> None
  | Some lidx -> Some (Ndarray.offset t.local lidx)

let get_local t ~rank gidx =
  Option.map (Ndarray.get_flat t.local) (owned_flat_of_global t ~rank gidx)

let set_local t ~rank gidx v =
  match owned_flat_of_global t ~rank gidx with
  | None -> false
  | Some f ->
      Ndarray.set_flat t.local f v;
      true

let iter_owned t ~rank f =
  Dad.iter_local t.dad ~rank (fun g lidx -> f g (Ndarray.offset t.local lidx))

let iter_owned_flat t ~rank f =
  let counts = Dad.local_counts t.dad ~rank in
  if Array.for_all (fun c -> c > 0) counts then begin
    let nd = Array.length counts and strides = Ndarray.strides t.local in
    let rec walk d off =
      if d = 0 then
        for i = 0 to counts.(0) - 1 do
          f (off + (i * strides.(0)))
        done
      else
        for i = 0 to counts.(d) - 1 do
          walk (d - 1) (off + (i * strides.(d)))
        done
    in
    let base = Ndarray.offset t.local (Array.make nd 0) in
    if nd = 0 then f base else walk (nd - 1) base
  end

let owned_count t ~rank = Array.fold_left ( * ) 1 (Dad.local_counts t.dad ~rank)

let init_global ctx dad f =
  let t = create ctx dad in
  let me = Rctx.me ctx in
  iter_owned t ~rank:me (fun g flat -> Ndarray.set_flat t.local flat (f g));
  t

let pack_owned t ~rank =
  let n = owned_count t ~rank in
  let out = Ndarray.create (kind t) [| n |] in
  let i = ref 0 in
  iter_owned_flat t ~rank (fun flat ->
      Ndarray.set_flat out !i (Ndarray.get_flat t.local flat);
      incr i);
  out

let gather_global ctx t =
  let team = Collectives.team_all ctx in
  let mine = pack_owned t ~rank:(Rctx.me ctx) in
  Rctx.charge_copy_bytes ctx (Ndarray.bytes mine);
  let arr = function Message.Arr a -> a | _ -> Diag.bug "gather_global: protocol" in
  (* the global array is rank-invariant: the rendezvous builds it once
     and every rank gets that one copy *)
  let assemble parts =
    let lbs = Array.map (fun d -> d.Dad.flb) (Dad.dims t.dad) in
    let out = Ndarray.create (kind t) ~lb:lbs (Dad.global_extents t.dad) in
    Array.iteri
      (fun r part ->
        (* re-enumerate rank r's owned elements in the same order it packed *)
        let part = arr part and i = ref 0 in
        Dad.iter_local t.dad ~rank:team.(r) (fun g _ ->
            Ndarray.set out g (Ndarray.get_flat part !i);
            incr i))
      parts;
    Message.Arr out
  in
  let out = arr (Collectives.allgather ctx team ~assemble (Message.Arr mine)) in
  Rctx.charge_copy_bytes ctx (Ndarray.bytes out);
  out

let get_global ctx t gidx =
  let home = Dad.home_rank t.dad gidx in
  let team = Collectives.team_all ctx in
  let payload =
    if Rctx.me ctx = home then
      match get_local t ~rank:home gidx with
      | Some v -> Message.Scalar v
      | None -> Diag.bug "get_global: home rank does not own the element"
    else Message.Empty
  in
  match Collectives.broadcast ctx team ~root:(Collectives.index_in team home) payload with
  | Message.Scalar v -> v
  | _ -> Diag.bug "get_global: protocol error"
