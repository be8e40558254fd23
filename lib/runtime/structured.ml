open F90d_base
open F90d_dist
open F90d_machine

(* The grid dimension an array dimension is distributed over; structured
   primitives are only generated for distributed dimensions. *)
let pdim_of (darr : Darray.t) dim =
  match (Dad.dims darr.Darray.dad).(dim).Dad.pdim with
  | Some p -> p
  | None -> Diag.bug "structured: dimension %d of %s is not distributed" (dim + 1)
              (Dad.name darr.Darray.dad)

let my_counts ctx (darr : Darray.t) = Dad.local_counts darr.Darray.dad ~rank:(Rctx.me ctx)

let owner_coord (darr : Darray.t) dim g =
  let d = (Dad.dims darr.Darray.dad).(dim) in
  Distrib.owner d.Dad.dist (Affine.eval d.Dad.align g)

let my_coord ctx (darr : Darray.t) dim = (Rctx.my_coords ctx).(pdim_of darr dim)

let team_of ctx darr dim = Collectives.team_along ctx ~dim:(pdim_of darr dim)

let nd_of = function Message.Arr a -> a | _ -> Diag.bug "structured: protocol error"

(* The flat offsets in [a] of the box spanning [counts] from [origin] in
   every dimension but [dim], and [positions] along [dim] (both in [a]'s
   index space), in the box's column-major order: how every structured
   primitive addresses a slab, so packing and unpacking are
   [Ndarray.gather_flat] and [Ndarray.scatter_flat]. *)
let box_offsets (a : Ndarray.t) ~counts ~origin ~dim positions =
  let strides = Ndarray.strides a in
  let n = ref (Array.length positions) in
  Array.iteri (fun d c -> if d <> dim then n := !n * c) counts;
  let out = Array.make !n 0 and k = ref 0 in
  let rec go d base =
    if d < 0 then begin
      out.(!k) <- base;
      incr k
    end
    else
      let at i = go (d - 1) (base + ((i - a.Ndarray.lb.(d)) * strides.(d))) in
      if d = dim then Array.iter at positions
      else for i = origin to origin + counts.(d) - 1 do at i done
  in
  go (Array.length counts - 1) 0;
  out

(* A fresh copy of the one-slice slab at [pos] along [dim] (the box from
   [origin] elsewhere), shaped like the box with lower bounds 1. *)
let slice_slab a ~counts ~origin ~dim pos =
  let extents = Array.copy counts in
  extents.(dim) <- 1;
  let slab = Ndarray.gather_flat a (box_offsets a ~counts ~origin ~dim [| pos |]) in
  { slab with Ndarray.lb = Array.make (Array.length extents) 1; extents }

(* Message pack and unpack, each charged as one copy of the slab. *)
let pack ctx a offsets =
  let slab = Ndarray.gather_flat a offsets in
  Rctx.charge_copy_bytes ctx (Ndarray.bytes slab);
  slab

let unpack ctx dst offsets slab =
  Ndarray.scatter_flat dst offsets slab;
  Rctx.charge_copy_bytes ctx (Ndarray.bytes slab)

(* ------------------------------------------------------------------ *)
(* Peer plans                                                          *)
(* ------------------------------------------------------------------ *)

(* Every primitive derives its plan locally from the globally known
   layouts, so both ends of every pair agree without a control message.
   The single primitives send one [Message.Arr] per pair; the coalesced
   batches below pack the same plans into one [Message.List] per pair. *)

(* The grid coordinate owning slice [g] (0-based) of a comm.  [g] comes
   from a user subscript, so an index outside the declaration is the
   located error of the declared bounds, not an internal one. *)
let slice_owner (darr : Darray.t) dim g =
  let dad = darr.Darray.dad in
  ignore (Dad.checked_a0 dad dim (g + (Dad.dims dad).(dim).Dad.flb));
  owner_coord darr dim g

(* Multicast and transfer: the owner of slice [g] sends its one-slice
   slab, [slab pos] of the slice's storage position [pos] (by default
   the slice of the local section). *)
let owner_payload ?slab ctx (darr : Darray.t) ~dim g =
  let pos = Layout.local_of_global (Dad.layout_at darr.Darray.dad ~dim ~rank:(Rctx.me ctx)) g in
  match slab with
  | Some slab -> slab pos
  | None ->
      let slab = slice_slab darr.Darray.local ~counts:(my_counts ctx darr) ~origin:0 ~dim pos in
      Rctx.charge_copy_bytes ctx (Ndarray.bytes slab);
      slab

(* The multicast plan: the team, the root coordinate, and the root's slab
   (empty elsewhere). *)
let multicast_plan ?slab ctx darr ~dim ~g =
  let root = slice_owner darr dim g in
  let payload =
    if my_coord ctx darr dim = root then Message.Arr (owner_payload ?slab ctx darr ~dim g)
    else Message.Empty
  in
  (team_of ctx darr dim, root, payload)

(* The transfer plan: the team, the source and destination coordinates,
   and the source's slab (on the source only). *)
let transfer_plan ctx darr ~dim ~gsrc ~gdest =
  let src = slice_owner darr dim gsrc and dest = slice_owner darr dim gdest in
  let payload =
    if my_coord ctx darr dim = src then Some (Message.Arr (owner_payload ctx darr ~dim gsrc))
    else None
  in
  (team_of ctx darr dim, src, dest, payload)

(* A shift plan: for each peer rank, the flat offsets of the slab it
   gets from the source array (in its order), and the flat offsets its
   slab fills in the destination (in its order).  Peers appear in team
   order; empty pairs are left out. *)
type shift_plan = { sends : (int * int array) list; recvs : (int * int array) list }

(* [(coord, x)] pairs grouped per peer rank in team order, each peer's
   [x]s in their original order and passed to [f] as an array. *)
let group team f pairs =
  List.stable_sort (fun (a, _) (b, _) -> compare a b) pairs
  |> List.fold_left
       (fun acc (c, x) ->
         match acc with
         | (c', xs) :: rest when c' = c -> (c, x :: xs) :: rest
         | _ -> (c, [ x ]) :: acc)
       []
  |> List.rev_map (fun (c, xs) -> (team.(c), f (Array.of_list (List.rev xs))))

(* overlap_shift's ghost-cell plan, derived from the owners of at most
   [w] cells on each side: a peer's ghost range lies just past its own
   block, so it reaches into mine only if the peer owns one of the [w]
   cells before my block ([amount > 0]) or after it ([amount < 0]). *)
let build_ghost_plan ctx (darr : Darray.t) ~dim ~amount =
  let dad = darr.Darray.dad in
  let d = (Dad.dims dad).(dim) in
  let w = abs amount in
  let team = team_of ctx darr dim in
  let coord = my_coord ctx darr dim in
  let range c =
    match Dad.layout_at dad ~dim ~rank:team.(c) with
    | Layout.Prog { first; step = 1; count } -> (first, count)
    | _ ->
        Diag.bug "overlap_shift: layout of %s dim %d is not contiguous" (Dad.name dad) (dim + 1)
  in
  let my_first, my_count = range coord in
  if (amount > 0 && d.Dad.ghost_hi < w) || (amount < 0 && d.Dad.ghost_lo < w) then
    Diag.bug "overlap_shift: ghost area of %s dim %d narrower than shift %d" (Dad.name dad)
      (dim + 1) amount;
  let in_array g = g >= 0 && g < d.Dad.extent in
  (* The ghost globals coordinate c must fill, each with its ghost slot
     (storage position relative to the owned origin).  Blocks shorter
     than the shift make the ghost range span several owners, so both
     sides look up the owner of each ghost cell instead of assuming the
     adjacent neighbour supplies them all. *)
  let ghosts c =
    let first, cnt = range c in
    if cnt = 0 then []
    else
      List.init w (fun i ->
          if amount > 0 then (first + cnt + i, cnt + i) else (first - w + i, i - w))
      |> List.filter (fun (g, _) -> in_array g)
  in
  let owner g = owner_coord darr dim g in
  let peers =
    if my_count = 0 then []
    else
      let edge = if amount > 0 then my_first - w else my_first + my_count in
      List.init w (( + ) edge) |> List.filter in_array |> List.map owner
      |> List.sort_uniq compare
  in
  let offsets = box_offsets darr.Darray.local ~counts:(my_counts ctx darr) ~origin:0 ~dim in
  {
    sends =
      List.concat_map
        (fun c ->
          List.filter_map
            (fun (g, _) -> if owner g = coord then Some (c, g - my_first) else None)
            (ghosts c))
        peers
      |> group team offsets;
    recvs =
      List.filter_map
        (fun (g, slot) ->
          let c = owner g in
          if c <> coord then Some (c, slot) else None)
        (ghosts coord)
      |> group team offsets;
  }

(* One plan per (array, dim, amount) per run, in the rank's plan table:
   DADs are built once per run, so the table is keyed by their physical
   identity and stays bounded by the declared arrays. *)
type Rctx.plan += Ghost of { dad : Dad.t; dim : int; amount : int; plan : shift_plan }

let ghost_plan ctx (darr : Darray.t) ~dim ~amount =
  let dad = darr.Darray.dad in
  let rec find = function
    | Ghost g :: _ when g.dad == dad && g.dim = dim && g.amount = amount -> g.plan
    | _ :: rest -> find rest
    | [] ->
        let plan = build_ghost_plan ctx darr ~dim ~amount in
        Rctx.add_plan ctx (Ghost { dad; dim; amount; plan });
        plan
  in
  find (Rctx.plans ctx)

(* The single transport of a shift plan: one [Message.Arr] per pair,
   each slab packed just before its send. *)
let send_pairs ctx src plan =
  List.iter
    (fun (dest, offsets) ->
      Rctx.send ctx ~dest ~tag:Tags.shift (Message.Arr (pack ctx src offsets)))
    plan.sends

let recv_pairs ctx dst plan =
  List.iter
    (fun (src, offsets) ->
      unpack ctx dst offsets (Message.arr (Rctx.recv ctx ~src ~tag:Tags.shift)))
    plan.recvs

(* ------------------------------------------------------------------ *)
(* Single primitives                                                   *)
(* ------------------------------------------------------------------ *)

let multicast ctx darr ~dim ~g =
  let team, root, payload = multicast_plan ctx darr ~dim ~g in
  nd_of (Collectives.broadcast ctx team ~root payload)

(* Split-phase multicast: the issue half gathers the owner's slab (so
   the data in flight is the source as of the issue point — the split
   pass only separates issue from wait across statements that provably
   do not write the broadcast slice) and runs the nonblocking half of
   the broadcast tree; the wait half completes it. *)
let multicast_issue ctx darr ~dim ~g =
  let team, root, payload = multicast_plan ctx darr ~dim ~g in
  Collectives.broadcast_issue ctx team ~root payload

let multicast_wait ctx pending = nd_of (Collectives.broadcast_wait ctx pending)

let transfer ctx darr ~dim ~gsrc ~gdest =
  let team, src, dest, payload = transfer_plan ctx darr ~dim ~gsrc ~gdest in
  Option.map nd_of (Collectives.transfer ctx team ~src ~dest payload)

let overlap_shift ctx (darr : Darray.t) ~dim ~amount =
  if amount <> 0 then begin
    let plan = ghost_plan ctx darr ~dim ~amount in
    send_pairs ctx darr.Darray.local plan;
    recv_pairs ctx darr.Darray.local plan
  end

(* Exchange along one grid dimension: every coordinate wants the global
   dim-indices given by [wants coord] (in its local order).  Both sides of
   every pair derive their lists locally — the want-function is common
   knowledge, as with the paper's invertible subscripts — and slabs move in
   one vectorized message per communicating pair.  Wanted positions
   without an owner (outside the array) are left zero. *)
let exchange_wants ctx (darr : Darray.t) ~dim ~wants =
  let d = (Dad.dims darr.Darray.dad).(dim) in
  let team = team_of ctx darr dim in
  let coord = my_coord ctx darr dim in
  let counts = my_counts ctx darr in
  let my_wants = wants coord in
  Rctx.charge_iops ctx (3 * Array.length my_wants);
  let owner_of g = if g >= 0 && g < d.Dad.extent then Some (owner_coord darr dim g) else None in
  let mylay = Dad.layout_at darr.Darray.dad ~dim ~rank:(Rctx.me ctx) in
  let local = darr.Darray.local in
  (* the result temporary, filled locally and then from incoming messages *)
  let extents = Array.copy counts in
  extents.(dim) <- Array.length my_wants;
  let tmp = Ndarray.create (Ndarray.kind local) extents in
  let at_local = box_offsets local ~counts ~origin:0 ~dim in
  let at_tmp = box_offsets tmp ~counts:extents ~origin:1 ~dim in
  (* 1-based slots of my wants by owner; the ones I own myself are
     copied locally from their storage positions *)
  let mine = ref [] and theirs = ref [] in
  Array.iteri
    (fun i g ->
      match owner_of g with
      | Some c when c = coord -> mine := (i + 1, Layout.local_of_global mylay g) :: !mine
      | Some c -> theirs := (c, i + 1) :: !theirs
      | None -> ())
    my_wants;
  let sends =
    List.init (Array.length team) (fun c ->
        if c = coord then []
        else
          Array.to_list (wants c)
          |> List.filter_map (fun g ->
                 if owner_of g <> Some coord then None
                 else Some (c, Layout.local_of_global mylay g)))
  in
  let plan =
    {
      sends = List.concat sends |> group team at_local;
      recvs = List.rev !theirs |> group team at_tmp;
    }
  in
  send_pairs ctx local plan;
  if !mine <> [] then begin
    let slots, sources = List.split (List.rev !mine) in
    let slab = pack ctx local (at_local (Array.of_list sources)) in
    unpack ctx tmp (at_tmp (Array.of_list slots)) slab
  end;
  recv_pairs ctx tmp plan;
  tmp

let temporary_shift ctx (darr : Darray.t) ~dim ~amount =
  let team = team_of ctx darr dim in
  let wants c =
    let l = Dad.layout_at darr.Darray.dad ~dim ~rank:team.(c) in
    Array.init (Layout.count l) (fun i -> Layout.global_of_local l i + amount)
  in
  exchange_wants ctx darr ~dim ~wants

let multicast_shift ctx (darr : Darray.t) ~fused ~mdim ~g ~sdim ~amount =
  (* Unfused, every rank shifts and the owner row broadcasts its slice of
     the result.  Fused, only the owner row of [g] shifts among itself
     before the broadcast: one tree instead of shift-everywhere +
     broadcast. *)
  let everywhere = if fused then None else Some (temporary_shift ctx darr ~dim:sdim ~amount) in
  let slab pos =
    let shifted =
      match everywhere with Some s -> s | None -> temporary_shift ctx darr ~dim:sdim ~amount
    in
    (* restrict the shifted temporary to the broadcast slice *)
    slice_slab shifted ~counts:shifted.Ndarray.extents ~origin:1 ~dim:mdim (1 + pos)
  in
  let team, root, payload = multicast_plan ~slab ctx darr ~dim:mdim ~g in
  nd_of (Collectives.broadcast ctx team ~root payload)

(* ------------------------------------------------------------------ *)
(* Coalesced batches                                                   *)
(* ------------------------------------------------------------------ *)

(* The batch transport: each member keeps its own peer plan (arrays in
   one batch may have different distributions); all member slabs bound
   for the same destination travel as one [Message.List] in batch member
   order, so the engine charges one latency per pair.  Both ends derive
   the member-order pair membership from the plans, so packing and
   unpacking agree without any extra control message.  [parts] carries
   the (member sid, member bytes) split for trace attribution. *)

let send_grouped ctx ~tag outs =
  (* outs: (dest rank, sid, payload) in batch member order *)
  let per_dest = Hashtbl.create 8 in
  List.iter
    (fun (dest, sid, p) ->
      Hashtbl.replace per_dest dest
        ((sid, p) :: Option.value (Hashtbl.find_opt per_dest dest) ~default:[]))
    outs;
  Hashtbl.fold (fun dest _ acc -> dest :: acc) per_dest [] |> List.sort compare
  |> List.iter (fun dest ->
         let items = List.rev (Hashtbl.find per_dest dest) in
         let parts =
           Array.of_list (List.map (fun (sid, p) -> (sid, Message.payload_bytes p)) items)
         in
         Rctx.send ~parts ctx ~dest ~tag (Message.List (List.map snd items)))

let recv_grouped ctx ~tag ins consume =
  (* ins: (src rank, item) in batch member order; calls [consume item
     payload] member-by-member as each pair's packed message arrives *)
  let per_src = Hashtbl.create 8 in
  List.iter
    (fun (src, item) ->
      Hashtbl.replace per_src src
        (item :: Option.value (Hashtbl.find_opt per_src src) ~default:[]))
    ins;
  Hashtbl.fold (fun src _ acc -> src :: acc) per_src [] |> List.sort compare
  |> List.iter (fun src ->
         let items = List.rev (Hashtbl.find per_src src) in
         let payloads = Message.list (Rctx.recv ctx ~src ~tag) in
         if List.length payloads <> List.length items then
           Diag.bug "batch: pair member count mismatch";
         List.iter2 consume items payloads)

let overlap_shift_batch ctx members =
  let plans =
    List.filter_map
      (fun ((darr : Darray.t), dim, amount, sid) ->
        if amount = 0 then None
        else Some (darr.Darray.local, sid, ghost_plan ctx darr ~dim ~amount))
      members
  in
  send_grouped ctx ~tag:Tags.shift
    (List.concat_map
       (fun (local, sid, plan) ->
         List.map
           (fun (dest, offsets) -> (dest, sid, Message.Arr (pack ctx local offsets)))
           plan.sends)
       plans);
  recv_grouped ctx ~tag:Tags.shift
    (List.concat_map
       (fun (local, _, plan) -> List.map (fun (src, offsets) -> (src, (local, offsets))) plan.recvs)
       plans)
    (fun (local, offsets) p -> unpack ctx local offsets (nd_of p))

type transfer_member = int * int * int * Message.payload option

let transfer_member ctx darr ~dim ~gsrc ~gdest ~sid =
  let team, src, dest, payload = transfer_plan ctx darr ~dim ~gsrc ~gdest in
  (sid, team.(src), team.(dest), payload)

let transfer_batch ctx plans =
  let me = Rctx.me ctx in
  let results = Array.make (List.length plans) None in
  let outs = ref [] and ins = ref [] in
  List.iteri
    (fun i (sid, src_rank, dest_rank, payload) ->
      match payload with
      | Some p when src_rank = dest_rank ->
          (* purely local: charge the copy, no message *)
          Rctx.charge_copy_bytes ctx (Message.payload_bytes p);
          results.(i) <- Some (nd_of p)
      | Some p -> outs := (dest_rank, sid, p) :: !outs
      | None -> if dest_rank = me then ins := (src_rank, i) :: !ins)
    plans;
  send_grouped ctx ~tag:Tags.transfer (List.rev !outs);
  recv_grouped ctx ~tag:Tags.transfer (List.rev !ins) (fun i p -> results.(i) <- Some (nd_of p));
  Array.to_list results
