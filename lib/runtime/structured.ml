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

(* Copy the slices of [local] at the given storage positions along [dim]
   into a fresh array whose [dim] extent is the number of slices. *)
let gather_dim_slices ctx local ~dim ~counts positions =
  let extents = Array.copy counts in
  extents.(dim) <- Array.length positions;
  let out = Ndarray.create (Ndarray.kind local) extents in
  Array.iteri
    (fun i pos ->
      let lo = Array.make (Array.length counts) 0 in
      lo.(dim) <- pos;
      let box_extents = Array.copy counts in
      box_extents.(dim) <- 1;
      let slab = Ndarray.get_box local ~lo ~extents:box_extents in
      let dst_lo = Array.make (Array.length counts) 1 in
      dst_lo.(dim) <- i + 1;
      Ndarray.set_box out ~lo:dst_lo slab)
    positions;
  Rctx.charge_copy_bytes ctx (Ndarray.bytes out);
  out

(* Place the [dim] slices of [src] (in order) at the given positions of
   [dst] along [dim].  [origin] is the index where the owned box starts in
   the non-shifted dimensions: 0 for local sections (whose lower bound is
   the ghost corner), 1 for fresh temporaries. *)
let scatter_dim_slices ctx ~dst ~dim ~origin positions src =
  let nd = Ndarray.rank dst in
  let box_extents = Array.copy src.Ndarray.extents in
  box_extents.(dim) <- 1;
  Array.iteri
    (fun i pos ->
      let src_lo = Array.make nd 1 in
      src_lo.(dim) <- i + 1;
      let slab = Ndarray.get_box src ~lo:src_lo ~extents:box_extents in
      let dst_lo = Array.make nd origin in
      dst_lo.(dim) <- pos;
      Ndarray.set_box dst ~lo:dst_lo slab)
    positions;
  Rctx.charge_copy_bytes ctx (Ndarray.bytes src)

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
  | None -> gather_dim_slices ctx darr.Darray.local ~dim ~counts:(my_counts ctx darr) [| pos |]

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

(* A shift plan: for each peer rank, the storage positions of mine it
   gets (in its order), and the slots its slices fill here (in its
   order).  Peers appear in team order; empty pairs are left out. *)
type shift_plan = { sends : (int * int array) list; recvs : (int * int array) list }

let pairs team lists =
  let acc = ref [] in
  for c = Array.length team - 1 downto 0 do
    match lists c with [||] -> () | l -> acc := (team.(c), l) :: !acc
  done;
  !acc

(* overlap_shift's ghost-cell plan. *)
let ghost_plan ctx (darr : Darray.t) ~dim ~amount =
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
  let my_first, _ = range coord in
  if (amount > 0 && d.Dad.ghost_hi < w) || (amount < 0 && d.Dad.ghost_lo < w) then
    Diag.bug "overlap_shift: ghost area of %s dim %d narrower than shift %d" (Dad.name dad)
      (dim + 1) amount;
  (* The ghost globals coordinate c must fill, each with its ghost slot
     (storage position relative to the owned origin).  Blocks shorter
     than the shift make the ghost range span several owners, so both
     sides enumerate the owners of each ghost cell instead of assuming
     the adjacent neighbour supplies them all. *)
  let ghosts c =
    let first, cnt = range c in
    if cnt = 0 then []
    else if amount > 0 then
      List.init w (fun i -> (first + cnt + i, cnt + i))
      |> List.filter (fun (g, _) -> g < d.Dad.extent)
    else List.init w (fun i -> (first - w + i, -w + i)) |> List.filter (fun (g, _) -> g >= 0)
  in
  let owner g = owner_coord darr dim g in
  let from_peer = Array.make (Array.length team) [] in
  List.iter
    (fun (g, slot) ->
      let c = owner g in
      if c <> coord then from_peer.(c) <- slot :: from_peer.(c))
    (ghosts coord);
  {
    sends =
      pairs team (fun c ->
          if c = coord then [||]
          else
            ghosts c
            |> List.filter_map (fun (g, _) -> if owner g = coord then Some (g - my_first) else None)
            |> Array.of_list);
    recvs = pairs team (fun c -> Array.of_list (List.rev from_peer.(c)));
  }

(* The single transport of a shift plan: one [Message.Arr] per pair,
   each slab gathered just before its send. *)
let send_pairs ctx (darr : Darray.t) ~dim plan =
  let counts = my_counts ctx darr in
  List.iter
    (fun (dest, positions) ->
      Rctx.send ctx ~dest ~tag:Tags.shift
        (Message.Arr (gather_dim_slices ctx darr.Darray.local ~dim ~counts positions)))
    plan.sends

let recv_pairs ctx ~dst ~dim ~origin plan =
  List.iter
    (fun (src, slots) ->
      let msg = Rctx.recv ctx ~src ~tag:Tags.shift in
      scatter_dim_slices ctx ~dst ~dim ~origin slots (Message.arr msg))
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
    send_pairs ctx darr ~dim plan;
    recv_pairs ctx ~dst:darr.Darray.local ~dim ~origin:0 plan
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
  (* 1-based slots of my wants, by owner; the ones I own myself are
     copied locally from their storage positions *)
  let local_positions = ref [] and local_sources = ref [] in
  let from_peer = Array.make (Array.length team) [] in
  Array.iteri
    (fun i g ->
      match owner_of g with
      | Some c when c = coord ->
          local_positions := (i + 1) :: !local_positions;
          local_sources := Layout.local_of_global mylay g :: !local_sources
      | Some c -> from_peer.(c) <- (i + 1) :: from_peer.(c)
      | None -> ())
    my_wants;
  let plan =
    {
      sends =
        pairs team (fun c ->
            if c = coord then [||]
            else
              Array.to_seq (wants c)
              |> Seq.filter_map (fun g ->
                     if owner_of g = Some coord then Some (Layout.local_of_global mylay g)
                     else None)
              |> Array.of_seq);
      recvs = pairs team (fun c -> Array.of_list (List.rev from_peer.(c)));
    }
  in
  send_pairs ctx darr ~dim plan;
  (* result temporary, filled locally then from incoming messages *)
  let extents = Array.copy counts in
  extents.(dim) <- Array.length my_wants;
  let tmp = Ndarray.create (Ndarray.kind darr.Darray.local) extents in
  if !local_positions <> [] then
    scatter_dim_slices ctx ~dst:tmp ~dim ~origin:1
      (Array.of_list (List.rev !local_positions))
      (gather_dim_slices ctx darr.Darray.local ~dim ~counts
         (Array.of_list (List.rev !local_sources)));
  recv_pairs ctx ~dst:tmp ~dim ~origin:1 plan;
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
    let lo = Array.copy shifted.Ndarray.lb in
    let extents = Array.copy shifted.Ndarray.extents in
    lo.(mdim) <- lo.(mdim) + pos;
    extents.(mdim) <- 1;
    Ndarray.get_box shifted ~lo ~extents
  in
  let team, root, payload = multicast_plan ~slab ctx darr ~dim:mdim ~g in
  nd_of (Collectives.broadcast ctx team ~root payload)

let concat ctx (darr : Darray.t) = Darray.gather_global ctx darr

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
      (fun (darr, dim, amount, sid) ->
        if amount = 0 then None else Some (darr, dim, sid, ghost_plan ctx darr ~dim ~amount))
      members
  in
  send_grouped ctx ~tag:Tags.shift
    (List.concat_map
       (fun ((darr : Darray.t), dim, sid, plan) ->
         let counts = my_counts ctx darr in
         List.map
           (fun (dest, positions) ->
             let slab = gather_dim_slices ctx darr.Darray.local ~dim ~counts positions in
             (dest, sid, Message.Arr slab))
           plan.sends)
       plans);
  recv_grouped ctx ~tag:Tags.shift
    (List.concat_map
       (fun (darr, dim, _, plan) ->
         List.map (fun (src, slots) -> (src, (darr, dim, slots))) plan.recvs)
       plans)
    (fun ((darr : Darray.t), dim, slots) p ->
      scatter_dim_slices ctx ~dst:darr.Darray.local ~dim ~origin:0 slots (nd_of p))

let transfer_batch ctx members =
  let me = Rctx.me ctx in
  let plans =
    List.map
      (fun (darr, dim, gsrc, gdest, sid) ->
        let team, src, dest, payload = transfer_plan ctx darr ~dim ~gsrc ~gdest in
        (sid, team.(src), team.(dest), payload))
      members
  in
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
