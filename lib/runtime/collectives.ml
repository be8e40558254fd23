open F90d_base
open F90d_dist
open F90d_machine

type team = int array

let team_all ctx = Grid.all_ranks (Rctx.grid ctx)
let team_along ctx ~dim = Grid.ranks_along (Rctx.grid ctx) ~rank:(Rctx.me ctx) ~dim

(* Wrap a primitive in a named trace span: [t0] at entry, [t1] when the
   last local send/receive of the tree completes.  [bytes_of] is only
   evaluated when tracing is on, so disabled tracing costs one branch. *)
let spanned ctx name ~bytes_of f =
  let tr = Rctx.trace ctx in
  if not (F90d_trace.Trace.enabled tr) then f ()
  else begin
    F90d_trace.Trace.span_begin tr ~t:(Rctx.time ctx) name ~cat:"collective";
    let r = f () in
    F90d_trace.Trace.span_end tr ~t:(Rctx.time ctx) ~bytes:(bytes_of ());
    r
  end

let payload_bytes_opt = function Some p -> Message.payload_bytes p | None -> 0

let index_in team rank =
  (* Identity fast path: [team_all] and the teams of a 1-D grid are the
     identity permutation, where a linear scan would cost O(rank) on
     every collective call — O(P^2) machine-wide per broadcast. *)
  if rank >= 0 && rank < Array.length team && team.(rank) = rank then rank
  else
    let rec go i =
      if i >= Array.length team then Diag.bug "collectives: rank %d not in team" rank
      else if team.(i) = rank then i
      else go (i + 1)
    in
    go 0

let my_index ctx team = index_in team (Rctx.me ctx)

let transfer ctx team ~src ~dest payload =
  spanned ctx "transfer" ~bytes_of:(fun () -> payload_bytes_opt payload) @@ fun () ->
  let vr = my_index ctx team in
  if src = dest then
    if vr = src then begin
      (* purely local: charge the copy, no message *)
      let p = match payload with Some p -> p | None -> Diag.bug "transfer: source passed None" in
      Rctx.charge_copy_bytes ctx (Message.payload_bytes p);
      Some p
    end
    else None
  else if vr = src then begin
    let p = match payload with Some p -> p | None -> Diag.bug "transfer: source passed None" in
    Rctx.send ctx ~dest:team.(dest) ~tag:Tags.transfer p;
    None
  end
  else if vr = dest then Some (Rctx.recv ctx ~src:team.(src) ~tag:Tags.transfer).Message.payload
  else None

let broadcast ctx team ~root payload =
  spanned ctx "broadcast" ~bytes_of:(fun () -> Message.payload_bytes payload) @@ fun () ->
  let m = Array.length team in
  let vr = Util.modulo (my_index ctx team - root) m in
  let p = ref payload in
  let mask = ref 1 in
  while !mask < m do
    let k = !mask in
    if vr < k then begin
      if vr + k < m then
        Rctx.send ctx ~dest:team.(Util.modulo (vr + k + root) m) ~tag:Tags.broadcast !p
    end
    else if vr < 2 * k then
      p := (Rctx.recv ctx ~src:team.(Util.modulo (vr - k + root) m) ~tag:Tags.broadcast).Message.payload;
    mask := k * 2
  done;
  !p

(* ------------------------------------------------------------------ *)
(* Split-phase broadcast                                               *)
(* ------------------------------------------------------------------ *)

(* The same binomial tree as {!broadcast}, cut at each node's receive:
   the issue half performs everything up to (and excluding) the blocking
   receive — the root sends to all its children, every other node posts
   a nonblocking receive on its parent — and the wait half completes the
   receive and forwards to the node's own children.  Message count,
   peers and per-channel send order are identical to the blocking tree;
   only the charging of receive latency moves. *)

(* In virtual-rank space (vr = rank rotated so the root is 0), node [vr]
   receives from [vr] with its top bit cleared and sends to [vr + k] for
   each power of two k above its top bit (every k for the root), in
   ascending order — read off the mask loop of {!broadcast}. *)
let bcast_children ~vr ~m =
  let rec above k = if vr < k then k else above (2 * k) in
  let rec go k acc = if vr + k >= m then List.rev acc else go (2 * k) ((vr + k) :: acc) in
  go (above 1) []

let bcast_parent ~vr =
  let rec top k = if 2 * k <= vr then top (2 * k) else k in
  vr - top 1

type bcast_pending = {
  bp_team : team;
  bp_root : int;
  bp_vr : int;
  bp_tag : int;  (* instance tag: concurrent trees must not share a channel *)
  bp_payload : Message.payload option;  (* Some on the root *)
  bp_handle : Engine.handle option;  (* Some everywhere else *)
}

(* Unlike the blocking tree, several split-phase broadcasts can be in
   flight at once, and two trees can give a node the same parent — FIFO
   matching on a shared (source, tag) channel would then cross-deliver
   payloads between trees.  Each instance gets its own tag inside the
   broadcast hundreds-family (so profiles still classify it), from the
   replicated SPMD sequence counter. *)
let split_bcast_tag ctx = Tags.broadcast + 1 + (Rctx.next_split_seq ctx mod 99)

let broadcast_issue ctx team ~root payload =
  spanned ctx "broadcast-issue" ~bytes_of:(fun () -> Message.payload_bytes payload)
  @@ fun () ->
  let m = Array.length team in
  let vr = Util.modulo (my_index ctx team - root) m in
  let tag = split_bcast_tag ctx in
  if vr = 0 then begin
    List.iter
      (fun c -> Rctx.send ctx ~dest:team.(Util.modulo (c + root) m) ~tag payload)
      (bcast_children ~vr ~m);
    { bp_team = team; bp_root = root; bp_vr = vr; bp_tag = tag; bp_payload = Some payload;
      bp_handle = None }
  end
  else begin
    let parent = bcast_parent ~vr in
    let h = Rctx.irecv ctx ~src:team.(Util.modulo (parent + root) m) ~tag in
    { bp_team = team; bp_root = root; bp_vr = vr; bp_tag = tag; bp_payload = None;
      bp_handle = Some h }
  end

let broadcast_wait ctx bp =
  match bp.bp_payload with
  | Some p -> p  (* the root kept its own copy; nothing to wait for *)
  | None ->
      let bytes = ref 0 in
      spanned ctx "broadcast-wait" ~bytes_of:(fun () -> !bytes) @@ fun () ->
      let h = match bp.bp_handle with Some h -> h | None -> Diag.bug "broadcast_wait: no handle" in
      let msg = Rctx.wait_recv ctx h in
      let p = msg.Message.payload in
      bytes := Message.payload_bytes p;
      let m = Array.length bp.bp_team in
      (* Forward to our own children as relays stamped at the message's
         arrival, not at the point the CPU reached the wait: the data
         cascades down the tree while every node is still computing, so
         the latency of the whole depth is hidden, not just the first
         hop.  The link serializes the per-child forwards. *)
      let link = ref msg.Message.arrival in
      List.iter
        (fun c ->
          link :=
            Rctx.relay ctx ~from_t:!link
              ~dest:bp.bp_team.(Util.modulo (c + bp.bp_root) m)
              ~tag:bp.bp_tag p)
        (bcast_children ~vr:bp.bp_vr ~m);
      p

(* An allreduce or an allgather is a barrier, so each runs as one engine
   rendezvous: the last member to arrive replays the binomial
   up-then-broadcast tree rooted at team index 0 over every member.
   Levels go in ascending order, so each member's receives, merges and
   sends happen in the order its own tree walk would make them.  Every
   tree edge is charged through the engine's send and receive accounting,
   and each member's [up] and "broadcast" spans are written to its own
   recorder, so messages, bytes, clocks, waits and traces are those of the
   message tree; only the mailboxes are skipped.  [held i] is the bytes
   member i holds; [merge ~dst ~src] runs after each up edge. *)
let replay_tree ~up ~tag ~held ~merge members payloads =
  let m = Array.length members in
  let module Trace = F90d_trace.Trace in
  let tracing = Trace.enabled (Engine.trace members.(0)) in
  let span_begin name =
    if tracing then
      Array.iter
        (fun c -> Trace.span_begin (Engine.trace c) ~t:(Engine.time c) name ~cat:"collective")
        members
  in
  let span_end bytes_of =
    if tracing then
      Array.iteri
        (fun i c -> Trace.span_end (Engine.trace c) ~t:(Engine.time c) ~bytes:(bytes_of i))
        members
  in
  let edge ~src ~dst ~tag ~bytes =
    let s = members.(src) and d = members.(dst) in
    let arrival = Engine.account_send s ~dest:(Engine.rank d) ~tag ~bytes in
    Engine.account_recv d ~src:(Engine.rank s) ~tag ~arrival
  in
  span_begin up;
  let k = ref 1 in
  while !k < m do
    (* team index vr + k sends what it holds to vr, then leaves the tree *)
    let vr = ref 0 in
    while !vr + !k < m do
      edge ~src:(!vr + !k) ~dst:!vr ~tag ~bytes:(held (!vr + !k));
      merge ~dst:!vr ~src:(!vr + !k);
      vr := !vr + (2 * !k)
    done;
    k := 2 * !k
  done;
  (* an up span counts the bytes of the member's own payload *)
  span_end (fun i -> Message.payload_bytes payloads.(i));
  let bytes = held 0 in
  span_begin "broadcast";
  let k = ref 1 in
  while !k < m do
    (* the first k members hold the result and pass it on *)
    for vr = 0 to min !k (m - !k) - 1 do
      edge ~src:vr ~dst:(vr + !k) ~tag:Tags.broadcast ~bytes
    done;
    k := 2 * !k
  done;
  (* a broadcast span counts the bytes of its argument: the result at the
     root, an empty payload elsewhere *)
  span_end (fun i -> if i = 0 then bytes else 0)

let allreduce ctx team ~combine payload =
  spanned ctx "allreduce" ~bytes_of:(fun () -> Message.payload_bytes payload) @@ fun () ->
  Engine.rendezvous (Rctx.engine ctx) ~team ~index:(my_index ctx team) payload
    (fun members contributions ->
      let acc = Array.copy contributions in
      let held i = Message.payload_bytes acc.(i) in
      let merge ~dst ~src =
        Engine.charge_flops members.(dst) (held src / 8);
        acc.(dst) <- combine acc.(dst) acc.(src)
      in
      replay_tree ~up:"reduce" ~tag:Tags.reduce ~held ~merge members contributions;
      acc.(0))

let allgather ctx team ~assemble payload =
  spanned ctx "allgather" ~bytes_of:(fun () -> Message.payload_bytes payload) @@ fun () ->
  Engine.rendezvous (Rctx.engine ctx) ~team ~index:(my_index ctx team) payload
    (fun members parts ->
      (* a gathered segment is its parts side by side: only its size is
         kept as the tree climbs *)
      let held = Array.map Message.payload_bytes parts in
      replay_tree ~up:"gather" ~tag:Tags.gatherv ~held:(Array.get held)
        ~merge:(fun ~dst ~src -> held.(dst) <- held.(dst) + held.(src))
        members parts;
      assemble parts)

let shift_edge ctx team ~delta payload =
  spanned ctx "shift_edge" ~bytes_of:(fun () -> Message.payload_bytes payload) @@ fun () ->
  let m = Array.length team in
  let vr = my_index ctx team in
  if delta = 0 then Some payload
  else begin
    let dest = vr + delta and src = vr - delta in
    (* post the send first (asynchronous), then receive *)
    if dest >= 0 && dest < m then Rctx.send ctx ~dest:team.(dest) ~tag:Tags.shift payload;
    if src >= 0 && src < m then
      Some (Rctx.recv ctx ~src:team.(src) ~tag:Tags.shift).Message.payload
    else None
  end

let shift_circular ctx team ~delta payload =
  spanned ctx "shift_circular" ~bytes_of:(fun () -> Message.payload_bytes payload) @@ fun () ->
  let m = Array.length team in
  let d = Util.modulo delta m in
  if d = 0 then payload
  else begin
    let vr = my_index ctx team in
    let dest = Util.modulo (vr + d) m and src = Util.modulo (vr - d) m in
    Rctx.send ctx ~dest:team.(dest) ~tag:Tags.shift payload;
    (Rctx.recv ctx ~src:team.(src) ~tag:Tags.shift).Message.payload
  end

