open F90d_base
open Effect
open Effect.Deep

open F90d_trace

type config = {
  nprocs : int;
  model : Model.t;
  topology : Topology.t;
  tracing : bool;
  poll : (unit -> unit) option;
}

let config ?(model = Model.ideal) ?(topology = Topology.Full) ?(tracing = false) ?poll nprocs =
  if nprocs < 1 then Diag.bug "engine: nprocs %d < 1" nprocs;
  (match Topology.validate topology ~nprocs with
  | Some msg -> Diag.error "engine: %s" msg
  | None -> ());
  { nprocs; model; topology; tracing; poll }

exception Deadlock of string

(* Machine state for one run; every fiber of the run executes on the
   calling domain, so none of it needs a lock.  Mailboxes are sharded by
   destination rank and keyed by (src, tag) channel.  A send hands its
   message straight to the destination: to the fiber itself when it is
   suspended on exactly that channel, otherwise to the channel's FIFO.

   Mailbox memory is O(active channels), not O(channels ever used): a
   channel's queue is detached from the table the moment its last
   buffered message is consumed and parked on a free list for the next
   channel to reuse, so a 4096-rank broadcast leaves no per-rank residue
   once delivered. *)
type shared = {
  cfg : config;
  geom : Topology.geom;
  (* topology geometry resolved once per machine; [hops] on the send
     path must not redo an O(sqrt P) side search per message *)
  clocks : float array;
  mail : (int * int, Message.t Queue.t) Hashtbl.t array;
  (* mail.(dest): (src, tag) -> FIFO of undelivered messages *)
  mutable free_queues : Message.t Queue.t list;
  (* drained channel queues, recycled by [channel] *)
  waiting : wait array;
  (* waiting.(me): what rank [me] is suspended on.  A rank suspends on a
     receive only when its channel is empty, and the next message posted
     to that channel is handed to it directly, so the channel stays empty
     for as long as the rank waits. *)
  pending : rendezvous list array;
  (* pending.(first): the rendezvous in progress whose team starts with
     [first], one per distinct team *)
  ready : (unit -> unit) Queue.t;
  (* fiber starts, then the resumptions that sends and completed
     rendezvous made possible *)
  rank_stats : Stats.rank array;
  traces : Trace.handle array;
  (* traces.(me): rank-private event recorder (all Trace.disabled when
     cfg.tracing is off, making every recording call a no-op) *)
  cur_sid : int array;
  cur_loc : Loc.t array;
  (* cur_sid.(me)/cur_loc.(me): provenance of the statement rank [me] is
     currently executing — maintained even when tracing is off so that
     Deadlock diagnostics can name the source line each rank is stuck
     on.  Rank-private, like the clocks. *)
  outstanding : handle list array;
  (* outstanding.(me): issued-but-unwaited receive handles, newest first.
     Rank-private; read by [finish] for Deadlock diagnostics. *)
}

and wait =
  | Not_waiting
  | On_channel of { w_src : int; w_tag : int; w_k : (Message.t, unit) continuation }
  | In_rendezvous of { w_rv : rendezvous; w_k : (Message.payload, unit) continuation }

(* A rendezvous in progress: the members that have arrived so far, by
   team index.  It leaves [pending] when its last member arrives. *)
and rendezvous = {
  rv_team : int array;
  rv_members : int array;  (* physical rank by team index, -1 until arrived *)
  rv_payloads : Message.payload array;
  mutable rv_arrived : int;
}

(* A posted (nonblocking) receive.  The message itself stays in the
   mailbox until [wait] consumes it through the same receive path a
   blocking receive uses, so channel FIFO pairing is unaffected by
   splitting.  Only the cost accounting changes: latency that elapsed
   between [h_posted] and the wait is counted as hidden rather than
   charged as blocking time. *)
and handle = {
  h_src : int;
  h_tag : int;
  h_posted : float;
  h_sid : int;
  h_loc : Loc.t;
  mutable h_done : bool;
}

type ctx = { me : int; sh : shared }

type _ Effect.t +=
  | Wait_recv : (int * int) -> Message.t Effect.t
      (* (src, tag): suspend until a message on that empty channel is posted *)
  | Park : rendezvous -> Message.payload Effect.t
      (* suspend until the rendezvous's last member resumes us with its result *)

let rank ctx = ctx.me
let nprocs ctx = ctx.sh.cfg.nprocs
let model ctx = ctx.sh.cfg.model
let time ctx = ctx.sh.clocks.(ctx.me)
let rank_stats ctx = ctx.sh.rank_stats.(ctx.me)
let trace ctx = ctx.sh.traces.(ctx.me)
let live_channels ctx = Hashtbl.length ctx.sh.mail.(ctx.me)

let set_stmt ctx ~sid ~loc =
  ctx.sh.cur_sid.(ctx.me) <- sid;
  ctx.sh.cur_loc.(ctx.me) <- loc;
  Trace.set_stmt ctx.sh.traces.(ctx.me) ~sid

let current_stmt ctx = (ctx.sh.cur_sid.(ctx.me), ctx.sh.cur_loc.(ctx.me))

let advance ctx dt =
  if dt < 0. then Diag.bug "engine: negative time advance";
  ctx.sh.clocks.(ctx.me) <- ctx.sh.clocks.(ctx.me) +. dt;
  Trace.computed ctx.sh.traces.(ctx.me) dt

let charge_flops ctx n = advance ctx (float_of_int n *. (model ctx).Model.flop)
let charge_iops ctx n = advance ctx (float_of_int n *. (model ctx).Model.iop)
let charge_copy_bytes ctx n = advance ctx (float_of_int n *. (model ctx).Model.memcpy)

let channel sh ~dest key =
  let box = sh.mail.(dest) in
  match Hashtbl.find_opt box key with
  | Some q -> q
  | None ->
      let q =
        match sh.free_queues with
        | q :: rest ->
            sh.free_queues <- rest;
            q
        | [] -> Queue.create ()
      in
      Hashtbl.add box key q;
      q

(* Deliver [msg] to [dest] at send time: a fiber suspended on exactly
   this channel takes it and is queued to resume; otherwise it joins the
   channel's FIFO.  Handing over cannot overtake a buffered message,
   because a rank only suspends on an empty channel. *)
let post sh ~dest (msg : Message.t) =
  match sh.waiting.(dest) with
  | On_channel w when w.w_src = msg.src && w.w_tag = msg.tag ->
      sh.waiting.(dest) <- Not_waiting;
      Queue.add (fun () -> continue w.w_k msg) sh.ready
  | _ -> Queue.add msg (channel sh ~dest (msg.src, msg.tag))

(* The accounting half of a send: everything but the delivery.  Returns
   the message's arrival time. *)
let account_send ?parts ctx ~dest ~tag ~bytes =
  let sh = ctx.sh in
  if dest < 0 || dest >= sh.cfg.nprocs then Diag.bug "engine: send to rank %d" dest;
  let m = sh.cfg.model in
  (* blocking csend: the sender is busy for startup + transfer (charged
     directly, not through [advance], so traced compute time counts only
     computation) *)
  let t0 = time ctx in
  sh.clocks.(ctx.me) <- t0 +. m.Model.alpha +. (float_of_int bytes *. m.Model.beta);
  let hops = Topology.geom_hops sh.geom ctx.me dest in
  let arrival = time ctx +. (float_of_int (max 0 (hops - 1)) *. m.Model.hop) in
  Stats.record_send ~tag sh.rank_stats.(ctx.me) ~bytes;
  Trace.send ?parts sh.traces.(ctx.me) ~t0 ~t1:(time ctx) ~dest ~tag ~bytes ~arrival;
  arrival

let send ?parts ctx ~dest ~tag payload =
  let bytes = Message.payload_bytes payload in
  let arrival = account_send ?parts ctx ~dest ~tag ~bytes in
  post ctx.sh ~dest { Message.src = ctx.me; tag; payload; bytes; arrival }

(* Hand a just-arrived message onward without occupying the CPU: the
   message system forwards it as soon as the data is available
   ([from_t] — normally the arrival time of the message being relayed),
   the way interrupt-driven broadcast forwarding behaves on the real
   machines.  The relaying rank's clock is untouched; link startup and
   transfer time are paid on the relay timeline instead.  Returns the
   time the outgoing link falls idle so chained relays (one node
   forwarding to several children) serialize on it.  Message counts,
   bytes and per-channel send order are recorded exactly as for
   {!send}. *)
let relay ctx ~from_t ~dest ~tag payload =
  let sh = ctx.sh in
  if dest < 0 || dest >= sh.cfg.nprocs then Diag.bug "engine: relay to rank %d" dest;
  let bytes = Message.payload_bytes payload in
  let m = sh.cfg.model in
  let t1 = from_t +. m.Model.alpha +. (float_of_int bytes *. m.Model.beta) in
  let hops = Topology.geom_hops sh.geom ctx.me dest in
  let arrival = t1 +. (float_of_int (max 0 (hops - 1)) *. m.Model.hop) in
  Stats.record_send ~tag sh.rank_stats.(ctx.me) ~bytes;
  Trace.send ~relay:true sh.traces.(ctx.me) ~t0:from_t ~t1 ~dest ~tag ~bytes ~arrival;
  post sh ~dest { Message.src = ctx.me; tag; payload; bytes; arrival };
  t1

(* Cooperative cancellation: the poll hook (when configured) runs inside
   the calling fiber, so raising from it unwinds that rank's node program
   like any other node failure — the scheduler keeps resuming fibers
   until no runnable fiber remains, and [finish] re-raises the poll's
   exception.  Called at every receive point, once per rendezvous and by
   the interpreter once per statement. *)
let check_cancel ctx = match ctx.sh.cfg.poll with Some f -> f () | None -> ()

(* The accounting half of a receive: advance the clock to the arrival
   and account the wait.  [posted] is a split-phase receive's post time;
   latency the program overlapped since then is booked as hidden. *)
let account_recv ?posted ctx ~src ~tag ~arrival =
  let sh = ctx.sh in
  let before = time ctx in
  if arrival > before then begin
    Stats.record_wait sh.rank_stats.(ctx.me) (arrival -. before);
    sh.clocks.(ctx.me) <- arrival
  end;
  (match posted with
  | Some posted ->
      let hidden = Float.max 0. (arrival -. posted) -. (time ctx -. before) in
      if hidden > 0. then Stats.record_wait_hidden sh.rank_stats.(ctx.me) hidden
  | None -> ());
  Trace.recv ?posted sh.traces.(ctx.me) ~t0:before ~t1:(time ctx) ~src ~tag ~arrival

(* The receive path shared by [recv] and [wait]: take the channel's
   oldest message, suspending only when the channel is empty, then
   account it. *)
let receive ?posted ctx ~src ~tag =
  check_cancel ctx;
  let sh = ctx.sh in
  if src < 0 || src >= sh.cfg.nprocs then Diag.bug "engine: receive from rank %d" src;
  let box = sh.mail.(ctx.me) and key = (src, tag) in
  let msg =
    match Hashtbl.find_opt box key with
    | None -> perform (Wait_recv key)
    | Some q ->
        let msg = Queue.pop q in
        if Queue.is_empty q then begin
          (* drop the drained channel so mailbox memory tracks the number
             of channels with data in flight, and park the queue for reuse *)
          Hashtbl.remove box key;
          sh.free_queues <- q :: sh.free_queues
        end;
        msg
  in
  account_recv ?posted ctx ~src ~tag ~arrival:msg.Message.arrival;
  msg

let recv ctx ~src ~tag = receive ctx ~src ~tag

(* Split-phase receive.  [irecv] only records the post time (and the
   posting statement's provenance); nothing is received, so the fiber
   never suspends at issue.  [wait] completes it through the shared
   receive path, which charges only the wait that remains at the wait
   site and books the overlapped latency as hidden. *)
let irecv ctx ~src ~tag =
  let sh = ctx.sh in
  let h =
    {
      h_src = src;
      h_tag = tag;
      h_posted = time ctx;
      h_sid = sh.cur_sid.(ctx.me);
      h_loc = sh.cur_loc.(ctx.me);
      h_done = false;
    }
  in
  sh.outstanding.(ctx.me) <- h :: sh.outstanding.(ctx.me);
  h

let wait ctx h =
  if h.h_done then Diag.bug "engine: wait on an already-completed handle";
  let msg = receive ~posted:h.h_posted ctx ~src:h.h_src ~tag:h.h_tag in
  h.h_done <- true;
  ctx.sh.outstanding.(ctx.me) <- List.filter (fun h' -> h' != h) ctx.sh.outstanding.(ctx.me);
  msg

(* A collective barrier over [team]: every member deposits its payload
   and parks, and the last to arrive runs [replay] over all members'
   contexts and payloads (team order) and resumes the others with its
   result.  Parked members run nothing, so [replay] may charge each of
   them through the accounting halves above, in any interleaving that
   keeps every member's own events in its program order.  Rendezvous in
   progress are found by the team's first member; two of them can share
   it (a grid row and a grid column through one rank), but never a
   member that has arrived, since a parked rank joins nothing else. *)
let rendezvous ctx ~team ~index payload replay =
  check_cancel ctx;
  let sh = ctx.sh in
  let m = Array.length team in
  if index < 0 || index >= m then Diag.bug "engine: rendezvous index %d of %d" index m;
  if m = 1 then replay [| ctx |] [| payload |]
  else begin
    let first = team.(0) in
    let rv =
      match
        List.find_opt (fun rv -> rv.rv_team == team || rv.rv_team = team) sh.pending.(first)
      with
      | Some rv -> rv
      | None ->
          let rv =
            {
              rv_team = team;
              rv_members = Array.make m (-1);
              rv_payloads = Array.make m Message.Empty;
              rv_arrived = 0;
            }
          in
          sh.pending.(first) <- rv :: sh.pending.(first);
          rv
    in
    if rv.rv_members.(index) >= 0 then
      Diag.bug "engine: p%d joins a rendezvous at index %d, already taken by p%d" ctx.me index
        rv.rv_members.(index);
    rv.rv_members.(index) <- ctx.me;
    rv.rv_payloads.(index) <- payload;
    rv.rv_arrived <- rv.rv_arrived + 1;
    if rv.rv_arrived < m then perform (Park rv)
    else begin
      sh.pending.(first) <- List.filter (fun rv' -> rv' != rv) sh.pending.(first);
      let result = replay (Array.map (fun me -> { me; sh }) rv.rv_members) rv.rv_payloads in
      Array.iter
        (fun me ->
          match sh.waiting.(me) with
          | In_rendezvous w ->
              sh.waiting.(me) <- Not_waiting;
              Queue.add (fun () -> continue w.w_k result) sh.ready
          | _ -> ())
        rv.rv_members;
      result
    end
  end

type 'a report = {
  results : 'a array;
  elapsed : float;
  clocks : float array;
  stats : Stats.t;
  trace : Trace.t option;  (* Some iff cfg.tracing *)
}

type 'a outcome = Finished of 'a | Failed of exn * Printexc.raw_backtrace

let make_shared cfg =
  {
    cfg;
    geom = Topology.geom cfg.topology ~nprocs:cfg.nprocs;
    clocks = Array.make cfg.nprocs 0.;
    mail = Array.init cfg.nprocs (fun _ -> Hashtbl.create 8);
    free_queues = [];
    waiting = Array.make cfg.nprocs Not_waiting;
    pending = Array.make cfg.nprocs [];
    ready = Queue.create ();
    rank_stats = Array.init cfg.nprocs (fun _ -> Stats.rank_create ());
    traces =
      (if cfg.tracing then Array.init cfg.nprocs (fun me -> Trace.rank_create ~me)
       else Array.make cfg.nprocs Trace.disabled);
    cur_sid = Array.make cfg.nprocs 0;
    cur_loc = Array.make cfg.nprocs Loc.none;
    outstanding = Array.make cfg.nprocs [];
  }

(* The deep handler of rank [me]'s fiber: a slice runs until the fiber
   suspends on an empty channel or in a rendezvous, returns or raises. *)
let handler sh outcomes me =
  {
    retc = (fun v -> outcomes.(me) <- Some (Finished v));
    exnc = (fun e -> outcomes.(me) <- Some (Failed (e, Printexc.get_raw_backtrace ())));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Wait_recv (src, tag) ->
            Some
              (fun (k : (a, unit) continuation) ->
                sh.waiting.(me) <- On_channel { w_src = src; w_tag = tag; w_k = k })
        | Park rv ->
            Some
              (fun (k : (a, unit) continuation) ->
                sh.waiting.(me) <- In_rendezvous { w_rv = rv; w_k = k })
        | _ -> None);
  }

(* At 4096 ranks an exhaustive deadlock report would enumerate thousands
   of blocked ranks (and a root's mailbox can hold thousands of pending
   channels); cap both lists and say how much was elided.  Small machines
   still get the full detail. *)
let deadlock_max_ranks = 8
let deadlock_max_channels = 8

(* [items], cut to its first [max] with a [more] line for the rest. *)
let bounded ~max ~more items =
  let total = List.length items in
  if total <= max then items else List.filteri (fun i _ -> i < max) items @ [ more (total - max) ]

(* The channels holding messages in rank [me]'s mailbox, in (src, tag)
   order, so tag or source mismatches are visible in a report. *)
let pending_of (sh : shared) me =
  Hashtbl.fold (fun (src, tag) q acc -> (src, tag, Queue.length q) :: acc) sh.mail.(me) []
  |> List.sort compare
  |> List.map (fun (src, tag, n) ->
         if n = 1 then Printf.sprintf "(src=%d,tag=%d)" src tag
         else Printf.sprintf "(src=%d,tag=%d)x%d" src tag n)
  |> bounded ~max:deadlock_max_channels ~more:(Printf.sprintf "... +%d more channels")

let mailbox_of sh me =
  match pending_of sh me with [] -> "nothing" | l -> String.concat " " l

let finish (sh : shared) outcomes =
  (* Propagate the first failure, if any. *)
  Array.iter
    (function Some (Failed (e, bt)) -> Printexc.raise_with_backtrace e bt | _ -> ())
    outcomes;
  if Array.exists Option.is_none outcomes then begin
    let stmt_of me =
      (* Name the statement the rank is stuck inside when provenance is
         available (sid 0 = engine internals / epilogue before any
         statement ran). *)
      let sid = sh.cur_sid.(me) and loc = sh.cur_loc.(me) in
      if sid = 0 && loc.Loc.line = 0 then ""
      else Printf.sprintf " at %s (stmt %d)" (Loc.file_line loc) sid
    in
    let issued_of me =
      (* Issued-but-unwaited split-phase receives: a rank stuck with
         handles outstanding usually means a wait was sunk past the point
         that should have consumed it. *)
      match sh.outstanding.(me) with
      | [] -> ""
      | hs ->
          List.rev_map
            (fun h ->
              Printf.sprintf "(src=%d,tag=%d, issued at stmt %d)" h.h_src h.h_tag h.h_sid)
            hs
          |> String.concat " "
          |> Printf.sprintf ", issued-unwaited %s"
    in
    let blocked =
      Array.to_seqi sh.waiting
      |> Seq.filter_map (fun (me, w) ->
             match w with
             | Not_waiting -> None
             | On_channel w ->
                 Some
                   (Printf.sprintf "p%d waiting on (src=%d,tag=%d)%s, mailbox has %s%s" me w.w_src
                      w.w_tag (stmt_of me) (mailbox_of sh me) (issued_of me))
             | In_rendezvous { w_rv = rv; _ } ->
                 Some
                   (Printf.sprintf
                      "p%d parked in a rendezvous of %d ranks, %d arrived%s, mailbox has %s%s" me
                      (Array.length rv.rv_team) rv.rv_arrived (stmt_of me) (mailbox_of sh me)
                      (issued_of me)))
      |> List.of_seq
      |> bounded ~max:deadlock_max_ranks ~more:(Printf.sprintf "... and %d more blocked ranks")
    in
    raise (Deadlock (String.concat "; " blocked))
  end;
  (* Every channel is single-producer single-consumer, so a message still
     queued when every rank has finished can never be received: the node
     programs disagree about the communication. *)
  (match
     List.filter (fun me -> Hashtbl.length sh.mail.(me) > 0) (List.init sh.cfg.nprocs Fun.id)
   with
  | [] -> ()
  | ranks ->
      Diag.bug "engine: the run ended with undelivered messages: %s"
        (List.map (fun me -> Printf.sprintf "p%d has %s" me (mailbox_of sh me)) ranks
        |> bounded ~max:deadlock_max_ranks ~more:(Printf.sprintf "... and %d more ranks")
        |> String.concat "; "));
  let results =
    Array.map
      (function Some (Finished v) -> v | _ -> Diag.bug "engine: unfinished fiber after run")
      outcomes
  in
  let elapsed = Array.fold_left Float.max 0. sh.clocks in
  let trace =
    if sh.cfg.tracing then Some (Trace.merge ~clocks:sh.clocks sh.traces) else None
  in
  { results; elapsed; clocks = Array.copy sh.clocks; stats = Stats.merge sh.rank_stats; trace }

(* Ready-queue scheduler: only runnable fibers are ever visited.  The
   queue starts with every rank's fiber start; after that it gains a
   resumption only when a send hands a suspended rank its message or a
   rendezvous completes.  A receive whose message is already queued never
   suspends, so it costs no scheduler visit at all.  Total scheduling work is O(starts +
   suspensions), independent of how many of the P fibers are finished
   or idle.

   Visit order is not part of the semantics: each channel is a
   single-producer single-consumer exact-match FIFO, so which message a
   receive consumes — and therefore every clock, stat and result, all
   rank-private — is a function of the node programs alone.  A
   rendezvous's replay is too: it charges parked members only. *)
let run cfg main =
  let sh = make_shared cfg in
  let outcomes = Array.make cfg.nprocs None in
  for me = 0 to cfg.nprocs - 1 do
    Queue.add (fun () -> match_with main { me; sh } (handler sh outcomes me)) sh.ready
  done;
  while not (Queue.is_empty sh.ready) do
    (Queue.pop sh.ready) ()
  done;
  finish sh outcomes
