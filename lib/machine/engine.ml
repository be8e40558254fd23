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
   calling domain, so none of it needs a lock.  A rank's fiber slice
   touches only rank-private slots: clocks.(me), rank_stats.(me) and
   outboxes.(me).  Mailboxes are sharded by destination rank and keyed by
   (src, tag) channel; only the scheduler mutates them, when it drains
   outboxes and pops messages for delivery.

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
  outboxes : (int * Message.t) Queue.t array;
  (* outboxes.(src): (dest, msg) sends not yet moved into a mailbox *)
  mutable free_queues : Message.t Queue.t list;
  (* drained channel queues, recycled by [channel]; touched only by the
     scheduler, like the mailboxes themselves *)
  touched_scratch : bool array;
  (* per-destination dedup flags for [drain_outbox]; scheduler-private,
     always all-false between calls *)
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

(* A posted (nonblocking) receive.  The message itself stays in the
   mailbox until [wait] consumes it through the same Wait_recv effect a
   blocking receive uses, so channel FIFO pairing is unaffected by
   splitting.  Only the
   cost accounting changes: latency that elapsed between [h_posted] and
   the wait is counted as hidden rather than charged as blocking time. *)
and handle = {
  h_src : int;
  h_tag : int;
  h_posted : float;
  h_sid : int;
  h_loc : Loc.t;
  mutable h_done : bool;
}

type ctx = { me : int; sh : shared }

type _ Effect.t += Wait_recv : (int * int * int) -> Message.t Effect.t
(* (dest, src, tag): suspend until a matching message is in the mailbox *)

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

let send ?parts ctx ~dest ~tag payload =
  let sh = ctx.sh in
  if dest < 0 || dest >= sh.cfg.nprocs then Diag.bug "engine: send to rank %d" dest;
  let bytes = Message.payload_bytes payload in
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
  Queue.add (dest, { Message.src = ctx.me; tag; payload; bytes; arrival }) sh.outboxes.(ctx.me)

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
  Queue.add (dest, { Message.src = ctx.me; tag; payload; bytes; arrival }) sh.outboxes.(ctx.me);
  t1

(* Cooperative cancellation: the poll hook (when configured) runs inside
   the calling fiber, so raising from it unwinds that rank's node program
   like any other node failure — the scheduler keeps delivering until no
   runnable fiber remains, and [finish] re-raises the poll's exception.  Called at every receive point and by
   the interpreter once per statement. *)
let check_cancel ctx = match ctx.sh.cfg.poll with Some f -> f () | None -> ()

let recv ctx ~src ~tag =
  check_cancel ctx;
  let msg = perform (Wait_recv (ctx.me, src, tag)) in
  let sh = ctx.sh in
  let before = time ctx in
  if msg.Message.arrival > before then begin
    Stats.record_wait sh.rank_stats.(ctx.me) (msg.Message.arrival -. before);
    sh.clocks.(ctx.me) <- msg.Message.arrival
  end;
  Trace.recv sh.traces.(ctx.me) ~t0:before ~t1:(time ctx) ~src ~tag ~arrival:msg.Message.arrival;
  msg

(* Split-phase receive.  [irecv] only records the post time (and the
   posting statement's provenance); no effect is performed, so the fiber
   never suspends at issue.  [wait] suspends on the same (src, tag)
   channel a blocking receive would, charges only the wait that remains
   at the wait site, and books the latency the program overlapped —
   max(0, arrival - posted) - charged wait — as hidden. *)
let irecv ctx ~src ~tag =
  let sh = ctx.sh in
  if src < 0 || src >= sh.cfg.nprocs then Diag.bug "engine: irecv from rank %d" src;
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
  check_cancel ctx;
  if h.h_done then Diag.bug "engine: wait on an already-completed handle";
  let msg = perform (Wait_recv (ctx.me, h.h_src, h.h_tag)) in
  let sh = ctx.sh in
  let before = time ctx in
  if msg.Message.arrival > before then begin
    Stats.record_wait sh.rank_stats.(ctx.me) (msg.Message.arrival -. before);
    sh.clocks.(ctx.me) <- msg.Message.arrival
  end;
  let hidden =
    Float.max 0. (msg.Message.arrival -. h.h_posted) -. (time ctx -. before)
  in
  if hidden > 0. then Stats.record_wait_hidden sh.rank_stats.(ctx.me) hidden;
  h.h_done <- true;
  sh.outstanding.(ctx.me) <- List.filter (fun h' -> h' != h) sh.outstanding.(ctx.me);
  Trace.recv ~posted:h.h_posted sh.traces.(ctx.me) ~t0:before ~t1:(time ctx) ~src:h.h_src
    ~tag:h.h_tag ~arrival:msg.Message.arrival;
  msg

type 'a report = {
  results : 'a array;
  elapsed : float;
  clocks : float array;
  stats : Stats.t;
  trace : Trace.t option;  (* Some iff cfg.tracing *)
}

type 'a fiber_state =
  | Not_started
  | Blocked of (int * int * int) * (Message.t, unit) continuation
  | Finished of 'a
  | Failed of exn * Printexc.raw_backtrace

let make_shared cfg =
  {
    cfg;
    geom = Topology.geom cfg.topology ~nprocs:cfg.nprocs;
    clocks = Array.make cfg.nprocs 0.;
    mail = Array.init cfg.nprocs (fun _ -> Hashtbl.create 8);
    outboxes = Array.init cfg.nprocs (fun _ -> Queue.create ());
    free_queues = [];
    touched_scratch = Array.make cfg.nprocs false;
    rank_stats = Array.init cfg.nprocs (fun _ -> Stats.rank_create ());
    traces =
      (if cfg.tracing then Array.init cfg.nprocs (fun me -> Trace.rank_create ~me)
       else Array.make cfg.nprocs Trace.disabled);
    cur_sid = Array.make cfg.nprocs 0;
    cur_loc = Array.make cfg.nprocs Loc.none;
    outstanding = Array.make cfg.nprocs [];
  }

(* Move rank [me]'s pending sends into the destination mailboxes, in send
   order (each channel has a single producer, so per-channel FIFO order is
   preserved no matter how slices interleave).  Returns the destination
   ranks that received mail, deduplicated in O(fan-out) with the shared
   scratch flags (a broadcast root drains thousands of sends in one
   call; a List.mem dedup would make that quadratic). *)
let drain_outbox sh me =
  let ob = sh.outboxes.(me) in
  let touched = ref [] in
  while not (Queue.is_empty ob) do
    let dest, msg = Queue.pop ob in
    Queue.add msg (channel sh ~dest (msg.Message.src, msg.Message.tag));
    if not sh.touched_scratch.(dest) then begin
      sh.touched_scratch.(dest) <- true;
      touched := dest :: !touched
    end
  done;
  List.iter (fun dest -> sh.touched_scratch.(dest) <- false) !touched;
  !touched

let take sh (dest, src, tag) =
  let box = sh.mail.(dest) in
  let key = (src, tag) in
  match Hashtbl.find_opt box key with
  | Some q when not (Queue.is_empty q) ->
      let msg = Queue.pop q in
      if Queue.is_empty q then begin
        (* drop the drained channel so mailbox memory tracks the number
           of channels with data in flight, and park the queue for reuse *)
        Hashtbl.remove box key;
        sh.free_queues <- q :: sh.free_queues
      end;
      Some msg
  | _ -> None

(* Run one slice of rank [me]: from [thunk] until the fiber blocks on
   Wait_recv, returns or raises.  The deep handler owns states.(me). *)
let handler states me =
  {
    retc = (fun v -> states.(me) <- Finished v);
    exnc = (fun e -> states.(me) <- Failed (e, Printexc.get_raw_backtrace ()));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Wait_recv key ->
            Some (fun (k : (a, unit) continuation) -> states.(me) <- Blocked (key, k))
        | _ -> None);
  }

(* At 4096 ranks an exhaustive deadlock report would enumerate thousands
   of blocked ranks (and a root's mailbox can hold thousands of pending
   channels); cap both lists and say how much was elided.  Small machines
   still get the full detail. *)
let deadlock_max_ranks = 8
let deadlock_max_channels = 8

let finish (sh : shared) states =
  (* Propagate the first failure, if any. *)
  Array.iteri
    (fun _ st ->
      match st with
      | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
      | _ -> ())
    states;
  let all_done =
    Array.for_all (function Finished _ | Failed _ -> true | _ -> false) states
  in
  if not all_done then begin
    (* Diagnosable without a debugger: alongside the awaited (src, tag)
       channel, show what actually IS pending in the blocked rank's
       mailbox, so tag or source mismatches are visible in the message. *)
    let pending_of me =
      let all =
        Hashtbl.fold
          (fun (src, tag) q acc ->
            if Queue.is_empty q then acc else (src, tag, Queue.length q) :: acc)
          sh.mail.(me) []
        |> List.sort compare
      in
      let shown, elided =
        if List.length all <= deadlock_max_channels then (all, 0)
        else (List.filteri (fun i _ -> i < deadlock_max_channels) all,
              List.length all - deadlock_max_channels)
      in
      List.map
        (fun (src, tag, n) ->
          if n = 1 then Printf.sprintf "(src=%d,tag=%d)" src tag
          else Printf.sprintf "(src=%d,tag=%d)x%d" src tag n)
        shown
      @ (if elided > 0 then [ Printf.sprintf "... +%d more channels" elided ] else [])
    in
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
    let blocked_keys =
      Array.to_seq states
      |> Seq.filter_map (function Blocked (key, _) -> Some key | _ -> None)
      |> List.of_seq
    in
    let total = List.length blocked_keys in
    let detailed =
      if total <= deadlock_max_ranks then blocked_keys
      else List.filteri (fun i _ -> i < deadlock_max_ranks) blocked_keys
    in
    let blocked =
      List.map
        (fun (me, src, tag) ->
          Printf.sprintf "p%d waiting on (src=%d,tag=%d)%s, mailbox has %s%s" me src tag
            (stmt_of me)
            (match pending_of me with [] -> "nothing" | l -> String.concat " " l)
            (issued_of me))
        detailed
      @
      if total > deadlock_max_ranks then
        [ Printf.sprintf "... and %d more blocked ranks" (total - deadlock_max_ranks) ]
      else []
    in
    raise (Deadlock (String.concat "; " blocked))
  end;
  let results =
    Array.map
      (function
        | Finished v -> v
        | Not_started | Blocked _ | Failed _ -> Diag.bug "engine: unfinished fiber after run")
      states
  in
  let elapsed = Array.fold_left Float.max 0. sh.clocks in
  let trace =
    if sh.cfg.tracing then Some (Trace.merge ~clocks:sh.clocks sh.traces) else None
  in
  { results; elapsed; clocks = Array.copy sh.clocks; stats = Stats.merge sh.rank_stats; trace }

(* Ready-queue scheduler: only runnable fibers are ever visited.  A rank
   is enqueued when it has not started, or when it is blocked on a
   channel that just received mail; after each slice the scheduler
   drains the rank's outbox and re-examines exactly the touched
   destinations (plus the rank itself, whose awaited message may already
   be sitting in its mailbox from an earlier drain).  Total scheduling
   work is O(starts + messages), independent of how many of the P fibers
   are finished or idle — the old full-array round-robin re-scan was
   O(P) per delivery and O(P^2) per simulated step at scale.

   Scheduling order differs from the round-robin engine, but reports
   cannot: each channel is a single-producer single-consumer exact-match
   FIFO, so which message a receive consumes — and therefore every
   clock, stat and result, all rank-private — is a function of the node
   programs alone, not of visit order. *)
let run cfg main =
  let sh = make_shared cfg in
  let states = Array.make cfg.nprocs Not_started in
  let queued = Array.make cfg.nprocs false in
  let ready = Queue.create () in
  let push me =
    if not queued.(me) then begin
      queued.(me) <- true;
      Queue.add me ready
    end
  in
  (* A blocked rank becomes ready when its awaited channel has mail. *)
  let consider me =
    match states.(me) with
    | Blocked ((dest, src, tag), _) -> (
        match Hashtbl.find_opt sh.mail.(dest) (src, tag) with
        | Some q when not (Queue.is_empty q) -> push me
        | _ -> ())
    | Not_started | Finished _ | Failed _ -> ()
  in
  for me = 0 to cfg.nprocs - 1 do
    push me
  done;
  while not (Queue.is_empty ready) do
    let me = Queue.pop ready in
    queued.(me) <- false;
    (match states.(me) with
    | Not_started ->
        let ctx = { me; sh } in
        match_with (fun () -> main ctx) () (handler states me)
    | Blocked (key, k) -> (
        match take sh key with
        | Some msg ->
            (* the fiber's original deep handler updates [states.(me)] *)
            continue k msg
        | None -> ())
    | Finished _ | Failed _ -> ());
    let touched = drain_outbox sh me in
    List.iter consider touched;
    (* not redundant with [touched]: the message this rank now awaits may
       have been delivered while it was still running its slice *)
    consider me
  done;
  finish sh states
