open F90d_base
open F90d_machine

let check = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-12))
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Model / Topology                                                    *)
(* ------------------------------------------------------------------ *)

let test_transfer_time () =
  let m = Model.ipsc860 in
  checkf "one hop" (m.Model.alpha +. (100. *. m.Model.beta))
    (Model.transfer_time m ~bytes:100 ~hops:1);
  checkf "three hops"
    (m.Model.alpha +. (100. *. m.Model.beta) +. (2. *. m.Model.hop))
    (Model.transfer_time m ~bytes:100 ~hops:3)

let test_hypercube_hops () =
  check "self" 0 (Topology.hops Hypercube ~nprocs:16 5 5);
  check "one bit" 1 (Topology.hops Hypercube ~nprocs:16 0 8);
  check "all bits" 4 (Topology.hops Hypercube ~nprocs:16 0 15);
  check "symmetric" (Topology.hops Hypercube ~nprocs:16 3 12) (Topology.hops Hypercube ~nprocs:16 12 3)

let test_mesh_hops () =
  (* 4x4 mesh: 0 and 5 differ by (1,1) *)
  check "diagonal" 2 (Topology.hops Mesh ~nprocs:16 0 5);
  check "full" 1 (Topology.hops Full ~nprocs:16 0 5)

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_hypercube_validation () =
  (* a 12-node "hypercube" has no geometry: XOR popcounts would report
     the distances of a 16-node cube with corners missing *)
  checkb "validate flags non-pow2" true (Topology.validate Hypercube ~nprocs:12 <> None);
  checkb "validate accepts pow2" true (Topology.validate Hypercube ~nprocs:16 = None);
  checkb "mesh any size" true (Topology.validate Mesh ~nprocs:12 = None);
  checkb "full any size" true (Topology.validate Full ~nprocs:12 = None);
  (match Engine.config ~topology:Hypercube 12 with
  | _ -> Alcotest.fail "expected Diag.Error for a 12-node hypercube"
  | exception F90d_base.Diag.Error (_, msg) ->
      checkb "names the size" true (contains_sub msg "12-node hypercube"));
  ignore (Engine.config ~topology:Hypercube 16)

let test_embedding_identity_cases () =
  checkb "non-pow2 grid" true (Topology.grid_embedding Hypercube ~nprocs:12 [| 3; 4 |] = None);
  checkb "full" true (Topology.grid_embedding Full ~nprocs:16 [| 4; 4 |] = None);
  match Topology.grid_embedding Hypercube ~nprocs:8 [| 8 |] with
  | None -> Alcotest.fail "expected gray embedding"
  | Some phys ->
      (* a ring embedding: consecutive ranks at distance 1 *)
      for r = 0 to 6 do
        check "ring step" 1 (Topology.hops Hypercube ~nprocs:8 phys.(r) phys.(r + 1))
      done

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_ping_pong () =
  let cfg = Engine.config ~model:Model.ipsc860 2 in
  let report =
    Engine.run cfg (fun ctx ->
        match Engine.rank ctx with
        | 0 ->
            Engine.send ctx ~dest:1 ~tag:7 (Message.Scalar (Scalar.Int 41));
            let m = Engine.recv ctx ~src:1 ~tag:8 in
            Scalar.to_int (Message.scalar m)
        | _ ->
            let m = Engine.recv ctx ~src:0 ~tag:7 in
            Engine.send ctx ~dest:0 ~tag:8 (Message.Scalar (Scalar.Int (Scalar.to_int (Message.scalar m) + 1)));
            0)
  in
  check "roundtrip value" 42 report.Engine.results.(0);
  check "messages" 2 report.Engine.stats.Stats.messages;
  check "bytes" 16 report.Engine.stats.Stats.bytes;
  (* two sequential 8-byte sends; elapsed = 2 * (alpha + 8*beta) *)
  let m = Model.ipsc860 in
  checkf "elapsed" (2. *. (m.Model.alpha +. (8. *. m.Model.beta))) report.Engine.elapsed

let test_clock_semantics () =
  (* receiver that is already late pays no extra wait *)
  let cfg = Engine.config ~model:Model.ipsc860 2 in
  let report =
    Engine.run cfg (fun ctx ->
        match Engine.rank ctx with
        | 0 ->
            Engine.send ctx ~dest:1 ~tag:1 (Message.Scalar (Scalar.Real 1.));
            Engine.time ctx
        | _ ->
            Engine.advance ctx 1.0;
            let _ = Engine.recv ctx ~src:0 ~tag:1 in
            Engine.time ctx)
  in
  checkf "late receiver keeps its clock" 1.0 report.Engine.results.(1);
  checkb "sender finished before receiver" true (report.Engine.results.(0) < 1.0)

let test_fifo_order () =
  let cfg = Engine.config 2 in
  let report =
    Engine.run cfg (fun ctx ->
        match Engine.rank ctx with
        | 0 ->
            List.iter
              (fun i -> Engine.send ctx ~dest:1 ~tag:3 (Message.Scalar (Scalar.Int i)))
              [ 1; 2; 3 ];
            []
        | _ ->
            List.map
              (fun _ -> Scalar.to_int (Message.scalar (Engine.recv ctx ~src:0 ~tag:3)))
              [ (); (); () ])
  in
  Alcotest.(check (list int)) "FIFO per (src,tag)" [ 1; 2; 3 ] report.Engine.results.(1)

let test_tag_matching () =
  (* receives in the opposite order of the sends: matching is by tag *)
  let cfg = Engine.config 2 in
  let report =
    Engine.run cfg (fun ctx ->
        match Engine.rank ctx with
        | 0 ->
            Engine.send ctx ~dest:1 ~tag:1 (Message.Scalar (Scalar.Int 10));
            Engine.send ctx ~dest:1 ~tag:2 (Message.Scalar (Scalar.Int 20));
            (0, 0)
        | _ ->
            let b = Scalar.to_int (Message.scalar (Engine.recv ctx ~src:0 ~tag:2)) in
            let a = Scalar.to_int (Message.scalar (Engine.recv ctx ~src:0 ~tag:1)) in
            (a, b))
  in
  Alcotest.(check (pair int int)) "out-of-order tags" (10, 20) report.Engine.results.(1)

let test_deadlock () =
  let cfg = Engine.config 2 in
  match
    Engine.run cfg (fun ctx -> ignore (Engine.recv ctx ~src:(1 - Engine.rank ctx) ~tag:9))
  with
  | _ -> Alcotest.fail "expected deadlock"
  | exception Engine.Deadlock _ -> ()

let test_deadlock_lists_unwaited_handles () =
  (* a rank stuck with a split-phase handle outstanding: the diagnostic
     must name the issued-but-unwaited channel, the usual sign of a wait
     sunk past the point that should have consumed it *)
  let cfg = Engine.config 2 in
  match
    Engine.run cfg (fun ctx ->
        match Engine.rank ctx with
        | 0 -> ignore (Engine.recv ctx ~src:1 ~tag:5)
        | _ ->
            Engine.set_stmt ctx ~sid:42 ~loc:F90d_base.Loc.none;
            let _h = Engine.irecv ctx ~src:0 ~tag:7 in
            ignore (Engine.recv ctx ~src:0 ~tag:5))
  with
  | _ -> Alcotest.fail "expected deadlock"
  | exception Engine.Deadlock msg ->
      let has s =
        try
          ignore (Str.search_forward (Str.regexp_string s) msg 0);
          true
        with Not_found -> false
      in
      checkb "names the unwaited channel" true (has "issued-unwaited (src=0,tag=7");
      checkb "names the issuing statement" true (has "issued at stmt 42")

let test_recv_src_out_of_range () =
  (* a receive from a rank that does not exist is the caller's bug,
     reported at once rather than as a Deadlock naming a phantom rank;
     a split-phase receive is checked when it is waited on *)
  let expect_bug what main =
    match Engine.run (Engine.config 2) main with
    | _ -> Alcotest.fail (what ^ ": expected a bug report")
    | exception Failure msg -> checkb what true (contains_sub msg "from rank")
  in
  expect_bug "recv" (fun ctx -> ignore (Engine.recv ctx ~src:2 ~tag:0));
  expect_bug "wait" (fun ctx -> ignore (Engine.wait ctx (Engine.irecv ctx ~src:(-1) ~tag:0)))

let test_queued_receive_same_slice () =
  (* a receive whose message is already queued does not suspend: rank 0
     gets its own message before rank 1 is ever started *)
  let log = ref [] in
  let note s = log := s :: !log in
  ignore
    (Engine.run (Engine.config 2) (fun ctx ->
         match Engine.rank ctx with
         | 0 ->
             Engine.send ctx ~dest:0 ~tag:1 (Message.Scalar (Scalar.Int 5));
             ignore (Engine.recv ctx ~src:0 ~tag:1);
             note "0 received"
         | _ -> note "1 started"));
  Alcotest.(check (list string)) "log" [ "0 received"; "1 started" ] (List.rev !log)

let test_hand_over () =
  (* rank 0 suspends on (src=1, tag=2) before rank 1 runs: the tag-2 send
     is handed straight to it, while tag 1 and the relay wait in their
     channels, and every channel is empty at the end *)
  let int_of m = Scalar.to_int (Message.scalar m) in
  let report =
    Engine.run (Engine.config 2) (fun ctx ->
        match Engine.rank ctx with
        | 0 ->
            let a = int_of (Engine.recv ctx ~src:1 ~tag:2) in
            let b = int_of (Engine.recv ctx ~src:1 ~tag:1) in
            let c = int_of (Engine.recv ctx ~src:1 ~tag:3) in
            ([ a; b; c ], Engine.live_channels ctx)
        | _ ->
            Engine.send ctx ~dest:0 ~tag:1 (Message.Scalar (Scalar.Int 10));
            Engine.send ctx ~dest:0 ~tag:2 (Message.Scalar (Scalar.Int 20));
            ignore
              (Engine.relay ctx ~from_t:(Engine.time ctx) ~dest:0 ~tag:3
                 (Message.Scalar (Scalar.Int 30)));
            ([], Engine.live_channels ctx))
  in
  Alcotest.(check (list int)) "receive order" [ 20; 10; 30 ] (fst report.Engine.results.(0));
  Array.iteri
    (fun r (_, live) -> check (Printf.sprintf "rank %d live channels" r) 0 live)
    report.Engine.results

let test_exception_propagation () =
  let cfg = Engine.config 2 in
  match
    Engine.run cfg (fun ctx -> if Engine.rank ctx = 1 then failwith "node crash" else ())
  with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure msg -> Alcotest.(check string) "message" "node crash" msg

let test_all_to_all () =
  let p = 8 in
  let cfg = Engine.config ~topology:Hypercube p in
  let report =
    Engine.run cfg (fun ctx ->
        let me = Engine.rank ctx in
        for d = 0 to p - 1 do
          if d <> me then Engine.send ctx ~dest:d ~tag:me (Message.Scalar (Scalar.Int (100 + me)))
        done;
        let acc = ref 0 in
        for s = 0 to p - 1 do
          if s <> me then
            acc := !acc + Scalar.to_int (Message.scalar (Engine.recv ctx ~src:s ~tag:s))
        done;
        !acc)
  in
  let expected me = (7 * 100) + (((p - 1) * p / 2) - me) in
  Array.iteri (fun me v -> check "sum" (expected me) v) report.Engine.results;
  check "messages" (p * (p - 1)) report.Engine.stats.Stats.messages

let test_charges () =
  let cfg = Engine.config ~model:Model.ncube2 1 in
  let report =
    Engine.run cfg (fun ctx ->
        Engine.charge_flops ctx 1000;
        Engine.charge_iops ctx 100;
        Engine.charge_copy_bytes ctx 10;
        Engine.time ctx)
  in
  let m = Model.ncube2 in
  checkf "charged"
    ((1000. *. m.Model.flop) +. (100. *. m.Model.iop) +. (10. *. m.Model.memcpy))
    report.Engine.results.(0)

(* ------------------------------------------------------------------ *)
(* One domain per run                                                  *)
(* ------------------------------------------------------------------ *)

let test_fibers_on_calling_domain () =
  (* state shared by a run's fibers needs no lock because every fiber
     executes on the domain that called [Engine.run] *)
  let p = 8 in
  let caller = (Domain.self () :> int) in
  let report =
    Engine.run (Engine.config p) (fun ctx ->
        let me = Engine.rank ctx in
        let on_entry = (Domain.self () :> int) in
        for d = 0 to p - 1 do
          if d <> me then Engine.send ctx ~dest:d ~tag:me (Message.Scalar (Scalar.Int me))
        done;
        for s = 0 to p - 1 do
          if s <> me then ignore (Engine.recv ctx ~src:s ~tag:s)
        done;
        (on_entry, (Domain.self () :> int)))
  in
  Array.iter
    (fun (a, b) ->
      check "domain at fiber start" caller a;
      check "domain after receives" caller b)
    report.Engine.results

let prop_arrival_monotone =
  QCheck.Test.make ~name:"elapsed >= each processor clock >= 0" ~count:100
    QCheck.(pair (int_range 0 3) (int_range 0 50))
    (fun (logp, work) ->
      let p = 1 lsl logp in
      let cfg = Engine.config ~model:Model.ipsc860 ~topology:Topology.Hypercube p in
      let report =
        Engine.run cfg (fun ctx ->
            Engine.charge_flops ctx (work * (1 + Engine.rank ctx));
            if Engine.rank ctx > 0 then
              Engine.send ctx ~dest:0 ~tag:1 (Message.Scalar (Scalar.Int 1))
            else
              for s = 1 to p - 1 do
                ignore (Engine.recv ctx ~src:s ~tag:1)
              done)
      in
      Array.for_all (fun c -> c >= 0. && c <= report.Engine.elapsed) report.Engine.clocks)

(* ------------------------------------------------------------------ *)
(* Scale: ready-queue scheduler, sparse mailboxes, log-depth cascades  *)
(* ------------------------------------------------------------------ *)

module Rt = F90d_runtime

let payload_int = function
  | Message.Scalar sc -> Scalar.to_int sc
  | _ -> Alcotest.fail "expected scalar payload"

(* the communication shape of gauss's pivot exchange: a broadcast down a
   binomial tree and an allreduce back, with rank-skewed local compute *)
let collective_program p ctx =
  let rctx = Rt.Rctx.make ctx (F90d_dist.Grid.make [| p |]) in
  let team = Rt.Collectives.team_all rctx in
  let me = Engine.rank ctx in
  Engine.charge_flops ctx (7 * (me mod 13));
  let v = payload_int (Rt.Collectives.broadcast rctx team ~root:0 (Message.Scalar (Scalar.Int 4242))) in
  let s =
    payload_int
      (Rt.Collectives.allreduce rctx team
         ~combine:(Rt.Redop.payload Rt.Redop.Sum)
         (Message.Scalar (Scalar.Int (me + 1))))
  in
  (v, s)

let test_large_p_bit_identity () =
  (* visit order is not part of the semantics: which receives suspend
     depends on how slices interleave, yet two runs of the same program
     at P=1024 must agree bit for bit, and with the closed form *)
  let p = 1024 in
  let cfg () = Engine.config ~model:Model.ipsc860 ~topology:Hypercube p in
  let r1 = Engine.run (cfg ()) (collective_program p) in
  let r2 = Engine.run (cfg ()) (collective_program p) in
  let expect = (4242, p * (p + 1) / 2) in
  Array.iter (fun r -> checkb "values" true (r = expect)) r1.Engine.results;
  checkb "results" true (r1.Engine.results = r2.Engine.results);
  checkb "clocks" true (r1.Engine.clocks = r2.Engine.clocks);
  checkf "elapsed" r1.Engine.elapsed r2.Engine.elapsed;
  check "messages" r1.Engine.stats.Stats.messages r2.Engine.stats.Stats.messages;
  checkb "per-tag" true (Stats.per_tag r1.Engine.stats = Stats.per_tag r2.Engine.stats)

let test_mailbox_sparse_after_broadcast () =
  (* drained channels must leave the mailbox table entirely: after the
     cascades complete, every rank's live-channel count is back to 0 *)
  let p = 256 in
  let cfg = Engine.config ~model:Model.ipsc860 ~topology:Hypercube p in
  let report =
    Engine.run cfg (fun ctx ->
        ignore (collective_program p ctx);
        Engine.live_channels ctx)
  in
  Array.iteri (fun r live -> check (Printf.sprintf "rank %d live channels" r) 0 live) report.Engine.results

let test_broadcast_log_depth () =
  (* a binomial broadcast's critical path is exactly log2 P back-to-back
     message times: parent and child always differ in one address bit, so
     on Full (and on a hypercube) every tree edge is one hop *)
  let m = Model.ipsc860 in
  let t_msg = m.Model.alpha +. (8. *. m.Model.beta) in
  List.iter
    (fun p ->
      let cfg = Engine.config ~model:Model.ipsc860 p in
      let report =
        Engine.run cfg (fun ctx ->
            let rctx = Rt.Rctx.make ctx (F90d_dist.Grid.make [| p |]) in
            let team = Rt.Collectives.team_all rctx in
            ignore
              (Rt.Collectives.broadcast rctx team ~root:0 (Message.Scalar (Scalar.Real 1.0))))
      in
      let depth = Util.ilog2 p in
      checkf (Printf.sprintf "depth at P=%d" p)
        (float_of_int depth *. t_msg)
        report.Engine.elapsed;
      check (Printf.sprintf "messages at P=%d" p) (p - 1) report.Engine.stats.Stats.messages)
    [ 16; 256; 4096 ]

let test_deadlock_truncated () =
  (* at P=64 the report must stay readable: 8 ranks detailed, the other
     56 summarized in one suffix line *)
  let count_sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i acc =
      if i + nn > nh then acc
      else go (i + 1) (if String.sub hay i nn = needle then acc + 1 else acc)
    in
    go 0 0
  in
  let p = 64 in
  let cfg = Engine.config p in
  (match Engine.run cfg (fun ctx -> ignore (Engine.recv ctx ~src:(Engine.rank ctx) ~tag:9)) with
  | _ -> Alcotest.fail "expected deadlock"
  | exception Engine.Deadlock msg ->
      check "detailed ranks" 8 (count_sub msg "waiting on");
      checkb "elision suffix" true (contains_sub msg "and 56 more blocked ranks"));
  (* small machines keep the full detail *)
  let cfg4 = Engine.config 4 in
  match Engine.run cfg4 (fun ctx -> ignore (Engine.recv ctx ~src:(Engine.rank ctx) ~tag:9)) with
  | _ -> Alcotest.fail "expected deadlock"
  | exception Engine.Deadlock msg ->
      check "all ranks detailed" 4 (count_sub msg "waiting on");
      checkb "no elision" true (not (contains_sub msg "more blocked ranks"))

(* ------------------------------------------------------------------ *)
(* Barrier-collective rendezvous                                       *)
(* ------------------------------------------------------------------ *)

(* What the message-level references below share: the physical rank of a
   team index, and a span that counts the bytes of its payload
   argument. *)
let reference_tools rctx team =
  let eng = Rt.Rctx.engine rctx in
  let grid = Rt.Rctx.grid rctx in
  let phys i = F90d_dist.Grid.phys_of_rank grid team.(i) in
  let tr = Engine.trace eng in
  let spanned name arg f =
    F90d_trace.Trace.span_begin tr ~t:(Engine.time eng) name ~cat:"collective";
    let r = f () in
    F90d_trace.Trace.span_end tr ~t:(Engine.time eng) ~bytes:(Message.payload_bytes arg);
    r
  in
  (eng, phys, spanned, Array.length team, Rt.Collectives.index_in team (Rt.Rctx.me rctx))

(* The message-level binomial broadcast from team index 0 that both
   references end with. *)
let reference_broadcast eng ~phys ~m ~vr payload =
  let p = ref payload and k = ref 1 in
  while !k < m do
    if vr < !k then begin
      if vr + !k < m then Engine.send eng ~dest:(phys (vr + !k)) ~tag:Rt.Tags.broadcast !p
    end
    else if vr < 2 * !k then
      p := (Engine.recv eng ~src:(phys (vr - !k)) ~tag:Rt.Tags.broadcast).Message.payload;
    k := 2 * !k
  done;
  !p

(* The message-level binomial allreduce the rendezvous replays: a
   reduction to team index 0, then a broadcast from it, every edge a real
   send and receive through the mailboxes. *)
let reference_allreduce rctx team ~combine payload =
  let eng, phys, spanned, m, vr = reference_tools rctx team in
  spanned "allreduce" payload @@ fun () ->
  let reduced =
    spanned "reduce" payload @@ fun () ->
    let acc = ref payload and k = ref 1 and sent = ref false in
    while !k < m && not !sent do
      if vr mod (2 * !k) = 0 then begin
        if vr + !k < m then begin
          let msg = Engine.recv eng ~src:(phys (vr + !k)) ~tag:Rt.Tags.reduce in
          Engine.charge_flops eng (Message.payload_bytes msg.Message.payload / 8);
          acc := combine !acc msg.Message.payload
        end
      end
      else begin
        Engine.send eng ~dest:(phys (vr - !k)) ~tag:Rt.Tags.reduce !acc;
        sent := true
      end;
      k := 2 * !k
    done;
    if vr = 0 then !acc else Message.Empty
  in
  spanned "broadcast" reduced @@ fun () -> reference_broadcast eng ~phys ~m ~vr reduced

(* The message-level allgather the rendezvous replays: a binomial gather
   of team-ordered segments to team index 0, each edge a [Message.List]
   of the segment gathered so far, then a broadcast of every part; each
   member assembles the parts itself. *)
let reference_allgather rctx team ~assemble payload =
  let eng, phys, spanned, m, vr = reference_tools rctx team in
  spanned "allgather" payload @@ fun () ->
  let gathered =
    spanned "gather" payload @@ fun () ->
    let acc = ref [ payload ] and k = ref 1 and sent = ref false in
    while !k < m && not !sent do
      if vr mod (2 * !k) = 0 then begin
        if vr + !k < m then
          acc := !acc @ Message.list (Engine.recv eng ~src:(phys (vr + !k)) ~tag:Rt.Tags.gatherv)
      end
      else begin
        Engine.send eng ~dest:(phys (vr - !k)) ~tag:Rt.Tags.gatherv (Message.List !acc);
        sent := true
      end;
      k := 2 * !k
    done;
    if vr = 0 then Message.List !acc else Message.Empty
  in
  match spanned "broadcast" gathered @@ fun () -> reference_broadcast eng ~phys ~m ~vr gathered with
  | Message.List parts -> assemble (Array.of_list parts)
  | _ -> Alcotest.fail "reference allgather: expected the list of parts"

let floats_of = function
  | Message.Arr a -> List.init (Ndarray.size a) (fun i -> Scalar.to_real (Ndarray.get_flat a i))
  | _ -> Alcotest.fail "expected an array payload"

(* Rank-skewed compute around a scalar SUM and an elementwise MAX of
   arrays over each of [teams] in turn, under statement provenance. *)
let allreduce_program allreduce ~dims ~teams ?(before = fun _ -> ()) ctx =
  let rctx = Rt.Rctx.make ctx (F90d_dist.Grid.make dims) in
  let me = Engine.rank ctx in
  before ctx;
  List.concat_map
    (fun team_of ->
      let team = team_of rctx in
      Engine.set_stmt ctx ~sid:(3 + me mod 2) ~loc:(Loc.make ~file:"rv.f90d" ~line:7 ~col:1);
      Engine.charge_flops ctx (7 * (me mod 13));
      let s =
        allreduce rctx team ~combine:(Rt.Redop.payload Rt.Redop.Sum)
          (Message.Scalar (Scalar.Int (me + 1)))
      in
      Engine.charge_flops ctx (3 * (me mod 5));
      let a = Ndarray.create Scalar.Kreal [| 3 |] in
      for i = 0 to 2 do
        Ndarray.set_flat a i (Scalar.Real (float_of_int (((me * 37) + (i * 11)) mod 101)))
      done;
      let x = allreduce rctx team ~combine:(Rt.Redop.payload Rt.Redop.Max) (Message.Arr a) in
      float_of_int (payload_int s) :: floats_of x)
    teams

(* The same skew around allgathers of a scalar and of arrays whose
   length varies with the rank, so gathered segments differ in size. *)
let allgather_program allgather ~dims ~teams ?(before = fun _ -> ()) ctx =
  let rctx = Rt.Rctx.make ctx (F90d_dist.Grid.make dims) in
  let me = Engine.rank ctx in
  let assemble parts = Message.List (Array.to_list parts) in
  before ctx;
  List.concat_map
    (fun team_of ->
      let team = team_of rctx in
      Engine.set_stmt ctx ~sid:(3 + me mod 2) ~loc:(Loc.make ~file:"rv.f90d" ~line:7 ~col:1);
      Engine.charge_flops ctx (7 * (me mod 13));
      let s = allgather rctx team ~assemble (Message.Scalar (Scalar.Int (me + 1))) in
      Engine.charge_flops ctx (3 * (me mod 5));
      let a = Ndarray.create Scalar.Kreal [| me mod 3 |] in
      for i = 0 to (me mod 3) - 1 do
        Ndarray.set_flat a i (Scalar.Real (float_of_int (((me * 37) + (i * 11)) mod 101)))
      done;
      [ s; allgather rctx team ~assemble (Message.Arr a) ])
    teams

let allreduces = (Rt.Collectives.allreduce, reference_allreduce)
let allgathers = (Rt.Collectives.allgather, reference_allgather)

let check_same_run name (a : _ Engine.report) (b : _ Engine.report) =
  checkb (name ^ ": results") true (a.Engine.results = b.Engine.results);
  checkb (name ^ ": clocks") true (a.Engine.clocks = b.Engine.clocks);
  let sa = a.Engine.stats and sb = b.Engine.stats in
  let same what x y = checkb (name ^ ": " ^ what) true (x = y) in
  same "per-rank messages" sa.Stats.per_rank_messages sb.Stats.per_rank_messages;
  same "per-rank bytes" sa.Stats.per_rank_bytes sb.Stats.per_rank_bytes;
  same "per-tag" (Stats.per_tag sa) (Stats.per_tag sb);
  same "recv_wait" sa.Stats.recv_wait sb.Stats.recv_wait;
  same "recv_wait_hidden" sa.Stats.recv_wait_hidden sb.Stats.recv_wait_hidden;
  match (a.Engine.trace, b.Engine.trace) with
  | Some ta, Some tb ->
      for r = 0 to Array.length a.Engine.clocks - 1 do
        checkb
          (Printf.sprintf "%s: trace of p%d" name r)
          true
          (F90d_trace.Trace.events ta ~rank:r = F90d_trace.Trace.events tb ~rank:r);
        checkb
          (Printf.sprintf "%s: compute of p%d" name r)
          true
          (F90d_trace.Trace.compute_time ta ~rank:r = F90d_trace.Trace.compute_time tb ~rank:r)
      done
  | _ -> Alcotest.fail "expected traces"

(* Run [program] over the rendezvous collective and over its
   message-level reference, and check the two runs are the same. *)
let against_reference name ~p ~dims ~teams ?before program (rendezvous, reference) =
  let topology = if Util.is_pow2 p then Topology.Hypercube else Topology.Full in
  let run collective =
    Engine.run
      (Engine.config ~model:Model.ipsc860 ~topology ~tracing:true p)
      (program collective ~dims ~teams ?before)
  in
  let rv = run rendezvous in
  check_same_run name rv (run reference);
  rv

let test_rendezvous_matches_tree () =
  List.iter
    (fun p ->
      let r =
        against_reference (Printf.sprintf "P=%d" p) ~p ~dims:[| p |]
          ~teams:[ Rt.Collectives.team_all ] allreduce_program allreduces
      in
      Array.iter
        (fun xs ->
          checkf (Printf.sprintf "sum at P=%d" p) (float_of_int (p * (p + 1) / 2)) (List.hd xs))
        r.Engine.results)
    [ 1; 2; 3; 7; 16; 64; 1024 ]

let test_allgather_matches_tree () =
  List.iter
    (fun p ->
      let r =
        against_reference (Printf.sprintf "allgather P=%d" p) ~p ~dims:[| p |]
          ~teams:[ Rt.Collectives.team_all ] allgather_program allgathers
      in
      let scalars = Message.List (List.init p (fun i -> Message.Scalar (Scalar.Int (i + 1)))) in
      Array.iter
        (function
          | [ s; _ ] -> checkb (Printf.sprintf "team order at P=%d" p) true (s = scalars)
          | _ -> Alcotest.fail "expected two allgathers")
        r.Engine.results)
    [ 1; 2; 3; 7; 16; 64; 1024 ]

let test_rendezvous_grid_lines () =
  (* every rank reduces along grid dimension 0 (ranks 8j .. 8j+7), then
     along dimension 1, then over the whole grid.  Rank 7, the last of
     line 0 along dimension 0, first waits for a message that rank 63
     sends as it starts, so line 0 is still gathering when the other
     lines finish and their members join the lines along dimension 1:
     the one through rank 0 then gathers at the same time as line 0, and
     both start at rank 0.  The second run takes the dimensions in the
     other order with no delay. *)
  let lines = List.map (fun dim r -> Rt.Collectives.team_along r ~dim) [ 0; 1 ] in
  let before ctx =
    match Engine.rank ctx with
    | 63 -> Engine.send ctx ~dest:7 ~tag:77 (Message.Scalar (Scalar.Int 0))
    | 7 -> ignore (Engine.recv ctx ~src:63 ~tag:77)
    | _ -> ()
  in
  let dims = [| 8; 8 |] and all = Rt.Collectives.team_all in
  let delayed name = against_reference name ~p:64 ~dims ~teams:(lines @ [ all ]) ~before in
  let undelayed name = against_reference name ~p:64 ~dims ~teams:(List.rev lines) in
  ignore (delayed "8x8 lines" allreduce_program allreduces);
  ignore (undelayed "8x8 lines, undelayed" allreduce_program allreduces);
  ignore (delayed "8x8 lines, allgather" allgather_program allgathers);
  ignore (undelayed "8x8 lines, allgather, undelayed" allgather_program allgathers)

let test_rendezvous_deadlock () =
  (* rank 2 skips the allreduce, or the concatenation of a BLOCK array:
     the other three park for good *)
  let p = 4 in
  let concatenation ctx =
    let grid = F90d_dist.Grid.make [| p |] in
    let rctx = Rt.Rctx.make ctx grid in
    let dim = F90d_dist.Dad.block_dim ~flb:1 ~extent:8 ~pdim:0 ~p () in
    let dad = F90d_dist.Dad.make ~name:"A" ~kind:Scalar.Kreal ~grid [| dim |] in
    ignore (Rt.Darray.gather_global rctx (Rt.Darray.create rctx dad))
  in
  List.iter
    (fun (what, program) ->
      match
        Engine.run (Engine.config p) (fun ctx ->
            if Engine.rank ctx <> 2 then begin
              Engine.set_stmt ctx ~sid:9 ~loc:(Loc.make ~file:"skip.f90d" ~line:12 ~col:7);
              program ctx
            end)
      with
      | _ -> Alcotest.fail (what ^ ": expected deadlock")
      | exception Engine.Deadlock msg ->
          checkb (what ^ ": names a parked rank") true
            (contains_sub msg
               "p0 parked in a rendezvous of 4 ranks, 3 arrived at skip.f90d:12 (stmt 9)");
          checkb (what ^ ": skipping rank not listed") false (contains_sub msg "p2 "))
    [ ("allreduce", fun ctx -> ignore (collective_program p ctx)); ("gather_global", concatenation) ]

let test_rendezvous_slot_taken () =
  (* two ranks claiming one team index is a protocol bug, not a hang *)
  match
    Engine.run (Engine.config 2) (fun ctx ->
        Engine.rendezvous ctx ~team:[| 0; 1 |] ~index:0 Message.Empty (fun _ _ -> Message.Empty))
  with
  | _ -> Alcotest.fail "expected a bug report"
  | exception Failure msg -> checkb "names the slot" true (contains_sub msg "already taken by p0")

let test_rendezvous_polls_once () =
  (* the cancellation poll runs once per member, not once per receive *)
  let polls = ref 0 in
  let p = 16 in
  let cfg = Engine.config ~poll:(fun () -> incr polls) p in
  let r =
    Engine.run cfg (fun ctx ->
        let rctx = Rt.Rctx.make ctx (F90d_dist.Grid.make [| p |]) in
        payload_int
          (Rt.Collectives.allreduce rctx (Rt.Collectives.team_all rctx)
             ~combine:(Rt.Redop.payload Rt.Redop.Sum)
             (Message.Scalar (Scalar.Int 1))))
  in
  Array.iter (check "sum" p) r.Engine.results;
  check "polls" p !polls;
  check "messages" (2 * (p - 1)) r.Engine.stats.Stats.messages

let test_undelivered_message () =
  match
    Engine.run (Engine.config 3) (fun ctx ->
        if Engine.rank ctx = 0 then begin
          Engine.send ctx ~dest:1 ~tag:7 (Message.Scalar (Scalar.Int 1));
          Engine.send ctx ~dest:1 ~tag:7 (Message.Scalar (Scalar.Int 2));
          Engine.send ctx ~dest:2 ~tag:8 (Message.Scalar (Scalar.Int 3))
        end;
        if Engine.rank ctx = 1 then ignore (Engine.recv ctx ~src:0 ~tag:7))
  with
  | _ -> Alcotest.fail "expected a bug report"
  | exception Failure msg ->
      checkb "names the channels" true
        (contains_sub msg "undelivered messages: p1 has (src=0,tag=7); p2 has (src=0,tag=8)")

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_arrival_monotone ]

let () =
  Alcotest.run "f90d_machine"
    [
      ( "model",
        [
          Alcotest.test_case "transfer_time" `Quick test_transfer_time;
          Alcotest.test_case "hypercube hops" `Quick test_hypercube_hops;
          Alcotest.test_case "mesh/full hops" `Quick test_mesh_hops;
          Alcotest.test_case "hypercube size validation" `Quick test_hypercube_validation;
          Alcotest.test_case "embeddings" `Quick test_embedding_identity_cases;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ping-pong" `Quick test_ping_pong;
          Alcotest.test_case "clock semantics" `Quick test_clock_semantics;
          Alcotest.test_case "FIFO order" `Quick test_fifo_order;
          Alcotest.test_case "tag matching" `Quick test_tag_matching;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock;
          Alcotest.test_case "deadlock lists unwaited handles" `Quick
            test_deadlock_lists_unwaited_handles;
          Alcotest.test_case "receive from a rank out of range" `Quick
            test_recv_src_out_of_range;
          Alcotest.test_case "queued receive finishes in the same slice" `Quick
            test_queued_receive_same_slice;
          Alcotest.test_case "send hands over to a suspended receiver" `Quick test_hand_over;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "all-to-all" `Quick test_all_to_all;
          Alcotest.test_case "compute charges" `Quick test_charges;
        ] );
      ( "domain affinity",
        [ Alcotest.test_case "every fiber on the calling domain" `Quick test_fibers_on_calling_domain ] );
      ( "scale",
        [
          Alcotest.test_case "bit-identical at P=1024" `Quick test_large_p_bit_identity;
          Alcotest.test_case "mailboxes drain to empty" `Quick test_mailbox_sparse_after_broadcast;
          Alcotest.test_case "broadcast depth is log2 P" `Quick test_broadcast_log_depth;
          Alcotest.test_case "deadlock report truncation" `Quick test_deadlock_truncated;
        ] );
      ( "rendezvous",
        [
          Alcotest.test_case "allreduce equals the message tree" `Quick
            test_rendezvous_matches_tree;
          Alcotest.test_case "allgather equals the message tree" `Quick
            test_allgather_matches_tree;
          Alcotest.test_case "concurrent grid lines" `Quick test_rendezvous_grid_lines;
          Alcotest.test_case "deadlock names parked ranks" `Quick test_rendezvous_deadlock;
          Alcotest.test_case "slot taken twice" `Quick test_rendezvous_slot_taken;
          Alcotest.test_case "one poll per member" `Quick test_rendezvous_polls_once;
          Alcotest.test_case "undelivered messages fail the run" `Quick test_undelivered_message;
        ] );
      ("properties", qsuite);
    ]
