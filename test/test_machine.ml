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
  (* the event-driven scheduler's visit order depends on mailbox state;
     two runs of the same program at P=1024 must still agree bit for bit *)
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
      ("properties", qsuite);
    ]
