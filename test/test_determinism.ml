(* The domain-parallel engine must be an observational no-op: between
   communication points node programs are independent (the paper's loosely
   synchronous model, §2), every (src, tag) channel is a single-producer
   single-consumer FIFO, and all delivery decisions are made by the
   sequential coordinator — so reports are bit-identical to the
   sequential engine.  These tests pin that, plus the per-run isolation
   of the schedule cache. *)

open F90d
open F90d_machine

let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 0.))
(* eps 0.: bit-identical, not approximately equal *)

let run ~jobs ~nprocs compiled =
  Driver.run ~jobs ~model:Model.ipsc860 ~topology:Topology.Hypercube ~nprocs compiled

let same_report name (seq : Driver.run_result) (par : Driver.run_result) ~finals =
  checkf (name ^ ": elapsed") seq.Driver.elapsed par.Driver.elapsed;
  Alcotest.(check (array (float 0.))) (name ^ ": clocks") seq.Driver.clocks par.Driver.clocks;
  Alcotest.(check int) (name ^ ": messages") seq.Driver.stats.Stats.messages
    par.Driver.stats.Stats.messages;
  Alcotest.(check int) (name ^ ": bytes") seq.Driver.stats.Stats.bytes
    par.Driver.stats.Stats.bytes;
  checkf (name ^ ": recv_wait") seq.Driver.stats.Stats.recv_wait
    par.Driver.stats.Stats.recv_wait;
  checkb
    (name ^ ": per-tag message counts")
    true
    (Stats.per_tag seq.Driver.stats = Stats.per_tag par.Driver.stats);
  List.iter
    (fun arr ->
      checkb
        (name ^ ": gathered " ^ arr)
        true
        (F90d_base.Ndarray.equal (Driver.final seq arr) (Driver.final par arr)))
    finals

let determinism_case source ~finals () =
  let compiled = Driver.compile source in
  List.iter
    (fun nprocs ->
      let seq = run ~jobs:1 ~nprocs compiled in
      let par = run ~jobs:4 ~nprocs compiled in
      same_report (Printf.sprintf "nprocs=%d" nprocs) seq par ~finals)
    [ 1; 4; 16 ]

let test_gauss = determinism_case (Programs.gauss ~n:48) ~finals:[ "A" ]
let test_jacobi = determinism_case (Programs.jacobi ~n:37 ~iters:6) ~finals:[ "U"; "V" ]
let test_irregular = determinism_case (Programs.irregular ~n:40) ~finals:[ "A"; "C" ]

(* ------------------------------------------------------------------ *)
(* Schedule-cache isolation between consecutive runs                   *)
(* ------------------------------------------------------------------ *)

(* The compiler emits the same reuse keys (e.g. "IRREG:s1:B") for every
   machine size, so a process-global cache would hand a 4-processor
   schedule to a later 2-processor run.  The cache lives in the per-rank
   Rctx now; consecutive runs must neither corrupt each other's results
   nor hide each other's inspector builds. *)
let test_cache_isolated_across_nprocs () =
  let compiled = Driver.compile (Programs.irregular ~n:48) in
  let reference = Driver.run ~nprocs:1 compiled in
  let r4 = Driver.run ~nprocs:4 compiled in
  let r2 = Driver.run ~nprocs:2 compiled in
  List.iter
    (fun arr ->
      let want = Driver.final reference arr in
      checkb ("4-proc " ^ arr) true (F90d_base.Ndarray.approx_equal (Driver.final r4 arr) want);
      checkb ("2-proc " ^ arr) true (F90d_base.Ndarray.approx_equal (Driver.final r2 arr) want))
    [ "A"; "C" ];
  checkb "second run built its own schedules" true (r2.Driver.stats.Stats.sched_builds > 0)

let test_cache_per_run_stats_repeat () =
  (* the same run twice: identical builds and hits, i.e. the second run
     found nothing pre-populated *)
  let compiled = Driver.compile (Programs.irregular ~n:48) in
  let r1 = Driver.run ~nprocs:4 compiled in
  let r2 = Driver.run ~nprocs:4 compiled in
  Alcotest.(check int) "same builds" r1.Driver.stats.Stats.sched_builds
    r2.Driver.stats.Stats.sched_builds;
  Alcotest.(check int) "same hits" r1.Driver.stats.Stats.sched_hits
    r2.Driver.stats.Stats.sched_hits;
  checkb "schedules were built" true (r1.Driver.stats.Stats.sched_builds > 0);
  checkb "schedules were reused within the run" true (r1.Driver.stats.Stats.sched_hits > 0)

let test_cache_isolated_across_distributions () =
  (* same program shape, different DISTRIBUTE: stale schedules from the
     BLOCK run must not leak into the CYCLIC run *)
  let reference dist =
    Driver.run ~nprocs:1 (Driver.compile (Programs.gauss_dist ~dist ~n:24))
  in
  let rb = Driver.run ~nprocs:4 (Driver.compile (Programs.gauss_dist ~dist:`Block ~n:24)) in
  let rc = Driver.run ~nprocs:4 (Driver.compile (Programs.gauss_dist ~dist:`Cyclic ~n:24)) in
  checkb "block result" true
    (F90d_base.Ndarray.approx_equal (Driver.final rb "A") (Driver.final (reference `Block) "A"));
  checkb "cyclic result" true
    (F90d_base.Ndarray.approx_equal (Driver.final rc "A") (Driver.final (reference `Cyclic) "A"))

(* ------------------------------------------------------------------ *)
(* Concurrent compiles                                                 *)
(* ------------------------------------------------------------------ *)

(* The compiler keeps its counters (temporaries, sids, FORALL variables,
   F77 labels) per call, so two domains compiling different programs at
   once must each get exactly what a sequential compile gives: the same
   IR (as emitted F77 and provenance), the same explain text and the same
   run. *)
let concurrent_sources =
  [
    Programs.gauss ~n:12;
    Programs.jacobi ~n:13 ~iters:2;
    Programs.irregular ~n:16;
    {|
      PROGRAM CC1
      REAL A(12), B(12), S
C$    DISTRIBUTE A(BLOCK)
C$    ALIGN B(I) WITH A(I)
      A = 1.5
      B(2:11) = A(1:10) + A(3:12)
      CALL TWICE(B, S)
      END

      SUBROUTINE TWICE(X, T)
      REAL X(12), T
C$    DISTRIBUTE X(CYCLIC)
      X = 2*X
      T = SUM(X)
      END
      |};
  ]

let fingerprint source =
  let c = Driver.compile source in
  let ir = c.Driver.c_ir in
  let r = Driver.run ~nprocs:2 c in
  let o = r.Driver.outcome in
  let show a = Format.asprintf "%a" F90d_base.Ndarray.pp a in
  ( F90d_ir.Emit_f77.emit_program ir,
    F90d_report.Report.explain_text ir,
    List.concat_map
      (fun (_, u) ->
        List.map (fun p -> (p.F90d_ir.Ir.pv_sid, p.F90d_ir.Ir.pv_desc)) u.F90d_ir.Ir.u_prov)
      ir.F90d_ir.Ir.p_units,
    ( o.F90d_exec.Interp.output,
      List.map (fun (n, a) -> (n, show a)) o.F90d_exec.Interp.finals,
      r.Driver.elapsed ) )

let test_concurrent_compiles () =
  let sources = Array.of_list concurrent_sources in
  let want = Array.map fingerprint sources in
  let n = Array.length sources in
  let worker offset () =
    List.init 100 (fun i ->
        let k = (i + offset) mod n in
        (k, fingerprint sources.(k)))
  in
  let domains = List.map (fun offset -> Domain.spawn (worker offset)) [ 0; 1 ] in
  List.iter
    (fun d ->
      List.iter
        (fun (k, got) ->
          checkb (Printf.sprintf "program %d = sequential compile" k) true (got = want.(k)))
        (Domain.join d))
    domains

let () =
  Alcotest.run "f90d_determinism"
    [
      ( "parallel engine = sequential engine",
        [
          Alcotest.test_case "gauss" `Quick test_gauss;
          Alcotest.test_case "jacobi (paper section 4)" `Quick test_jacobi;
          Alcotest.test_case "irregular PARTI (paper section 5.3.2)" `Quick test_irregular;
        ] );
      ( "schedule cache isolation",
        [
          Alcotest.test_case "across machine sizes" `Quick test_cache_isolated_across_nprocs;
          Alcotest.test_case "repeat runs report own stats" `Quick test_cache_per_run_stats_repeat;
          Alcotest.test_case "across distributions" `Quick test_cache_isolated_across_distributions;
        ] );
      ( "concurrent compiles",
        [ Alcotest.test_case "2 domains x 100 = sequential" `Quick test_concurrent_compiles ] );
    ]
