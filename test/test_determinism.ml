(* Every rank fiber of a run executes on the domain that called
   [Driver.run], so the state the fibers share (the grid, the prepared
   program and its DADs) belongs to that run and needs no lock.  These
   tests pin that contract and the per-run isolation of the schedule
   cache. *)

open F90d
open F90d_machine

let checkb = Alcotest.(check bool)

(* The rank fibers share each unit's DADs: ghost-widened descriptors
   (overlap shifts), a callee's dummy descriptor (the CALL redistributes
   into it) and the collapsed descriptor SUM(..., DIM) folds through.
   The 16-rank run on a 4x4 grid must match the same program on one
   rank. *)
let shared_dads_source grid =
  Printf.sprintf
    {|
      PROGRAM SHARE
      INTEGER, PARAMETER :: N = 12
      REAL A(12, 12), B(12, 12), RS(12), T
      INTEGER K
C$    PROCESSORS P(%s)
C$    TEMPLATE TP(12, 12)
C$    ALIGN A(I, J) WITH TP(I, J)
C$    ALIGN B(I, J) WITH TP(I, J)
C$    DISTRIBUTE TP(BLOCK, BLOCK)
C$    DISTRIBUTE RS(BLOCK)
      FORALL (I = 1:N, J = 1:N) A(I, J) = MOD(I*5 + J*3, 13)
      DO K = 1, 2
        FORALL (I = 2:N-1, J = 2:N-1)
          B(I, J) = 0.25*(A(I-1, J) + A(I+1, J) + A(I, J-1) + A(I, J+1))
        END FORALL
        CALL SMOOTH(B, T)
        FORALL (I = 2:N-1, J = 2:N-1) A(I, J) = B(I, J) + T
      END DO
      RS = SUM(A, 1)
      END

      SUBROUTINE SMOOTH(X, T)
      REAL X(12, 12), T
C$    DISTRIBUTE X(CYCLIC, BLOCK)
      FORALL (I = 1:12, J = 1:12) X(I, J) = 0.5*X(I, J)
      T = SUM(X) / 144.0
      END
|}
    grid

let test_shared_dads () =
  let run nprocs grid =
    Driver.run ~model:Model.ipsc860 ~topology:Topology.Hypercube ~nprocs
      (Driver.compile (shared_dads_source grid))
  in
  let r16 = run 16 "4, 4" and r1 = run 1 "1, 1" in
  List.iter
    (fun arr ->
      checkb ("gathered " ^ arr) true
        (F90d_base.Ndarray.approx_equal (Driver.final r16 arr) (Driver.final r1 arr)))
    [ "A"; "B"; "RS" ]

let test_jobs_only_one () =
  let compiled = Driver.compile (Programs.gauss ~n:8) in
  (match Driver.run ~jobs:2 ~nprocs:4 compiled with
  | _ -> Alcotest.fail "~jobs:2 should raise Invalid_argument"
  | exception Invalid_argument _ -> ());
  let r = Driver.run ~jobs:1 ~nprocs:4 compiled in
  checkb "~jobs:1 runs" true (r.Driver.elapsed > 0.)

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
      ( "one domain runs all fibers of a run",
        [
          Alcotest.test_case "shared DADs on a 4x4 grid" `Quick test_shared_dads;
          Alcotest.test_case "Driver.run accepts only ~jobs:1" `Quick test_jobs_only_one;
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
