(* Bit-identity of the blocked node-kernel layer: every fast path —
   cached plans, strip/fused FORALL execution, tiled MATMUL, flat
   DOT_PRODUCT and reduction folds — must reproduce the plain
   interpreter ([--fno-blocked-kernels]) bit for bit, across odd
   extents, non-unit lower bounds, int/real mixes and worker counts. *)

open F90d_base
open F90d

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let on_flags = F90d_opt.Passes.all_on
let off_flags = { F90d_opt.Passes.all_on with F90d_opt.Passes.blocked_kernels = false }

let run ?(nprocs = 4) flags src = Driver.run ~nprocs (Driver.compile ~flags src)

(* Exact (bitwise) agreement of two runs: program output, every final
   array, every final scalar, and the simulated clock. *)
let check_identical name (a : Driver.run_result) (b : Driver.run_result) =
  let oa = a.Driver.outcome and ob = b.Driver.outcome in
  Alcotest.(check string) (name ^ ": output") oa.F90d_exec.Interp.output ob.F90d_exec.Interp.output;
  checki (name ^ ": final count")
    (List.length oa.F90d_exec.Interp.finals)
    (List.length ob.F90d_exec.Interp.finals);
  List.iter
    (fun (arr, nda) ->
      let ndb = List.assoc arr ob.F90d_exec.Interp.finals in
      checkb (name ^ ": array " ^ arr ^ " bit-identical") true (Ndarray.equal nda ndb))
    oa.F90d_exec.Interp.finals;
  List.iter
    (fun (s, va) ->
      let vb = List.assoc s ob.F90d_exec.Interp.final_scalars in
      checkb (name ^ ": scalar " ^ s) true (Scalar.equal va vb))
    oa.F90d_exec.Interp.final_scalars;
  checkb (name ^ ": simulated time") true (a.Driver.elapsed = b.Driver.elapsed)

let kernel_on_vs_off ?nprocs name src =
  let r_on = run ?nprocs on_flags src and r_off = run ?nprocs off_flags src in
  check_identical name r_on r_off;
  r_on

(* ------------------------------------------------------------------ *)

let test_gauss_fused_update () =
  (* the rank-1 update A(I,J) = A(I,J) - W(I)*A(K,J) is the fused-pass
     poster child, and the MOD/MERGE initialisation exercises the
     compiled relational mask.  Nothing may fall back, and the update
     must actually take the blocked path. *)
  let r = kernel_on_vs_off "gauss n=23" (Programs.gauss ~n:23) in
  checki "gauss: zero kernel fallbacks" 0 r.Driver.stats.F90d_machine.Stats.kernel_fallbacks;
  checkb "gauss: kernel ran" true (r.Driver.stats.F90d_machine.Stats.kernel_runs > 0);
  checkb "gauss: blocked loops ran" true (r.Driver.stats.F90d_machine.Stats.kernel_blocked > 0)

let test_gauss_cyclic () =
  (* CYCLIC distribution: strided owned sections, non-unit storage steps *)
  ignore (kernel_on_vs_off "gauss cyclic n=19" (Programs.gauss_dist ~dist:`Cyclic ~n:19))

let test_matmul_odd_extents () =
  (* replicated-path MATMUL with inner extent 70: the default 64-wide
     k tile leaves a remainder tile, whose accumulation order must still
     match the scalar triple loop exactly *)
  ignore
    (kernel_on_vs_off "matmul 3x70 * 70x4"
       {|
      PROGRAM MM1
      REAL A(3, 70), B(70, 4), C(3, 4)
C$    DISTRIBUTE A(BLOCK, *)
C$    ALIGN B(I, J) WITH A(*, *)
C$    ALIGN C(I, J) WITH A(*, *)
      FORALL (I = 1:3, J = 1:70) A(I, J) = 1.0 / (I + J)
      FORALL (I = 1:70, J = 1:4) B(I, J) = 1.0 / (3*I + J)
      C = MATMUL(A, B)
      END
      |})

let test_matmul_summa_grid () =
  (* SUMMA-shaped: both operands on a 2-D grid; the flat panel update
     must agree with the boxed one *)
  ignore
    (kernel_on_vs_off "matmul summa 5x7 * 7x3"
       {|
      PROGRAM MM2
C$    PROCESSORS P(2, 2)
      REAL A(5, 7), B(7, 3), C(5, 3)
C$    TEMPLATE T(7, 7)
C$    ALIGN A(I, J) WITH T(I, J)
C$    ALIGN B(I, J) WITH T(I, J)
C$    ALIGN C(I, J) WITH T(I, J)
C$    DISTRIBUTE T(BLOCK, BLOCK)
      FORALL (I = 1:5, J = 1:7) A(I, J) = I + 0.5*J
      FORALL (I = 1:7, J = 1:3) B(I, J) = I*J + 0.25
      C = MATMUL(A, B)
      END
      |})

let test_dot_product_and_folds () =
  (* flat multiply-accumulate and the compare-based MAX/MIN folds *)
  ignore
    (kernel_on_vs_off "dot product + reductions"
       {|
      PROGRAM DP1
      REAL X(13), Y(13), S, MX, MN, SM
C$    DISTRIBUTE X(BLOCK)
C$    ALIGN Y(I) WITH X(I)
      FORALL (I = 1:13) X(I) = 1.0 / I
      FORALL (I = 1:13) Y(I) = 14 - I + 0.125
      S = DOT_PRODUCT(X, Y)
      MX = MAXVAL(Y)
      MN = MINVAL(X)
      SM = SUM(X)
      END
      |})

let test_nonunit_lower_bounds () =
  (* declared bounds A(0:12), offsets in both the subscripts and the
     iteration sets *)
  ignore
    (kernel_on_vs_off "non-unit lower bounds"
       {|
      PROGRAM LB1
      REAL A(0:12), B(0:12)
C$    DISTRIBUTE A(BLOCK)
C$    ALIGN B(I) WITH A(I)
      FORALL (I = 0:12) B(I) = 2*I + 1
      FORALL (I = 1:11) A(I) = B(I - 1) + 0.5*B(I + 1)
      END
      |})

let test_int_real_mix () =
  (* integer arrays feed real arithmetic through Nloadi widening; MOD
     on integers must truncate exactly like the interpreter *)
  ignore
    (kernel_on_vs_off "int/real mix"
       {|
      PROGRAM IR1
      INTEGER K(9)
      REAL A(9)
C$    DISTRIBUTE K(BLOCK)
C$    ALIGN A(I) WITH K(I)
      FORALL (I = 1:9) K(I) = MOD(7*I, 5) - 2
      FORALL (I = 1:9) A(I) = K(I) / 4.0 + MERGE(1.0, 0.0, I == 5)
      END
      |})

(* ------------------------------------------------------------------ *)
(* Row strips run every kernel nest                                    *)
(* ------------------------------------------------------------------ *)

let fallbacks_for (stats : F90d_machine.Stats.t) why =
  List.assoc why stats.F90d_machine.Stats.kernel_fallbacks_by

let test_gauss_all_blocked () =
  (* N=23 on 4 ranks: every rank owns six columns, so the rows-above
     update A(I,J) = A(I,J) - F(I)*A(K,J), I = 1:K-1, reads row K inside
     the flat range it writes.  Lower proved the rows separated, and
     the kernel trusts that proof: every run goes through row strips *)
  let r = kernel_on_vs_off ~nprocs:4 "gauss n=23 p=4" (Programs.gauss ~n:23) in
  let stats = r.Driver.stats in
  checkb "gauss: kernel ran" true (stats.F90d_machine.Stats.kernel_runs > 0);
  checki "gauss: every run blocked" stats.F90d_machine.Stats.kernel_runs
    stats.F90d_machine.Stats.kernel_blocked;
  checki "gauss: zero fallbacks" 0 stats.F90d_machine.Stats.kernel_fallbacks

let test_many_to_one_store () =
  (* every J writes X(I): the last writer (J = 8) wins, which only the
     interpreter's canonical order reproduces, so the nest is handed back
     once per rank, for its own named reason *)
  let src =
    {|
      PROGRAM M21
      REAL X(8), Y(8)
C$    DISTRIBUTE X(BLOCK)
      FORALL (I = 1:8) Y(I) = I
      FORALL (I = 1:8, J = 1:8) X(I) = Y(J) + I
      PRINT *, SUM(X)
      END
      |}
  in
  let r = kernel_on_vs_off ~nprocs:4 "many-to-one store" src in
  let stats = r.Driver.stats in
  Alcotest.(check string) "last writer wins" "100\n"
    r.Driver.outcome.F90d_exec.Interp.output;
  checki "one fallback per rank" 4 stats.F90d_machine.Stats.kernel_fallbacks;
  checki "named store-not-injective" 4 (fallbacks_for stats F90d_machine.Stats.Not_injective);
  checkb "exposed by reason" true
    (List.mem
       ( "f90d_kernel_fallback_reasons_total",
         [ ("reason", "store_not_injective") ],
         "FORALL nests handed back to the tree interpreter, by reason",
         4. )
       (F90d_machine.Stats.metric_families stats))

let test_strip_node_kinds () =
  (* single-element nests (1-D and 2-D) run as strips of length one;
     FORALL counters, integer division and MERGE each have a strip loop
     of their own, including a counter that is not the strip counter *)
  let r =
    kernel_on_vs_off ~nprocs:4 "strip node kinds"
      {|
      PROGRAM SK1
      INTEGER K(12)
      REAL A(12), B(12), C(6, 5), S
C$    DISTRIBUTE A(BLOCK)
C$    ALIGN B(I) WITH A(I)
C$    ALIGN K(I) WITH A(I)
C$    DISTRIBUTE C(*, BLOCK)
      FORALL (I = 1:12) K(I) = 3*I - 17
      FORALL (I = 1:12) B(I) = 0.25 * I
      FORALL (I = 5:5) A(I) = 7.5
      FORALL (I = 1:12) A(I) = I / 5 + K(I) / 4 + 0.5 * (I - 6)
      FORALL (I = 1:12) B(I) = MERGE(A(I), B(I) - I, K(I) > 0) + MOD(K(I), 3)
      FORALL (I = 1:6, J = 1:5) C(I, J) = I * 10 + J / 2 + MODULO(K(I), 4)
      FORALL (I = 3:3, J = 4:4) C(I, J) = -C(I, J) + I / J
      S = SUM(A) + SUM(B) + SUM(C)
      PRINT *, S, A(5), C(3, 4)
      END
      |}
  in
  let stats = r.Driver.stats in
  checkb "kernel ran" true (stats.F90d_machine.Stats.kernel_runs > 0);
  checki "every run blocked" stats.F90d_machine.Stats.kernel_runs
    stats.F90d_machine.Stats.kernel_blocked;
  checki "only the INTEGER store of K falls back, on each rank" 4
    (fallbacks_for stats F90d_machine.Stats.Int_store);
  checki "no other fallback" 4 stats.F90d_machine.Stats.kernel_fallbacks

(* An even iteration partition with a REAL store is a scatter plan: the
   gather/scatter loop of the irregular demo, a scatter through a
   permutation, and a postcomp write, on a 2-D grid whose unused
   dimension gives every element two copies, all run as strips and
   match the interpreter.  Only the INTEGER stores fall back. *)
let test_scatter_plans () =
  let r = kernel_on_vs_off ~nprocs:4 "irregular n=64" (Programs.irregular ~n:64) in
  let stats = r.Driver.stats in
  checki "irregular: 9 runs per rank" 36 stats.F90d_machine.Stats.kernel_runs;
  checki "irregular: V and U fall back on each rank" 8
    (fallbacks_for stats F90d_machine.Stats.Int_store);
  let r =
    kernel_on_vs_off ~nprocs:4 "scatter with copies"
      {|
      PROGRAM SCT
      REAL A(12), C(12), X(24)
      INTEGER U(12)
C$    PROCESSORS P(2, 2)
C$    DISTRIBUTE A(BLOCK) ONTO P
C$    DISTRIBUTE C(CYCLIC) ONTO P
C$    DISTRIBUTE X(BLOCK) ONTO P
C$    DISTRIBUTE U(BLOCK) ONTO P
      FORALL (I = 1:12) U(I) = MODULO(5*I + 3, 12) + 1
      FORALL (I = 1:12) A(I) = 0.5 * I
      FORALL (I = 1:12) C(U(I)) = A(I) * 2.0 + I
      FORALL (I = 1:12) X(2*I) = C(I) - A(13 - I)
      PRINT *, C(4), X(8), X(24)
      END
      |}
  in
  let stats = r.Driver.stats in
  checki "copies: 3 runs per rank" 12 stats.F90d_machine.Stats.kernel_runs;
  checki "copies: only U falls back" 4 stats.F90d_machine.Stats.kernel_fallbacks

(* ------------------------------------------------------------------ *)
(* Per-run prepared program                                            *)
(* ------------------------------------------------------------------ *)

let prepared_src =
  {|
      PROGRAM PP1
      REAL A(8), B(8), S
C$    DISTRIBUTE A(BLOCK)
C$    ALIGN B(I) WITH A(I)
      FORALL (I = 1:8) A(I) = I
      DO K = 1, 3
        FORALL (I = 1:8) B(I) = A(I) / K
        IF (K .EQ. 2) THEN
          FORALL (I = 1:8) A(I) = B(I) + 1
        ELSE
          A = 2*B
        END IF
      END DO
      CALL HALVE(A, 2)
      S = SUM(A)
      END

      SUBROUTINE HALVE(X, D)
      REAL X(8), D
C$    DISTRIBUTE X(CYCLIC)
      FORALL (I = 1:8) X(I) = X(I) / D
      FORALL (I = 1:8) X(I) = I / D + X(I)
      END
      |}

let test_one_plan_per_forall () =
  (* every FORALL of every unit — nested under DO and IF, normalized from
     an array assignment, inside a subroutine — has exactly one plan *)
  let ir = (Driver.compile prepared_src).Driver.c_ir in
  let sids = ref [] in
  List.iter
    (fun (_, u) ->
      F90d_ir.Ir.iter_stmts
        (fun s ->
          match s.F90d_ir.Ir.s with
          | F90d_ir.Ir.Forall _ -> sids := s.F90d_ir.Ir.sid :: !sids
          | _ -> ())
        u.F90d_ir.Ir.u_body)
    ir.F90d_ir.Ir.p_units;
  let sids = List.sort compare !sids in
  checki "FORALL count" 6 (List.length sids);
  Alcotest.(check (list int)) "one plan per FORALL sid" sids
    (F90d_exec.Interp.planned_sids
       (F90d_exec.Interp.prepare ~grid:(F90d_dist.Grid.make [| 4 |]) ir))

let test_planned_scalar_kinds () =
  (* plans take scalar kinds from declarations: the DO index K divides as
     an integer and runs in the kernel; the REAL dummy D is bound to an
     INTEGER actual, so its value contradicts the planned kind and those
     nests must fall back, never divide the wrong way *)
  let r = kernel_on_vs_off "planned scalar kinds" prepared_src in
  let stats = r.Driver.stats in
  checkb "kernel ran" true (stats.F90d_machine.Stats.kernel_runs > 0);
  checki "mismatched dummy falls back on all four ranks, twice" 8
    stats.F90d_machine.Stats.kernel_fallbacks

let () =
  Alcotest.run "kernel"
    [
      ( "blocked-kernel bit-identity",
        [
          Alcotest.test_case "gauss fused update" `Quick test_gauss_fused_update;
          Alcotest.test_case "gauss cyclic" `Quick test_gauss_cyclic;
          Alcotest.test_case "matmul odd extents / tile remainder" `Quick test_matmul_odd_extents;
          Alcotest.test_case "matmul summa grid" `Quick test_matmul_summa_grid;
          Alcotest.test_case "dot product and folds" `Quick test_dot_product_and_folds;
          Alcotest.test_case "non-unit lower bounds" `Quick test_nonunit_lower_bounds;
          Alcotest.test_case "int/real mix" `Quick test_int_real_mix;
        ] );
      ( "row strips",
        [
          Alcotest.test_case "gauss every run blocked" `Quick test_gauss_all_blocked;
          Alcotest.test_case "many-to-one store falls back" `Quick test_many_to_one_store;
          Alcotest.test_case "single elements, counters, idiv, merge" `Quick test_strip_node_kinds;
          Alcotest.test_case "scatter and postcomp plans" `Quick test_scatter_plans;
        ] );
      ( "prepared program",
        [
          Alcotest.test_case "one plan per FORALL sid" `Quick test_one_plan_per_forall;
          Alcotest.test_case "scalar kinds from declarations" `Quick test_planned_scalar_kinds;
        ] );
    ]
