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

let test_cyclic_k_falls_back () =
  (* a CYCLIC(3) dimension's owned iterations are an index vector, not a
     progression: every nest is handed back for that one reason, and a
     strided range whose owned indices form no local triplet still runs *)
  let r =
    kernel_on_vs_off ~nprocs:2 "cyclic(k) strided"
      {|
      PROGRAM CYK
      REAL A(20), B(20)
C$    TEMPLATE T(20)
C$    ALIGN A(I) WITH T(I)
C$    ALIGN B(I) WITH T(I)
C$    DISTRIBUTE T(CYCLIC(3))
      FORALL (I = 1:20) B(I) = I
      FORALL (I = 1:20) A(I) = 0.0
      FORALL (I = 2:19:3) A(I) = B(I) * 2.0
      FORALL (I = 19:2:-2) A(I) = A(I) + 1.0
      PRINT *, SUM(A)
      END
      |}
  in
  let stats = r.Driver.stats in
  Alcotest.(check string) "sum" "123\n" r.Driver.outcome.F90d_exec.Interp.output;
  checki "no kernel run" 0 stats.F90d_machine.Stats.kernel_runs;
  checki "every nest on both ranks falls back" 8 stats.F90d_machine.Stats.kernel_fallbacks;
  checki "named explicit_layout" 8 (fallbacks_for stats F90d_machine.Stats.Explicit_layout)

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
  checki "no fallback" 0 stats.F90d_machine.Stats.kernel_fallbacks

(* An even iteration partition with a REAL store is a scatter plan: the
   gather/scatter loop of the irregular demo, a scatter through a
   permutation, and a postcomp write, on a 2-D grid whose unused
   dimension gives every element two copies, all run as strips and
   match the interpreter, and so do the INTEGER stores of the index
   arrays. *)
let test_scatter_plans () =
  let r = kernel_on_vs_off ~nprocs:4 "irregular n=64" (Programs.irregular ~n:64) in
  let stats = r.Driver.stats in
  checki "irregular: 11 runs per rank" 44 stats.F90d_machine.Stats.kernel_runs;
  checki "irregular: no fallback" 0 stats.F90d_machine.Stats.kernel_fallbacks;
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
  checki "copies: 4 runs per rank" 16 stats.F90d_machine.Stats.kernel_runs;
  checki "copies: no fallback" 0 stats.F90d_machine.Stats.kernel_fallbacks

(* ------------------------------------------------------------------ *)
(* INTEGER stores                                                      *)
(* ------------------------------------------------------------------ *)

(* [runs] nests run, every one blocked, and none handed back. *)
let check_all_run name ~runs (stats : F90d_machine.Stats.t) =
  checki (name ^ ": kernel runs") runs stats.F90d_machine.Stats.kernel_runs;
  checki (name ^ ": every run blocked") stats.F90d_machine.Stats.kernel_runs
    stats.F90d_machine.Stats.kernel_blocked;
  checki (name ^ ": no fallback") 0 stats.F90d_machine.Stats.kernel_fallbacks

let test_int_store_trees () =
  (* int trees into INTEGER arrays: MOD and MODULO of negative operands,
     truncating division, MIN, MAX, MERGE over a relational, a literal
     power, an identity read of the store, a 2-D nest whose strip runs
     down the store's unit-stride dimension, and CYCLIC storage steps *)
  let r =
    kernel_on_vs_off ~nprocs:4 "int store trees"
      {|
      PROGRAM IS1
      INTEGER K(13), L(13), M(6, 5), Q(13)
      REAL A(13)
C$    DISTRIBUTE K(BLOCK)
C$    ALIGN L(I) WITH K(I)
C$    ALIGN A(I) WITH K(I)
C$    DISTRIBUTE M(*, BLOCK)
C$    DISTRIBUTE Q(CYCLIC)
      FORALL (I = 1:13) K(I) = MOD(7*I - 40, 6) + MODULO(3 - 5*I, 4)
      FORALL (I = 1:13) L(I) = (K(I) - 20) / 3 + MIN(I, 7) * MAX(K(I), -1)
      FORALL (I = 1:13) K(I) = MERGE(L(I), -I, L(I) > K(I)) + I**2
      FORALL (I = 1:6, J = 1:5) M(I, J) = I * 100 - J / 2 + MODULO(L(I), 5)
      FORALL (I = 2:13:3) Q(I) = ABS(K(I) - 50) / 7
      FORALL (I = 1:13) A(I) = K(I) + L(I) * 0.5
      PRINT *, SUM(K), SUM(L), SUM(M), SUM(Q), SUM(A)
      END
      |}
  in
  (* M's five columns leave rank 3 none; Q's four iterations one each *)
  check_all_run "int store trees" ~runs:23 r.Driver.stats

let test_int_store_exact () =
  (* past 2^53 a float rounds: 2**53 + 3 is odd, and products wrap at 63
     bits as the interpreter's do *)
  let r =
    kernel_on_vs_off ~nprocs:4 "int store past 2^53"
      {|
      PROGRAM IS2
      INTEGER, PARAMETER :: BIG = 3037000499
      INTEGER K(10), L(10), W(10)
C$    DISTRIBUTE K(BLOCK)
C$    ALIGN L(I) WITH K(I)
C$    ALIGN W(I) WITH K(I)
      FORALL (I = 1:10) K(I) = 2**53 + I
      FORALL (I = 1:10) L(I) = K(I) + 1
      FORALL (I = 1:10) W(I) = (BIG + I) * (BIG + 2*I) * 3
      PRINT *, L(2), W(10)
      END
      |}
  in
  let w10 = (3037000499 + 10) * (3037000499 + 20) * 3 in
  Alcotest.(check string) "exact past 2^53"
    (Printf.sprintf "9007199254740995 %d\n" w10)
    r.Driver.outcome.F90d_exec.Interp.output;
  check_all_run "int store past 2^53" ~runs:12 r.Driver.stats

let test_int_store_truncated () =
  (* a REAL value stored into an INTEGER array truncates toward zero, as
     [Scalar.to_int] does, in place and through a scatter plan whose
     elements have two copies each *)
  let r =
    kernel_on_vs_off ~nprocs:4 "real into int"
      {|
      PROGRAM IS3
      REAL A(12)
      INTEGER K(12), L(12), U(12), KC(12), KD(12)
C$    PROCESSORS P(2, 2)
C$    DISTRIBUTE A(BLOCK) ONTO P
C$    DISTRIBUTE K(BLOCK) ONTO P
C$    DISTRIBUTE L(CYCLIC) ONTO P
C$    DISTRIBUTE U(BLOCK) ONTO P
C$    DISTRIBUTE KC(CYCLIC) ONTO P
C$    DISTRIBUTE KD(BLOCK) ONTO P
      FORALL (I = 1:12) A(I) = (I - 6) * 1.75
      FORALL (I = 1:12) K(I) = A(I) * 2.5 - 0.5
      FORALL (I = 1:12) L(I) = A(13 - I) / 0.3 + K(I)
      FORALL (I = 1:12) U(I) = MODULO(5*I + 3, 12) + 1
      FORALL (I = 1:12) KC(U(I)) = A(I) * 3.0
      FORALL (I = 1:12) KD(U(I)) = 7*I - K(I)
      PRINT *, K(1), K(12), SUM(L), SUM(KC), KD(4)
      END
      |}
  in
  Alcotest.(check string) "truncated toward zero"
    "-22 25 53 31 59\n" r.Driver.outcome.F90d_exec.Interp.output;
  check_all_run "real into int" ~runs:24 r.Driver.stats

let test_int_store_zero_divisor () =
  (* a zero divisor met while the strips run: the nest goes back to the
     interpreter, whose located error is the same with kernels on and
     off, whether every iteration divides by zero or only one does *)
  List.iter
    (fun (name, body) ->
      let src =
        Printf.sprintf
          {|
      PROGRAM IS4
      INTEGER K(8), D
C$    DISTRIBUTE K(BLOCK)
      D = 0
      %s
      PRINT *, SUM(K)
      END
      |}
          body
      in
      let outcome flags =
        match run ~nprocs:4 flags src with
        | _ -> Alcotest.failf "%s: ran without an error" name
        | exception Diag.Error (loc, msg) -> (msg, loc.Loc.line)
      in
      let on = outcome on_flags in
      Alcotest.(check (pair string int)) (name ^ ": same error") (outcome off_flags) on;
      checki (name ^ ": the FORALL's line") 6 (snd on))
    [
      ("all zero", "FORALL (I = 1:8) K(I) = I / D");
      ("one zero", "FORALL (I = 1:8) K(I) = MOD(7, I - 5) + 1");
    ]

let test_logical_store_ineligible () =
  (* a LOGICAL store never gets a plan: it counts as neither a run nor a
     fallback, while the REAL store beside it runs on every rank *)
  let r =
    kernel_on_vs_off ~nprocs:4 "logical store"
      {|
      PROGRAM IS5
      LOGICAL P(8)
      REAL A(8)
C$    DISTRIBUTE A(BLOCK)
C$    ALIGN P(I) WITH A(I)
      FORALL (I = 1:8) P(I) = I > 4
      FORALL (I = 1:8) A(I) = I * 0.5
      PRINT *, SUM(A), P(5)
      END
      |}
  in
  checki "logical store: only A runs" 4 r.Driver.stats.F90d_machine.Stats.kernel_runs;
  checki "logical store: no fallback" 0 r.Driver.stats.F90d_machine.Stats.kernel_fallbacks

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

(* ------------------------------------------------------------------ *)
(* One workspace per plan                                              *)
(* ------------------------------------------------------------------ *)

let read_corpus name =
  In_channel.with_open_bin (Filename.concat "corpus" name) In_channel.input_all

let test_call_sites_interleaved () =
  (* one FORALL in a subroutine CALLed from two sites: one binding runs
     in the kernel, the other binds an INTEGER actual to the REAL factor
     and declines on every rank, so runs and declines of the same plan
     interleave across executions and rank fibers *)
  let src = read_corpus "call_sites.f90d" in
  List.iter
    (fun nprocs ->
      let r = kernel_on_vs_off ~nprocs (Printf.sprintf "call sites p=%d" nprocs) src in
      let stats = r.Driver.stats in
      checkb "some runs" true (stats.F90d_machine.Stats.kernel_runs > 0);
      checkb "some scalar-kind declines" true
        (fallbacks_for stats F90d_machine.Stats.Scalar_kind > 0);
      checki "no other decline" (fallbacks_for stats F90d_machine.Stats.Scalar_kind)
        stats.F90d_machine.Stats.kernel_fallbacks)
    [ 1; 4 ]

let test_gauss_update_wide () =
  (* gauss's rank-1 update nests at P 4 and 16: at 16 ranks with N=23
     most ranks own one or two columns, and some none *)
  List.iter
    (fun nprocs ->
      let r =
        kernel_on_vs_off ~nprocs (Printf.sprintf "gauss n=23 p=%d" nprocs) (Programs.gauss ~n:23)
      in
      checki "every run blocked" r.Driver.stats.F90d_machine.Stats.kernel_runs
        r.Driver.stats.F90d_machine.Stats.kernel_blocked;
      checki "no fallback" 0 r.Driver.stats.F90d_machine.Stats.kernel_fallbacks)
    [ 4; 16 ]

(* One FORALL of a program's main unit, planned once as [Interp.prepare]
   plans it, and executed directly on hand-made local sections of every
   rank of a [dims] grid: the test picks the scalar values each call
   sees. *)
type harness = {
  plan : F90d_exec.Kernel.plan;
  dads : F90d_dist.Dad.t array;
  slot_of : string -> int;  (* a scalar's slot *)
  space : int -> F90d_dist.Layout.t list;  (* a rank's iteration space *)
}

let harness ~dims ~ranges src =
  let ir = (Driver.compile src).Driver.c_ir in
  let _, u = List.hd ir.F90d_ir.Ir.p_units in
  let env = u.F90d_ir.Ir.u_env in
  let f =
    let found = ref None in
    F90d_ir.Ir.iter_stmts
      (fun s ->
        match s.F90d_ir.Ir.s with F90d_ir.Ir.Forall f -> found := Some f | _ -> ())
      u.F90d_ir.Ir.u_body;
    Option.get !found (* the last one *)
  in
  let grid = F90d_dist.Grid.make dims in
  let named = Array.of_list (F90d_frontend.Sema.instantiate ~ghosts:u.F90d_ir.Ir.u_ghosts env ~grid) in
  let slots = Hashtbl.create 8 in
  let slot_of v =
    match Hashtbl.find_opt slots v with
    | Some s -> s
    | None ->
        Hashtbl.replace slots v (Hashtbl.length slots);
        Hashtbl.length slots - 1
  in
  let kind_of = function
    | F90d_frontend.Ast.Integer -> Scalar.Kint
    | F90d_frontend.Ast.Real -> Scalar.Kreal
    | F90d_frontend.Ast.Logical -> Scalar.Klog
  in
  let scope =
    {
      F90d_exec.Kernel.env;
      scalar_kind = (fun v -> Option.map kind_of (F90d_frontend.Sema.scalar_kind env v));
      scalar_slot = slot_of;
      array_slot =
        (fun n -> Option.get (Array.find_index (fun (m, _) -> m = n) named));
    }
  in
  let plan = F90d_exec.Kernel.plan scope ~f in
  let lhs = Option.get (Array.find_index (fun (m, _) -> m = f.F90d_ir.Ir.f_lhs.F90d_frontend.Ast.base) named) in
  let space rank =
    match f.F90d_ir.Ir.f_iter with
    | F90d_ir.Ir.It_canonical { var_dims; _ } ->
        Option.get
          (F90d_exec.Inspector.canonical (snd named.(lhs))
             ~var_dims:(Array.of_list (List.map (fun (_, d) -> Option.value d ~default:(-1)) var_dims))
             ~guard_dims:[||] ~guards:[||] ~ranges ~rank)
    | _ -> Alcotest.fail "harness: expected a canonical iteration space"
  in
  { plan; dads = Array.map snd named; slot_of; space }

(* Rank [rank]'s local sections, every element [init rank flat]. *)
let sections h ~rank init =
  Array.map
    (fun dad ->
      let local = F90d_dist.Dad.alloc_local dad ~rank in
      (match local.Ndarray.data with
      | Ndarray.Reals a -> Array.iteri (fun i _ -> a.(i) <- init rank i) a
      | _ -> ());
      { F90d_runtime.Darray.dad; local })
    h.dads

let exec h ~rank arrays scalars =
  F90d_exec.Kernel.execute h.plan ~me:rank ~arrays ~scalars ~temps:[||] ~space:(h.space rank)

let reals (d : F90d_runtime.Darray.t) = Ndarray.reals d.F90d_runtime.Darray.local

let test_declines_interleaved () =
  (* one plan executed by every rank in turn, twice, each call with its
     own scalars: a REAL factor on some calls and an INTEGER one (not the
     planned kind) on others, and a subscript shift that reaches past the
     replicated R on rank 2.  A declining call names its reason and
     leaves the store untouched; every running call stores what a plain
     loop over the same storage computes, whatever the calls before it
     left in the workspace *)
  let h =
    harness ~dims:[| 4 |] ~ranges:[ (1, 16, 1) ]
      {|
      PROGRAM DI
      REAL A(16), B(16), R(20), S
      INTEGER M
C$    DISTRIBUTE A(BLOCK)
C$    ALIGN B(I) WITH A(I)
      FORALL (I = 1:16) A(I) = R(I + M) * S + B(I)
      END
      |}
  in
  let outcomes = ref [] in
  for round = 0 to 1 do
    for rank = 0 to 3 do
      let arrays = sections h ~rank (fun r i -> float_of_int ((100 * r) + i + round)) in
      let scalars = Array.make 2 F90d_exec.Kernel.unset in
      let m = if rank = 2 then 10 else 0 and real_factor = (rank + round) mod 2 = 0 in
      scalars.(h.slot_of "M") <- Scalar.Int m;
      scalars.(h.slot_of "S") <- (if real_factor then Scalar.Real 0.5 else Scalar.Int 3);
      let a = reals arrays.(0) and b = reals arrays.(1) and r = reals arrays.(2) in
      let before = Array.copy a in
      let name = Printf.sprintf "round %d rank %d" round rank in
      match exec h ~rank arrays scalars with
      | Some (Ok F90d_exec.Kernel.Stored) ->
          outcomes := "run" :: !outcomes;
          Array.iteri
            (fun j x ->
              let i = (4 * rank) + j + 1 in
              checkb (Printf.sprintf "%s: A(%d)" name i) true (x = (r.(i + m - 1) *. 0.5) +. b.(j)))
            a
      | Some (Error why) ->
          outcomes :=
            (match why with
            | F90d_machine.Stats.Scalar_kind -> "scalar_kind"
            | F90d_machine.Stats.Out_of_bounds -> "out_of_bounds"
            | _ -> "other")
            :: !outcomes;
          checkb (name ^ ": store untouched") true (a = before)
      | _ -> Alcotest.fail (name ^ ": expected a kernel run or a decline")
    done
  done;
  Alcotest.(check (list string))
    "outcomes in call order"
    [
      "run"; "scalar_kind"; "out_of_bounds"; "scalar_kind";
      "scalar_kind"; "run"; "scalar_kind"; "run";
    ]
    (List.rev !outcomes)

(* Minor words per warm execution of a 2-D five-point stencil nest on
   each rank of a 2x2 grid (7x7 local iterations, ghost reads): the
   strips' views (seven strips of nine nodes) and the call's result,
   nothing per operand.  Measured at 296 words with OCaml 5.1; deriving
   every operand's offset into fresh forms and closures, as executions
   did before the plan had a workspace, measured 963. *)
let warm_words_bound = 360.

(* Minor words per warm execution of [h]'s nest on each rank of a 2x2
   grid, every call of which must run in the kernel. *)
let warm_words h ~init =
  let ranks = Array.init 4 (fun rank -> (rank, sections h ~rank init)) in
  let scalars = [||] in
  let run () =
    Array.iter
      (fun (rank, arrays) ->
        match exec h ~rank arrays scalars with
        | Some (Ok _) -> ()
        | _ -> Alcotest.fail "the stencil nest must run in the kernel")
      ranks
  in
  run ();
  let calls = 200 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls / 4 do
    run ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

let test_warm_execute_allocation () =
  let h =
    harness ~dims:[| 2; 2 |] ~ranges:[ (2, 15, 1); (2, 15, 1) ]
      {|
      PROGRAM ST
C$    PROCESSORS P(2, 2)
      REAL A(16, 16), B(16, 16)
C$    TEMPLATE T(16, 16)
C$    ALIGN A(I, J) WITH T(I, J)
C$    ALIGN B(I, J) WITH T(I, J)
C$    DISTRIBUTE T(BLOCK, BLOCK)
      FORALL (I = 2:15, J = 2:15)
        A(I, J) = 0.25 * (B(I-1, J) + B(I+1, J) + B(I, J-1) + B(I, J+1))
      END FORALL
      END
      |}
  in
  let per_call = warm_words h ~init:(fun r i -> float_of_int (r + i)) in
  if per_call >= warm_words_bound then
    Alcotest.failf "%.1f minor words per warm execution, bound %.0f" per_call warm_words_bound

(* The same for an INTEGER store of that shape, an int tree over
   INTEGER ghost reads: the strips' views (seven strips of thirteen
   nodes) and the call's result.  Measured at 408 words with OCaml 5.1. *)
let warm_int_words_bound = 480.

let test_warm_int_execute_allocation () =
  let h =
    harness ~dims:[| 2; 2 |] ~ranges:[ (2, 15, 1); (2, 15, 1) ]
      {|
      PROGRAM STI
C$    PROCESSORS P(2, 2)
      INTEGER K(16, 16), L(16, 16)
C$    TEMPLATE T(16, 16)
C$    ALIGN K(I, J) WITH T(I, J)
C$    ALIGN L(I, J) WITH T(I, J)
C$    DISTRIBUTE T(BLOCK, BLOCK)
      FORALL (I = 2:15, J = 2:15)
        K(I, J) = MOD(L(I-1, J) + L(I+1, J) + L(I, J-1) + L(I, J+1), 7) + I*J
      END FORALL
      END
      |}
  in
  let per_call = warm_words h ~init:(fun _ _ -> 0.) in
  if per_call >= warm_int_words_bound then
    Alcotest.failf "%.1f minor words per warm INTEGER execution, bound %.0f" per_call
      warm_int_words_bound

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
          Alcotest.test_case "CYCLIC(k) nest falls back" `Quick test_cyclic_k_falls_back;
          Alcotest.test_case "single elements, counters, idiv, merge" `Quick test_strip_node_kinds;
          Alcotest.test_case "scatter and postcomp plans" `Quick test_scatter_plans;
        ] );
      ( "integer stores",
        [
          Alcotest.test_case "int trees" `Quick test_int_store_trees;
          Alcotest.test_case "exact past 2^53" `Quick test_int_store_exact;
          Alcotest.test_case "REAL values truncated" `Quick test_int_store_truncated;
          Alcotest.test_case "zero divisor" `Quick test_int_store_zero_divisor;
          Alcotest.test_case "LOGICAL store ineligible" `Quick test_logical_store_ineligible;
        ] );
      ( "prepared program",
        [
          Alcotest.test_case "one plan per FORALL sid" `Quick test_one_plan_per_forall;
          Alcotest.test_case "scalar kinds from declarations" `Quick test_planned_scalar_kinds;
        ] );
      ( "plan workspace",
        [
          Alcotest.test_case "call sites run and decline, interleaved" `Quick
            test_call_sites_interleaved;
          Alcotest.test_case "gauss update at P 4 and 16" `Quick test_gauss_update_wide;
          Alcotest.test_case "declines interleaved across ranks" `Quick test_declines_interleaved;
          Alcotest.test_case "warm execution allocates only strips" `Quick
            test_warm_execute_allocation;
          Alcotest.test_case "warm INTEGER execution allocates only strips" `Quick
            test_warm_int_execute_allocation;
        ] );
    ]
