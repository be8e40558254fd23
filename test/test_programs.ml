(* Integration tests over the benchmark programs: the compiled Gaussian
   elimination against the sequential oracle and the hand-written baseline,
   grid/machine invariance, kernel-vs-interpreter equivalence, the F77+MP
   emitter, and the optimization passes. *)

open F90d_base
open F90d
open F90d_machine

let checkb = Alcotest.(check bool)
let check = Alcotest.(check int)

let solution_of_run r n =
  let a = Driver.final r "A" in
  Array.init n (fun i -> Scalar.to_real (Ndarray.get a [| i + 1; n + 1 |]))

let max_dev a b =
  let d = ref 0. in
  Array.iteri (fun i x -> d := Float.max !d (Float.abs (x -. b.(i)))) a;
  !d

(* ------------------------------------------------------------------ *)
(* Gaussian elimination                                                *)
(* ------------------------------------------------------------------ *)

let test_gauss_matches_oracle () =
  let n = 40 in
  let seq = Baselines.seq_gauss ~n in
  let compiled = Driver.compile (Programs.gauss ~n) in
  List.iter
    (fun p ->
      let r = Driver.run ~nprocs:p compiled in
      let dev = max_dev (solution_of_run r n) seq in
      if dev > 1e-9 then Alcotest.failf "P=%d deviates by %g" p dev)
    [ 1; 2; 3; 4; 8 ]

let test_gauss_cyclic_matches_oracle () =
  (* CYCLIC column distribution: same results, better load balance *)
  let n = 32 in
  let seq = Baselines.seq_gauss ~n in
  let compiled = Driver.compile (Programs.gauss_dist ~dist:`Cyclic ~n) in
  List.iter
    (fun p ->
      let r = Driver.run ~nprocs:p compiled in
      let dev = max_dev (solution_of_run r n) seq in
      if dev > 1e-9 then Alcotest.failf "cyclic P=%d deviates by %g" p dev)
    [ 1; 3; 4 ]

let test_gauss_cyclic_balances_load () =
  let n = 96 in
  let time dist =
    (Driver.run ~collect_finals:false ~model:Model.ipsc860 ~nprocs:8
       (Driver.compile (Programs.gauss_dist ~dist ~n)))
      .Driver.elapsed
  in
  checkb "cyclic beats block at scale" true (time `Cyclic < time `Block)

let test_kernel_specializer_engaged () =
  (* the elimination loops must take the fast path, or Table 4 at
     1023x1024 silently becomes intractable *)
  let n = 32 in
  let r = Driver.run ~nprocs:4 (Driver.compile (Programs.gauss ~n)) in
  (* at least the two elimination FORALLs per step on active processors *)
  checkb "kernel runs" true (r.Driver.stats.Stats.kernel_runs > n)

let test_gauss_hand_matches_oracle () =
  let n = 40 in
  let seq = Baselines.seq_gauss ~n in
  List.iter
    (fun p ->
      let h = Baselines.run_hand_gauss ~nprocs:p ~n () in
      let dev = max_dev h.Baselines.solution seq in
      if dev > 1e-9 then Alcotest.failf "hand P=%d deviates by %g" p dev)
    [ 1; 2; 4; 8 ]

let test_gauss_machine_invariance () =
  (* machine model and topology change timing, never results *)
  let n = 24 in
  let compiled = Driver.compile (Programs.gauss ~n) in
  let base = solution_of_run (Driver.run ~nprocs:4 compiled) n in
  List.iter
    (fun (model, topo) ->
      let r = Driver.run ~model ~topology:topo ~nprocs:4 compiled in
      checkb "identical solutions" true (max_dev (solution_of_run r n) base < 1e-12))
    [ (Model.ipsc860, Topology.Hypercube); (Model.ncube2, Topology.Mesh) ]

let test_gauss_timing_monotone () =
  (* parallelism must pay off while compute dominates (small P at this
     size); the hand-written code must never be slower than the
     compiler's.  Strict monotonicity in P is deliberately NOT asserted:
     at N=64 communication overtakes compute around P=8, as on the real
     machines. *)
  let n = 64 in
  let compiled = Driver.compile (Programs.gauss ~n) in
  let times =
    List.map
      (fun p ->
        let r =
          Driver.run ~collect_finals:false ~model:Model.ipsc860 ~topology:Topology.Hypercube
            ~nprocs:p compiled
        in
        let h = Baselines.run_hand_gauss ~nprocs:p ~n () in
        checkb "hand <= compiler" true (h.Baselines.elapsed <= r.Driver.elapsed);
        r.Driver.elapsed)
      [ 1; 2; 4 ]
  in
  match times with
  | [ t1; t2; t4 ] ->
      checkb "P=2 beats P=1" true (t2 < t1);
      checkb "P=4 beats P=2" true (t4 < t2)
  | _ -> Alcotest.fail "unexpected row count"

(* ------------------------------------------------------------------ *)
(* Other benchmark programs                                            *)
(* ------------------------------------------------------------------ *)

let test_jacobi_grid_invariance () =
  let run src nprocs = Driver.final (Driver.run ~nprocs (Driver.compile src)) "A" in
  let a22 = run (Programs.jacobi2d ~n:14 ~iters:3 ~p:2 ~q:2) 4 in
  let a41 = run (Programs.jacobi2d ~n:14 ~iters:3 ~p:4 ~q:1) 4 in
  let a12 = run (Programs.jacobi2d ~n:14 ~iters:3 ~p:1 ~q:2) 2 in
  checkb "2x2 = 4x1" true (Ndarray.approx_equal a22 a41);
  checkb "2x2 = 1x2" true (Ndarray.approx_equal a22 a12);
  (* the jacobi2d demo factors any machine size: 6 ranks run as 2x3 *)
  let demo6 = run (F90d_serve.Service.demo_source "jacobi2d" ~nprocs:6 ~n:30) 6 in
  let a11 = run (Programs.jacobi2d ~n:30 ~iters:5 ~p:1 ~q:1) 1 in
  checkb "demo on 6 = 1x1" true (Ndarray.approx_equal demo6 a11)

let test_jacobi1d_converges_correctly () =
  let n = 20 and iters = 6 in
  let r = Driver.run ~nprocs:4 (Driver.compile (Programs.jacobi ~n ~iters)) in
  (* sequential oracle *)
  let u = Array.init (n + 1) (fun i -> float_of_int ((3 * i) mod 17)) in
  for _ = 1 to iters do
    let v = Array.copy u in
    for i = 2 to n - 1 do
      v.(i) <- 0.5 *. (u.(i - 1) +. u.(i + 1))
    done;
    Array.blit v 1 u 1 n
  done;
  let got = Driver.final r "U" in
  for i = 1 to n do
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "U(%d)" i) u.(i)
      (Scalar.to_real (Ndarray.get got [| i |]))
  done

let test_irregular_results () =
  let n = 16 in
  let r = Driver.run ~nprocs:4 (Driver.compile (Programs.irregular ~n)) in
  (* oracle: V(i) = mod(i + n/2, n) + 1; U(i) = n+1-i; four time steps *)
  let v i = ((i + (n / 2)) mod n) + 1 in
  let u i = n + 1 - i in
  let b i = float_of_int (3 * i) in
  let a = Array.make (n + 1) 0. and c = Array.make (n + 1) 0. in
  for t = 1 to 4 do
    for i = 1 to n do
      a.(i) <- b (v i) +. float_of_int t
    done;
    for i = 1 to n do
      c.(u i) <- a.(i)
    done
  done;
  let got_a = Driver.final r "A" and got_c = Driver.final r "C" in
  for i = 1 to n do
    Alcotest.(check (float 1e-9)) "A" a.(i) (Scalar.to_real (Ndarray.get got_a [| i |]));
    Alcotest.(check (float 1e-9)) "C" c.(i) (Scalar.to_real (Ndarray.get got_c [| i |]))
  done

let test_heat_convergence () =
  let compiled = Driver.compile (Programs.heat ~n:24 ~tol:0.5) in
  let r4 = Driver.run ~nprocs:4 compiled in
  let r1 = Driver.run ~nprocs:1 compiled in
  (* the reduction-driven DO WHILE must take identical trips everywhere *)
  checkb "deterministic across P" true
    (Ndarray.approx_equal (Driver.final r4 "U") (Driver.final r1 "U"));
  let steps = Scalar.to_int (Driver.final_scalar r4 "STEPS") in
  checkb "converged in a sane number of sweeps" true (steps > 10 && steps < 10000);
  checkb "residual below tolerance" true
    (Scalar.to_real (Driver.final_scalar r4 "ERR") <= 0.5)

let test_dot_product_through_compiler () =
  let r =
    Driver.run ~nprocs:4
      (Driver.compile
         {|
      PROGRAM DP
      REAL X(10), Y(10), S
C$    DISTRIBUTE X(BLOCK)
C$    ALIGN Y(I) WITH X(I)
      FORALL (I = 1:10) X(I) = I
      FORALL (I = 1:10) Y(I) = 11 - I
      S = DOT_PRODUCT(X, Y)
      END
      |})
  in
  let expect = List.fold_left (fun a i -> a +. float_of_int (i * (11 - i))) 0. (List.init 10 (fun i -> i + 1)) in
  Alcotest.(check (float 1e-9)) "dot product" expect
    (Scalar.to_real (Driver.final_scalar r "S"))

let test_fft_butterfly () =
  let n = 32 in
  let r = Driver.run ~nprocs:4 (Driver.compile (Programs.fft_butterfly ~n)) in
  (* oracle for one butterfly stage *)
  let x = Array.init (n + 1) (fun i -> float_of_int ((7 * i) mod 23)) in
  let t2 = Array.init (n + 1) (fun i -> float_of_int ((3 * i) mod 11)) in
  let incrm = n / 4 in
  let expected = Array.copy x in
  for i = 1 to incrm do
    for j = 0 to (n / (2 * incrm)) - 1 do
      expected.(i + (j * incrm * 2) + incrm) <-
        x.(i + (j * incrm * 2)) -. t2.(i + (j * incrm * 2) + incrm)
    done
  done;
  let got = Driver.final r "X" in
  for i = 1 to n do
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "X(%d)" i) expected.(i)
      (Scalar.to_real (Ndarray.get got [| i |]))
  done

(* ------------------------------------------------------------------ *)
(* Kernel specializer equivalence                                      *)
(* ------------------------------------------------------------------ *)

(* An always-true mask forces the general interpreter; without it the
   kernel specializer runs.  Results must be bitwise comparable. *)
let test_kernel_vs_interpreter () =
  let mk masked =
    Printf.sprintf
      {|
      PROGRAM KEQ
      INTEGER, PARAMETER :: N = 33
      INTEGER K
      REAL A(33, 34), W(33), ROW(34)
C$    TEMPLATE T(34)
C$    ALIGN A(I, J) WITH T(J)
C$    ALIGN ROW(J) WITH T(J)
C$    DISTRIBUTE T(BLOCK)
      FORALL (I = 1:N, J = 1:N+1) A(I, J) = MOD(3*I + 5*J, 11) + 0.5
      FORALL (I = 1:N) W(I) = MOD(2*I, 7) + 1
      DO K = 1, 5
        FORALL (J = 2:N) ROW(J) = A(K, J-1) + A(K, J+1)
        FORALL (I = 1:N, J = 2:N%s) A(I, J) = A(I, J) - 0.125*W(I)*ROW(J)
      END DO
      END
|}
      (if masked then ", 1 == 1" else "")
  in
  let run src = Driver.final (Driver.run ~nprocs:4 (Driver.compile src)) "A" in
  let fast = run (mk false) and slow = run (mk true) in
  checkb "kernel = interpreter" true (Ndarray.approx_equal ~eps:0. fast slow)

let prop_kernel_equivalence =
  QCheck.Test.make ~name:"kernel and interpreter agree on random stencils" ~count:25
    QCheck.(quad (int_range 1 3) (int_range (-2) 2) (int_range 1 6) (int_range 1 4))
    (fun (_, b, w, p) ->
      let n = 24 in
      let mk masked =
        Printf.sprintf
          {|
      PROGRAM PKE
      INTEGER, PARAMETER :: N = %d
      REAL X(%d), Y(%d)
C$    TEMPLATE T(%d)
C$    ALIGN X(I) WITH T(I)
C$    ALIGN Y(I) WITH T(I)
C$    DISTRIBUTE T(BLOCK)
      FORALL (I = 1:N) Y(I) = MOD(5*I, 13) + 0.25
      FORALL (I = %d:%d%s) X(I) = %d.0*Y(I%+d) + I
      END
|}
          n n n n (max 1 (1 - b))
          (min n (n - b))
          (if masked then ", 2 > 1" else "")
          w b
      in
      let run src = Driver.final (Driver.run ~nprocs:p (Driver.compile src)) "X" in
      Ndarray.approx_equal ~eps:0. (run (mk false)) (run (mk true)))

(* ------------------------------------------------------------------ *)
(* Emitter and passes                                                  *)
(* ------------------------------------------------------------------ *)

let test_emitter_output_shape () =
  let compiled = Driver.compile (Programs.gauss ~n:16) in
  let text = F90d_ir.Emit_f77.emit_program compiled.Driver.c_ir in
  List.iter
    (fun needle ->
      checkb (Printf.sprintf "emitted code mentions %s" needle) true
        (let re = Str.regexp_string needle in
         try ignore (Str.search_forward re text 0); true with Not_found -> false))
    [ "set_BOUND"; "multicast"; "DO K = 1, N"; "set_DAD"; "SPMD node program" ]

let test_emitter_covers_all_primitives () =
  let src =
    {|
      PROGRAM EM
      INTEGER, PARAMETER :: N = 16
      INTEGER S
      REAL A(16), B(16), C(16), R(16)
      INTEGER V(16)
C$    TEMPLATE T(16)
C$    ALIGN A(I) WITH T(I)
C$    ALIGN B(I) WITH T(I)
C$    ALIGN C(I) WITH T(I)
C$    ALIGN V(I) WITH T(I)
C$    DISTRIBUTE T(BLOCK)
      S = 3
      FORALL (I = 1:N) B(I) = I
      FORALL (I = 1:N) V(I) = N + 1 - I
      FORALL (I = 1:N-1) A(I) = B(I+1)
      FORALL (I = 1:N-4) A(I) = B(I+S)
      FORALL (I = 1:7) A(I) = B(2*I+1)
      FORALL (I = 1:N) A(I) = B(V(I))
      FORALL (I = 1:N) C(V(I)) = B(I)
      FORALL (I = 1:N) R(I) = B(I)
      END
|}
  in
  let compiled = Driver.compile src in
  let text = F90d_ir.Emit_f77.emit_program compiled.Driver.c_ir in
  List.iter
    (fun needle ->
      checkb (Printf.sprintf "emits %s" needle) true
        (let re = Str.regexp_string needle in
         try ignore (Str.search_forward re text 0); true with Not_found -> false))
    [
      "overlap_shift"; "temporary_shift"; "precomp_read"; "gather"; "scatter"; "concatenation";
      "schedule1"; "schedule2"; "schedule3";
    ]

let test_shift_union_pass () =
  let src =
    {|
      PROGRAM SU
      REAL A(32), B(32)
C$    DISTRIBUTE A(BLOCK)
C$    ALIGN B(I) WITH A(I)
      FORALL (I = 1:32) B(I) = I
      FORALL (I = 1:29) A(I) = B(I+2) + B(I+3)
      END
|}
  in
  let count_shifts flags =
    let compiled = Driver.compile ~flags src in
    let u = snd (List.hd compiled.Driver.c_ir.F90d_ir.Ir.p_units) in
    let n = ref 0 in
    List.iter
      (fun (s : F90d_ir.Ir.stmt) ->
        match s.F90d_ir.Ir.s with
        | F90d_ir.Ir.Forall f ->
            List.iter
              (function F90d_ir.Ir.Overlap_shift _ -> incr n | _ -> ())
              f.F90d_ir.Ir.f_pre
        | _ -> ())
      u.F90d_ir.Ir.u_body;
    !n
  in
  check "union keeps one" 1 (count_shifts F90d_opt.Passes.all_on);
  check "without union: two" 2 (count_shifts F90d_opt.Passes.all_off);
  (* ghost width must cover the widest shift in both cases *)
  let compiled = Driver.compile ~flags:F90d_opt.Passes.all_on src in
  let u = snd (List.hd compiled.Driver.c_ir.F90d_ir.Ir.p_units) in
  checkb "ghost width 3" true
    (List.exists (fun (a, d, _, hi) -> a = "B" && d = 0 && hi = 3) u.F90d_ir.Ir.u_ghosts)

let test_schedule_keys_assigned () =
  let compiled = Driver.compile (Programs.irregular ~n:16) in
  let u = snd (List.hd compiled.Driver.c_ir.F90d_ir.Ir.p_units) in
  let keys = ref 0 in
  let rec walk (s : F90d_ir.Ir.stmt) =
    match s.F90d_ir.Ir.s with
    | F90d_ir.Ir.Forall f ->
        List.iter
          (function
            | F90d_ir.Ir.Gather_read { key = Some _; _ }
            | F90d_ir.Ir.Precomp_read { key = Some _; _ } ->
                incr keys
            | _ -> ())
          f.F90d_ir.Ir.f_pre;
        (match f.F90d_ir.Ir.f_post with
        | Some (F90d_ir.Ir.Scatter_write { key = Some _ })
        | Some (F90d_ir.Ir.Postcomp_write { key = Some _ }) ->
            incr keys
        | _ -> ())
    | F90d_ir.Ir.Do_loop { body; _ } -> List.iter walk body
    | _ -> ()
  in
  List.iter walk u.F90d_ir.Ir.u_body;
  checkb "reusable schedules got keys" true (!keys >= 3)

let prop_alignment_offsets =
  QCheck.Test.make ~name:"aligned offsets: shifted templates agree with the oracle" ~count:25
    QCheck.(quad (int_range 0 3) (int_range 0 3) (int_range 1 4) (bool))
    (fun (ka, kb, p, cyclic) ->
      (* A aligned at T(I+ka), B at T(I+kb); a shifted copy must land like
         the sequential program regardless of the relative offsets *)
      let n = 20 in
      let src =
        Printf.sprintf
          {|
      PROGRAM PAO
      INTEGER, PARAMETER :: N = %d
      REAL A(%d), B(%d)
C$    TEMPLATE T(%d)
C$    ALIGN A(I) WITH T(I + %d)
C$    ALIGN B(I) WITH T(I + %d)
C$    DISTRIBUTE T(%s)
      FORALL (I = 1:N) B(I) = MOD(7*I, 13) + 0.5
      FORALL (I = 1:N-2) A(I) = B(I+2) - B(I)
      END
|}
          n n n (n + 4) ka kb
          (if cyclic then "CYCLIC" else "BLOCK")
      in
      let got = Driver.final (Driver.run ~nprocs:p (Driver.compile src)) "A" in
      let b i = float_of_int ((7 * i) mod 13) +. 0.5 in
      let expected =
        Ndarray.init Scalar.Kreal [| n |] (fun g ->
            if g.(0) <= n - 2 then Scalar.Real (b (g.(0) + 2) -. b g.(0)) else Scalar.Real 0.)
      in
      Ndarray.approx_equal got expected)

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_kernel_equivalence; prop_alignment_offsets ]

let () =
  Alcotest.run "f90d_programs"
    [
      ( "gauss",
        [
          Alcotest.test_case "matches oracle" `Quick test_gauss_matches_oracle;
          Alcotest.test_case "cyclic matches oracle" `Quick test_gauss_cyclic_matches_oracle;
          Alcotest.test_case "cyclic balances load" `Quick test_gauss_cyclic_balances_load;
          Alcotest.test_case "kernel specializer engaged" `Quick test_kernel_specializer_engaged;
          Alcotest.test_case "hand-written matches oracle" `Quick test_gauss_hand_matches_oracle;
          Alcotest.test_case "machine invariance" `Quick test_gauss_machine_invariance;
          Alcotest.test_case "timing shape" `Quick test_gauss_timing_monotone;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "jacobi2d grid invariance" `Quick test_jacobi_grid_invariance;
          Alcotest.test_case "jacobi1d oracle" `Quick test_jacobi1d_converges_correctly;
          Alcotest.test_case "irregular oracle" `Quick test_irregular_results;
          Alcotest.test_case "fft butterfly oracle" `Quick test_fft_butterfly;
          Alcotest.test_case "heat convergence" `Quick test_heat_convergence;
          Alcotest.test_case "dot product" `Quick test_dot_product_through_compiler;
        ] );
      ( "kernel",
        [ Alcotest.test_case "kernel = interpreter (gauss-like)" `Quick test_kernel_vs_interpreter ]
      );
      ( "emitter/passes",
        [
          Alcotest.test_case "emitted shape" `Quick test_emitter_output_shape;
          Alcotest.test_case "all primitives emitted" `Quick test_emitter_covers_all_primitives;
          Alcotest.test_case "shift union" `Quick test_shift_union_pass;
          Alcotest.test_case "schedule keys" `Quick test_schedule_keys_assigned;
        ] );
      ("properties", qsuite);
    ]
