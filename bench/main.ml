(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§8), plus micro-benchmarks and optimization ablations.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig5    -- one experiment:
       fig3 | fig5 | table4 | fig6 | table1 | table2 | table3
       ablation | dist | portability | serve | scale | micro

   Flags (after the experiment name):
     --json [PATH]   write machine-readable results to PATH (default
                     BENCH_<experiment>.json); supported for table4, fig5,
                     serve and scale
     --jobs N        verify and time the domain-parallel engine with N
                     worker domains (default: the F90D_JOBS environment
                     variable, else sequential only)
     --trace [PATH]  (table4 only) re-run the 16-PE Gaussian elimination
                     with tracing on and write a Chrome trace_event JSON
                     to PATH (default BENCH_table4_trace.json); load it in
                     chrome://tracing or https://ui.perfetto.dev
     --profile-json [PATH]
                     (table4 only) write the per-statement profile of the
                     same traced 16-PE run (messages, bytes, send busy,
                     recv wait, critical-path wire time, joined with the
                     compile-time communication decision) to PATH
                     (default BENCH_table4_profile.json)

   Problem sizes can be scaled down for quick runs:
     F90D_TABLE4_N=255 dune exec bench/main.exe -- table4
   (default 511; the paper's Table 4 uses 1023, which takes minutes of
   host time per engine pass) *)

open F90d
open F90d_machine

let table4_n =
  match Sys.getenv_opt "F90D_TABLE4_N" with Some s -> int_of_string s | None -> 511

let section title =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================================\n"

(* Machine-readable output (--json): the serve protocol's codec, which
   prints floats with %.17g (bit-identity claims survive) and non-finite
   values as strings, so every file is valid JSON. *)
module Json = F90d_serve.Json

let write_json path v =
  let oc = open_out path in
  output_string oc (Json.to_string ~pretty:true v ^ "\n");
  close_out oc;
  Printf.printf "\n[wrote %s]\n" path

(* ------------------------------------------------------------------ *)
(* Figure 5: Gaussian elimination on 16 nodes, iPSC/860 vs nCUBE/2     *)
(* ------------------------------------------------------------------ *)

let run_fig5 () =
  let sizes = [ 50; 100; 150; 200; 250; 300 ] in
  List.map
    (fun n ->
      let compiled = Driver.compile (Programs.gauss ~n) in
      let time model =
        (Driver.run ~collect_finals:false ~model ~topology:Topology.Hypercube ~nprocs:16
           compiled)
          .Driver.elapsed
      in
      (n, time Model.ipsc860, time Model.ncube2))
    sizes

let fig5 rows =
  section
    "Figure 5: compiler-generated Gaussian elimination on 16 nodes\n\
     (execution time in seconds vs problem size, N x (N+1) real)";
  Printf.printf "%8s  %12s  %12s  %8s\n" "N" "iPSC/860" "nCUBE/2" "ratio";
  List.iter
    (fun (n, ti, tn) -> Printf.printf "%8d  %12.3f  %12.3f  %8.2f\n%!" n ti tn (tn /. ti))
    rows;
  print_newline ();
  Printf.printf
    "paper's shape: both curves grow ~N^3; nCUBE/2 roughly 2x slower than\n\
     iPSC/860 over the whole range.\n"

(* ------------------------------------------------------------------ *)
(* Table 4: hand-written vs compiler-generated                         *)
(* ------------------------------------------------------------------ *)

let paper_hand = [ (1, 623.16); (2, 446.60); (4, 235.37); (8, 134.89); (16, 79.48) ]
let paper_f90d = [ (1, 618.79); (2, 451.93); (4, 261.87); (8, 147.25); (16, 87.44) ]

type t4row = {
  t4_p : int;
  t4_hand : float;  (* simulated, hand-written baseline *)
  t4_f90d : float;  (* simulated, compiler-generated *)
  t4_stats : Stats.t;
  t4_wall_seq : float;  (* host seconds, sequential engine *)
  t4_wall_par : float option;  (* host seconds, run_parallel (with --jobs) *)
  t4_par_identical : bool;  (* parallel report bit-identical to sequential *)
}

let run_table4 ~jobs () =
  let n = table4_n in
  let compiled = Driver.compile (Programs.gauss ~n) in
  let run ~jobs p =
    Driver.run ~collect_finals:false ~model:Model.ipsc860 ~topology:Topology.Hypercube ~jobs
      ~nprocs:p compiled
  in
  List.map
    (fun p ->
      let t0 = Unix.gettimeofday () in
      let r = run ~jobs:1 p in
      let wall_seq = Unix.gettimeofday () -. t0 in
      let wall_par, identical =
        if jobs > 1 then begin
          let t0 = Unix.gettimeofday () in
          let rp = run ~jobs p in
          let wall = Unix.gettimeofday () -. t0 in
          ( Some wall,
            rp.Driver.elapsed = r.Driver.elapsed
            && rp.Driver.clocks = r.Driver.clocks
            && Stats.per_tag rp.Driver.stats = Stats.per_tag r.Driver.stats )
        end
        else (None, true)
      in
      let h = Baselines.run_hand_gauss ~nprocs:p ~n () in
      {
        t4_p = p;
        t4_hand = h.Baselines.elapsed;
        t4_f90d = r.Driver.elapsed;
        t4_stats = r.Driver.stats;
        t4_wall_seq = wall_seq;
        t4_wall_par = wall_par;
        t4_par_identical = identical;
      })
    [ 1; 2; 4; 8; 16 ]

(* Blocked-kernel gate at the Table 4 16-PE point: the same program with
   the node-kernel layer on and off.  The layer is a host-side execution
   strategy, so the two runs must agree bit-for-bit on the simulated
   report (elapsed, clocks, per-tag messages) and on the gathered final
   arrays, while the host wall drops. *)
type kern_gate = {
  kg_wall_on : float;
  kg_wall_off : float;
  kg_runs : int;  (* kernel nests executed, kernels on *)
  kg_fallbacks : int;
  kg_blocked : int;
  kg_identical : bool;
}

let run_kernel_gate () =
  let src = Programs.gauss ~n:table4_n in
  let run flags =
    let compiled = Driver.compile ~flags src in
    let t0 = Unix.gettimeofday () in
    let r =
      Driver.run ~collect_finals:true ~model:Model.ipsc860 ~topology:Topology.Hypercube
        ~jobs:1 ~nprocs:16 compiled
    in
    (r, Unix.gettimeofday () -. t0)
  in
  let r_on, w_on = run F90d_opt.Passes.all_on in
  let r_off, w_off =
    run { F90d_opt.Passes.all_on with F90d_opt.Passes.blocked_kernels = false }
  in
  let finals r = r.Driver.outcome.F90d_exec.Interp.finals in
  let identical =
    r_on.Driver.elapsed = r_off.Driver.elapsed
    && r_on.Driver.clocks = r_off.Driver.clocks
    && Stats.per_tag r_on.Driver.stats = Stats.per_tag r_off.Driver.stats
    && List.length (finals r_on) = List.length (finals r_off)
    && List.for_all2
         (fun (na, a) (nb, b) -> na = nb && F90d_base.Ndarray.equal a b)
         (finals r_on) (finals r_off)
  in
  {
    kg_wall_on = w_on;
    kg_wall_off = w_off;
    kg_runs = r_on.Driver.stats.Stats.kernel_runs;
    kg_fallbacks = r_on.Driver.stats.Stats.kernel_fallbacks;
    kg_blocked = r_on.Driver.stats.Stats.kernel_blocked;
    kg_identical = identical;
  }

let kernel_gate_table kg =
  Printf.printf
    "\nblocked node kernels (16 PEs): on %.2f host-s, off %.2f host-s (%.2fx), %d runs, %d \
     fallbacks, %d blocked, results %s\n"
    kg.kg_wall_on kg.kg_wall_off
    (kg.kg_wall_off /. kg.kg_wall_on)
    kg.kg_runs kg.kg_fallbacks kg.kg_blocked
    (if kg.kg_identical then "identical" else "DIFFER!")

let json_kernel_gate kg =
  Json.Obj
    [
      ("nprocs", Json.Int 16);
      ("host_wall_on_s", Json.Float kg.kg_wall_on);
      ("host_wall_off_s", Json.Float kg.kg_wall_off);
      ("speedup", Json.Float (kg.kg_wall_off /. kg.kg_wall_on));
      ("kernel_runs", Json.Int kg.kg_runs);
      ("kernel_fallbacks", Json.Int kg.kg_fallbacks);
      ("kernel_blocked", Json.Int kg.kg_blocked);
      ("identical", Json.Bool kg.kg_identical);
    ]

let table4 rows4 =
  let rows = List.map (fun r -> (r.t4_p, r.t4_hand, r.t4_f90d)) rows4 in
  section
    (Printf.sprintf
       "Table 4: hand-written vs compiler-generated Gaussian elimination\n\
        (%dx%d, column distributed, iPSC/860, seconds)" table4_n (table4_n + 1));
  Printf.printf "%4s  %12s  %12s  %7s  |  %10s  %10s  %7s\n" "PEs" "hand" "Fortran90D"
    "ratio" "paper-hand" "paper-90D" "ratio";
  List.iter
    (fun (p, hand, f90d) ->
      let ph = List.assoc p paper_hand and pf = List.assoc p paper_f90d in
      Printf.printf "%4d  %12.2f  %12.2f  %7.3f  |  %10.2f  %10.2f  %7.3f\n%!" p hand f90d
        (f90d /. hand) ph pf (pf /. ph))
    rows;
  (match List.rev rows4 with
  | { t4_stats = stats; _ } :: _ ->
      Printf.printf "\ncommunication breakdown of the compiled code at 16 PEs:\n";
      List.iter
        (fun (name, msgs, bytes) ->
          Printf.printf "  %-24s %8d messages  %12d bytes\n" name msgs bytes)
        (Stats.breakdown stats ~name_of:F90d_runtime.Tags.family_name)
  | [] -> ());
  (if List.exists (fun r -> r.t4_wall_par <> None) rows4 then begin
     Printf.printf "\ndomain-parallel engine (host seconds per run):\n";
     Printf.printf "%4s  %10s  %10s  %8s  %s\n" "PEs" "seq wall" "par wall" "speedup" "identical";
     List.iter
       (fun r ->
         match r.t4_wall_par with
         | Some wp ->
             Printf.printf "%4d  %10.2f  %10.2f  %8.2f  %s\n" r.t4_p r.t4_wall_seq wp
               (r.t4_wall_seq /. wp)
               (if r.t4_par_identical then "yes" else "NO!")
         | None -> ())
       rows4
   end);
  print_newline ();
  Printf.printf
    "paper's shape: compiler-generated within ~10%% of hand-written; the gap\n\
     grows with P because of the extra O(log P) broadcast per elimination step.\n"

(* One traced re-run of the Table 4 16-PE point, shared by --trace,
   --profile-json and the hot-statement rows of --json. *)
let traced16 =
  lazy
    (let compiled = Driver.compile (Programs.gauss ~n:table4_n) in
     let r =
       Driver.run ~collect_finals:false ~model:Model.ipsc860 ~topology:Topology.Hypercube
         ~trace:true ~nprocs:16 compiled
     in
     (compiled, r, Option.get r.Driver.trace))

(* Writes the Chrome trace and prints the critical-path summary so the
   trace and the table can be read side by side. *)
let table4_trace ~path () =
  let _, r, tr = Lazy.force traced16 in
  let oc = open_out path in
  output_string oc (F90d_trace.Trace.to_chrome_json tr);
  close_out oc;
  Printf.printf "\n[wrote %s: %d events over 16 ranks]\n" path (F90d_trace.Trace.total_events tr);
  let segs = F90d_trace.Analyze.critical_path tr in
  let wires = List.filter (fun s -> s.F90d_trace.Analyze.sg_kind <> F90d_trace.Analyze.Local) segs in
  Printf.printf
    "critical path: %.6f s (= elapsed %.6f s), %d segments, %d message hops\n"
    (F90d_trace.Analyze.total segs) r.Driver.elapsed (List.length segs) (List.length wires)

(* Per-statement profile (compile-time decision joined with measured
   traffic) of the same traced run, as JSON. *)
let table4_profile_json ~path () =
  let compiled, _, tr = Lazy.force traced16 in
  let oc = open_out path in
  output_string oc (F90d_report.Report.profile_json compiled.Driver.c_ir tr);
  close_out oc;
  let hots = F90d_report.Report.hot_statements compiled.Driver.c_ir tr in
  Printf.printf "[wrote %s: per-statement profile, %d statements]\n" path (List.length hots);
  print_string (F90d_report.Report.hot_text ~top:5 hots)

(* ------------------------------------------------------------------ *)
(* Figure 6: speedups                                                  *)
(* ------------------------------------------------------------------ *)

let fig6 rows4 =
  let rows = List.map (fun r -> (r.t4_p, r.t4_hand, r.t4_f90d)) rows4 in
  section "Figure 6: speed-up against the sequential code (same runs as Table 4)";
  let seq_hand = match rows with (_, h, _) :: _ -> h | [] -> 1. in
  Printf.printf "%4s  %14s  %14s  |  %12s  %12s\n" "PEs" "hand-written" "compiler" "paper-hand"
    "paper-90D";
  let paper_seq = List.assoc 1 paper_hand in
  List.iter
    (fun (p, hand, f90d) ->
      Printf.printf "%4d  %14.2f  %14.2f  |  %12.2f  %12.2f\n" p (seq_hand /. hand)
        (seq_hand /. f90d)
        (paper_seq /. List.assoc p paper_hand)
        (paper_seq /. List.assoc p paper_f90d))
    rows;
  print_newline ();
  Printf.printf
    "paper's shape: hand-written speedup above compiler-generated, both\n\
     sub-linear (~5-6x at 16 PEs for this communication-bound size).\n"

(* ------------------------------------------------------------------ *)
(* Tables 1-3: regenerated from the implementation                     *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section
    "Table 1: structured communication primitives from (lhs, rhs) subscript\n\
     pairs (block distribution), regenerated from the live classifier";
  let open F90d_commdet in
  let i = Subscript.Canonical "I" in
  let ic c = Subscript.Var_const ("I", c) in
  let is = Subscript.Var_scalar ("I", F90d_frontend.Ast.var "S") in
  let s = Subscript.Const (F90d_frontend.Ast.var "S") in
  let d = Subscript.Const (F90d_frontend.Ast.var "D") in
  let rows =
    [
      ("(i, s)", i, s);
      ("(i, i+c)", i, ic 2);
      ("(i, i-c)", i, ic (-2));
      ("(i, i+s)", i, is);
      ("(i, i-s)", i, Subscript.Var_scalar ("I", F90d_frontend.Ast.mk (F90d_frontend.Ast.Un (F90d_frontend.Ast.Neg, F90d_frontend.Ast.var "S"))));
      ("(d, s)", d, s);
      ("(i, i)", i, i);
    ]
  in
  Printf.printf "%6s  %-12s  %s\n" "step" "(lhs,rhs)" "communication primitive";
  List.iteri
    (fun k (nm, l, r) -> Printf.printf "%6d  %-12s  %s\n" (k + 1) nm (Pattern.classify_pair l r))
    rows

let table2 () =
  section
    "Table 2: unstructured communication primitives by reference pattern,\n\
     regenerated from the live classifier";
  let open F90d_commdet in
  let i = Subscript.Canonical "I" in
  let rows =
    [
      ("f(i)  invertible", Subscript.Affine ("I", F90d_base.Affine.make ~a:2 ~b:1));
      ("V(i)  indirection", Subscript.Vector ("I", F90d_frontend.Ast.var "V"));
      ("unknown (i+j, ...)", Subscript.Unknown);
    ]
  in
  Printf.printf "%6s  %-20s  %s\n" "step" "pattern" "read rhs / write lhs";
  List.iteri
    (fun k (nm, r) -> Printf.printf "%6d  %-20s  %s\n" (k + 1) nm (Pattern.classify_pair i r))
    rows

let table3 () =
  section "Table 3: Fortran 90D intrinsic functions by communication category";
  let names =
    [
      "CSHIFT"; "EOSHIFT"; "DOTPRODUCT"; "ALL"; "ANY"; "COUNT"; "MAXVAL"; "MINVAL"; "PRODUCT";
      "SUM"; "MAXLOC"; "MINLOC"; "SPREAD"; "PACK"; "UNPACK"; "RESHAPE"; "TRANSPOSE"; "MATMUL";
    ]
  in
  let categories =
    [
      "structured communication"; "reduction"; "multicasting"; "unstructured communication";
      "special routines";
    ]
  in
  List.iteri
    (fun k cat ->
      let members =
        List.filter (fun n -> F90d_runtime.Intrinsics.table3_category n = Some cat) names
      in
      Printf.printf "%d. %-28s %s\n" (k + 1) cat (String.concat ", " members))
    categories

(* ------------------------------------------------------------------ *)
(* Ablations of the section 7 optimizations                            *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation: the communication optimizations of section 7";
  let open F90d_opt in
  let run_flags flags src nprocs =
    let r =
      Driver.run ~collect_finals:false ~model:Model.ipsc860 ~nprocs
        (Driver.compile ~flags src)
    in
    (r.Driver.elapsed, r.Driver.stats.Stats.messages)
  in
  (* 1. shift union: B(I+2) + B(I+3) repeated in a time loop *)
  let shift_src =
    {|
      PROGRAM SHIFTU
      INTEGER, PARAMETER :: N = 256
      REAL A(256), B(256)
      INTEGER T
C$    TEMPLATE TP(256)
C$    ALIGN A(I) WITH TP(I)
C$    ALIGN B(I) WITH TP(I)
C$    DISTRIBUTE TP(BLOCK)
      FORALL (I = 1:N) B(I) = I
      DO T = 1, 50
        FORALL (I = 1:N-3) A(I) = B(I+2) + B(I+3)
        FORALL (I = 1:N) B(I) = A(MIN(I, N-3)) + 1
      END DO
      END
|}
  in
  (* coalescing would batch the two B-shifts into one message per pair
     either way, masking this row; hold it off to isolate shift union *)
  let base = { Passes.all_on with Passes.coalesce = false } in
  let on = { base with Passes.shift_union = true } in
  let off = { base with Passes.shift_union = false } in
  let t_on, m_on = run_flags on shift_src 8 and t_off, m_off = run_flags off shift_src 8 in
  Printf.printf "shift union        : %8.4f s / %5d msgs (on)   %8.4f s / %5d msgs (off)\n"
    t_on m_on t_off m_off;
  (* 2. multicast_shift fusion *)
  let fuse_src =
    {|
      PROGRAM FUSE
      INTEGER, PARAMETER :: N = 64
      INTEGER S, T
      REAL A(64, 64), B(64, 64)
C$    PROCESSORS P(2, 4)
C$    TEMPLATE TP(64, 64)
C$    ALIGN A(I, J) WITH TP(I, J)
C$    ALIGN B(I, J) WITH TP(I, J)
C$    DISTRIBUTE TP(BLOCK, BLOCK)
      S = 2
      FORALL (I = 1:N, J = 1:N) B(I, J) = I + J
      DO T = 1, 20
        FORALL (I = 1:N, J = 1:N-2) A(I, J) = B(3, J+S)
      END DO
      END
|}
  in
  let on = { Passes.all_on with Passes.fuse_mshift = true } in
  let off = { Passes.all_on with Passes.fuse_mshift = false } in
  let t_on, m_on = run_flags on fuse_src 8 and t_off, m_off = run_flags off fuse_src 8 in
  Printf.printf "multicast_shift    : %8.4f s / %5d msgs (fused) %7.4f s / %5d msgs (separate)\n"
    t_on m_on t_off m_off;
  (* 3. schedule reuse *)
  let irr = Programs.irregular ~n:256 in
  let on = { Passes.all_on with Passes.schedule_reuse = true } in
  let off = { Passes.all_on with Passes.schedule_reuse = false } in
  let t_on, m_on = run_flags on irr 8 and t_off, m_off = run_flags off irr 8 in
  Printf.printf "schedule reuse     : %8.4f s / %5d msgs (on)   %8.4f s / %5d msgs (off)\n"
    t_on m_on t_off m_off;
  (* 4. loop-invariant hoisting: the stencil source array is loop-invariant *)
  let hoist_src =
    {|
      PROGRAM HOISTA
      INTEGER, PARAMETER :: N = 256
      REAL A(256), B(256)
      INTEGER T
C$    TEMPLATE TP(256)
C$    ALIGN A(I) WITH TP(I)
C$    ALIGN B(I) WITH TP(I)
C$    DISTRIBUTE TP(BLOCK)
      FORALL (I = 1:N) A(I) = MOD(3*I, 17)
      FORALL (I = 1:N) B(I) = 0.0
      DO T = 1, 50
        FORALL (I = 2:N-1) B(I) = B(I) + 0.5*(A(I-1) + A(I+1))
      END DO
      END
|}
  in
  let on = { Passes.all_on with Passes.hoist_comm = true } in
  let off = { Passes.all_on with Passes.hoist_comm = false } in
  let t_on, m_on = run_flags on hoist_src 8 and t_off, m_off = run_flags off hoist_src 8 in
  Printf.printf "comm hoisting      : %8.4f s / %5d msgs (on)   %8.4f s / %5d msgs (off)\n"
    t_on m_on t_off m_off;
  (* 5. message coalescing (incl. the multicast replica cache): gauss *)
  let gsrc = Programs.gauss ~n:128 in
  let on = { Passes.all_on with Passes.coalesce = true } in
  let off = { Passes.all_on with Passes.coalesce = false } in
  let t_on, m_on = run_flags on gsrc 8 and t_off, m_off = run_flags off gsrc 8 in
  Printf.printf "msg coalescing     : %8.4f s / %5d msgs (on)   %8.4f s / %5d msgs (off)\n"
    t_on m_on t_off m_off;
  Printf.printf
    "(message vectorization, the fourth section-7 item, is structural: every\n\
     primitive packs one message per processor pair by construction)\n"

(* ------------------------------------------------------------------ *)
(* Figure 3: the four communication/computation placements (§4)        *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  section
    "Figure 3: communication placement around the local computation,\n\
     regenerated by compiling one statement per case";
  let preamble =
    {|
      PROGRAM CASES
      INTEGER, PARAMETER :: N = 16
      REAL A(16), B(16), X(16)
      INTEGER U(16), V(16)
C$    TEMPLATE T(16)
C$    ALIGN A(I) WITH T(I)
C$    ALIGN B(I) WITH T(I)
C$    ALIGN X(I) WITH T(I)
C$    ALIGN U(I) WITH T(I)
C$    ALIGN V(I) WITH T(I)
C$    DISTRIBUTE T(BLOCK)
|}
  in
  let phase_shape stmt =
    let compiled = Driver.compile (preamble ^ stmt ^ "\n      END\n") in
    let u = snd (List.hd compiled.Driver.c_ir.F90d_ir.Ir.p_units) in
    let fs =
      List.filter_map
        (fun (s : F90d_ir.Ir.stmt) ->
          match s.F90d_ir.Ir.s with F90d_ir.Ir.Forall f -> Some f | _ -> None)
        u.F90d_ir.Ir.u_body
    in
    match List.rev fs with
    | f :: _ ->
        let pre = List.map F90d_ir.Ir.comm_name f.F90d_ir.Ir.f_pre in
        let post =
          match f.F90d_ir.Ir.f_post with
          | Some (F90d_ir.Ir.Postcomp_write _) -> [ "postcomp_write" ]
          | Some (F90d_ir.Ir.Scatter_write _) -> [ "scatter" ]
          | None -> []
        in
        (pre, post)
    | [] -> ([], [])
  in
  let show name stmt expected =
    let pre, post = phase_shape stmt in
    let fmt = function [] -> "-" | l -> String.concat ", " l in
    Printf.printf "%-7s %-38s before: %-28s after: %-15s (%s)\n" name (String.trim stmt)
      (fmt pre) (fmt post) expected
  in
  show "Case 1" "      FORALL (I = 1:16) A(I) = B(I)" "no communication";
  show "Case 2" "      FORALL (I = 2:16) A(I) = B(I-1)" "communication before";
  show "Case 3" "      FORALL (I = 1:8) A(2*I) = B(I)" "communication after";
  show "Case 4" "      FORALL (I = 1:16) A(U(I)) = B(V(I))" "before and after"

(* ------------------------------------------------------------------ *)
(* Portability (§8.1): one compiled program, every machine             *)
(* ------------------------------------------------------------------ *)

let portability () =
  section
    "Portability (§8.1): the same compiled program on every machine model\n\
     and topology (2-D Jacobi, 4 processors; results must be identical)";
  let compiled = Driver.compile (Programs.jacobi2d ~n:30 ~iters:6 ~p:2 ~q:2) in
  let reference = ref None in
  Printf.printf "%-10s %-10s  %10s  %8s  %s\n" "machine" "topology" "time (s)" "msgs" "result";
  List.iter
    (fun (model, topo) ->
      let r = Driver.run ~model ~topology:topo ~nprocs:4 compiled in
      let a = Driver.final r "A" in
      let same =
        match !reference with
        | None ->
            reference := Some a;
            true
        | Some b -> F90d_base.Ndarray.approx_equal a b
      in
      Printf.printf "%-10s %-10s  %10.4f  %8d  %s\n%!" model.Model.name (Topology.name topo)
        r.Driver.elapsed r.Driver.stats.Stats.messages
        (if same then "identical" else "DIFFERS!"))
    [
      (Model.ipsc860, Topology.Hypercube);
      (Model.ipsc860, Topology.Mesh);
      (Model.ncube2, Topology.Hypercube);
      (Model.ideal, Topology.Full);
    ];
  Printf.printf
    "only the communication-library machine model changes between rows —\n\
     the compiled program and the runtime calls are identical (§8.1).\n"

(* ------------------------------------------------------------------ *)
(* Distribution choice (§3): BLOCK vs CYCLIC columns for GE            *)
(* ------------------------------------------------------------------ *)

let dist_choice () =
  section
    "Distribution choice (§3): BLOCK vs CYCLIC column distribution for\n\
     Gaussian elimination on 16 iPSC/860 nodes";
  Printf.printf "%8s  %12s  %12s  %14s\n" "N" "BLOCK (s)" "CYCLIC (s)" "CYCLIC/BLOCK";
  List.iter
    (fun n ->
      let time dist =
        (Driver.run ~collect_finals:false ~model:Model.ipsc860 ~topology:Topology.Hypercube
           ~nprocs:16
           (Driver.compile (Programs.gauss_dist ~dist ~n)))
          .Driver.elapsed
      in
      let tb = time `Block and tc = time `Cyclic in
      Printf.printf "%8d  %12.3f  %12.3f  %14.2f\n%!" n tb tc (tc /. tb))
    [ 128; 256 ];
  Printf.printf
    "CYCLIC keeps every processor busy as the active region shrinks (BLOCK\n\
     idles low-numbered processors), the load-balance effect §3 describes.\n"

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (host time of the compiler and runtime kernels)    *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Micro-benchmarks (Bechamel, host nanoseconds per call)";
  let open Bechamel in
  let open Toolkit in
  let layout =
    F90d_dist.Layout.resolve
      (F90d_dist.Distrib.make Block ~n:4096 ~p:16)
      ~align:F90d_base.Affine.ident ~extent:4096 ~proc:7
  in
  let cyc =
    F90d_dist.Layout.resolve
      (F90d_dist.Distrib.make Cyclic ~n:4096 ~p:16)
      ~align:F90d_base.Affine.ident ~extent:4096 ~proc:7
  in
  let gauss64 = Programs.gauss ~n:64 in
  let nd = F90d_base.Ndarray.create F90d_base.Scalar.Kreal [| 64; 64 |] in
  let tests =
    [
      Test.make ~name:"set_BOUND (block)"
        (Staged.stage (fun () -> F90d_dist.Layout.set_bound layout ~glb:100 ~gub:3000 ~gst:3));
      Test.make ~name:"set_BOUND (cyclic)"
        (Staged.stage (fun () -> F90d_dist.Layout.set_bound cyc ~glb:100 ~gub:3000 ~gst:3));
      Test.make ~name:"layout resolve (cyclic)"
        (Staged.stage (fun () ->
             F90d_dist.Layout.resolve
               (F90d_dist.Distrib.make Cyclic ~n:4096 ~p:16)
               ~align:(F90d_base.Affine.make ~a:2 ~b:1) ~extent:2000 ~proc:3));
      Test.make ~name:"crt_first_ge"
        (Staged.stage (fun () -> F90d_base.Util.crt_first_ge ~lo:37 ~r1:2 ~m1:5 ~r2:3 ~m2:8));
      Test.make ~name:"ndarray get_box 8x8"
        (Staged.stage (fun () -> F90d_base.Ndarray.get_box nd ~lo:[| 4; 4 |] ~extents:[| 8; 8 |]));
      Test.make ~name:"parse gauss(64)"
        (Staged.stage (fun () -> F90d_frontend.Parser.parse ~file:"g" gauss64));
      Test.make ~name:"compile gauss(64)" (Staged.stage (fun () -> Driver.compile gauss64));
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let m = Benchmark.run cfg instances elt in
          let ols =
            Analyze.one
              (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
              Instance.monotonic_clock m
          in
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-28s %12.1f ns/call\n%!" (Test.Elt.name elt) est
          | _ -> Printf.printf "%-28s (no estimate)\n" (Test.Elt.name elt))
        (Test.elements test))
    tests

(* ------------------------------------------------------------------ *)
(* --ablate: per-pass optimized-vs-off comparison on gauss             *)
(* ------------------------------------------------------------------ *)

type ab_row = {
  ab_name : string;
  ab_flags : F90d_opt.Passes.flags;
  ab_msgs : int;
  ab_bytes : int;
  ab_elapsed : float;
  ab_wait : float;
  ab_hidden : float;
  ab_wall : float;  (* host seconds for the run *)
}

let json_pass_flags (f : F90d_opt.Passes.flags) =
  Json.Obj
    [
      ("shift_union", Json.Bool f.F90d_opt.Passes.shift_union);
      ("fuse_mshift", Json.Bool f.F90d_opt.Passes.fuse_mshift);
      ("schedule_reuse", Json.Bool f.F90d_opt.Passes.schedule_reuse);
      ("hoist_comm", Json.Bool f.F90d_opt.Passes.hoist_comm);
      ("coalesce", Json.Bool f.F90d_opt.Passes.coalesce);
      ("split_comm", Json.Bool f.F90d_opt.Passes.split_comm);
      ("lookahead", Json.Bool f.F90d_opt.Passes.lookahead);
      ("blocked_kernels", Json.Bool f.F90d_opt.Passes.blocked_kernels);
    ]

(* Each pass alone on top of all_off, bracketed by all_off and all_on, so
   a row's delta against the first row is that pass's lone contribution
   on Gaussian elimination. *)
let run_ablate () =
  let open F90d_opt in
  let src = Programs.gauss ~n:table4_n in
  let run name flags =
    let t0 = Unix.gettimeofday () in
    let r =
      Driver.run ~collect_finals:false ~model:Model.ipsc860 ~topology:Topology.Hypercube
        ~nprocs:16
        (Driver.compile ~flags src)
    in
    {
      ab_name = name;
      ab_flags = flags;
      ab_msgs = r.Driver.stats.Stats.messages;
      ab_bytes = r.Driver.stats.Stats.bytes;
      ab_elapsed = r.Driver.elapsed;
      ab_wait = r.Driver.stats.Stats.recv_wait;
      ab_hidden = r.Driver.stats.Stats.recv_wait_hidden;
      ab_wall = Unix.gettimeofday () -. t0;
    }
  in
  run "all_off" Passes.all_off
  :: List.map
       (fun (name, flags) -> run name flags)
       [
         ("shift_union", { Passes.all_off with Passes.shift_union = true });
         ("fuse_mshift", { Passes.all_off with Passes.fuse_mshift = true });
         ("schedule_reuse", { Passes.all_off with Passes.schedule_reuse = true });
         ("hoist_comm", { Passes.all_off with Passes.hoist_comm = true });
         ("coalesce", { Passes.all_off with Passes.coalesce = true });
         (* split-phase needs the pass on; lookahead additionally
            pipelines the loop-carried issue one step ahead *)
         ("split_comm", { Passes.all_off with Passes.split_comm = true });
         ( "split+lookahead",
           { Passes.all_off with Passes.split_comm = true; Passes.lookahead = true } );
         (* execution-strategy axis: identical simulated columns, the
            host-wall column shows the node-kernel layer's contribution *)
         ("no_blocked_kernels", { Passes.all_on with Passes.blocked_kernels = false });
       ]
  @ [ run "all_on" Passes.all_on ]

let ablate_table rows =
  section
    (Printf.sprintf
       "Ablation on gauss (%dx%d, 16 PEs, iPSC/860): each pass alone vs all off" table4_n
       (table4_n + 1));
  Printf.printf "%-18s %10s %12s %12s %12s %10s %9s\n" "passes" "msgs" "bytes" "elapsed(s)"
    "recv_wait(s)" "hidden(s)" "host(s)";
  List.iter
    (fun r ->
      Printf.printf "%-18s %10d %12d %12.4f %12.4f %10.4f %9.2f\n" r.ab_name r.ab_msgs
        r.ab_bytes r.ab_elapsed r.ab_wait r.ab_hidden r.ab_wall)
    rows

let json_ablation rows =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("passes", Json.Str r.ab_name);
             ("pass_flags", json_pass_flags r.ab_flags);
             ("messages", Json.Int r.ab_msgs);
             ("bytes", Json.Int r.ab_bytes);
             ("f90d_elapsed_s", Json.Float r.ab_elapsed);
             ("recv_wait_s", Json.Float r.ab_wait);
             ("recv_wait_hidden_s", Json.Float r.ab_hidden);
             ("host_wall_s", Json.Float r.ab_wall);
           ])
       rows)

(* ------------------------------------------------------------------ *)
(* serve: daemon throughput, cold vs warm caches (§ service mode)      *)
(* ------------------------------------------------------------------ *)

(* A mixed compile+run workload replayed twice against a fresh daemon:
   the first pass populates all three cache levels, the second hits
   them.  The same request list also replays against an in-process
   Service with its own store, so every daemon response can be checked
   byte-for-byte against the one-shot path at equal cache temperature. *)

let serve_workload () =
  let compile demo demo_n =
    Json.Obj
      [ ("op", Json.Str "compile"); ("demo", Json.Str demo); ("demo_n", Json.Int demo_n) ]
  in
  let run demo demo_n nprocs =
    Json.Obj
      [
        ("op", Json.Str "run");
        ("demo", Json.Str demo);
        ("demo_n", Json.Int demo_n);
        ("nprocs", Json.Int nprocs);
        ("finals", Json.Bool true);
      ]
  in
  (* compile-heavy on purpose: a build service sees many more compile
     requests than simulations, and compilation is where the
     content-addressed levels pay (a warm compile is a digest lookup) *)
  List.map (compile "gauss") (List.init 40 (fun i -> 64 + i))
  @ List.map (compile "jacobi") (List.init 20 (fun i -> 64 + i))
  @ List.map (compile "irregular") (List.init 10 (fun i -> 64 + i))
  @ [ run "irregular" 256 4; run "jacobi" 64 4; run "gauss" 32 4 ]

type serve_phase = {
  sv_wall : float;
  sv_responses : Json.t list;
  sv_sched_builds : int;  (* summed over run responses *)
  sv_sched_hits : int;
  sv_errors : int;
}

let serve_phase responses wall =
  let geti resp key = Option.value ~default:0 (Option.bind (Json.mem resp key) Json.int) in
  {
    sv_wall = wall;
    sv_responses = responses;
    sv_sched_builds = List.fold_left (fun a r -> a + geti r "sched_builds") 0 responses;
    sv_sched_hits = List.fold_left (fun a r -> a + geti r "sched_hits") 0 responses;
    sv_errors =
      List.fold_left
        (fun a r -> a + match Json.mem r "ok" with Some (Json.Bool true) -> 0 | _ -> 1)
        0 responses;
  }

type serve_result = {
  sr_workload : Json.t list;
  sr_cold : serve_phase;
  sr_warm : serve_phase;
  sr_stats : Json.t;  (* daemon stats op, after both passes *)
  sr_metrics_cold : string;  (* exposition scrape after the cold pass *)
  sr_metrics_warm : string;  (* ... and after the warm pass *)
  sr_identical_cold : bool;
  sr_identical_warm : bool;
}

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Sum of a family's samples in an exposition text, optionally filtered
   to lines whose label block contains [label] (e.g. {|level="l3"|}). *)
let metric_value ?(label = "") text family =
  String.split_on_char '\n' text
  |> List.fold_left
       (fun acc line ->
         if String.length line = 0 || line.[0] = '#' then acc
         else
           match String.rindex_opt line ' ' with
           | None -> acc
           | Some sp ->
               let name_labels = String.sub line 0 sp in
               let name =
                 match String.index_opt name_labels '{' with
                 | Some i -> String.sub name_labels 0 i
                 | None -> name_labels
               in
               if name = family && (label = "" || contains name_labels label) then
                 acc
                 +. Option.value ~default:0.
                      (float_of_string_opt
                         (String.sub line (sp + 1) (String.length line - sp - 1)))
               else acc)
       0.

let run_serve () =
  let tmp = Filename.temp_dir "f90d-bench-serve" "" in
  let sock = Filename.concat tmp "daemon.sock" in
  let workload = serve_workload () in
  let service =
    F90d_serve.Service.create
      ~store:(F90d_serve.Store.create ~dir:(Filename.concat tmp "store-daemon"))
      ~workers:2 ()
  in
  let srv = F90d_serve.Server.start ~workers:2 ~service ~sock_path:sock () in
  let debug_lat = Sys.getenv_opt "F90D_SERVE_LAT" <> None in
  let replay () =
    F90d_serve.Client.with_conn sock (fun conn ->
        let t0 = Unix.gettimeofday () in
        let responses =
          List.map
            (fun req ->
              let r0 = Unix.gettimeofday () in
              let resp = F90d_serve.Client.request conn req in
              if debug_lat then
                Printf.printf "%8.3f ms  %s\n%!"
                  ((Unix.gettimeofday () -. r0) *. 1000.)
                  (String.sub (Json.to_string req) 0 (min 60 (String.length (Json.to_string req))));
              resp)
            workload
        in
        serve_phase responses (Unix.gettimeofday () -. t0))
  in
  let scrape () =
    F90d_serve.Client.with_conn sock (fun c ->
        let r = F90d_serve.Client.request c (Json.Obj [ ("op", Json.Str "metrics") ]) in
        Option.value ~default:"" (Option.bind (Json.mem r "body") Json.str))
  in
  let cold = replay () in
  let metrics_cold = scrape () in
  let warm = replay () in
  let metrics_warm = scrape () in
  let stats = F90d_serve.Client.with_conn sock (fun c ->
      F90d_serve.Client.request c (Json.Obj [ ("op", Json.Str "stats") ])) in
  F90d_serve.Client.with_conn sock (fun c ->
      ignore (F90d_serve.Client.request c (Json.Obj [ ("op", Json.Str "shutdown") ])));
  F90d_serve.Server.wait srv;
  (* the one-shot reference: same requests, same order, its own caches *)
  let solo =
    F90d_serve.Service.create
      ~store:(F90d_serve.Store.create ~dir:(Filename.concat tmp "store-solo"))
      ()
  in
  let identical phase =
    List.for_all2
      (fun req daemon_resp ->
        let solo_resp = F90d_serve.Service.handle solo req in
        Json.to_string (F90d_serve.Service.strip_volatile solo_resp)
        = Json.to_string (F90d_serve.Service.strip_volatile daemon_resp))
      workload phase.sv_responses
  in
  let identical_cold = identical cold in
  let identical_warm = identical warm in
  {
    sr_workload = workload;
    sr_cold = cold;
    sr_warm = warm;
    sr_stats = stats;
    sr_metrics_cold = metrics_cold;
    sr_metrics_warm = metrics_warm;
    sr_identical_cold = identical_cold;
    sr_identical_warm = identical_warm;
  }

let serve_table res =
  section "Service mode: daemon throughput, cold vs warm content-addressed caches";
  let n = List.length res.sr_workload in
  let rps p = float_of_int n /. p.sv_wall in
  Printf.printf "%-6s %10s %12s %14s %14s %8s\n" "phase" "requests" "wall (s)" "throughput/s"
    "sched_builds" "errors";
  let row name p =
    Printf.printf "%-6s %10d %12.3f %14.1f %14d %8d\n" name n p.sv_wall (rps p)
      p.sv_sched_builds p.sv_errors
  in
  row "cold" res.sr_cold;
  row "warm" res.sr_warm;
  Printf.printf "\nwarm/cold throughput : %.2fx\n" (rps res.sr_warm /. rps res.sr_cold);
  Printf.printf "warm sched_builds    : %d (schedules preloaded from the store)\n"
    res.sr_warm.sv_sched_builds;
  let mc f ?label () = metric_value ?label res.sr_metrics_cold f in
  let mw f ?label () = metric_value ?label res.sr_metrics_warm f in
  Printf.printf "metrics scrape       : sched_builds_total %.0f -> %.0f (warm delta %.0f)\n"
    (mc "f90d_sched_builds_total" ())
    (mw "f90d_sched_builds_total" ())
    (mw "f90d_sched_builds_total" () -. mc "f90d_sched_builds_total" ());
  Printf.printf "                       l3 cache hits %.0f -> %.0f, requests %.0f -> %.0f\n"
    (mc "f90d_cache_hits_total" ~label:{|level="l3"|} ())
    (mw "f90d_cache_hits_total" ~label:{|level="l3"|} ())
    (mc "f90d_requests_total" ())
    (mw "f90d_requests_total" ());
  Printf.printf "daemon = one-shot    : cold %s, warm %s\n"
    (if res.sr_identical_cold then "bit-identical" else "DIFFERS!")
    (if res.sr_identical_warm then "bit-identical" else "DIFFERS!")

(* ------------------------------------------------------------------ *)
(* Scale: the simulated machine at up to 4096 ranks                    *)
(*                                                                     *)
(* Sweeps P over powers of two on a fixed problem size, so the sweep   *)
(* isolates the engine's own scaling (scheduler, mailboxes, routing)   *)
(* rather than the application's.  Two communication shapes: gauss     *)
(* (machine-wide broadcast cascades every iteration) and the jacobi2d  *)
(* stencil (nearest-neighbour shifts on a sqrt(P) x sqrt(P) grid).     *)
(* ------------------------------------------------------------------ *)

let scale_n =
  match Sys.getenv_opt "F90D_SCALE_N" with Some s -> int_of_string s | None -> 256

(* CI caps the sweep (F90D_SCALE_MAX_P=1024) to stay inside its wall
   budget; the committed baseline is generated with the full sweep. *)
let scale_max_p =
  match Sys.getenv_opt "F90D_SCALE_MAX_P" with Some s -> int_of_string s | None -> 4096

let scale_ps = List.filter (fun p -> p <= scale_max_p) [ 16; 64; 256; 1024; 4096 ]

(* Host memory, from /proc/self/status (0 where the kernel interface is
   absent): VmRSS is the resident set now, VmHWM its high-water mark. *)
let proc_status_kb key =
  match open_in "/proc/self/status" with
  | exception _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line ->
            if String.length line > String.length key && String.sub line 0 (String.length key) = key
            then
              Scanf.sscanf (String.sub line (String.length key) (String.length line - String.length key))
                " %d" (fun kb -> kb)
            else scan ()
      in
      let kb = scan () in
      close_in ic;
      kb

type scale_row = {
  sc_program : string;
  sc_p : int;
  sc_elapsed : float;  (* simulated seconds *)
  sc_messages : int;
  sc_bytes : int;
  sc_wall_seq : float;  (* host seconds, sequential engine *)
  sc_wall_par : float option;  (* host seconds, run_parallel (with --jobs) *)
  sc_par_identical : bool;
  sc_rss_kb : int;  (* resident set right after the sequential run *)
  sc_hwm_kb : int;  (* process high-water mark so far *)
  sc_heap_mb : float;  (* OCaml major-heap words after the run, in MB *)
  sc_kruns : int;  (* FORALL nests taken by the kernel layer *)
  sc_kfalls : int;  (* nests handed back to the interpreter *)
}

(* One row of the collective micro-benchmark: a machine-wide binomial
   broadcast's critical path, in units of one message time.  The depth
   column must read log2 P — that is the O(log P) cascade made visible. *)
type depth_row = { dr_p : int; dr_elapsed : float; dr_depth : float }

let run_scale_depth () =
  let m = Model.ipsc860 in
  let t_msg = m.Model.alpha +. (8. *. m.Model.beta) in
  List.map
    (fun p ->
      let cfg = Engine.config ~model:m p in
      let r =
        Engine.run cfg (fun ctx ->
            let rctx = F90d_runtime.Rctx.make ctx (F90d_dist.Grid.make [| p |]) in
            let team = F90d_runtime.Collectives.team_all rctx in
            ignore
              (F90d_runtime.Collectives.broadcast rctx team ~root:0
                 (Message.Scalar (F90d_base.Scalar.Real 1.0))))
      in
      { dr_p = p; dr_elapsed = r.Engine.elapsed; dr_depth = r.Engine.elapsed /. t_msg })
    scale_ps

let run_scale ~jobs () =
  let gauss = lazy (Driver.compile (Programs.gauss ~n:scale_n)) in
  let programs p =
    let side = int_of_float (sqrt (float_of_int p) +. 0.5) in
    [
      ("gauss", Lazy.force gauss);
      ("jacobi2d", Driver.compile (Programs.jacobi2d ~n:scale_n ~iters:4 ~p:side ~q:side));
    ]
  in
  List.concat_map
    (fun p ->
      List.map
        (fun (name, compiled) ->
          let run ~jobs =
            Driver.run ~collect_finals:false ~model:Model.ipsc860 ~topology:Topology.Hypercube
              ~jobs ~nprocs:p compiled
          in
          let t0 = Unix.gettimeofday () in
          let r = run ~jobs:1 in
          let wall_seq = Unix.gettimeofday () -. t0 in
          let rss = proc_status_kb "VmRSS:" and hwm = proc_status_kb "VmHWM:" in
          let heap_mb = float_of_int (Gc.quick_stat ()).Gc.heap_words *. 8. /. 1048576. in
          let wall_par, identical =
            if jobs > 1 then begin
              let t0 = Unix.gettimeofday () in
              let rp = run ~jobs in
              let wall = Unix.gettimeofday () -. t0 in
              ( Some wall,
                rp.Driver.elapsed = r.Driver.elapsed
                && rp.Driver.clocks = r.Driver.clocks
                && Stats.per_tag rp.Driver.stats = Stats.per_tag r.Driver.stats )
            end
            else (None, true)
          in
          Printf.printf "  %-9s P=%-5d %10.3f sim-s  %9d msgs  %8.2f host-s%s\n%!" name p
            r.Driver.elapsed r.Driver.stats.Stats.messages wall_seq
            (match wall_par with
            | Some w -> Printf.sprintf "  (par %.2f, %s)" w (if identical then "identical" else "DIFFERS!")
            | None -> "");
          {
            sc_program = name;
            sc_p = p;
            sc_elapsed = r.Driver.elapsed;
            sc_messages = r.Driver.stats.Stats.messages;
            sc_bytes = r.Driver.stats.Stats.bytes;
            sc_wall_seq = wall_seq;
            sc_wall_par = wall_par;
            sc_par_identical = identical;
            sc_rss_kb = rss;
            sc_hwm_kb = hwm;
            sc_heap_mb = heap_mb;
            sc_kruns = r.Driver.stats.Stats.kernel_runs;
            sc_kfalls = r.Driver.stats.Stats.kernel_fallbacks;
          })
        (programs p))
    scale_ps

let scale_table rows depths =
  section
    (Printf.sprintf
       "Scale: fixed problem size (N=%d), machine size up to %d ranks\n\
        (event-driven scheduler: host cost tracks messages, not P^2)" scale_n scale_max_p);
  Printf.printf "%-9s %6s  %12s  %10s  %10s  %9s  %9s  %s\n" "program" "PEs" "simulated(s)"
    "messages" "host(s)" "RSS(MB)" "HWM(MB)" "par identical";
  List.iter
    (fun r ->
      Printf.printf "%-9s %6d  %12.3f  %10d  %10.2f  %9.1f  %9.1f  %s\n" r.sc_program r.sc_p
        r.sc_elapsed r.sc_messages r.sc_wall_seq
        (float_of_int r.sc_rss_kb /. 1024.)
        (float_of_int r.sc_hwm_kb /. 1024.)
        (match r.sc_wall_par with
        | Some w -> Printf.sprintf "%.2fs %s" w (if r.sc_par_identical then "yes" else "NO!")
        | None -> "-"))
    rows;
  Printf.printf "\nbroadcast cascade depth (critical path / one message time):\n";
  Printf.printf "%6s  %10s  %8s  %8s\n" "PEs" "elapsed(s)" "depth" "log2 P";
  List.iter
    (fun d ->
      Printf.printf "%6d  %10.6f  %8.2f  %8d\n" d.dr_p d.dr_elapsed d.dr_depth
        (F90d_base.Util.ilog2 d.dr_p))
    depths

(* ------------------------------------------------------------------ *)
(* JSON emitters                                                       *)
(* ------------------------------------------------------------------ *)

let version_fields =
  [
    ("version", Json.Str F90d_base.Util.package_version);
    ("cache_version", Json.Int F90d_base.Util.cache_version);
  ]

(* Top-k hot statements of the traced 16-PE run: each row joins the
   compile-time decision (primitive + source line) with measured cost. *)
let json_hot_statements ?(top = 5) () =
  let compiled, _, tr = Lazy.force traced16 in
  F90d_report.Report.hot_statements compiled.Driver.c_ir tr
  |> List.filteri (fun i _ -> i < top)
  |> List.map (fun (h : F90d_report.Report.hot) ->
         Json.Obj
           [
             ("sid", Json.Int h.F90d_report.Report.h_sid);
             ("source", Json.Str (F90d_base.Loc.file_line h.F90d_report.Report.h_loc));
             ("stmt", Json.Str h.F90d_report.Report.h_desc);
             ("decision", Json.Str h.F90d_report.Report.h_decision);
             ("messages", Json.Int h.F90d_report.Report.h_msgs);
             ("bytes", Json.Int h.F90d_report.Report.h_bytes);
             ("send_busy_s", Json.Float h.F90d_report.Report.h_send_s);
             ("recv_wait_s", Json.Float h.F90d_report.Report.h_wait_s);
             ("recv_wait_hidden_s", Json.Float h.F90d_report.Report.h_hidden_s);
             ("critical_path_wire_s", Json.Float h.F90d_report.Report.h_cp_s);
           ])
  |> fun rows -> Json.List rows

let json_serve ~host_wall res =
  let n = List.length res.sr_workload in
  let phase p =
    Json.Obj
      [
        ("requests", Json.Int n);
        ("wall_s", Json.Float p.sv_wall);
        ("throughput_rps", Json.Float (float_of_int n /. p.sv_wall));
        ("sched_builds", Json.Int p.sv_sched_builds);
        ("sched_hits", Json.Int p.sv_sched_hits);
        ("errors", Json.Int p.sv_errors);
      ]
  in
  (* the per-pass scrape, reduced to the families the acceptance gates
     read, plus the warm exposition text verbatim for the artifact *)
  let scrape text =
    Json.Obj
      [
        ("requests_total", Json.Float (metric_value text "f90d_requests_total"));
        ("sched_builds_total", Json.Float (metric_value text "f90d_sched_builds_total"));
        ( "cache_hits_l3_total",
          Json.Float (metric_value ~label:{|level="l3"|} text "f90d_cache_hits_total") );
        ("store_corrupt_total", Json.Float (metric_value text "f90d_store_corrupt_total"));
      ]
  in
  Json.Obj
    (("experiment", Json.Str "serve") :: version_fields
    @ [
        ("workload", Json.List res.sr_workload);
        ("cold", phase res.sr_cold);
        ("warm", phase res.sr_warm);
        ( "warm_over_cold",
          Json.Float
            ((float_of_int n /. res.sr_warm.sv_wall) /. (float_of_int n /. res.sr_cold.sv_wall))
        );
        ("identical_to_oneshot_cold", Json.Bool res.sr_identical_cold);
        ("identical_to_oneshot_warm", Json.Bool res.sr_identical_warm);
        ("daemon_stats", res.sr_stats);
        ("metrics_cold", scrape res.sr_metrics_cold);
        ("metrics_warm", scrape res.sr_metrics_warm);
        ("metrics_warm_exposition", Json.Str res.sr_metrics_warm);
        ("host_wall_total_s", Json.Float host_wall);
      ])

let json_table4 ?ablation ?kernel ~jobs ~host_wall rows4 =
  Json.Obj
    (("experiment", Json.Str "table4") :: version_fields
    @ [
       ("program", Json.Str "gauss");
       ("problem_size", Json.Int table4_n);
       ("model", Json.Str Model.ipsc860.Model.name);
       ("topology", Json.Str (Topology.name Topology.Hypercube));
       ("pass_flags", json_pass_flags F90d_opt.Passes.all_on);
       ("jobs", Json.Int jobs);
      ("host_cores", Json.Int (Domain.recommended_domain_count ()));
      ("host_wall_total_s", Json.Float host_wall);
      ( "rows",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 ([
                    ("nprocs", Json.Int r.t4_p);
                    ("hand_elapsed_s", Json.Float r.t4_hand);
                    ("f90d_elapsed_s", Json.Float r.t4_f90d);
                    ("host_wall_seq_s", Json.Float r.t4_wall_seq);
                  ]
                 (* measured value or no key at all — never a null row *)
                 @ (match r.t4_wall_par with
                   | Some w -> [ ("host_wall_par_s", Json.Float w) ]
                   | None -> [])
                 @ [
                   ("parallel_identical", Json.Bool r.t4_par_identical);
                   ("messages", Json.Int r.t4_stats.Stats.messages);
                   ("bytes", Json.Int r.t4_stats.Stats.bytes);
                   ("recv_wait_s", Json.Float r.t4_stats.Stats.recv_wait);
                   ("recv_wait_hidden_s", Json.Float r.t4_stats.Stats.recv_wait_hidden);
                   ("sched_builds", Json.Int r.t4_stats.Stats.sched_builds);
                   ("sched_hits", Json.Int r.t4_stats.Stats.sched_hits);
                   ("kernel_runs", Json.Int r.t4_stats.Stats.kernel_runs);
                   ("kernel_fallbacks", Json.Int r.t4_stats.Stats.kernel_fallbacks);
                   ("kernel_blocked", Json.Int r.t4_stats.Stats.kernel_blocked);
                 ]))
             rows4) );
       ("hot_statements_16pe", json_hot_statements ());
     ]
    @ (match kernel with Some kg -> [ ("kernel", json_kernel_gate kg) ] | None -> [])
    @ match ablation with Some rows -> [ ("ablation", json_ablation rows) ] | None -> [])

let json_fig5 ~host_wall rows =
  Json.Obj
    (("experiment", Json.Str "fig5") :: version_fields
    @ [
      ("program", Json.Str "gauss");
      ("pass_flags", json_pass_flags F90d_opt.Passes.all_on);
      ("nprocs", Json.Int 16);
      ("topology", Json.Str (Topology.name Topology.Hypercube));
      ("host_wall_total_s", Json.Float host_wall);
      ( "rows",
        Json.List
          (List.map
             (fun (n, ti, tn) ->
               Json.Obj
                 [
                   ("problem_size", Json.Int n);
                   ("ipsc860_elapsed_s", Json.Float ti);
                   ("ncube2_elapsed_s", Json.Float tn);
                 ])
             rows) );
    ])

let json_scale ~jobs ~host_wall rows depths =
  Json.Obj
    (("experiment", Json.Str "scale") :: version_fields
    @ [
        ("problem_size", Json.Int scale_n);
        ("max_p", Json.Int scale_max_p);
        ("model", Json.Str Model.ipsc860.Model.name);
        ("topology", Json.Str (Topology.name Topology.Hypercube));
        ("jobs", Json.Int jobs);
        ("host_cores", Json.Int (Domain.recommended_domain_count ()));
        ("host_wall_total_s", Json.Float host_wall);
        ( "rows",
          Json.List
            (List.map
               (fun r ->
                 Json.Obj
                   ([
                      ("program", Json.Str r.sc_program);
                      ("nprocs", Json.Int r.sc_p);
                      ("elapsed_s", Json.Float r.sc_elapsed);
                      ("messages", Json.Int r.sc_messages);
                      ("bytes", Json.Int r.sc_bytes);
                      ("host_wall_seq_s", Json.Float r.sc_wall_seq);
                    ]
                   @ (match r.sc_wall_par with
                     | Some w -> [ ("host_wall_par_s", Json.Float w) ]
                     | None -> [])
                   @ [
                       ("parallel_identical", Json.Bool r.sc_par_identical);
                       ("rss_kb", Json.Int r.sc_rss_kb);
                       ("hwm_kb", Json.Int r.sc_hwm_kb);
                       ("heap_mb", Json.Float r.sc_heap_mb);
                       ("kernel_runs", Json.Int r.sc_kruns);
                       ("kernel_fallbacks", Json.Int r.sc_kfalls);
                     ]))
               rows) );
        ( "broadcast_depth",
          Json.List
            (List.map
               (fun d ->
                 Json.Obj
                   [
                     ("nprocs", Json.Int d.dr_p);
                     ("elapsed_s", Json.Float d.dr_elapsed);
                     ("depth", Json.Float d.dr_depth);
                     ("log2_p", Json.Int (F90d_base.Util.ilog2 d.dr_p));
                   ])
               depths) );
      ])

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let argv = Array.to_list Sys.argv in
  let what, flags =
    match argv with
    | _ :: w :: rest when String.length w > 0 && w.[0] <> '-' -> (w, rest)
    | _ :: rest -> ("all", rest)
    | [] -> ("all", [])
  in
  let json_path = ref None and jobs = ref (Driver.default_jobs ()) and trace_path = ref None in
  let profile_path = ref None and ablate = ref false in
  let rec parse = function
    | [] -> ()
    | "--ablate" :: rest ->
        ablate := true;
        parse rest
    | "--json" :: p :: rest when String.length p > 0 && p.[0] <> '-' ->
        json_path := Some p;
        parse rest
    | "--json" :: rest ->
        json_path := Some (Printf.sprintf "BENCH_%s.json" what);
        parse rest
    | "--trace" :: p :: rest when String.length p > 0 && p.[0] <> '-' ->
        trace_path := Some p;
        parse rest
    | "--trace" :: rest ->
        trace_path := Some "BENCH_table4_trace.json";
        parse rest
    | "--profile-json" :: p :: rest when String.length p > 0 && p.[0] <> '-' ->
        profile_path := Some p;
        parse rest
    | "--profile-json" :: rest ->
        profile_path := Some "BENCH_table4_profile.json";
        parse rest
    | "--jobs" :: n :: rest ->
        (jobs := try max 1 (int_of_string n) with _ -> 1);
        parse rest
    | other :: _ ->
        Printf.eprintf
          "unknown flag '%s' (--json [PATH] | --jobs N | --trace [PATH] | --profile-json \
           [PATH] | --ablate)\n"
          other;
        exit 1
  in
  parse flags;
  let jobs = !jobs in
  let t0 = Unix.gettimeofday () in
  let warn_json () =
    match !json_path with
    | Some _ ->
        Printf.eprintf
          "warning: --json is only supported for table4, fig5, serve and scale; ignoring\n"
    | None -> ()
  in
  let warn_trace () =
    match !trace_path with
    | Some _ -> Printf.eprintf "warning: --trace is only supported for table4; ignoring\n"
    | None -> ()
  in
  let warn_profile () =
    match !profile_path with
    | Some _ ->
        Printf.eprintf "warning: --profile-json is only supported for table4; ignoring\n"
    | None -> ()
  in
  (match what with
  | "fig5" ->
      warn_trace ();
      warn_profile ();
      let rows = run_fig5 () in
      fig5 rows;
      Option.iter
        (fun p -> write_json p (json_fig5 ~host_wall:(Unix.gettimeofday () -. t0) rows))
        !json_path
  | "table4" ->
      let rows = run_table4 ~jobs () in
      table4 rows;
      let kernel = run_kernel_gate () in
      kernel_gate_table kernel;
      let ablation =
        if !ablate then begin
          let ab = run_ablate () in
          ablate_table ab;
          Some ab
        end
        else None
      in
      Option.iter
        (fun p ->
          write_json p
            (json_table4 ?ablation ~kernel ~jobs ~host_wall:(Unix.gettimeofday () -. t0) rows))
        !json_path;
      Option.iter (fun p -> table4_trace ~path:p ()) !trace_path;
      Option.iter (fun p -> table4_profile_json ~path:p ()) !profile_path
  | "serve" ->
      warn_trace ();
      warn_profile ();
      let res = run_serve () in
      serve_table res;
      Option.iter
        (fun p -> write_json p (json_serve ~host_wall:(Unix.gettimeofday () -. t0) res))
        !json_path
  | "scale" ->
      warn_trace ();
      warn_profile ();
      let rows = run_scale ~jobs () in
      let depths = run_scale_depth () in
      scale_table rows depths;
      Option.iter
        (fun p ->
          write_json p (json_scale ~jobs ~host_wall:(Unix.gettimeofday () -. t0) rows depths))
        !json_path
  | "fig6" ->
      warn_json ();
      warn_trace ();
      warn_profile ();
      fig6 (run_table4 ~jobs ())
  | "table1" -> warn_json (); warn_trace (); warn_profile (); table1 ()
  | "table2" -> warn_json (); warn_trace (); warn_profile (); table2 ()
  | "table3" -> warn_json (); warn_trace (); warn_profile (); table3 ()
  | "micro" -> warn_json (); warn_trace (); warn_profile (); micro ()
  | "ablation" -> warn_json (); warn_trace (); warn_profile (); ablation ()
  | "dist" -> warn_json (); warn_trace (); warn_profile (); dist_choice ()
  | "portability" -> warn_json (); warn_trace (); warn_profile (); portability ()
  | "fig3" -> warn_json (); warn_trace (); warn_profile (); fig3 ()
  | "all" ->
      warn_json ();
      warn_trace ();
      warn_profile ();
      table1 ();
      table2 ();
      table3 ();
      fig3 ();
      fig5 (run_fig5 ());
      let rows = run_table4 ~jobs () in
      table4 rows;
      kernel_gate_table (run_kernel_gate ());
      fig6 rows;
      ablation ();
      dist_choice ();
      portability ();
      serve_table (run_serve ());
      micro ()
  | other ->
      Printf.eprintf
        "unknown experiment '%s' (fig5 | table4 | fig6 | table1 | table2 | table3 | fig3 | micro | ablation | dist | portability | serve | scale | all)\n"
        other;
      exit 1);
  Printf.printf "\n[bench completed in %.1f s of host time]\n" (Unix.gettimeofday () -. t0)
