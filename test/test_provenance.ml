(* Statement provenance: every lowered statement carries the source
   location it came from (Normalize.forallize and the other frontend
   rewrites must not drop it), every traced message resolves back to a
   real source line through the provenance table, the per-statement
   profile accounts for exactly the traffic Stats counted, and deadlock
   diagnostics name the guilty statement. *)

open F90d
open F90d_base
open F90d_machine
open F90d_trace
open F90d_ir

let cases =
  [
    ("gauss", Programs.gauss ~n:48);
    ("jacobi", Programs.jacobi ~n:37 ~iters:6);
    ("jacobi2d", Programs.jacobi2d ~n:18 ~iters:3 ~p:2 ~q:2);
    ("irregular", Programs.irregular ~n:40);
    ("fft", Programs.fft_butterfly ~n:32);
  ]

let run ~nprocs compiled =
  Driver.run ~collect_finals:false ~model:Model.ipsc860 ~topology:Topology.Hypercube
    ~trace:true ~nprocs compiled

let trace_of (r : Driver.run_result) =
  match r.Driver.trace with
  | Some tr -> tr
  | None -> Alcotest.fail "run ~trace:true returned no trace"

let rec iter_stmts f (st : Ir.stmt) =
  f st;
  match st.Ir.s with
  | Ir.Do_loop { body; _ } | Ir.While_loop { body; _ } -> List.iter (iter_stmts f) body
  | Ir.If_block { arms; els } ->
      List.iter (fun (_, b) -> List.iter (iter_stmts f) b) arms;
      List.iter (iter_stmts f) els
  | _ -> ()

let iter_program f (ir : Ir.program_ir) =
  List.iter (fun (_, u) -> List.iter (iter_stmts f) u.Ir.u_body) ir.Ir.p_units

(* ------------------------------------------------------------------ *)
(* Lowered statements keep their source locations                      *)
(* ------------------------------------------------------------------ *)

let test_sloc_preserved () =
  List.iter
    (fun (name, src) ->
      let ir = (Driver.compile src).Driver.c_ir in
      iter_program
        (fun (st : Ir.stmt) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s stmt %d: sid positive" name st.Ir.sid)
            true (st.Ir.sid > 0);
          (* forallize and the other rewrites must not synthesize
             location-less statements: comm attribution keys on line *)
          Alcotest.(check bool)
            (Printf.sprintf "%s stmt %d: sloc has a line" name st.Ir.sid)
            true
            (st.Ir.sloc.Loc.line > 0);
          match st.Ir.s with
          | Ir.Forall f when f.Ir.f_pre <> [] ->
              Alcotest.(check bool)
                (Printf.sprintf "%s stmt %d: comm-bearing forall located" name st.Ir.sid)
                true
                (st.Ir.sloc.Loc.line > 0)
          | _ -> ())
        ir)
    cases

let test_prov_table_complete () =
  List.iter
    (fun (name, src) ->
      let ir = (Driver.compile src).Driver.c_ir in
      let prov = Ir.prov_table ir in
      (* every statement's sid resolves, to the statement's own sloc *)
      iter_program
        (fun (st : Ir.stmt) ->
          match Hashtbl.find_opt prov st.Ir.sid with
          | None ->
              Alcotest.fail (Printf.sprintf "%s: sid %d not in prov table" name st.Ir.sid)
          | Some p ->
              Alcotest.(check string)
                (Printf.sprintf "%s sid %d: prov loc = stmt sloc" name st.Ir.sid)
                (Loc.file_line st.Ir.sloc) (Loc.file_line p.Ir.pv_loc))
        ir;
      (* epilogue provenance points at the program unit itself *)
      List.iter
        (fun (_, u) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: epilogue located" name u.Ir.u_name)
            true
            (u.Ir.u_epilogue.Ir.pv_loc.Loc.line > 0))
        ir.Ir.p_units)
    cases

(* ------------------------------------------------------------------ *)
(* Every traced send/recv/span resolves to a real source line          *)
(* ------------------------------------------------------------------ *)

let test_trace_sids_resolve () =
  List.iter
    (fun (name, src) ->
      let compiled = Driver.compile src in
      let ir = compiled.Driver.c_ir in
      let prov = Ir.prov_table ir in
      let r = run ~nprocs:4 compiled in
      let tr = trace_of r in
      let check_sid what sid =
        Alcotest.(check bool) (Printf.sprintf "%s: %s has a sid" name what) true (sid > 0);
        match Hashtbl.find_opt prov sid with
        | None -> Alcotest.fail (Printf.sprintf "%s: %s sid %d unresolvable" name what sid)
        | Some p ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s sid %d -> real line" name what sid)
              true
              (p.Ir.pv_loc.Loc.line > 0)
      in
      for rank = 0 to Trace.nprocs tr - 1 do
        Array.iter
          (fun (e : Trace.event) ->
            match e.Trace.kind with
            | Trace.Send { sid; _ } -> check_sid "send" sid
            | Trace.Recv { sid; _ } -> check_sid "recv" sid
            | Trace.Span { sid; _ } -> check_sid "span" sid
            | Trace.Mark _ -> ())
          (Trace.events tr ~rank)
      done)
    cases

(* ------------------------------------------------------------------ *)
(* Per-statement profile accounts for exactly the Stats totals         *)
(* ------------------------------------------------------------------ *)

let test_profile_sums () =
  List.iter
    (fun (name, src) ->
      let compiled = Driver.compile src in
      (* jacobi2d fixes a 2x2 PROCESSORS grid: only 4 PEs fit *)
      let sizes = if name = "jacobi2d" then [ 4 ] else [ 4; 8 ] in
      List.iter
        (fun nprocs ->
          let r = run ~nprocs compiled in
          let rows = Analyze.per_stmt_profile (trace_of r) in
          let msgs = List.fold_left (fun a (s : Analyze.srow) -> a + s.Analyze.s_msgs) 0 rows in
          let bytes =
            List.fold_left (fun a (s : Analyze.srow) -> a + s.Analyze.s_bytes) 0 rows
          in
          let wait =
            List.fold_left (fun a (s : Analyze.srow) -> a +. s.Analyze.s_wait_s) 0. rows
          in
          Alcotest.(check int)
            (Printf.sprintf "%s nprocs=%d: profile messages = Stats" name nprocs)
            r.Driver.stats.Stats.messages msgs;
          Alcotest.(check int)
            (Printf.sprintf "%s nprocs=%d: profile bytes = Stats" name nprocs)
            r.Driver.stats.Stats.bytes bytes;
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s nprocs=%d: profile wait = Stats" name nprocs)
            r.Driver.stats.Stats.recv_wait wait)
        sizes)
    cases

(* hot_statements is a join over the same rows: nothing may be dropped *)
let test_hot_statements_join () =
  let compiled = Driver.compile (Programs.gauss ~n:48) in
  let r = run ~nprocs:8 compiled in
  let hots = F90d_report.Report.hot_statements compiled.Driver.c_ir (trace_of r) in
  let msgs = List.fold_left (fun a (h : F90d_report.Report.hot) -> a + h.F90d_report.Report.h_msgs) 0 hots in
  let bytes =
    List.fold_left (fun a (h : F90d_report.Report.hot) -> a + h.F90d_report.Report.h_bytes) 0 hots
  in
  Alcotest.(check int) "hot stmts: messages = Stats" r.Driver.stats.Stats.messages msgs;
  Alcotest.(check int) "hot stmts: bytes = Stats" r.Driver.stats.Stats.bytes bytes;
  List.iter
    (fun (h : F90d_report.Report.hot) ->
      Alcotest.(check bool) "hot stmt resolves to a source line" true
        (h.F90d_report.Report.h_loc.Loc.line > 0))
    hots

(* ------------------------------------------------------------------ *)
(* Deadlock diagnostics name the statement                             *)
(* ------------------------------------------------------------------ *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_deadlock_names_statement () =
  let cfg = Engine.config 2 in
  match
    Engine.run cfg (fun ctx ->
        Engine.set_stmt ctx ~sid:7 ~loc:(Loc.make ~file:"solver.f90" ~line:42 ~col:1);
        ignore (Engine.recv ctx ~src:(1 - Engine.rank ctx) ~tag:9))
  with
  | _ -> Alcotest.fail "expected deadlock"
  | exception Engine.Deadlock msg ->
      Alcotest.(check bool)
        (Printf.sprintf "deadlock names file:line (%s)" msg)
        true
        (contains ~sub:"solver.f90:42" msg);
      Alcotest.(check bool)
        (Printf.sprintf "deadlock names stmt (%s)" msg)
        true
        (contains ~sub:"stmt 7" msg)

(* interpreter-level: an actual program deadlock points at the source *)
let test_runtime_errors_located () =
  (* out-of-bounds subscript: location must be the statement's, not <no-loc> *)
  let src =
    "PROGRAM OOB\n\
     INTEGER A(8)\n\
     !HPF$ PROCESSORS P(2)\n\
     !HPF$ DISTRIBUTE A(BLOCK) ONTO P\n\
     INTEGER I\n\
     FORALL (I = 1:8) A(I) = I\n\
     I = A(99)\n\
     PRINT *, I\n\
     END\n"
  in
  match run ~nprocs:2 (Driver.compile src) with
  | _ -> Alcotest.fail "expected out-of-bounds error"
  | exception Diag.Error (loc, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "runtime error located (%s)" (Loc.file_line loc))
        true (loc.Loc.line > 0)

(* ------------------------------------------------------------------ *)
(* Explain reports mention the Table 1/2 classifications               *)
(* ------------------------------------------------------------------ *)

let test_explain_contents () =
  let text src = F90d_report.Report.explain_text (Driver.compile src).Driver.c_ir in
  let gauss = text (Programs.gauss ~n:48) in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "gauss explain mentions %S" sub) true
        (contains ~sub gauss))
    [ "multicast"; "Table 1"; "owner computes"; "distribution"; "BLOCK" ];
  let jacobi = text (Programs.jacobi ~n:37 ~iters:6) in
  Alcotest.(check bool) "jacobi explain mentions overlap_shift" true
    (contains ~sub:"overlap_shift" jacobi);
  let irregular = text (Programs.irregular ~n:40) in
  Alcotest.(check bool) "irregular explain mentions gather (Table 2)" true
    (contains ~sub:"gather" irregular)

let test_explain_json_wellformed () =
  List.iter
    (fun (name, src) ->
      let js = F90d_report.Report.explain_json (Driver.compile src).Driver.c_ir in
      Alcotest.(check bool) (name ^ ": explain json has statements") true
        (contains ~sub:"\"statements\"" js);
      (* cheap structural sanity: braces and brackets balance *)
      let depth = ref 0 and ok = ref true in
      String.iter
        (fun c ->
          (match c with
          | '{' | '[' -> incr depth
          | '}' | ']' -> decr depth
          | _ -> ());
          if !depth < 0 then ok := false)
        js;
      Alcotest.(check bool) (name ^ ": explain json balanced") true (!ok && !depth = 0))
    cases

let () =
  Alcotest.run "provenance"
    [
      ( "provenance",
        [
          Alcotest.test_case "slocs preserved through lowering" `Quick test_sloc_preserved;
          Alcotest.test_case "prov table complete" `Quick test_prov_table_complete;
          Alcotest.test_case "traced events resolve to source" `Quick test_trace_sids_resolve;
          Alcotest.test_case "per-stmt profile = Stats totals" `Quick test_profile_sums;
          Alcotest.test_case "hot statements join drops nothing" `Quick
            test_hot_statements_join;
          Alcotest.test_case "deadlock names statement" `Quick test_deadlock_names_statement;
          Alcotest.test_case "runtime errors located" `Quick test_runtime_errors_located;
          Alcotest.test_case "explain mentions classifications" `Quick test_explain_contents;
          Alcotest.test_case "explain json well-formed" `Quick test_explain_json_wellformed;
        ] );
    ]
