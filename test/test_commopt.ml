(* The communication optimization passes: loop-invariant hoisting and
   cross-statement coalescing.  Covers the legality rules (when hoisting
   must refuse), the message-count wins, bit-identical results and
   traces, the replica cache on Gaussian elimination, and the
   per-statement profile reconciliation when batches split their bytes
   back to member statements. *)

open F90d
open F90d_machine
open F90d_opt
open F90d_ir

let checkb = Alcotest.(check bool)
let nd_eq = F90d_base.Ndarray.equal

let hoist_only = { Passes.all_off with Passes.hoist_comm = true }
let coalesce_only = { Passes.all_off with Passes.coalesce = true }

(* ------------------------------------------------------------------ *)
(* IR inspection helpers                                               *)
(* ------------------------------------------------------------------ *)

let rec stmt_fold f acc (s : Ir.stmt) =
  let acc = f acc s in
  match s.Ir.s with
  | Ir.Do_loop { body; _ } | Ir.While_loop { body; _ } ->
      List.fold_left (stmt_fold f) acc body
  | Ir.If_block { arms; els } ->
      let acc = List.fold_left (fun a (_, b) -> List.fold_left (stmt_fold f) a b) acc arms in
      List.fold_left (stmt_fold f) acc els
  | _ -> acc

let ir_fold f acc (ir : Ir.program_ir) =
  List.fold_left
    (fun acc (_, u) -> List.fold_left (stmt_fold f) acc u.Ir.u_body)
    acc ir.Ir.p_units

let comm_blocks ir =
  ir_fold
    (fun acc s -> match s.Ir.s with Ir.Comm_block { cb_members; _ } -> cb_members :: acc | _ -> acc)
    [] ir

let comm_batches ir =
  ir_fold
    (fun acc s ->
      match s.Ir.s with
      | Ir.Forall f ->
          List.filter_map
            (function Ir.Comm_batch members -> Some members | _ -> None)
            f.Ir.f_pre
          @ acc
      | _ -> acc)
    [] ir

let messages ?(nprocs = 4) ?(trace = false) compiled =
  Driver.run ~trace ~collect_finals:true ~model:Model.ipsc860 ~nprocs compiled

(* ------------------------------------------------------------------ *)
(* Hoisting: the positive case                                         *)
(* ------------------------------------------------------------------ *)

let preamble =
  {|
      PROGRAM HOISTT
      INTEGER, PARAMETER :: N = 48
      REAL A(48), B(48)
      INTEGER T, U(48)
C$    TEMPLATE TP(48)
C$    ALIGN A(I) WITH TP(I)
C$    ALIGN B(I) WITH TP(I)
C$    ALIGN U(I) WITH TP(I)
C$    DISTRIBUTE TP(BLOCK)
      FORALL (I = 1:N) A(I) = MOD(3*I, 17)
      FORALL (I = 1:N) B(I) = 0.0
      FORALL (I = 1:N) U(I) = N + 1 - I
|}

let wrap body = preamble ^ body ^ "\n      END\n"

let invariant_loop =
  wrap {|      DO T = 1, 10
        FORALL (I = 2:N-1) B(I) = B(I) + 0.5*(A(I-1) + A(I+1))
      END DO|}

let test_hoist_happens () =
  let opt = Driver.compile ~flags:hoist_only invariant_loop in
  let plain = Driver.compile ~flags:Passes.all_off invariant_loop in
  checkb "a Comm_block pre-header exists" true (comm_blocks opt.Driver.c_ir <> []);
  let r_opt = messages opt and r_plain = messages plain in
  checkb "hoisting strictly reduces messages" true
    (r_opt.Driver.stats.Stats.messages < r_plain.Driver.stats.Stats.messages);
  checkb "finals bit-identical" true (nd_eq (Driver.final r_opt "B") (Driver.final r_plain "B"))

let test_hoist_zero_trip_loop () =
  (* the pre-header guard must suppress the hoisted comms entirely: the
     hoisted and plain runs communicate exactly the same (finals gather
     only) *)
  let src =
    wrap {|      DO T = 5, 1
        FORALL (I = 2:N-1) B(I) = B(I) + A(I+1)
      END DO|}
  in
  let opt = Driver.compile ~flags:hoist_only src in
  checkb "hoisted (sanity)" true (comm_blocks opt.Driver.c_ir <> []);
  let r = messages opt in
  let r_plain = messages (Driver.compile ~flags:Passes.all_off src) in
  Alcotest.(check int) "zero-trip loop adds no messages"
    r_plain.Driver.stats.Stats.messages r.Driver.stats.Stats.messages;
  checkb "finals bit-identical" true (nd_eq (Driver.final r "B") (Driver.final r_plain "B"))

(* ------------------------------------------------------------------ *)
(* Hoisting: refusal cases                                             *)
(* ------------------------------------------------------------------ *)

let refuses src =
  let opt = Driver.compile ~flags:hoist_only src in
  comm_blocks opt.Driver.c_ir = []

let test_refuse_source_written () =
  (* A is assigned inside the loop: its shift must stay inside *)
  checkb "refuses: source array written in loop" true
    (refuses
       (wrap
          {|      DO T = 1, 10
        FORALL (I = 2:N-1) B(I) = A(I-1) + A(I+1)
        FORALL (I = 1:N) A(I) = A(I) + 1.0
      END DO|}))

let test_refuse_scatter_write () =
  (* A written through an indirection lhs (scatter write): still a write *)
  checkb "refuses: source written via scatter" true
    (refuses
       (wrap
          {|      DO T = 1, 10
        FORALL (I = 2:N-1) B(I) = A(I-1) + A(I+1)
        FORALL (I = 1:N) A(U(I)) = B(I)
      END DO|}))

let test_refuse_write_under_nested_if () =
  (* the write is conditionally executed, nested two levels down *)
  checkb "refuses: source written under nested IF" true
    (refuses
       (wrap
          {|      DO T = 1, 10
        FORALL (I = 2:N-1) B(I) = A(I-1) + A(I+1)
        IF (T .GT. 3) THEN
          IF (T .LT. 8) THEN
            FORALL (I = 1:N) A(I) = B(I)
          END IF
        END IF
      END DO|}))

let test_refuse_loop_variant_amount () =
  (* shift amount depends on the loop variable: not invariant *)
  let src =
    wrap {|      DO T = 1, 3
        FORALL (I = 1:N-3) B(I) = A(I+T)
      END DO|}
  in
  checkb "refuses: loop-variant shift amount" true (refuses src);
  (* and the program still runs correctly with the pass on *)
  let r_opt = messages (Driver.compile ~flags:hoist_only src) in
  let r_plain = messages (Driver.compile ~flags:Passes.all_off src) in
  checkb "finals bit-identical" true (nd_eq (Driver.final r_opt "B") (Driver.final r_plain "B"))

(* ------------------------------------------------------------------ *)
(* Coalescing: batch formation and determinism                         *)
(* ------------------------------------------------------------------ *)

let coalesce_src =
  wrap
    {|      FORALL (I = 1:N-1) B(I) = A(I+1)
      FORALL (I = 1:N-1) U(I) = U(I+1)|}

let test_coalesce_batches () =
  let opt = Driver.compile ~flags:coalesce_only coalesce_src in
  (match comm_batches opt.Driver.c_ir with
  | [ members ] -> Alcotest.(check int) "batch of two" 2 (List.length members)
  | l -> Alcotest.failf "expected one Comm_batch, found %d" (List.length l));
  let plain = Driver.compile ~flags:Passes.all_off coalesce_src in
  let r_opt = messages opt and r_plain = messages plain in
  checkb "coalescing strictly reduces messages" true
    (r_opt.Driver.stats.Stats.messages < r_plain.Driver.stats.Stats.messages);
  checkb "B bit-identical" true (nd_eq (Driver.final r_opt "B") (Driver.final r_plain "B"));
  checkb "U bit-identical" true (nd_eq (Driver.final r_opt "U") (Driver.final r_plain "U"))

let test_coalesce_refused_when_interleaved_write () =
  (* the second forall reads A after the first wrote it: no batching *)
  let src =
    wrap {|      FORALL (I = 1:N-1) A(I) = B(I+1)
      FORALL (I = 1:N-1) U(I) = A(I+1)|}
  in
  let opt = Driver.compile ~flags:coalesce_only src in
  checkb "no batch formed" true (comm_batches opt.Driver.c_ir = []);
  let r_opt = messages opt in
  let r_plain = messages (Driver.compile ~flags:Passes.all_off src) in
  checkb "finals bit-identical" true (nd_eq (Driver.final r_opt "U") (Driver.final r_plain "U"))

(* The batch wire format, pinned on the two coalescing corpus programs:
   exact message and byte totals, the number of packed sends (traced
   with a per-member [parts] split), and finals equal to the run with
   every pass off. *)
let test_batch_wire_format () =
  List.iter
    (fun (file, kind, finals, (msgs, bytes, packed)) ->
      let src = In_channel.with_open_bin (Filename.concat "corpus" file) In_channel.input_all in
      let compiled = Driver.compile ~flags:coalesce_only src in
      (match comm_batches compiled.Driver.c_ir with
      | [ ({ Ir.hc = c; _ } :: _ as members) ] ->
          Alcotest.(check string) (file ^ ": batch kind") kind (Ir.comm_name c);
          Alcotest.(check int) (file ^ ": batch of two") 2 (List.length members)
      | l -> Alcotest.failf "%s: expected one Comm_batch, found %d" file (List.length l));
      let r = messages ~trace:true compiled in
      let r_off = messages (Driver.compile ~flags:Passes.all_off src) in
      Alcotest.(check int) (file ^ ": messages") msgs r.Driver.stats.Stats.messages;
      Alcotest.(check int) (file ^ ": bytes") bytes r.Driver.stats.Stats.bytes;
      let tr = Option.get r.Driver.trace in
      let sends_with_parts =
        List.init (F90d_trace.Trace.nprocs tr) (fun rank ->
            Array.to_list (F90d_trace.Trace.events tr ~rank)
            |> List.filter (fun (e : F90d_trace.Trace.event) ->
                   match e.F90d_trace.Trace.kind with
                   | F90d_trace.Trace.Send { parts; _ } -> Array.length parts > 0
                   | _ -> false)
            |> List.length)
        |> List.fold_left ( + ) 0
      in
      Alcotest.(check int) (file ^ ": packed sends") packed sends_with_parts;
      List.iter
        (fun a ->
          checkb (file ^ ": " ^ a ^ " = all_off") true
            (nd_eq (Driver.final r a) (Driver.final r_off a)))
        finals)
    [
      ("batch_shift_mixed.f90d", "overlap_shift", [ "B"; "D" ], (39, 9408, 3));
      ("batch_transfer.f90d", "transfer", [ "A"; "C" ], (38, 49408, 2));
    ]

(* ------------------------------------------------------------------ *)
(* The replica cache on Gaussian elimination                           *)
(* ------------------------------------------------------------------ *)

let test_gauss_message_reduction () =
  let n = 32 in
  let src = Programs.gauss ~n in
  let r_on = messages ~nprocs:2 (Driver.compile ~flags:Passes.all_on src) in
  let r_off = messages ~nprocs:2 (Driver.compile ~flags:Passes.all_off src) in
  let m_on = r_on.Driver.stats.Stats.messages
  and m_off = r_off.Driver.stats.Stats.messages in
  checkb
    (Printf.sprintf "gauss messages drop >= 20%% (%d -> %d)" m_off m_on)
    true
    (float_of_int m_on <= 0.8 *. float_of_int m_off);
  checkb "gauss simulated time improves" true (r_on.Driver.elapsed < r_off.Driver.elapsed);
  checkb "gauss finals bit-identical" true (nd_eq (Driver.final r_on "A") (Driver.final r_off "A"))

let test_replica_cache_invalidation () =
  (* the multicast source is overwritten between repeats: the cache must
     miss and the values stay correct (vs the passes-off run) *)
  let src =
    wrap
      {|      DO T = 1, 4
        FORALL (I = 1:N) B(I) = B(I) + A(3)
        FORALL (I = 1:N) A(I) = A(I) + 1.0
      END DO|}
  in
  let r_on = messages (Driver.compile ~flags:Passes.all_on src) in
  let r_off = messages (Driver.compile ~flags:Passes.all_off src) in
  checkb "invalidated cache still bit-identical" true
    (nd_eq (Driver.final r_on "B") (Driver.final r_off "B"))

(* ------------------------------------------------------------------ *)
(* Profile reconciliation with batches in flight                       *)
(* ------------------------------------------------------------------ *)

let test_profile_reconciles_with_batches () =
  let compiled = Driver.compile ~flags:Passes.all_on coalesce_src in
  let r = messages ~trace:true compiled in
  let tr = match r.Driver.trace with Some t -> t | None -> Alcotest.fail "no trace" in
  let rows = F90d_trace.Analyze.per_stmt_profile tr in
  (match comm_batches compiled.Driver.c_ir with
  | [] -> Alcotest.fail "expected a batch in the optimized IR"
  | _ -> ());
  let msgs =
    List.fold_left (fun a (s : F90d_trace.Analyze.srow) -> a + s.F90d_trace.Analyze.s_msgs) 0 rows
  in
  let bytes =
    List.fold_left (fun a (s : F90d_trace.Analyze.srow) -> a + s.F90d_trace.Analyze.s_bytes) 0
      rows
  in
  Alcotest.(check int) "profile messages = Stats" r.Driver.stats.Stats.messages msgs;
  Alcotest.(check int) "profile bytes = Stats (batch bytes split to members)"
    r.Driver.stats.Stats.bytes bytes;
  (* both batch member statements are attributed traffic *)
  let batch_sids =
    comm_batches compiled.Driver.c_ir
    |> List.concat_map (List.map (fun (h : Ir.hoisted) -> h.Ir.hc_sid))
    |> List.sort_uniq compare
  in
  List.iter
    (fun sid ->
      let row =
        List.find_opt (fun (s : F90d_trace.Analyze.srow) -> s.F90d_trace.Analyze.s_sid = sid) rows
      in
      match row with
      | Some s -> checkb "member sid has bytes" true (s.F90d_trace.Analyze.s_bytes > 0)
      | None -> Alcotest.failf "batch member sid %d missing from profile" sid)
    batch_sids

(* ------------------------------------------------------------------ *)
(* Split-phase communication and lookahead (pass 6)                    *)
(* ------------------------------------------------------------------ *)

let split_only = { Passes.all_off with Passes.split_comm = true }
let split_la = { Passes.all_off with Passes.split_comm = true; Passes.lookahead = true }

let comm_issues ir =
  ir_fold (fun acc s -> match s.Ir.s with Ir.Comm_issue sp -> sp :: acc | _ -> acc) [] ir

let comm_waits ir =
  ir_fold (fun acc s -> match s.Ir.s with Ir.Comm_wait sp -> sp :: acc | _ -> acc) [] ir

let has_guard p ir =
  List.exists (fun (sp : Ir.split) -> p sp.Ir.sp_guard) (comm_issues ir)

let test_split_happens () =
  (* the multicast's issue can cross the preceding comm-free FORALL *)
  let src =
    wrap {|      FORALL (I = 1:N) B(I) = 2.0*A(I)
      FORALL (I = 1:N) B(I) = B(I) + A(3)|}
  in
  let opt = Driver.compile ~flags:split_only src in
  checkb "Comm_issue present" true (comm_issues opt.Driver.c_ir <> []);
  Alcotest.(check int) "every issue has its wait"
    (List.length (comm_issues opt.Driver.c_ir))
    (List.length (comm_waits opt.Driver.c_ir));
  let r_opt = messages opt in
  let r_plain = messages (Driver.compile ~flags:Passes.all_off src) in
  Alcotest.(check int) "splitting moves, never adds, messages"
    r_plain.Driver.stats.Stats.messages r_opt.Driver.stats.Stats.messages;
  checkb "finals bit-identical" true (nd_eq (Driver.final r_opt "B") (Driver.final r_plain "B"))

let test_split_refuse_intervening_write () =
  (* the statement just before the reader writes the multicast source:
     the issue cannot move, so the pair folds back to a blocking comm *)
  let src =
    wrap {|      FORALL (I = 1:N) A(I) = A(I) + 1.0
      FORALL (I = 1:N) B(I) = B(I) + A(3)|}
  in
  let opt = Driver.compile ~flags:split_only src in
  checkb "refuses: source written just before the reader" true
    (comm_issues opt.Driver.c_ir = [])

let test_split_refuse_conditional_use () =
  (* the reading FORALL sits first inside an IF arm: the issue must not
     escape the conditional (the comm would run when the arm does not) *)
  let src =
    wrap
      {|      T = 1
      FORALL (I = 1:N) B(I) = 2.0*A(I)
      IF (T .GT. 0) THEN
        FORALL (I = 1:N) B(I) = B(I) + A(3)
      END IF|}
  in
  let opt = Driver.compile ~flags:split_only src in
  checkb "refuses: use under a conditional" true (comm_issues opt.Driver.c_ir = []);
  let r_opt = messages opt in
  let r_plain = messages (Driver.compile ~flags:Passes.all_off src) in
  checkb "finals bit-identical" true (nd_eq (Driver.final r_opt "B") (Driver.final r_plain "B"))

let test_split_concurrent_trees () =
  (* regression (fuzz seed 347): several split multicasts in flight at
     once, rooted at different ranks — each tree must keep its own
     channel, or FIFO matching cross-delivers the slabs *)
  let src =
    {|      PROGRAM SPLITC
      INTEGER, PARAMETER :: N1 = 12
      INTEGER, PARAMETER :: N2 = 4
      INTEGER A1(N1)
      REAL A3(N1)
      REAL B1(N2, N2)
      REAL B2(N2, N2)
      INTEGER V(N1)
C$    DISTRIBUTE A1(BLOCK)
C$    DISTRIBUTE A3(BLOCK)
C$    DISTRIBUTE B1(BLOCK, *)
C$    DISTRIBUTE B2(*, BLOCK)
C$    DISTRIBUTE V(BLOCK)
      FORALL (I = 1:12) A1(I) = I
      FORALL (I = 1:12) V(I) = 2*I
      FORALL (I = 1:4, J = 1:4) B1(I, J) = I + J
      FORALL (I = 1:3:2, J = 1:4) B2(I, J) = 1
      A3 = (MIN((-2.25), A1(12)) - ABS((B1(1, 1) - V(5))))
      END
|}
  in
  let opt = Driver.compile ~flags:split_only src in
  checkb "three concurrent issues (sanity)" true
    (List.length (comm_issues opt.Driver.c_ir) >= 3);
  let r_opt = messages ~nprocs:4 opt in
  let r_plain = messages ~nprocs:4 (Driver.compile ~flags:Passes.all_off src) in
  checkb "concurrent trees deliver the right slabs" true
    (nd_eq (Driver.final r_opt "A3") (Driver.final r_plain "A3"))

let lookahead_loop =
  wrap {|      DO T = 1, 8
        FORALL (I = 1:N) B(I) = B(I) + A(T)
      END DO|}

let test_lookahead_pipelines () =
  let opt = Driver.compile ~flags:split_la lookahead_loop in
  checkb "prologue issue guarded on the loop tripping" true
    (has_guard (function Ir.Sg_trip _ -> true | _ -> false) opt.Driver.c_ir);
  checkb "in-body issue guarded on a next iteration" true
    (has_guard (function Ir.Sg_next _ -> true | _ -> false) opt.Driver.c_ir);
  let r_opt = messages opt in
  let r_plain = messages (Driver.compile ~flags:Passes.all_off lookahead_loop) in
  checkb "finals bit-identical" true (nd_eq (Driver.final r_opt "B") (Driver.final r_plain "B"));
  checkb "pipelining hides some receive latency" true
    (r_opt.Driver.stats.Stats.recv_wait_hidden > 0.)

let test_lookahead_refused_source_written () =
  (* a swap-like write to the source mid-step, followed by a statement
     that still communicates: the next step's issue has no safe slot *)
  let src =
    wrap
      {|      DO T = 1, 8
        FORALL (I = 1:N) B(I) = B(I) + A(T)
        FORALL (I = 1:N) A(I) = A(I) + 1.0
        FORALL (I = 1:N) U(I) = U(I) + B(3)
      END DO|}
  in
  let opt = Driver.compile ~flags:split_la src in
  checkb "no cross-iteration issue" true
    (not (has_guard (function Ir.Sg_next _ | Ir.Sg_trip _ -> true | _ -> false) opt.Driver.c_ir));
  let r_opt = messages opt in
  let r_plain = messages (Driver.compile ~flags:Passes.all_off src) in
  checkb "finals bit-identical" true (nd_eq (Driver.final r_opt "B") (Driver.final r_plain "B"))

let test_split_zero_trip_loop () =
  (* both lookahead guards evaluate false on a zero-trip loop: no issue
     fires, no wait blocks, and the comm count matches the plain run *)
  let src =
    wrap {|      DO T = 5, 1
        FORALL (I = 1:N) B(I) = B(I) + A(T)
      END DO|}
  in
  let opt = Driver.compile ~flags:split_la src in
  let r_opt = messages opt in
  let r_plain = messages (Driver.compile ~flags:Passes.all_off src) in
  Alcotest.(check int) "zero-trip loop adds no messages"
    r_plain.Driver.stats.Stats.messages r_opt.Driver.stats.Stats.messages;
  checkb "finals bit-identical" true (nd_eq (Driver.final r_opt "B") (Driver.final r_plain "B"))

let test_gauss_split_wait_reduction () =
  let src = Programs.gauss ~n:63 in
  let run flags = messages ~nprocs:4 (Driver.compile ~flags src) in
  let r_on = run Passes.all_on and r_off = run Passes.all_off in
  checkb "gauss finals bit-identical" true (nd_eq (Driver.final r_on "A") (Driver.final r_off "A"));
  checkb
    (Printf.sprintf "gauss recv_wait strictly lower (%.4f < %.4f)"
       r_on.Driver.stats.Stats.recv_wait r_off.Driver.stats.Stats.recv_wait)
    true
    (r_on.Driver.stats.Stats.recv_wait < r_off.Driver.stats.Stats.recv_wait);
  checkb "gauss hides receive latency" true (r_on.Driver.stats.Stats.recv_wait_hidden > 0.);
  checkb "gauss elapsed no worse" true (r_on.Driver.elapsed <= r_off.Driver.elapsed)

(* Split-phase slots, temporaries and replicas belong to one CALL
   instance: ACC's DO loop issues each column's multicast a step early
   and serves the second read of the column from the replica cache, and
   the caller doubles X between the two calls, so nothing of the first
   instance may reach the second. *)
let call_instance_src =
  {|
      PROGRAM INST
      REAL X(16, 8), T(16), S
C$    PROCESSORS P(4)
C$    DISTRIBUTE X(*, BLOCK)
C$    DISTRIBUTE T(BLOCK)
      FORALL (I = 1:16, J = 1:8) X(I, J) = I + J - 1
      CALL ACC(X, T)
      FORALL (I = 1:16, J = 1:8) X(I, J) = 2 * X(I, J)
      CALL ACC(X, T)
      S = SUM(T)
      END

      SUBROUTINE ACC(X, T)
      REAL X(16, 8), T(16), C(16)
      INTEGER K
C$    PROCESSORS P(4)
C$    DISTRIBUTE X(*, BLOCK)
C$    DISTRIBUTE T(BLOCK)
C$    DISTRIBUTE C(BLOCK)
      DO K = 1, 8
        FORALL (I = 1:16) C(I) = X(I, K)
        FORALL (I = 1:16) T(I) = T(I) + X(I, K) * 0.5 + C(I)
      END DO
      END
|}

let test_call_instance_state () =
  let compiled flags = Driver.compile ~flags call_instance_src in
  let on = compiled Passes.all_on in
  checkb "ACC's multicasts are split-phase" true (comm_issues on.Driver.c_ir <> []);
  let run c = messages ~nprocs:4 c in
  let r_on = run on and r_off = run (compiled Passes.all_off) in
  let r_nk = run (compiled { Passes.all_on with Passes.blocked_kernels = false }) in
  checkb "the replica cache serves repeated columns" true
    (r_on.Driver.stats.Stats.messages < r_off.Driver.stats.Stats.messages);
  List.iter
    (fun (name, r) ->
      List.iter
        (fun arr ->
          checkb (name ^ ": " ^ arr ^ " bit-identical") true
            (nd_eq (Driver.final r_on arr) (Driver.final r arr)))
        [ "X"; "T" ];
      checkb (name ^ ": S") true (Driver.final_scalar r "S" = F90d_base.Scalar.Real 6912.))
    [ ("all on", r_on); ("all off", r_off); ("no blocked kernels", r_nk) ]

(* ------------------------------------------------------------------ *)
(* Explain annotations                                                 *)
(* ------------------------------------------------------------------ *)

let test_explain_annotations () =
  let has txt s =
    try
      ignore (Str.search_forward (Str.regexp_string s) txt 0);
      true
    with Not_found -> false
  in
  let hoisted = Driver.compile ~flags:hoist_only invariant_loop in
  let txt = F90d_report.Report.explain_text hoisted.Driver.c_ir in
  checkb "explain mentions hoisting" true (has txt "hoisted out of DO T");
  let batched = Driver.compile ~flags:coalesce_only coalesce_src in
  let txt = F90d_report.Report.explain_text batched.Driver.c_ir in
  checkb "explain mentions the batch" true (has txt "[batch of 2]");
  checkb "explain mentions coalesced member" true (has txt "coalesced into stmt")

let () =
  Alcotest.run "commopt"
    [
      ( "hoist",
        [
          Alcotest.test_case "hoists invariant comm" `Quick test_hoist_happens;
          Alcotest.test_case "zero-trip loop guarded" `Quick test_hoist_zero_trip_loop;
          Alcotest.test_case "refuses written source" `Quick test_refuse_source_written;
          Alcotest.test_case "refuses scatter-written source" `Quick test_refuse_scatter_write;
          Alcotest.test_case "refuses write under nested if" `Quick
            test_refuse_write_under_nested_if;
          Alcotest.test_case "refuses loop-variant amount" `Quick
            test_refuse_loop_variant_amount;
        ] );
      ( "coalesce",
        [
          Alcotest.test_case "batches same-direction shifts" `Quick test_coalesce_batches;
          Alcotest.test_case "refuses interleaved write" `Quick
            test_coalesce_refused_when_interleaved_write;
          Alcotest.test_case "batch wire format" `Quick test_batch_wire_format;
          Alcotest.test_case "gauss >= 20% fewer messages" `Quick
            test_gauss_message_reduction;
          Alcotest.test_case "replica cache invalidates on write" `Quick
            test_replica_cache_invalidation;
        ] );
      ( "split",
        [
          Alcotest.test_case "splits across a crossable stmt" `Quick test_split_happens;
          Alcotest.test_case "refuses intervening write" `Quick
            test_split_refuse_intervening_write;
          Alcotest.test_case "refuses conditional use" `Quick test_split_refuse_conditional_use;
          Alcotest.test_case "concurrent trees keep channels" `Quick
            test_split_concurrent_trees;
          Alcotest.test_case "lookahead pipelines the loop" `Quick test_lookahead_pipelines;
          Alcotest.test_case "lookahead refuses written source" `Quick
            test_lookahead_refused_source_written;
          Alcotest.test_case "zero-trip loop guarded" `Quick test_split_zero_trip_loop;
          Alcotest.test_case "gauss hides receive latency" `Quick
            test_gauss_split_wait_reduction;
          Alcotest.test_case "per-CALL-instance state" `Quick test_call_instance_state;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "profile = Stats with batches" `Quick
            test_profile_reconciles_with_batches;
          Alcotest.test_case "explain annotations" `Quick test_explain_annotations;
        ] );
    ]
