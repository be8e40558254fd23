(* The tracing subsystem (lib/trace): the analyses must agree with the
   independently-collected Stats, and a disabled trace handle must be an
   exact no-op.  The Chrome export is validated with a small JSON
   parser kept inside this test (no new dependencies). *)

open F90d
open F90d_machine
open F90d_trace

(* ------------------------------------------------------------------ *)
(* A minimal JSON validator (syntax only)                              *)
(* ------------------------------------------------------------------ *)

module Json_check = struct
  exception Bad of string

  let validate s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal w =
      String.iter expect w
    in
    let string_ () =
      expect '"';
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
                advance ();
                go ()
            | Some 'u' ->
                advance ();
                for _ = 1 to 4 do
                  match peek () with
                  | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                  | _ -> fail "bad \\u escape"
                done;
                go ()
            | _ -> fail "bad escape")
        | Some c when Char.code c < 0x20 -> fail "control char in string"
        | Some _ ->
            advance ();
            go ()
      in
      go ()
    in
    let number () =
      let digits () =
        let saw = ref false in
        let rec go () =
          match peek () with
          | Some '0' .. '9' ->
              saw := true;
              advance ();
              go ()
          | _ -> ()
        in
        go ();
        if not !saw then fail "expected digit"
      in
      (match peek () with Some '-' -> advance () | _ -> ());
      digits ();
      (match peek () with
      | Some '.' ->
          advance ();
          digits ()
      | _ -> ());
      match peek () with
      | Some ('e' | 'E') ->
          advance ();
          (match peek () with Some ('+' | '-') -> advance () | _ -> ());
          digits ()
      | _ -> ()
    in
    let rec value () =
      skip_ws ();
      (match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then advance ()
          else
            let rec members () =
              skip_ws ();
              string_ ();
              skip_ws ();
              expect ':';
              value ();
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ()
              | Some '}' -> advance ()
              | _ -> fail "expected ',' or '}'"
            in
            members ()
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then advance ()
          else
            let rec elements () =
              value ();
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements ()
              | Some ']' -> advance ()
              | _ -> fail "expected ',' or ']'"
            in
            elements ()
      | Some '"' -> string_ ()
      | Some 't' -> literal "true"
      | Some 'f' -> literal "false"
      | Some 'n' -> literal "null"
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> fail "expected value");
      skip_ws ()
    in
    value ();
    skip_ws ();
    if !pos <> n then fail "trailing garbage"
end

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let run ?(trace = true) ~nprocs compiled =
  Driver.run ~collect_finals:false ~model:Model.ipsc860 ~topology:Topology.Hypercube ~trace
    ~nprocs compiled

let cases =
  [
    ("gauss", Programs.gauss ~n:48);
    ("jacobi", Programs.jacobi ~n:37 ~iters:6);
    ("irregular", Programs.irregular ~n:40);
  ]

let trace_of (r : Driver.run_result) =
  match r.Driver.trace with
  | Some tr -> tr
  | None -> Alcotest.fail "run ~trace:true returned no trace"

(* ------------------------------------------------------------------ *)
(* Chrome export is well-formed JSON                                   *)
(* ------------------------------------------------------------------ *)

let test_chrome_json_valid () =
  List.iter
    (fun (name, src) ->
      let r = run ~nprocs:4 (Driver.compile src) in
      let js = Trace.to_chrome_json (trace_of r) in
      match Json_check.validate js with
      | () -> ()
      | exception Json_check.Bad msg -> Alcotest.fail (name ^ ": invalid JSON: " ^ msg))
    cases

(* ------------------------------------------------------------------ *)
(* Critical path tiles [0, elapsed]                                    *)
(* ------------------------------------------------------------------ *)

let test_critical_path_total () =
  List.iter
    (fun (name, src) ->
      let compiled = Driver.compile src in
      List.iter
        (fun nprocs ->
          let r = run ~nprocs compiled in
          let segs = Analyze.critical_path (trace_of r) in
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s nprocs=%d: critical path = elapsed" name nprocs)
            r.Driver.elapsed (Analyze.total segs);
          (* segments are contiguous and chronological *)
          ignore
            (List.fold_left
               (fun t (s : Analyze.segment) ->
                 Alcotest.(check (float 0.))
                   (name ^ ": segments contiguous") t s.Analyze.sg_t0;
                 s.Analyze.sg_t1)
               0. segs))
        [ 4; 16 ])
    cases

(* ------------------------------------------------------------------ *)
(* Profile agrees with the independently-collected Stats               *)
(* ------------------------------------------------------------------ *)

let test_profile_matches_stats () =
  List.iter
    (fun (name, src) ->
      let r = run ~nprocs:8 (Driver.compile src) in
      let tr = trace_of r in
      let prof = Analyze.per_tag_profile tr in
      (* per-tag messages and bytes equal Stats.per_tag *)
      Alcotest.(check bool)
        (name ^ ": per-tag profile = Stats.per_tag")
        true
        (List.map (fun p -> (p.Analyze.p_tag, (p.Analyze.p_msgs, p.Analyze.p_bytes))) prof
        = Stats.per_tag r.Driver.stats);
      (* totals equal Stats.t *)
      Alcotest.(check int)
        (name ^ ": profile total bytes = stats.bytes")
        r.Driver.stats.Stats.bytes
        (List.fold_left (fun acc p -> acc + p.Analyze.p_bytes) 0 prof);
      Alcotest.(check int)
        (name ^ ": profile total messages = stats.messages")
        r.Driver.stats.Stats.messages
        (List.fold_left (fun acc p -> acc + p.Analyze.p_msgs) 0 prof);
      Alcotest.(check (float 1e-9))
        (name ^ ": profile total wait = stats.recv_wait")
        r.Driver.stats.Stats.recv_wait
        (List.fold_left (fun acc p -> acc +. p.Analyze.p_wait_s) 0. prof);
      (* family breakdown matches Stats.breakdown (same grouping+order) *)
      Alcotest.(check bool)
        (name ^ ": family breakdown = Stats.breakdown")
        true
        (List.map (fun (nm, m, b, _, _, _) -> (nm, m, b))
           (Analyze.breakdown tr ~name_of:F90d_runtime.Tags.family_name)
        = Stats.breakdown r.Driver.stats ~name_of:F90d_runtime.Tags.family_name))
    cases

(* ------------------------------------------------------------------ *)
(* Disabled tracing is an exact no-op                                  *)
(* ------------------------------------------------------------------ *)

let test_disabled_no_op () =
  List.iter
    (fun (name, src) ->
      let compiled = Driver.compile src in
      let off = run ~trace:false ~nprocs:8 compiled in
      let on = run ~trace:true ~nprocs:8 compiled in
      Alcotest.(check bool) (name ^ ": no trace when off") true (off.Driver.trace = None);
      Alcotest.(check (float 0.)) (name ^ ": elapsed unchanged") on.Driver.elapsed
        off.Driver.elapsed;
      Alcotest.(check (array (float 0.))) (name ^ ": clocks unchanged") on.Driver.clocks
        off.Driver.clocks;
      Alcotest.(check int) (name ^ ": messages unchanged") on.Driver.stats.Stats.messages
        off.Driver.stats.Stats.messages;
      Alcotest.(check int) (name ^ ": bytes unchanged") on.Driver.stats.Stats.bytes
        off.Driver.stats.Stats.bytes;
      Alcotest.(check (float 0.)) (name ^ ": recv_wait unchanged")
        on.Driver.stats.Stats.recv_wait off.Driver.stats.Stats.recv_wait;
      Alcotest.(check int) (name ^ ": sched_builds unchanged")
        on.Driver.stats.Stats.sched_builds off.Driver.stats.Stats.sched_builds;
      Alcotest.(check int) (name ^ ": sched_hits unchanged")
        on.Driver.stats.Stats.sched_hits off.Driver.stats.Stats.sched_hits;
      Alcotest.(check bool) (name ^ ": per-tag unchanged") true
        (Stats.per_tag on.Driver.stats = Stats.per_tag off.Driver.stats))
    cases

(* ------------------------------------------------------------------ *)
(* Trace contents: compute accumulator and clock bookkeeping           *)
(* ------------------------------------------------------------------ *)

let test_clock_decomposition () =
  (* final clock = charged compute + send busy + receive wait, per rank;
     relays live on the message-system timeline, not the CPU's *)
  let r = run ~nprocs:8 (Driver.compile (Programs.gauss ~n:48)) in
  let tr = trace_of r in
  for rank = 0 to Trace.nprocs tr - 1 do
    let send_busy = ref 0. and wait = ref 0. in
    Array.iter
      (fun (e : Trace.event) ->
        match e.Trace.kind with
        | Trace.Send { relay = true; _ } -> ()
        | Trace.Send _ -> send_busy := !send_busy +. (e.Trace.t1 -. e.Trace.t0)
        | Trace.Recv _ -> wait := !wait +. (e.Trace.t1 -. e.Trace.t0)
        | _ -> ())
      (Trace.events tr ~rank);
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "p%d: clock = compute + send + wait" rank)
      (Trace.clocks tr).(rank)
      (Trace.compute_time tr ~rank +. !send_busy +. !wait)
  done

(* ------------------------------------------------------------------ *)
(* Satellite: Deadlock payload names awaited and pending channels      *)
(* ------------------------------------------------------------------ *)

let test_deadlock_payload () =
  (* p0 sends tag 7 then waits for an answer that never comes; p1 waits
     for tag 8 — the mailbox holds the tag-7 message, the await is
     (src=0, tag=8).  Both facts must appear in the exception. *)
  let cfg = Engine.config 2 in
  match
    Engine.run cfg (fun ctx ->
        if Engine.rank ctx = 0 then begin
          Engine.send ctx ~dest:1 ~tag:7 Message.Empty;
          ignore (Engine.recv ctx ~src:1 ~tag:9)
        end
        else ignore (Engine.recv ctx ~src:0 ~tag:8))
  with
  | _ -> Alcotest.fail "expected deadlock"
  | exception Engine.Deadlock msg ->
      let contains needle =
        Alcotest.(check bool)
          (Printf.sprintf "deadlock message contains %S" needle)
          true
          (let re = Str.regexp_string needle in
           try
             ignore (Str.search_forward re msg 0);
             true
           with Not_found -> false)
      in
      contains "(src=0,tag=8)";
      (* the pending tag-7 message is listed for the blocked receiver *)
      contains "(src=0,tag=7)";
      (* p0 waits on an empty mailbox *)
      contains "(src=1,tag=9)"

(* ------------------------------------------------------------------ *)
(* Satellite: Stats ordering and topology hop charging                 *)
(* ------------------------------------------------------------------ *)

let test_stats_ordering () =
  let r = run ~trace:false ~nprocs:8 (Driver.compile (Programs.irregular ~n:40)) in
  let pt = Stats.per_tag r.Driver.stats in
  Alcotest.(check bool) "per_tag sorted by tag" true
    (List.sort (fun (a, _) (b, _) -> compare a b) pt = pt);
  Alcotest.(check bool) "per_tag non-trivial" true (List.length pt > 1);
  let bd = Stats.breakdown r.Driver.stats ~name_of:F90d_runtime.Tags.family_name in
  let msgs = List.map (fun (_, m, _) -> m) bd in
  Alcotest.(check bool) "breakdown sorted most-messages-first" true
    (List.sort (fun a b -> compare b a) msgs = msgs);
  (* breakdown totals = per_tag totals *)
  Alcotest.(check int) "breakdown msgs total"
    (List.fold_left (fun acc (_, (m, _)) -> acc + m) 0 pt)
    (List.fold_left (fun acc (_, m, _) -> acc + m) 0 bd);
  Alcotest.(check int) "breakdown bytes total"
    (List.fold_left (fun acc (_, (_, b)) -> acc + b) 0 pt)
    (List.fold_left (fun acc (_, _, b) -> acc + b) 0 bd)

let test_hop_charging () =
  (* A model where only the per-hop latency is non-zero isolates the
     topology term: p0 -> p7 in an 8-node hypercube is 3 hops (2 beyond
     the first), on a crossbar 1 hop.  The receiver starts at clock 0,
     so its wait time is exactly the arrival time. *)
  let model = { Model.ideal with Model.name = "hops"; Model.hop = 1e-3 } in
  let wait topology =
    let cfg = Engine.config ~model ~topology ~tracing:true 8 in
    let report =
      Engine.run cfg (fun ctx ->
          if Engine.rank ctx = 0 then Engine.send ctx ~dest:7 ~tag:7 Message.Empty
          else if Engine.rank ctx = 7 then ignore (Engine.recv ctx ~src:0 ~tag:7))
    in
    report.Engine.stats.Stats.recv_wait
  in
  Alcotest.(check (float 0.)) "crossbar: no hop latency" 0. (wait Topology.Full);
  Alcotest.(check (float 1e-12)) "hypercube: 2 extra hops charged" 2e-3
    (wait Topology.Hypercube);
  (* the wire segment of the critical path carries the hop latency too *)
  let cfg = Engine.config ~model ~topology:Topology.Hypercube ~tracing:true 8 in
  let report =
    Engine.run cfg (fun ctx ->
        if Engine.rank ctx = 0 then Engine.send ctx ~dest:7 ~tag:7 Message.Empty
        else if Engine.rank ctx = 7 then ignore (Engine.recv ctx ~src:0 ~tag:7))
  in
  let tr = Option.get report.Engine.trace in
  let segs = Analyze.critical_path tr in
  let wire =
    List.exists
      (fun (s : Analyze.segment) ->
        match s.Analyze.sg_kind with
        | Analyze.Wire { src = 0; tag = 7; _ } ->
            abs_float (s.Analyze.sg_t1 -. s.Analyze.sg_t0 -. 2e-3) < 1e-12
        | _ -> false)
      segs
  in
  Alcotest.(check bool) "critical path has the 2-hop wire segment" true wire

let () =
  Alcotest.run "f90d_trace"
    [
      ( "chrome export",
        [ Alcotest.test_case "validates as JSON" `Quick test_chrome_json_valid ] );
      ( "critical path",
        [
          Alcotest.test_case "total = elapsed, contiguous tiling" `Quick
            test_critical_path_total;
        ] );
      ( "profile",
        [
          Alcotest.test_case "agrees with Stats" `Quick test_profile_matches_stats;
          Alcotest.test_case "clock = compute + send + wait" `Quick test_clock_decomposition;
        ] );
      ( "zero-cost when off",
        [ Alcotest.test_case "disabled handle is a no-op" `Quick test_disabled_no_op ] );
      ( "satellites",
        [
          Alcotest.test_case "deadlock payload lists channels" `Quick test_deadlock_payload;
          Alcotest.test_case "stats ordering invariants" `Quick test_stats_ordering;
          Alcotest.test_case "topology hop charging" `Quick test_hop_charging;
        ] );
    ]
