(* f90dc — the Fortran 90D/HPF compiler driver.

   Compiles a Fortran 90D/HPF source file, optionally emits the generated
   Fortran 77+MP node program, and/or executes it on the simulated
   distributed-memory machine.  --serve turns the same compiler into a
   persistent daemon behind a Unix-domain socket; --client scripts it. *)

open Cmdliner

let read_source = function
  | "-" -> In_channel.input_all stdin
  | path -> In_channel.with_open_text path In_channel.input_all

let demo_source name nprocs =
  let n =
    match Sys.getenv_opt "F90D_DEMO_N" with
    | Some s -> (try max 4 (int_of_string (String.trim s)) with _ -> 64)
    | None -> 64
  in
  F90d_serve.Service.demo_source name ~nprocs ~n

(* ------------------------------------------------------------------ *)
(* Service mode                                                        *)
(* ------------------------------------------------------------------ *)

module Log = F90d_obs.Log

let serve_cmd sock cache_dir no_cache request_timeout serve_workers log_slow =
  let store =
    if no_cache then None
    else
      let dir =
        match cache_dir with
        | Some d -> d
        | None -> F90d_serve.Store.default_dir ()
      in
      Some (F90d_serve.Store.create ~dir)
  in
  let workers =
    match serve_workers with Some n -> n | None -> 0 (* Server picks its default *)
  in
  let service =
    F90d_serve.Service.create ?store
      ?timeout:request_timeout ?slow:log_slow
      ~workers:(if workers > 0 then workers else 1)
      ()
  in
  let srv =
    if workers > 0 then F90d_serve.Server.start ~workers ~service ~sock_path:sock ()
    else F90d_serve.Server.start ~service ~sock_path:sock ()
  in
  Printf.printf "f90dc: serving on %s (%s, f90d_cache_version %d)%s\n%!" sock
    F90d_base.Util.package_version F90d_base.Util.cache_version
    (match store with
    | Some st -> Printf.sprintf " (schedule store: %s)" (F90d_serve.Store.dir st)
    | None -> " (caching disabled)");
  Log.info "daemon_start"
    [
      ("socket", Log.S sock);
      ("version", Log.S F90d_base.Util.package_version);
      ("cache_version", Log.I F90d_base.Util.cache_version);
      ( "store",
        Log.S
          (match store with Some st -> F90d_serve.Store.dir st | None -> "disabled") );
    ];
  F90d_serve.Server.wait srv;
  Log.info "daemon_stop" [ ("socket", Log.S sock) ];
  Printf.printf "f90dc: daemon on %s stopped\n%!" sock

(* Forward newline-delimited JSON requests from stdin, one frame each,
   and print one response per line. *)
let client_cmd sock =
  F90d_serve.Client.with_conn sock (fun conn ->
      let rec loop () =
        match In_channel.input_line stdin with
        | None -> ()
        | Some line when String.trim line = "" -> loop ()
        | Some line ->
            let reply = F90d_serve.Client.request_raw conn line in
            print_endline reply;
            loop ()
      in
      try loop ()
      with F90d_serve.Wire.Closed ->
        prerr_endline "f90dc: daemon closed the connection")

(* Scrape a running daemon: one metrics request, print the exposition
   text — `f90dc --metrics /run/f90d.sock | promtool check metrics`. *)
let metrics_cmd sock =
  F90d_serve.Client.with_conn sock (fun conn ->
      let reply =
        F90d_serve.Client.request conn (F90d_serve.Json.Obj [ ("op", F90d_serve.Json.Str "metrics") ])
      in
      match F90d_serve.Json.mem reply "body" with
      | Some body when F90d_serve.Json.str body <> None ->
          print_string (Option.get (F90d_serve.Json.str body))
      | _ ->
          failwith
            (match F90d_serve.Json.mem reply "error" with
            | Some e when F90d_serve.Json.str e <> None ->
                "daemon refused the metrics request: " ^ Option.get (F90d_serve.Json.str e)
            | _ -> "daemon returned no metrics body"))

(* ------------------------------------------------------------------ *)
(* One-shot mode                                                       *)
(* ------------------------------------------------------------------ *)

let run_cmd source demo nprocs machine emit explain explain_json profile_json no_opt
    no_passes show_finals trace profile log_comm serve client cache_dir no_cache
    request_timeout serve_workers metrics_sock metrics_out log_file log_level log_slow =
  try
    (match log_file with Some path -> Log.set_file path | None -> ());
    (match log_level with
    | Some s -> (
        match Log.level_of_string s with
        | Ok l -> Log.set_level l
        | Error msg -> failwith msg)
    | None -> ());
    match (serve, client, metrics_sock) with
    | Some sock, _, _ ->
        serve_cmd sock cache_dir no_cache request_timeout serve_workers log_slow;
        `Ok ()
    | None, Some sock, _ ->
        client_cmd sock;
        `Ok ()
    | None, None, Some sock ->
        metrics_cmd sock;
        `Ok ()
    | None, None, None ->
        let t_start = Unix.gettimeofday () in
        if log_comm then begin
          Logs.set_reporter (Logs.format_reporter ());
          Logs.Src.set_level F90d_exec.Interp.log_src (Some Logs.Debug)
        end;
        let nprocs = max 1 nprocs in
        let src =
          match (demo, source) with
          | Some d, _ -> demo_source d nprocs
          | None, Some path -> read_source path
          | None, None -> read_source "-"
        in
        let flags = F90d_serve.Service.flags_of_names ~no_opt no_passes in
        let compiled = F90d.Driver.compile ~flags src in
        let metrics_store = ref None in
        let metrics_run = ref None in
        if emit then print_string (F90d_ir.Emit_f77.emit_program compiled.F90d.Driver.c_ir)
        else if explain then
          print_string (F90d_report.Report.explain_text compiled.F90d.Driver.c_ir)
        else if explain_json then
          print_string (F90d_report.Report.explain_json compiled.F90d.Driver.c_ir)
        else begin
          let model = F90d_serve.Service.model_of_name machine in
          let topology =
            if F90d_base.Util.is_pow2 nprocs then F90d_machine.Topology.Hypercube
            else F90d_machine.Topology.Full
          in
          let tracing = trace <> None || profile || profile_json <> None in
          let store =
            match (cache_dir, no_cache) with
            | Some dir, false -> Some (F90d_serve.Store.create ~dir)
            | _ -> None
          in
          let sio =
            F90d_serve.Service.sched_io store ~use:(store <> None) ~source:src ~flags ~nprocs
          in
          let poll =
            match request_timeout with
            | Some s when s > 0. ->
                let deadline = Unix.gettimeofday () +. s in
                Some
                  (fun () ->
                    if Unix.gettimeofday () > deadline then
                      raise (F90d_serve.Service.Timed_out s))
            | _ -> None
          in
          let result =
            F90d.Driver.run ~collect_finals:show_finals ~model ~topology ~trace:tracing
              ?poll ?sched_preload:sio.F90d_serve.Service.sio_preload
              ?sched_collect:sio.F90d_serve.Service.sio_collect ~nprocs compiled
          in
          sio.F90d_serve.Service.sio_commit ();
          metrics_store := store;
          metrics_run := Some result;
          Log.info "run_done"
            [
              ("nprocs", Log.I nprocs);
              ("machine", Log.S model.F90d_machine.Model.name);
              ("sim_elapsed_s", Log.F result.F90d.Driver.elapsed);
              ("messages", Log.I result.F90d.Driver.stats.F90d_machine.Stats.messages);
              ( "sched_builds",
                Log.I result.F90d.Driver.stats.F90d_machine.Stats.sched_builds );
              ("host_s", Log.F (Unix.gettimeofday () -. t_start));
            ];
          print_string result.F90d.Driver.outcome.F90d_exec.Interp.output;
          Printf.printf "--- %d processors on %s ---\n" nprocs model.F90d_machine.Model.name;
          Printf.printf "simulated time : %.6f s\n" result.F90d.Driver.elapsed;
          Printf.printf "messages       : %d (%d bytes)\n"
            result.F90d.Driver.stats.F90d_machine.Stats.messages
            result.F90d.Driver.stats.F90d_machine.Stats.bytes;
          (match store with
          | Some st ->
              Printf.printf "schedule store : %s (%s)\n"
                sio.F90d_serve.Service.sio_temp (F90d_serve.Store.dir st)
          | None -> ());
          (match (result.F90d.Driver.trace, trace) with
          | Some tr, Some file ->
              Out_channel.with_open_text file (fun oc ->
                  Out_channel.output_string oc (F90d_trace.Trace.to_chrome_json tr));
              Printf.printf "trace          : %s (%d events)\n" file
                (F90d_trace.Trace.total_events tr)
          | _ -> ());
          (match result.F90d.Driver.trace with
          | Some tr when profile ->
              print_string
                (F90d_trace.Analyze.render_profile tr ~name_of:F90d_runtime.Tags.family_name);
              print_newline ();
              print_string
                (F90d_report.Report.hot_text
                   (F90d_report.Report.hot_statements compiled.F90d.Driver.c_ir tr))
          | _ -> ());
          (match (result.F90d.Driver.trace, profile_json) with
          | Some tr, Some file ->
              Out_channel.with_open_text file (fun oc ->
                  Out_channel.output_string oc
                    (F90d_report.Report.profile_json compiled.F90d.Driver.c_ir tr));
              Printf.printf "profile json   : %s\n" file
          | _ -> ());
          if show_finals then
            List.iter
              (fun (name, arr) ->
                Format.printf "%s = %a@." name F90d_base.Ndarray.pp arr)
              result.F90d.Driver.outcome.F90d_exec.Interp.finals
        end;
        (* One-shot metrics dump: the same families the daemon's metrics
           op exposes, with this invocation counted as one request. *)
        (match metrics_out with
        | None -> ()
        | Some path ->
            let tel =
              F90d_serve.Telemetry.create ?store:!metrics_store ~started:t_start
                ~ops:F90d_serve.Service.ops ()
            in
            let op =
              if emit then "compile" else if explain || explain_json then "explain" else "run"
            in
            F90d_serve.Telemetry.count_request tel op;
            F90d_serve.Telemetry.observe_duration tel op (Unix.gettimeofday () -. t_start);
            (match !metrics_run with
            | Some r ->
                F90d_serve.Telemetry.observe_run tel ~elapsed:r.F90d.Driver.elapsed
                  r.F90d.Driver.stats
            | None -> ());
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc (F90d_serve.Telemetry.render tel));
            Printf.printf "metrics        : %s\n" path);
        `Ok ()
  with
  | F90d_base.Diag.Error (loc, msg) ->
      `Error (false, Format.asprintf "%a: %s" F90d_base.Loc.pp loc msg)
  | F90d_serve.Service.Timed_out s ->
      `Error (false, Printf.sprintf "run exceeded its %gs wall-clock limit" s)
  | Failure msg | Invalid_argument msg -> `Error (false, msg)
  | Unix.Unix_error (e, fn, arg) ->
      `Error (false, Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e))

let source =
  let doc = "Fortran 90D/HPF source file ('-' for stdin)." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let demo =
  let doc =
    "Compile a built-in demo program: gauss, gauss-cyclic, jacobi, jacobi2d, irregular, \
     fft.  The F90D_DEMO_N environment variable overrides the problem size (default 64)."
  in
  Arg.(value & opt (some string) None & info [ "demo" ] ~docv:"NAME" ~doc)

let nprocs =
  let doc = "Number of simulated processors." in
  Arg.(value & opt int 4 & info [ "p"; "nprocs" ] ~docv:"P" ~doc)

let machine =
  let doc = "Machine model: ipsc860, ncube2 or ideal." in
  Arg.(value & opt string "ipsc860" & info [ "machine" ] ~docv:"MODEL" ~doc)

let emit =
  let doc = "Emit the generated Fortran 77+MP node program instead of running." in
  Arg.(value & flag & info [ "emit-f77" ] ~doc)

let explain =
  let doc =
    "Print the compilation report instead of running: per comm-bearing statement, the \
     detected subscript patterns, the Table 1/2 classification with its reason, the \
     distribution facts and the communication primitives emitted."
  in
  Arg.(value & flag & info [ "explain" ] ~doc)

let explain_json =
  let doc = "Like --explain, but emit the report as a JSON document on stdout." in
  Arg.(value & flag & info [ "explain-json" ] ~doc)

let profile_json =
  let doc =
    "Run with tracing and write the per-statement profile (messages, bytes, send-busy, \
     recv-wait, critical-path share, joined with the compile-time decision) to $(docv) as \
     JSON."
  in
  Arg.(value & opt (some string) None & info [ "profile-json" ] ~docv:"FILE" ~doc)

let no_opt =
  let doc = "Disable the communication optimizations of the paper's section 7." in
  Arg.(value & flag & info [ "no-opt" ] ~doc)

(* Per-pass disables in the familiar -fno-<pass> spelling.  Cmdliner has
   no single-dash long options, so each is declared as its own flag and
   folded into a list of pass names to turn off. *)
let no_passes =
  let pass name doc =
    Arg.(
      value & flag
      & info [ "fno-" ^ name ] ~doc:(Printf.sprintf "Disable the %s optimization pass." doc))
  in
  let combine su fm sr hc co sp la bk =
    List.concat
      [
        (if su then [ "shift-union" ] else []);
        (if fm then [ "fuse-mshift" ] else []);
        (if sr then [ "schedule-reuse" ] else []);
        (if hc then [ "hoist-comm" ] else []);
        (if co then [ "coalesce" ] else []);
        (if sp then [ "split-comm" ] else []);
        (if la then [ "lookahead" ] else []);
        (if bk then [ "blocked-kernels" ] else []);
      ]
  in
  Term.(
    const combine
    $ pass "shift-union" "shift-union (merge opposite-direction overlap shifts)"
    $ pass "fuse-mshift" "multicast-shift fusion"
    $ pass "schedule-reuse" "inspector schedule reuse"
    $ pass "hoist-comm" "loop-invariant communication hoisting"
    $ pass "coalesce" "cross-statement message coalescing (and its replica cache)"
    $ pass "split-comm" "split-phase communication (issue/wait overlap)"
    $ pass "lookahead" "loop-carried multicast lookahead pipelining"
    $ pass "blocked-kernels" "blocked node-kernel execution layer (plan cache, fused updates)")

let show_finals =
  let doc = "Print the final contents of every array of the main program." in
  Arg.(value & flag & info [ "show-arrays" ] ~doc)

let trace =
  let doc =
    "Record every send, receive, collective and compute span and write the run's trace to \
     $(docv) in Chrome trace_event JSON (load in chrome://tracing or https://ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let profile =
  let doc =
    "Print a communication profile (per-primitive/per-tag time and bytes, critical path) \
     after the run."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let log_comm =
  let doc = "Log every communication primitive to stderr as the node programs execute." in
  Arg.(value & flag & info [ "log-comm" ] ~doc)

let serve =
  let doc =
    "Run as a compile-and-simulate daemon on the Unix-domain socket $(docv): accepts \
     length-prefixed JSON requests (ops: compile, run, trace, explain, profile, stats, \
     shutdown), dispatches them to a pool of worker domains, and answers through a \
     three-level content-addressed cache (front IR, optimized IR, persisted PARTI \
     schedules)."
  in
  Arg.(value & opt (some string) None & info [ "serve" ] ~docv:"SOCK" ~doc)

let client =
  let doc =
    "Connect to a daemon at $(docv), forward one JSON request per stdin line, and print \
     one JSON response per line."
  in
  Arg.(value & opt (some string) None & info [ "client" ] ~docv:"SOCK" ~doc)

let cache_dir =
  let doc =
    "Directory of the persistent schedule store.  With --serve this overrides the default \
     (\\$XDG_CACHE_HOME/f90d or ~/.cache/f90d); in one-shot mode it $(i,enables) the \
     store, so a rerun of the same program preloads its PARTI schedules and reports \
     sched_builds = 0."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let no_cache =
  let doc = "Disable the persistent schedule store (serve mode caches nothing on disk)." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let request_timeout =
  let doc =
    "Wall-clock limit in seconds for a run; in serve mode the per-request default \
     (requests may override it with \"timeout_s\").  A timed-out request is cancelled \
     cooperatively and answered with an error; the daemon keeps serving."
  in
  Arg.(value & opt (some float) None & info [ "request-timeout" ] ~docv:"SECS" ~doc)

let serve_workers =
  let doc = "Size of the daemon's worker-domain pool." in
  Arg.(value & opt (some int) None & info [ "serve-workers" ] ~docv:"N" ~doc)

let metrics_sock =
  let doc =
    "Scrape a running daemon at $(docv): print its metrics (request counters and latency \
     histograms per op, cache hits/misses per level, store size, worker-pool gauges, \
     engine totals) in the Prometheus text exposition format."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"SOCK" ~doc)

let metrics_out =
  let doc =
    "After a one-shot compile or run, write the same metric families the daemon's metrics \
     op exposes to $(docv) (Prometheus text exposition)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let log_file =
  let doc =
    "Append structured JSON-lines log records to $(docv) instead of stderr (one object \
     per line: ts, level, event, fields)."
  in
  Arg.(value & opt (some string) None & info [ "log-file" ] ~docv:"FILE" ~doc)

let log_level =
  let doc = "Minimum log level: debug, info, warn or error (default warn)." in
  Arg.(value & opt (some string) None & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let log_slow =
  let doc =
    "In serve mode, log a warn-level slow_request record for any request taking longer \
     than $(docv) seconds (default 10; 0 disables)."
  in
  Arg.(value & opt (some float) None & info [ "log-slow" ] ~docv:"SECS" ~doc)

let cmd =
  let doc = "Fortran 90D/HPF compiler for (simulated) distributed-memory MIMD computers" in
  let version =
    Printf.sprintf "%s (f90d_cache_version %d)" F90d_base.Util.package_version
      F90d_base.Util.cache_version
  in
  let info = Cmd.info "f90dc" ~version ~doc in
  Cmd.v info
    Term.(
      ret
        (const run_cmd $ source $ demo $ nprocs $ machine $ emit $ explain
       $ explain_json $ profile_json $ no_opt $ no_passes $ show_finals $ trace $ profile
       $ log_comm $ serve $ client $ cache_dir $ no_cache $ request_timeout $ serve_workers
       $ metrics_sock $ metrics_out $ log_file $ log_level $ log_slow))

let () = exit (Cmd.eval cmd)
