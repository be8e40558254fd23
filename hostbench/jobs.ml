(* Jobs and the child processes that run them.  A job is source text in,
   run report out: [Driver.compile] then [Driver.run].  A one-shot
   workload's job is its one program; in the traced run, serve-mix's job
   is one pass over its distinct programs (every pooled source compiled,
   every demo configuration run).  Children talk to the parent in JSON
   lines on their standard output. *)

open F90d
open F90d_machine
module Json = F90d_serve.Json

(* Compile [source]; with [Some p], run it on p simulated iPSC/860 nodes
   wired as a hypercube. *)
type piece = { source : string; nprocs : int option }

let run_on ?poll ~nprocs c =
  Driver.run ~collect_finals:false ~model:Model.ipsc860 ~topology:Topology.Hypercube ~jobs:1 ?poll
    ~nprocs c

let stream_pieces (st : Inputs.stream) =
  List.map (fun source -> { source; nprocs = None }) (Array.to_list st.Inputs.pool)
  @ List.map
      (fun (d, n, p) -> { source = F90d_serve.Service.demo_source d ~nprocs:p ~n; nprocs = Some p })
      (Array.to_list Inputs.run_configs)

let pieces (w : Catalog.workload) ~seed =
  if w.Catalog.w_oneshot then [ { source = Inputs.source w ~seed; nprocs = Some w.Catalog.w_nprocs } ]
  else stream_pieces (Inputs.stream ~seed)

(* An engine poll hook that takes a host-speed sample every 100 ms, so a
   long job is corrected by the speed during it, not only at its ends.
   The engine calls the hook at every receive and every interpreted
   statement of every rank (600k times in a gauss-16 job, 4.8k in an
   irregular-16 job of the same length), so the hook only counts its
   calls and reads the clock at every 64th.  Every job the suite times,
   traced or not, runs with it. *)
type sampler = { mutable calls : int; mutable last : int64; mutable loops : float list; mutable spent : float }

let sampler () = { calls = 0; last = Clock.now (); loops = []; spent = 0. }

let poll s () =
  s.calls <- s.calls + 1;
  if s.calls land 63 = 0 && Clock.since s.last > 0.1 then begin
    let t0 = Clock.now () in
    s.loops <- Clock.ref_loop () :: s.loops;
    s.last <- Clock.now ();
    s.spent <- s.spent +. Clock.seconds_between t0 s.last
  end

let job s ps =
  List.filter_map
    (fun p ->
      let c = Driver.compile p.source in
      Option.map (fun nprocs -> run_on ~poll:(poll s) ~nprocs c) p.nprocs)
    ps

(* [Driver.compile] through each stage's entry point, one span per call. *)
let traced_compile source =
  let ast = Span.record "frontend.parse" (fun () -> F90d_frontend.Parser.parse ~file:"<input>" source) in
  let env = Span.record "frontend.sema" (fun () -> F90d_frontend.Sema.analyze ast) in
  let ir = Span.record "codegen.lower" (fun () -> F90d_codegen.Lower.lower_program env) in
  let flags = F90d_opt.Passes.all_on in
  let opt = Span.record "opt.apply" (fun () -> F90d_opt.Passes.apply flags ir) in
  { Driver.c_source = source; c_env = env; c_ir = opt; c_flags = flags }

(* The same job through each layer's entry point, one span per call,
   with the same poll hook as an untraced job.  Also returns each run's
   host seconds without the time the hook spent sampling, and the words
   the runs allocated and their major GCs. *)
let traced_job s ps =
  let alloc = ref 0. and majors = ref 0 and run_secs = ref [] in
  let results =
    Span.record "job" (fun () ->
        List.filter_map
          (fun p ->
            let c = traced_compile p.source in
            Option.map
              (fun nprocs ->
                let g0 = Gc.quick_stat () and spent0 = s.spent in
                let r, secs =
                  Clock.time (fun () -> Span.record "exec.run" (fun () -> run_on ~poll:(poll s) ~nprocs c))
                in
                run_secs := (secs -. (s.spent -. spent0)) :: !run_secs;
                let g1 = Gc.quick_stat () in
                alloc :=
                  !alloc
                  +. (g1.Gc.minor_words -. g0.Gc.minor_words)
                  +. (g1.Gc.major_words -. g0.Gc.major_words)
                  -. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
                majors := !majors + (g1.Gc.major_collections - g0.Gc.major_collections);
                r)
              p.nprocs)
          ps)
  in
  (results, !run_secs, !alloc, !majors)

(* Runs [f] with a fresh sampler.  Returns [f]'s result, its host time
   without the time spent sampling, the samples, and that time. *)
let sampled f =
  let s = sampler () in
  let r, secs = Clock.time (fun () -> f s) in
  (r, secs -. s.spent, s.loops, s.spent)

(* [calls] of the workload's distinct sources, cycling from [start]. *)
let chunk_sources ps ~calls ~start =
  let sources = Array.of_list (List.map (fun p -> p.source) ps) in
  List.init calls (fun i -> sources.((start + i) mod Array.length sources))

(* [Driver.compile] of each of [chunk_sources], between the speed sample
   [before] and one taken after them: host milliseconds per call at
   nominal host speed, and the closing sample. *)
let compile_chunk ps ~calls ~start ~before =
  let raw =
    List.map (fun src -> snd (Clock.time (fun () -> Driver.compile src))) (chunk_sources ps ~calls ~start)
  in
  let after = Clock.speed () in
  (List.map (fun s -> Clock.corrected ~before ~after s *. 1e3) raw, after)

(* ------------------------------------------------------------------ *)
(* Child side                                                          *)
(* ------------------------------------------------------------------ *)

let emit j = print_endline (Json.to_string j)

let report (r : Driver.run_result) =
  Json.Obj
    [
      ("out", Json.Str r.Driver.outcome.F90d_exec.Interp.output);
      ("elapsed", Json.Float r.Driver.elapsed);
      ("messages", Json.Int r.Driver.stats.Stats.messages);
      ("bytes", Json.Int r.Driver.stats.Stats.bytes);
    ]

let job_line ?(traced = false) ?(extra = []) secs results =
  Json.Obj
    ([
       ("t", Json.Str "job");
       ("s", Json.Float secs);
       ("traced", Json.Bool traced);
       ("runs", Json.List (List.map report results));
     ]
    @ extra)

let floats xs = Json.List (List.map (fun x -> Json.Float x) xs)

(* The first job of a fresh process — a set-up sample, which the parent
   times from the spawn.  The job line carries the peak resident set
   right after the job, and the speed samples taken during and after it
   with the time they took, for the sample's correction. *)
let first_job ps =
  let r, s, during, spent = sampled (fun smp -> job smp ps) in
  let hwm = Proc.status_kb "VmHWM" in
  let after = Clock.speed () in
  emit
    (job_line s r
       ~extra:
         [
           ("hwm_kb", Json.Int hwm);
           ("ref", floats (after :: during));
           ("ref_spent_s", Json.Float spent);
         ]);
  after

let setup_child w ~seed = ignore (first_job (pieces w ~seed))

(* After the first job, jobs for [seconds], each followed by a chunk of
   compile calls; speed samples between them correct both.  Each job
   starts from a compacted heap, as a one-shot [f90dc] process starts
   from an empty one: otherwise the garbage of one job is collected
   during the next, which doubles the per-job spread of jacobi-4096. *)
let measure_child w ~seed ~seconds =
  let ps = pieces w ~seed in
  let before = ref (first_job ps) in
  let compile = ref [] in
  let t_start = Clock.now () and n = ref 0 in
  while !n < 3 || Clock.since t_start < seconds do
    Gc.compact ();
    let r, s, during, _ = sampled (fun smp -> job smp ps) in
    let mid = Clock.speed () in
    emit (job_line (Clock.corrected_by (!before :: mid :: during) s) r);
    let samples, after = compile_chunk ps ~calls:150 ~start:(150 * !n) ~before:mid in
    compile := samples @ !compile;
    before := after;
    incr n
  done;
  emit (Json.Obj [ ("t", Json.Str "end"); ("compile_ms", floats !compile) ])

let f77_lines ir =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 (F90d_ir.Emit_f77.emit_program ir)

let sum f results = List.fold_left (fun acc r -> acc + f r.Driver.stats) 0 results
let sumf f results = List.fold_left (fun acc r -> acc +. f r) 0. results

(* The traced run: traced and untraced jobs alternate for [seconds], each
   from a compacted heap, with the poll hook of the measured runs, and
   followed by a speed sample; then the layer probes and the serve replay
   run.  The spans go to a Chrome trace file and the per-layer metrics to
   the parent.  Run and compile-stage times are corrected to nominal host
   speed as the untraced runs' are; the probes and the replay by the
   run's median speed sample, which is reported too.  The tracing
   overhead is modelled, not measured: the measured cost of one span
   times the spans a traced job records, over an untraced job's time.  A
   few spans per job cost far less than the host's noise, so the
   difference between traced and untraced jobs cannot resolve it. *)
let trace_child (w : Catalog.workload) ~seed ~seconds =
  let ps = pieces w ~seed in
  let first = ref [] in
  let loops = ref [] and fix = Hashtbl.create 16 in
  let traced = ref [] and plain = ref [] and allocs = ref [] and gcs = ref [] and spans = ref [] in
  let run_secs = ref [] in
  let before = ref (Clock.speed ()) in
  let t_start = Clock.now () in
  let k = ref 0 in
  while List.length !traced < 3 || List.length !plain < 3 || Clock.since t_start < seconds do
    incr k;
    Span.set_unit !k;
    let is_traced = !k mod 2 = 0 in
    Gc.compact ();
    Span.on := is_traced;
    let spans0 = Span.count () in
    let (r, runs, alloc, majors), s, during, _ =
      sampled (fun smp -> if is_traced then traced_job smp ps else (job smp ps, [], 0., 0))
    in
    Span.on := false;
    if is_traced then spans := float_of_int (Span.count () - spans0) :: !spans;
    let mid = Clock.speed () in
    (* a job compiles each program once, from a cold cache: too few
       stage spans to set against compile_ms, so a traced iteration also
       runs a chunk of traced compiles, as compile_ms is measured *)
    let after =
      if is_traced then begin
        Span.on := true;
        List.iter (fun src -> ignore (traced_compile src)) (chunk_sources ps ~calls:150 ~start:(150 * !k));
        Span.on := false;
        Clock.speed ()
      end
      else mid
    in
    (* as in an untraced run, runs are corrected by the speed samples
       around and during their job, and compile calls by those around
       their chunk *)
    let around_job = !before :: mid :: during in
    Hashtbl.replace fix !k (Clock.corrected ~before:mid ~after 1.);
    loops := after :: around_job @ !loops;
    before := after;
    if !k = 1 then first := r
    else if is_traced then begin
      traced := s :: !traced;
      run_secs := List.map (Clock.corrected_by around_job) runs @ !run_secs;
      allocs := alloc :: !allocs;
      gcs := float_of_int majors :: !gcs
    end
    else plain := s :: !plain;
    emit (job_line ~traced:is_traced s r)
  done;
  let first = !first in
  let top_heap_mb = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1048576. in
  let ms name =
    List.map (fun (sp : Span.t) -> Span.duration sp *. Hashtbl.find fix sp.Span.unit_id *. 1e3) (Span.named name)
  in
  let messages = sum (fun st -> st.Stats.messages) first in
  let corrected =
    [
      ("frontend.parse_ms", Clock.median (ms "frontend.parse"));
      ("frontend.sema_ms", Clock.median (ms "frontend.sema"));
      ("codegen.lower_ms", Clock.median (ms "codegen.lower"));
      ("opt.apply_ms", Clock.median (ms "opt.apply"));
      ("exec.run_s", Clock.median !run_secs);
      ( "machine.host_us_per_msg",
        List.fold_left ( +. ) 0. !run_secs /. float_of_int (List.length !traced * max 1 messages) *. 1e6 );
    ]
  in
  let coverage = Clock.median (Span.coverage "job") in
  Span.on := true;
  Span.set_unit 0;
  let probe_p = w.Catalog.w_nprocs in
  let rank_setup = Probes.rank_setup_ms ~nprocs:probe_p (List.hd ps).source in
  let bcast = Probes.bcast_us_per_msg ~nprocs:probe_p in
  let inspector, executor = Probes.parti_ms ~nprocs:probe_p in
  loops := Clock.speed () :: !loops;
  let requests =
    if w.Catalog.w_oneshot then Inputs.program_requests ~source:(List.hd ps).source ~nprocs:probe_p
    else Inputs.prefix (Inputs.stream ~seed) 1000
  in
  let serve, replay_failed = Servemix.replay requests in
  loops := Clock.speed () :: !loops;
  Span.on := false;
  let lowered, optimized =
    List.fold_left
      (fun (a, b) p ->
        let f = Driver.front p.source in
        (a + f77_lines f.Driver.f_ir, b + f77_lines (Driver.optimize f).Driver.c_ir))
      (0, 0) ps
  in
  let runs = sum (fun st -> st.Stats.kernel_runs) first in
  let builds = sum (fun st -> st.Stats.sched_builds) first in
  let hits = sum (fun st -> st.Stats.sched_hits) first in
  let measured =
    serve
    @ [
        ("codegen.f77_lines", float_of_int lowered);
        ("opt.f77_lines", float_of_int optimized);
        ("exec.alloc_mb", Clock.median !allocs *. 8. /. 1048576.);
        ("exec.major_gcs", Clock.median !gcs);
        ("exec.top_heap_mb", top_heap_mb);
        ("exec.kernel_runs", float_of_int runs);
        ("exec.kernel_fallbacks", float_of_int (sum (fun st -> st.Stats.kernel_fallbacks) first));
        ( "exec.kernel_blocked_ratio",
          if runs = 0 then 0.
          else float_of_int (sum (fun st -> st.Stats.kernel_blocked) first) /. float_of_int runs );
        ("exec.rank_setup_ms", rank_setup);
        ("machine.messages", float_of_int messages);
        ("machine.bytes", float_of_int (sum (fun st -> st.Stats.bytes) first));
        ("machine.sim_elapsed_s", sumf (fun r -> r.Driver.elapsed) first);
        ("machine.recv_wait_sim_s", sumf (fun r -> r.Driver.stats.Stats.recv_wait) first);
        ("machine.recv_wait_hidden_sim_s", sumf (fun r -> r.Driver.stats.Stats.recv_wait_hidden) first);
        ("machine.bcast_us_per_msg", bcast);
        ("runtime.sched_builds", float_of_int builds);
        ("runtime.sched_hits", float_of_int hits);
        ("runtime.sched_hit_ratio", Servemix.ratio hits builds);
        ("runtime.inspector_ms", inspector);
        ("runtime.executor_ms", executor);
        ("bench.trace_overhead_frac", Span.cost () *. Clock.median !spans /. Clock.median !plain);
        ("bench.job_coverage_frac", coverage);
      ]
  in
  (* the probes and the replay are corrected by the run's median speed
     sample *)
  let ref_loop = Clock.median !loops in
  let host_time name =
    match Catalog.find_metric name with
    | Some m -> List.mem m.Catalog.m_unit [ "s"; "ms"; "us" ]
    | None -> false
  in
  let metrics =
    corrected
    @ List.map (fun (k, v) -> (k, if host_time k then v *. Clock.nominal_ref /. ref_loop else v)) measured
    @ [ ("bench.ref_loop_ms", ref_loop *. 1e3) ]
  in
  Proc.ensure_out ();
  let path = Filename.concat Proc.out_dir (Printf.sprintf "trace-%s-%d.json" w.Catalog.w_name seed) in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (Span.to_chrome ()));
  Printf.eprintf "%s seed %d: spans in %s (host times, not corrected)\n" w.Catalog.w_name seed path;
  Span.print_layers stderr;
  emit
    (Json.Obj
       [
         ("t", Json.Str "layers");
         ("replay_attempted", Json.Int (List.length requests));
         ("replay_failed", Json.Int replay_failed);
         ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics));
       ])
