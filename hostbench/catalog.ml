(* The benchmark's vocabulary: workloads and metric names, units and
   directions.  BENCHMARK.json at the repository root carries the same
   lists plus the regression bounds; the self-test checks that the two
   agree. *)

type workload = {
  w_name : string;
  w_nprocs : int;  (* machine size of the one-shot jobs and of the probes *)
  w_oneshot : bool;  (* false: the serve-mix daemon workload *)
}

let workloads =
  [
    { w_name = "gauss-16"; w_nprocs = 16; w_oneshot = true };
    { w_name = "gauss-256"; w_nprocs = 256; w_oneshot = true };
    { w_name = "jacobi-4096"; w_nprocs = 4096; w_oneshot = true };
    { w_name = "irregular-16"; w_nprocs = 16; w_oneshot = true };
    { w_name = "serve-mix"; w_nprocs = 4; w_oneshot = false };
  ]

let find_workload name = List.find_opt (fun w -> w.w_name = name) workloads

type metric = { m_name : string; m_unit : string; m_better : [ `Lower | `Higher ] }

let m m_name m_unit m_better = { m_name; m_unit; m_better }

(* Reported by every untraced run ([--trace 0]).  A one-shot "unit of
   work" is a job (source text in, run report out); a serve-mix unit is
   one request round trip. *)
let end_to_end =
  [
    m "latency_p50_ms" "ms" `Lower;
    m "throughput_per_s" "1/s" `Higher;
    m "compile_ms" "ms" `Lower;
    m "peak_rss_mb" "MB" `Lower;
    m "setup_s" "s" `Lower;
  ]

(* Reported by every traced run ([--trace 1]); the prefix before the
   first dot names the layer (a library directory under lib/). *)
let per_layer =
  [
    m "frontend.parse_ms" "ms" `Lower;
    m "frontend.sema_ms" "ms" `Lower;
    m "codegen.lower_ms" "ms" `Lower;
    m "codegen.f77_lines" "count" `Lower;
    m "opt.apply_ms" "ms" `Lower;
    m "opt.f77_lines" "count" `Lower;
    m "exec.run_s" "s" `Lower;
    m "exec.alloc_mb" "MB" `Lower;
    m "exec.major_gcs" "count" `Lower;
    m "exec.top_heap_mb" "MB" `Lower;
    m "exec.kernel_runs" "count" `Higher;
    m "exec.kernel_fallbacks" "count" `Lower;
    m "exec.kernel_blocked_ratio" "ratio" `Higher;
    m "exec.rank_setup_ms" "ms" `Lower;
    m "machine.messages" "count" `Lower;
    m "machine.bytes" "bytes" `Lower;
    m "machine.sim_elapsed_s" "sim_s" `Lower;
    m "machine.recv_wait_sim_s" "sim_s" `Lower;
    m "machine.recv_wait_hidden_sim_s" "sim_s" `Higher;
    m "machine.host_us_per_msg" "us" `Lower;
    m "machine.bcast_us_per_msg" "us" `Lower;
    m "runtime.sched_builds" "count" `Lower;
    m "runtime.sched_hits" "count" `Higher;
    m "runtime.sched_hit_ratio" "ratio" `Higher;
    m "runtime.inspector_ms" "ms" `Lower;
    m "runtime.executor_ms" "ms" `Lower;
    m "serve.handle_p50_ms" "ms" `Lower;
    m "serve.wire_p50_ms" "ms" `Lower;
    m "serve.compile_p50_ms" "ms" `Lower;
    m "serve.run_p50_ms" "ms" `Lower;
    m "serve.req_p99_ms" "ms" `Lower;
    m "serve.l1_hit_ratio" "ratio" `Higher;
    m "serve.l2_hit_ratio" "ratio" `Higher;
    m "serve.l3_hit_ratio" "ratio" `Higher;
    m "serve.sched_builds" "count" `Lower;
    m "serve.store_mb" "MB" `Lower;
    m "bench.trace_overhead_frac" "fraction" `Lower;
    m "bench.job_coverage_frac" "fraction" `Higher;
    m "bench.ref_loop_ms" "ms" `Lower;
  ]

let find_metric name = List.find_opt (fun x -> x.m_name = name) (end_to_end @ per_layer)

let valid_name s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_'
         || c = '.' || c = '-')
       s
