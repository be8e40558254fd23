(* The serving path's metric families, registered once per registry so
   the daemon, the in-process bench replay and the one-shot CLI all
   expose the identical family set.

   Two instrument styles, deliberately:
   - direct counters/histograms for events only this layer sees
     (requests by op, errors, timeouts, request latency, per-run engine
     totals accumulated from [Stats.metric_families]);
   - scrape-time callbacks for values something else already counts
     (cache hit atomics, store corruption, pool queue depth, disk
     usage) — never a second counter to drift from the first.

   When the service has no cache/store/pool, the corresponding families
   still register with a constant-zero callback, so every surface
   renders the same family set and fleet dashboards never see a family
   flap in and out of existence. *)

module M = F90d_obs.Metrics

type t = {
  registry : M.registry;
  req_ops : (string * M.Counter.t) list;  (* per known op, plus "other" *)
  errors : M.Counter.t;
  timeouts : M.Counter.t;
  in_flight : M.Gauge.t;
  durations : (string * M.Histogram.t) list;
  runs : M.Counter.t;
  sim_elapsed : M.Counter.t;
  sim : ((string * (string * string) list) * M.Counter.t) list;
      (* (family name, labels) -> counter *)
}

let other_op = "other"

(* All engine-counter families, at zero — the name/help source for
   registration, so the family list always matches what [observe_run]
   will feed. *)
let sim_families () = F90d_machine.Stats.metric_families F90d_machine.Stats.empty

let register_pool_callbacks ?(workers = fun () -> 0.) ?(queue_depth = fun () -> 0.)
    ?(busy = fun () -> 0.) registry =
  let cb = M.register_callback ~registry in
  cb ~kind:`Gauge ~help:"size of the fixed domain-worker pool" "f90d_pool_workers" workers;
  cb ~kind:`Gauge ~help:"requests queued for a free worker domain" "f90d_pool_queue_depth"
    queue_depth;
  cb ~kind:`Gauge ~help:"worker domains currently executing a request" "f90d_pool_busy_workers"
    busy

let create ?(registry = M.create ()) ?cache ?store ~started ~ops () =
  let counter ?labels ~help name = M.Counter.v ~registry ?labels ~help name in
  let cb = M.register_callback ~registry in
  let with_other = ops @ [ other_op ] in
  let req_ops =
    List.map
      (fun op ->
        ( op,
          counter
            ~labels:[ ("op", op) ]
            ~help:"requests received, by operation (\"other\" = unknown or malformed)"
            "f90d_requests_total" ))
      with_other
  in
  let durations =
    List.map
      (fun op ->
        ( op,
          M.Histogram.v ~registry
            ~labels:[ ("op", op) ]
            ~help:"request wall-clock latency in seconds, by operation"
            "f90d_request_duration_seconds" ))
      with_other
  in
  let errors = counter ~help:"requests answered with ok=false" "f90d_request_errors_total" in
  let timeouts =
    counter ~help:"requests that exceeded their wall-clock limit" "f90d_request_timeouts_total"
  in
  let in_flight =
    M.Gauge.v ~registry ~help:"requests currently being served" "f90d_requests_in_flight"
  in
  let runs =
    counter ~help:"simulated program executions completed" "f90d_runs_total"
  in
  let sim_elapsed =
    counter ~help:"simulated machine seconds accumulated over all runs"
      "f90d_sim_elapsed_seconds_total"
  in
  let sim =
    List.map
      (fun (name, labels, help, _) -> ((name, labels), counter ~labels ~help name))
      (sim_families ())
  in
  cb ~kind:`Gauge ~help:"seconds since the service started" "f90d_uptime_seconds" (fun () ->
      Unix.gettimeofday () -. started);
  cb
    ~labels:
      [
        ("version", F90d_base.Util.package_version);
        ("cache_version", string_of_int F90d_base.Util.cache_version);
      ]
    ~kind:`Gauge ~help:"build and cache-layout identity (value is always 1)" "f90d_build_info"
    (fun () -> 1.);
  (* cache levels: l1/l2 in memory, l3 the persistent schedule store *)
  let c f = match cache with None -> fun () -> 0. | Some c -> fun () -> float_of_int (f c) in
  let s f = match store with None -> fun () -> 0. | Some st -> fun () -> float_of_int (f st) in
  let hits_help = "cache hits by level (l1 front, l2 optimized, l3 schedule store)" in
  cb ~labels:[ ("level", "l1") ] ~kind:`Counter ~help:hits_help "f90d_cache_hits_total"
    (c Cache.l1_hits);
  cb ~labels:[ ("level", "l2") ] ~kind:`Counter ~help:hits_help "f90d_cache_hits_total"
    (c Cache.l2_hits);
  cb ~labels:[ ("level", "l3") ] ~kind:`Counter ~help:hits_help "f90d_cache_hits_total"
    (s Store.hits);
  let miss_help = "cache misses by level" in
  cb ~labels:[ ("level", "l1") ] ~kind:`Counter ~help:miss_help "f90d_cache_misses_total"
    (c Cache.l1_misses);
  cb ~labels:[ ("level", "l2") ] ~kind:`Counter ~help:miss_help "f90d_cache_misses_total"
    (c Cache.l2_misses);
  cb ~labels:[ ("level", "l3") ] ~kind:`Counter ~help:miss_help "f90d_cache_misses_total"
    (s Store.misses);
  let entries_help = "entries currently held by the in-memory cache levels" in
  cb ~labels:[ ("level", "l1") ] ~kind:`Gauge ~help:entries_help "f90d_cache_entries"
    (c (fun ca -> fst (Cache.entries ca)));
  cb ~labels:[ ("level", "l2") ] ~kind:`Gauge ~help:entries_help "f90d_cache_entries"
    (c (fun ca -> snd (Cache.entries ca)));
  cb ~kind:`Counter ~help:"persisted artifacts rejected by the header or digest check"
    "f90d_store_corrupt_total" (s Store.corrupt);
  cb ~kind:`Gauge ~help:"bytes of schedule artifacts on disk" "f90d_store_size_bytes"
    (s (fun st -> fst (Store.disk_usage st)));
  cb ~kind:`Gauge ~help:"schedule artifacts on disk" "f90d_store_artifacts"
    (s (fun st -> snd (Store.disk_usage st)));
  register_pool_callbacks registry;
  { registry; req_ops; errors; timeouts; in_flight; durations; runs; sim_elapsed; sim }

let registry t = t.registry

(* Re-register the pool gauges against a live pool; callback replacement
   makes this idempotent across daemon restarts in one process. *)
let set_pool t ~workers ~queue_depth ~busy =
  register_pool_callbacks t.registry
    ~workers:(fun () -> float_of_int workers)
    ~queue_depth:(fun () -> float_of_int (queue_depth ()))
    ~busy:(fun () -> float_of_int (busy ()))

(* ------------------------------------------------------------------ *)
(* Request lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

let by_op assoc op =
  match List.assoc_opt op assoc with Some v -> v | None -> List.assoc other_op assoc

let count_request t op = M.Counter.inc (by_op t.req_ops op)
let count_error t = M.Counter.inc t.errors
let count_timeout t = M.Counter.inc t.timeouts
let in_flight_add t d = M.Gauge.add t.in_flight d
let observe_duration t op dt = M.Histogram.observe (by_op t.durations op) dt

let observe_run t ~elapsed stats =
  M.Counter.inc t.runs;
  M.Counter.inc_float t.sim_elapsed elapsed;
  List.iter
    (fun (name, labels, _, v) ->
      match List.assoc_opt (name, labels) t.sim with
      | Some c -> M.Counter.inc_float c v
      | None -> ())
    (F90d_machine.Stats.metric_families stats)

(* ------------------------------------------------------------------ *)
(* Thin integer views for the JSON stats op                            *)
(* ------------------------------------------------------------------ *)

let count c = int_of_float (M.Counter.value c)
let requests_by_op t = List.map (fun (op, c) -> (op, count c)) t.req_ops
let requests_total t = List.fold_left (fun acc (_, n) -> acc + n) 0 (requests_by_op t)
let errors_total t = count t.errors
let timeouts_total t = count t.timeouts
let in_flight t = int_of_float (M.Gauge.value t.in_flight)
let render t = M.render ~registry:t.registry ()
