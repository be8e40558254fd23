(* One measured run of one workload: the parent side.  It computes the
   references, starts the children (or the daemons), checks every output
   they produce, and turns their timings into the catalog's metrics. *)

module Json = F90d_serve.Json

type result = {
  attempted : int;
  failed : int;
  metrics : (string * (float * float list)) list;  (* name -> value, samples *)
}

(* Every job of a (workload, seed) must print the reference checksums
   (one-shot workloads) and report the same simulated runs as the first
   job: elapsed time, messages and bytes are deterministic. *)
type tally = { mutable attempted : int; mutable failed : int; mutable first : string option }

let tally () = { attempted = 0; failed = 0; first = None }

let count t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let check_job t ~reference job =
  let runs = Option.value (Json.mem job "runs") ~default:Json.Null in
  let sim = Json.to_string runs in
  if t.first = None then t.first <- Some sim;
  let outputs_ok =
    match (reference, Json.list runs) with
    | None, Some _ -> true
    | Some reference, Some [ run ] -> (
        match Option.bind (Json.mem run "out") Json.str with
        | Some out -> Check.output_ok ~reference out
        | None -> false)
    | _ -> false
  in
  count t (outputs_ok && t.first = Some sim)

let field j name conv = match Option.bind (Json.mem j name) conv with Some v -> v | None -> failwith ("missing " ^ name)
let one x = (x, [ x ])
let of_samples xs = (Clock.median xs, xs)
let ms xs = List.map (fun s -> s *. 1e3) xs
let reference_of (w : Catalog.workload) ~seed = if w.Catalog.w_oneshot then Some (Check.reference w ~seed) else None

let child_args cmd (w : Catalog.workload) ~seed rest = (cmd :: w.Catalog.w_name :: string_of_int seed :: rest)

(* Start a child and wait for its first job: one set-up sample, from
   the spawn to the job's report, and the peak resident set after it. *)
let first_job t ~reference args =
  let before = Clock.speed () in
  let t0 = Clock.now () in
  let c = Proc.self args in
  match Proc.read_line c with
  | Some line ->
      let s = Clock.since t0 in
      let j = Json.parse line in
      check_job t ~reference j;
      let loops = List.filter_map Json.float (field j "ref" Json.list) in
      let setup = Clock.corrected_by (before :: loops) (s -. field j "ref_spent_s" Json.float) in
      (c, setup, float_of_int (field j "hwm_kb" Json.int) /. 1024.)
  | None -> failwith "a child ended before its first job"

let lines c = Seq.of_dispenser (fun () -> Proc.read_line c) |> Seq.map Json.parse |> List.of_seq

(* Two set-up children, then the measuring child: its first job is the
   third set-up sample, then jobs for [seconds]. *)
let oneshot (w : Catalog.workload) ~seed ~seconds =
  let reference = reference_of w ~seed in
  let t = tally () in
  let fresh =
    List.init 2 (fun _ ->
        let c, s, rss = first_job t ~reference (child_args "child-setup" w ~seed []) in
        Proc.finish c;
        (s, rss))
  in
  let c, s, rss = first_job t ~reference (child_args "child-measure" w ~seed [ Printf.sprintf "%.17g" seconds ]) in
  let rest = lines c in
  Proc.finish c;
  let kind j = field j "t" Json.str in
  let jobs = List.filter (fun j -> kind j = "job") rest in
  List.iter (check_job t ~reference) jobs;
  let secs = List.map (fun j -> field j "s" Json.float) jobs in
  let compile = field (List.find (fun j -> kind j = "end") rest) "compile_ms" Json.list in
  let fresh = (s, rss) :: fresh in
  {
    attempted = t.attempted;
    failed = t.failed;
    metrics =
      [
        ("latency_p50_ms", of_samples (ms secs));
        ("throughput_per_s", one (float_of_int (List.length secs) /. List.fold_left ( +. ) 0. secs));
        ("compile_ms", of_samples (List.filter_map Json.float compile));
        ("peak_rss_mb", of_samples (List.map snd fresh));
        ("setup_s", of_samples (List.map fst fresh));
      ];
  }

(* serve-mix: sixteen daemons started for set-up samples, then one that
   serves two closed-loop connections for [seconds]. *)
let serve ~seed ~seconds =
  let st = Inputs.stream ~seed in
  let ps = Jobs.stream_pieces st in
  (* a set-up sample ends with the answers to a cold run of every demo
     configuration: a daemon's start alone is a few milliseconds of
     process start-up, which the speed samples do not track *)
  let first = Inputs.warmup in
  let next = Inputs.cursor st in
  let t = tally () in
  let setups = ref [] and compile = ref [] and before = ref (Clock.speed ()) in
  let setup () =
    let d, s, resps = Servemix.setup first in
    let after = Clock.speed () in
    List.iter2 (fun r resp -> count t (Servemix.response_ok r resp)) first resps;
    setups := Clock.corrected ~before:!before ~after s :: !setups;
    before := after;
    d
  in
  (* compile chunks run between the daemon starts and in the pauses of
     the closed loop, so their samples spread over the whole run *)
  let chunks = ref 0 in
  let between ~before =
    let samples, after = Jobs.compile_chunk ps ~calls:25 ~start:(25 * !chunks) ~before in
    incr chunks;
    compile := samples @ !compile;
    after
  in
  for _ = 1 to 16 do
    Servemix.kill (setup ());
    before := between ~before:!before
  done;
  let d = setup () in
  let samples, busy, rss, dead = Servemix.closed_loop d next ~seconds ~conns:2 ~before:!before ~between in
  Servemix.stop d;
  (* the seeded 5% that bypassed the caches must match an in-process
     replay *)
  let svc = F90d_serve.Service.create () in
  List.iter
    (fun (smp : Servemix.sample) ->
      let req = smp.Servemix.req in
      count t
        (Servemix.response_ok req smp.Servemix.resp
        && ((not req.Inputs.sample)
           || Servemix.stripped smp.Servemix.resp
              = Servemix.stripped (fst (F90d_serve.Service.handle_line svc req.Inputs.payload)))))
    samples;
  t.failed <- t.failed + dead;
  {
    attempted = t.attempted;
    failed = t.failed;
    metrics =
      [
        ("latency_p50_ms", of_samples (ms (List.map (fun smp -> smp.Servemix.secs) samples)));
        ("throughput_per_s", one (float_of_int (List.length samples) /. busy));
        ("compile_ms", of_samples !compile);
        ("peak_rss_mb", one rss);
        ("setup_s", of_samples !setups);
      ];
  }

(* The traced run, in a child so its heap and spans are its own. *)
let traced (w : Catalog.workload) ~seed ~seconds =
  let reference = reference_of w ~seed in
  let t = tally () in
  let c = Proc.self (child_args "child-trace" w ~seed [ Printf.sprintf "%.17g" seconds ]) in
  let out = lines c in
  Proc.finish c;
  let layers = ref [] in
  List.iter
    (fun j ->
      match field j "t" Json.str with
      | "job" -> check_job t ~reference j
      | _ ->
          t.attempted <- t.attempted + field j "replay_attempted" Json.int;
          t.failed <- t.failed + field j "replay_failed" Json.int;
          layers :=
            List.map
              (fun (k, v) -> (k, one (Option.value (Json.float v) ~default:nan)))
              (match Json.mem j "metrics" with Some (Json.Obj kv) -> kv | _ -> []))
    out;
  { attempted = t.attempted; failed = t.failed; metrics = !layers }

let run (w : Catalog.workload) ~seed ~seconds ~trace =
  if trace then traced w ~seed ~seconds
  else if w.Catalog.w_oneshot then oneshot w ~seed ~seconds
  else serve ~seed ~seconds

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

(* workload, metric, value, unit, then the median, quartiles and number
   of the samples behind the value *)
let print_line workload (m : Catalog.metric) v samples =
  let q1, q3 = Clock.quartiles samples in
  Printf.printf "%s %s %.6g %s (median %.6g, q1 %.6g, q3 %.6g, n %d)\n" workload m.Catalog.m_name v
    m.Catalog.m_unit (Clock.median samples) q1 q3 (List.length samples)

(* One line per metric and last the one-line JSON result.  Every catalog
   metric of the mode must be present and finite. *)
let print (w : Catalog.workload) ~trace (r : result) =
  let catalog = if trace then Catalog.per_layer else Catalog.end_to_end in
  let values =
    List.map
      (fun (m : Catalog.metric) ->
        match List.assoc_opt m.Catalog.m_name r.metrics with
        | Some (v, samples) when Float.is_finite v ->
            print_line w.Catalog.w_name m v samples;
            (m.Catalog.m_name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str m.Catalog.m_unit) ])
        | _ -> failwith ("metric not measured: " ^ m.Catalog.m_name))
      catalog
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (r.failed = 0 && r.attempted > 0));
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ("metrics", Json.Obj values);
          ]))
