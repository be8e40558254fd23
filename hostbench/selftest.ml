(* The suite's self-test (the [runtest] alias): seeded inputs are
   reproducible, the hand-written gauss reference agrees with the
   fuzzer's sequential evaluator, the metric catalog matches
   BENCHMARK.json, and a wrong checksum counts as a failure. *)

module Json = F90d_serve.Json

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let payloads seed = List.map (fun r -> r.Inputs.payload) (Inputs.prefix (Inputs.stream ~seed) 200)

let inputs_are_seeded () =
  List.iter
    (fun (w : Catalog.workload) ->
      let name = w.Catalog.w_name in
      if w.Catalog.w_oneshot then begin
        check (name ^ ": same seed, same source") (Inputs.source w ~seed:1 = Inputs.source w ~seed:1);
        check (name ^ ": new seed, new source") (Inputs.source w ~seed:1 <> Inputs.source w ~seed:2)
      end)
    Catalog.workloads;
  let a = payloads 1 in
  check "serve-mix: same seed, same requests" (a = payloads 1);
  check "serve-mix: new seed, new requests" (a <> payloads 2)

let gauss_reference_agrees () =
  List.iter
    (fun seed ->
      let p = Inputs.gauss_params ~seed ~n:32 in
      let out = (F90d_fuzz.Refeval.run (Inputs.gauss_source p)).F90d_fuzz.Refeval.r_output in
      check
        (Printf.sprintf "gauss reference = Refeval at N=32, seed %d" seed)
        (Check.output_ok ~reference:(Gauss_ref.checksums p) out))
    [ 1; 2; 3 ]

let catalog_matches bench_path =
  let bench = Json.parse (In_channel.with_open_bin bench_path In_channel.input_all) in
  let listed key =
    match Json.mem bench key with
    | Some (Json.List l) ->
        List.map
          (fun m ->
            let s k = Option.value (Option.bind (Json.mem m k) Json.str) ~default:"" in
            (s "name", s "unit", s "better"))
          l
    | _ -> []
  in
  let ours l =
    List.map
      (fun (m : Catalog.metric) ->
        (m.Catalog.m_name, m.Catalog.m_unit, match m.Catalog.m_better with `Lower -> "lower" | `Higher -> "higher"))
      l
  in
  check "end_to_end metrics = BENCHMARK.json" (listed "end_to_end" = ours Catalog.end_to_end);
  check "per_layer metrics = BENCHMARK.json" (listed "per_layer" = ours Catalog.per_layer);
  List.iter
    (fun (name, _, _) -> check (name ^ " is a valid metric name") (Catalog.valid_name name))
    (listed "end_to_end" @ listed "per_layer");
  let workloads =
    match Json.mem bench "workloads" with
    | Some (Json.List l) -> List.filter_map (fun w -> Option.bind (Json.mem w "name") Json.str) l
    | _ -> []
  in
  check "workloads = BENCHMARK.json" (workloads = List.map (fun w -> w.Catalog.w_name) Catalog.workloads)

(* A real job at N=8 on 4 ranks passes the check; the same job with one
   checksum perturbed fails it, and the tally reports a failure. *)
let corrupted_checksum_fails () =
  let p = Inputs.gauss_params ~seed:5 ~n:8 in
  let reference = Gauss_ref.checksums p in
  let r = Jobs.run_on ~nprocs:4 (F90d.Driver.compile (Inputs.gauss_source p)) in
  let job out =
    Json.parse
      (Json.to_string
         (Json.Obj [ ("runs", Json.List [ Json.Obj [ ("out", Json.Str out); ("elapsed", Json.Float r.F90d.Driver.elapsed) ] ]) ]))
  in
  let out = r.F90d.Driver.outcome.F90d_exec.Interp.output in
  let corrupted =
    match Check.numbers out with
    | Some x :: rest ->
        String.concat " "
          (Printf.sprintf "%g" (x *. 1.001) :: List.map (function Some y -> Printf.sprintf "%g" y | None -> "?") rest)
    | _ -> "?"
  in
  let fails out =
    let t = Measure.tally () in
    Measure.check_job t ~reference:(Some reference) (job out);
    float_of_int t.Measure.failed /. float_of_int t.Measure.attempted
  in
  check "correct job passes" (fails out = 0.);
  check "corrupted checksum fails" (fails corrupted > 0.)

let bad_sources_are_located () =
  let st = Inputs.stream ~seed:1 in
  let svc = F90d_serve.Service.create () in
  Array.iteri
    (fun i src ->
      let req =
        { Inputs.index = i; op = "compile"; bad = true; sample = false;
          payload = Json.to_string (Json.Obj [ ("op", Json.Str "compile"); ("source", Json.Str src) ]) }
      in
      check
        (Printf.sprintf "bad source %d gets a located error" i)
        (Servemix.response_ok req (fst (F90d_serve.Service.handle_line svc req.Inputs.payload))))
    st.Inputs.bads

let run bench_path =
  inputs_are_seeded ();
  gauss_reference_agrees ();
  catalog_matches bench_path;
  corrupted_checksum_fails ();
  bad_sources_are_located ();
  if !failures > 0 then exit 1;
  print_endline "hostbench selftest: ok"
