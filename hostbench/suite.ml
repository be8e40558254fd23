(* The host-cost benchmark of the f90d compiler and simulator.

     suite.exe --workload NAME --seed N --seconds S --trace 0|1
         one measured run of one workload; prints one line per metric
         and, last, a one-line JSON result
     suite.exe run --seed N [--trace]
         every workload, 3 rounds in rotating order, each run in a fresh
         process; writes hostbench/out/result-N.json
     suite.exe compare OLD.json NEW.json
         verdict per (workload, metric) under BENCHMARK.json's bounds;
         exits 1 if any metric got worse
     suite.exe selftest BENCHMARK.json

   Run it from the root of a checkout, after building bin/f90dc.exe
   (hostbench/run.sh does both). *)

module Json = F90d_serve.Json

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("hostbench: " ^ msg);
      exit 2)
    fmt

let workload name =
  match Catalog.find_workload name with
  | Some w -> w
  | None ->
      die "unknown workload %S (one of %s)" name
        (String.concat ", " (List.map (fun w -> w.Catalog.w_name) Catalog.workloads))

let int_arg name s = match int_of_string_opt s with Some n -> n | None -> die "%s must be an integer: %S" name s

let float_arg name s =
  match float_of_string_opt s with Some x when x > 0. -> x | _ -> die "%s must be a positive number: %S" name s

(* --key value pairs *)
let rec options = function
  | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      (String.sub key 2 (String.length key - 2), value) :: options rest
  | [] -> []
  | arg :: _ -> die "unexpected argument %S" arg

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "child-setup"; w; seed ] -> Jobs.setup_child (workload w) ~seed:(int_arg "seed" seed)
  | [ "child-measure"; w; seed; secs ] ->
      Jobs.measure_child (workload w) ~seed:(int_arg "seed" seed) ~seconds:(float_arg "seconds" secs)
  | [ "child-trace"; w; seed; secs ] ->
      Jobs.trace_child (workload w) ~seed:(int_arg "seed" seed) ~seconds:(float_arg "seconds" secs)
  | "run" :: args ->
      let args = List.filter (( <> ) "--trace") args and trace = List.mem "--trace" args in
      let seed =
        match options args with
        | [] -> 1
        | [ ("seed", s) ] -> int_arg "seed" s
        | _ -> die "run takes --seed N and --trace only"
      in
      Rounds.run ~seed ~trace
  | [ "compare"; old_path; new_path ] ->
      exit (if Rounds.compare ~bounds:"BENCHMARK.json" old_path new_path then 0 else 1)
  | [ "selftest"; bench ] -> Selftest.run bench
  | args -> (
      let opts = options args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> die "missing --%s" k in
      let w = workload (get "workload") in
      let trace =
        match get "trace" with "0" -> false | "1" -> true | t -> die "--trace must be 0 or 1: %S" t
      in
      match Measure.run w ~seed:(int_arg "seed" (get "seed")) ~seconds:(float_arg "seconds" (get "seconds")) ~trace with
      | r -> Measure.print w ~trace r
      | exception (Failure msg | Sys_error msg) -> die "%s: %s" w.Catalog.w_name msg)
