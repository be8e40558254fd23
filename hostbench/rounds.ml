(* A full set (every workload, several rounds) and the comparison of two
   sets under BENCHMARK.json's bounds. *)

module Json = F90d_serve.Json

let num x = Json.Float x
let nums xs = Json.List (List.map num xs)

let rounds = 3

(* Seconds a run of a set measures.  A one-shot run holds at least three
   jobs however short it is; serve-mix's median latency needs about
   8 seconds of requests to be steady from run to run.  A set then takes
   about 150 s on a 2-core host. *)
let seconds (w : Catalog.workload) = if w.Catalog.w_oneshot then 3. else 8.

(* Run one workload in a fresh process and return its JSON result. *)
let one_run (w : Catalog.workload) ~seed ~trace =
  let c =
    Proc.self
      [
        "--workload"; w.Catalog.w_name; "--seed"; string_of_int seed; "--seconds";
        Printf.sprintf "%.17g" (seconds w); "--trace"; (if trace then "1" else "0");
      ]
  in
  let last = ref "" in
  let rec loop () =
    match Proc.read_line c with
    | Some l ->
        print_endline l;
        last := l;
        loop ()
    | None -> ()
  in
  loop ();
  Proc.finish c;
  Json.parse !last

let metric_values results name =
  List.filter_map
    (fun r -> Option.bind (Option.bind (Json.mem r "metrics") (fun m -> Json.mem m name)) (fun v -> Option.bind (Json.mem v "value") Json.float))
    results

let summary (catalog : Catalog.metric list) results =
  let total k = List.fold_left (fun n r -> n + Option.value (Option.bind (Json.mem r k) Json.int) ~default:0) 0 results in
  ( [ ("attempted", Json.Int (total "attempted")); ("failed", Json.Int (total "failed")) ],
    Json.Obj
      (List.map
         (fun (m : Catalog.metric) ->
           let xs = metric_values results m.Catalog.m_name in
           let q1, q3 = Clock.quartiles xs in
           ( m.Catalog.m_name,
             Json.Obj
               [
                 ("unit", Json.Str m.Catalog.m_unit);
                 ("values", nums xs);
                 ("median", num (Clock.median xs));
                 ("q1", num q1);
                 ("q3", num q3);
               ] ))
         catalog) )

(* [rounds] rounds; in each, every workload runs once in a fresh process,
   and the order rotates from round to round so machine drift spreads
   evenly over the workloads. *)
let run ~seed ~trace =
  let ws = Catalog.workloads in
  let n = List.length ws in
  let results = Hashtbl.create n in
  for r = 0 to rounds - 1 do
    List.iteri
      (fun i _ ->
        let w = List.nth ws ((i + r) mod n) in
        let res = one_run w ~seed ~trace:false in
        Hashtbl.replace results w.Catalog.w_name (res :: Option.value (Hashtbl.find_opt results w.Catalog.w_name) ~default:[]))
      ws
  done;
  let per_workload =
    List.map
      (fun (w : Catalog.workload) ->
        let rs = List.rev (Hashtbl.find results w.Catalog.w_name) in
        let counts, e2e = summary Catalog.end_to_end rs in
        let layered =
          if trace then [ ("per_layer", snd (summary Catalog.per_layer [ one_run w ~seed ~trace:true ])) ]
          else []
        in
        ( w.Catalog.w_name,
          Json.Obj ((("seconds", num (seconds w)) :: counts) @ [ ("end_to_end", e2e) ] @ layered) ))
      ws
  in
  let doc =
    Json.Obj
      [
        ("seed", Json.Int seed);
        ("rounds", Json.Int rounds);
        ("workloads", Json.Obj per_workload);
      ]
  in
  Proc.ensure_out ();
  let path = Filename.concat Proc.out_dir (Printf.sprintf "result-%d.json" seed) in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (Json.to_string ~pretty:true doc));
  print_newline ();
  List.iter
    (fun (w : Catalog.workload) ->
      let rs = List.rev (Hashtbl.find results w.Catalog.w_name) in
      List.iter
        (fun (m : Catalog.metric) ->
          let xs = metric_values rs m.Catalog.m_name in
          Measure.print_line w.Catalog.w_name m (Clock.median xs) xs)
        Catalog.end_to_end)
    ws;
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let read path = Json.parse (In_channel.with_open_bin path In_channel.input_all)

(* Verdict for one (workload, metric).  [unresolved]: the spread of
   either set (its quartile distance over its median) is wider than the
   bound, so a difference within it means nothing; [worse] and [better]:
   the median moved by more than the bound, and for [better] every new
   value also beats every old one; [within] otherwise. *)
let verdict ~lower ~bound old_xs new_xs =
  let m0 = Clock.median old_xs and m1 = Clock.median new_xs in
  let spread xs m =
    let q1, q3 = Clock.quartiles xs in
    (q3 -. q1) /. Float.abs m
  in
  let gain = (if lower then m0 -. m1 else m1 -. m0) /. Float.abs m0 in
  let beats a b = if lower then a < b else a > b in
  let all_better = List.for_all (fun x -> List.for_all (beats x) old_xs) new_xs in
  if Float.max (spread old_xs m0) (spread new_xs m1) > bound then ("unresolved", gain)
  else if -.gain > bound then ("worse", gain)
  else if gain > bound && all_better then ("better", gain)
  else ("within", gain)

let compare ~bounds old_path new_path =
  let bench = read bounds and old_doc = read old_path and new_doc = read new_path in
  let metrics =
    match Json.mem bench "end_to_end" with
    | Some (Json.List l) ->
        List.map
          (fun m ->
            let s k = Option.value (Option.bind (Json.mem m k) Json.str) ~default:"" in
            (s "name", s "better" = "lower", Option.value (Option.bind (Json.mem m "bound") Json.float) ~default:0.))
          l
    | _ -> failwith (bounds ^ " has no end_to_end list")
  in
  let values doc w name =
    match Option.bind (Option.bind (Option.bind (Json.mem doc "workloads") (fun ws -> Json.mem ws w)) (fun o -> Json.mem o "end_to_end")) (fun e -> Json.mem e name) with
    | Some m -> List.filter_map Json.float (Option.value (Option.bind (Json.mem m "values") Json.list) ~default:[])
    | None -> []
  in
  Printf.printf "%-13s %-17s %12s %25s %12s %8s  %s\n" "workload" "metric" "old" "old q1..q3" "new" "gain" "verdict";
  let worse = ref false in
  List.iter
    (fun (w : Catalog.workload) ->
      List.iter
        (fun (name, lower, bound) ->
          let o = values old_doc w.Catalog.w_name name and n = values new_doc w.Catalog.w_name name in
          if o <> [] && n <> [] then begin
            let v, gain = verdict ~lower ~bound o n in
            if v = "worse" then worse := true;
            let q1, q3 = Clock.quartiles o in
            Printf.printf "%-13s %-17s %12.6g %12.6g..%-12.6g %12.6g %+7.1f%%  %s\n" w.Catalog.w_name name
              (Clock.median o) q1 q3 (Clock.median n) (gain *. 100.) v
          end)
        metrics)
    Catalog.workloads;
  not !worse
