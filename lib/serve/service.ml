exception Timed_out of float
exception Bad_request of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_request m)) fmt

module Log = F90d_obs.Log

type t = {
  cache : Cache.t;
  store : Store.t option;
  timeout : float;  (* default per-request limit in seconds; 0. = unlimited *)
  slow : float;  (* requests slower than this log a warn record; 0. = never *)
  workers : int;
  started : float;
  tel : Telemetry.t;
}

let ops = [ "compile"; "run"; "trace"; "explain"; "profile"; "stats"; "metrics"; "shutdown" ]

let create ?cache ?store ?registry ?(timeout = 0.) ?(slow = 10.) ?(workers = 1) () =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let started = Unix.gettimeofday () in
  let tel = Telemetry.create ?registry ~cache ?store ~started ~ops () in
  { cache; store; timeout; slow; workers; started; tel }

let store t = t.store
let cache t = t.cache
let telemetry t = t.tel

let set_pool t ~workers ~queue_depth ~busy =
  Telemetry.set_pool t.tel ~workers ~queue_depth ~busy

(* ------------------------------------------------------------------ *)
(* Request field access                                                *)
(* ------------------------------------------------------------------ *)

let field_str req name =
  match Json.mem req name with
  | None | Some Json.Null -> None
  | Some v -> (
      match Json.str v with
      | Some s -> Some s
      | None -> bad "field %S must be a string" name)

let field_int req name ~default =
  match Json.mem req name with
  | None | Some Json.Null -> default
  | Some v -> (
      match Json.int v with
      | Some n -> n
      | None -> bad "field %S must be an integer" name)

let field_bool req name ~default =
  match Json.mem req name with
  | None | Some Json.Null -> default
  | Some v -> (
      match Json.bool v with
      | Some b -> b
      | None -> bad "field %S must be a boolean" name)

let field_float req name =
  match Json.mem req name with
  | None | Some Json.Null -> None
  | Some v -> (
      match Json.float v with
      | Some x -> Some x
      | None -> bad "field %S must be a number" name)

let field_strs req name =
  match Json.mem req name with
  | None | Some Json.Null -> []
  | Some v -> (
      match Json.list v with
      | Some items ->
          List.map
            (fun item ->
              match Json.str item with
              | Some s -> s
              | None -> bad "field %S must be a list of strings" name)
            items
      | None -> bad "field %S must be a list of strings" name)

(* ------------------------------------------------------------------ *)
(* Shared CLI/daemon vocabulary                                        *)
(* ------------------------------------------------------------------ *)

let demo_source name ~nprocs ~n =
  let n = max 4 n in
  match String.lowercase_ascii name with
  | "gauss" -> F90d.Programs.gauss ~n
  | "gauss-cyclic" -> F90d.Programs.gauss_dist ~dist:`Cyclic ~n
  | "jacobi" -> F90d.Programs.jacobi ~n ~iters:10
  | "jacobi2d" ->
      (* p x q = nprocs with p the largest divisor <= sqrt nprocs *)
      let rec side d = if d <= 1 then 1 else if nprocs mod d = 0 then d else side (d - 1) in
      let p = side (int_of_float (sqrt (float_of_int nprocs))) in
      F90d.Programs.jacobi2d ~n:30 ~iters:5 ~p ~q:(nprocs / p)
  | "irregular" -> F90d.Programs.irregular ~n
  | "fft" -> F90d.Programs.fft_butterfly ~n
  | other -> raise (Invalid_argument ("unknown demo program: " ^ other))

let model_of_name = function
  | "ipsc860" -> F90d_machine.Model.ipsc860
  | "ncube2" -> F90d_machine.Model.ncube2
  | "ideal" -> F90d_machine.Model.ideal
  | other -> raise (Invalid_argument ("unknown machine model: " ^ other))

let flags_of_names ~no_opt names =
  let open F90d_opt.Passes in
  List.fold_left
    (fun f name ->
      match List.find_opt (fun p -> p.name = name) passes with
      | Some p -> p.set false f
      | None -> raise (Invalid_argument ("unknown optimization pass: " ^ name)))
    (if no_opt then all_off else all_on)
    names

let source_of req ~nprocs =
  match (field_str req "source", field_str req "demo") with
  | Some s, _ -> s
  | None, Some d -> demo_source d ~nprocs ~n:(field_int req "demo_n" ~default:64)
  | None, None -> bad "request needs a \"source\" or \"demo\" field"

let request_flags req =
  flags_of_names
    ~no_opt:(field_bool req "no_opt" ~default:false)
    (field_strs req "fno")

(* ------------------------------------------------------------------ *)
(* Response building                                                   *)
(* ------------------------------------------------------------------ *)

let temp_str ~on = function
  | _ when not on -> "off"
  | Cache.Hit -> "hit"
  | Cache.Miss -> "miss"

(* Re-parse a report/trace document so the response is one JSON value
   instead of JSON-in-a-string; fall back to the raw text if the
   document is not strictly parseable. *)
let embed_doc s = match Json.parse s with j -> j | exception _ -> Json.Str s

let array_json (arr : F90d_base.Ndarray.t) =
  let ints a = Json.List (List.map (fun n -> Json.Int n) (Array.to_list a)) in
  let kind, data =
    match arr.F90d_base.Ndarray.data with
    | F90d_base.Ndarray.Reals a ->
        ("real", Json.List (List.map (fun x -> Json.Float x) (Array.to_list a)))
    | F90d_base.Ndarray.Ints a -> ("integer", ints a)
    | F90d_base.Ndarray.Logs a ->
        ("logical", Json.List (List.map (fun b -> Json.Bool b) (Array.to_list a)))
  in
  Json.Obj
    [
      ("kind", Json.Str kind);
      ("lb", ints arr.F90d_base.Ndarray.lb);
      ("extents", ints arr.F90d_base.Ndarray.extents);
      ("data", data);
    ]

let scalar_json = function
  | F90d_base.Scalar.Int n -> Json.Int n
  | F90d_base.Scalar.Real x -> Json.Float x
  | F90d_base.Scalar.Log b -> Json.Bool b
  | F90d_base.Scalar.Str s -> Json.Str s

let finals_fields (outcome : F90d_exec.Interp.outcome) =
  let fin =
    Json.Obj
      [
        ( "arrays",
          Json.Obj (List.map (fun (n, a) -> (n, array_json a)) outcome.F90d_exec.Interp.finals)
        );
        ( "scalars",
          Json.Obj
            (List.map (fun (n, s) -> (n, scalar_json s)) outcome.F90d_exec.Interp.final_scalars)
        );
      ]
  in
  [
    ("finals", fin);
    ("finals_digest", Json.Str (Digest.to_hex (Digest.string (Json.to_string fin))));
  ]

let err ?(extra = []) op fmt =
  Printf.ksprintf
    (fun msg ->
      Json.Obj ([ ("ok", Json.Bool false); ("op", Json.Str op); ("error", Json.Str msg) ] @ extra))
    fmt

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

let compile_common t req =
  let nprocs = max 1 (field_int req "nprocs" ~default:4) in
  let source = source_of req ~nprocs in
  let flags = request_flags req in
  let use = field_bool req "cache" ~default:true in
  let compiled, l1, l2 = Cache.compile t.cache ~use ~flags source in
  (nprocs, source, flags, use, compiled, l1, l2)

let compile_head ~op ~source ~flags ~use ~l1 ~l2 ?(l3 = None) () =
  [
    ("ok", Json.Bool true);
    ("op", Json.Str op);
    ("source_digest", Json.Str (Cache.source_digest source));
    ("pass_flags", Json.Str (Cache.flags_fp flags));
    ( "cache",
      Json.Obj
        ([
           ("l1", Json.Str (temp_str ~on:use l1));
           ("l2", Json.Str (temp_str ~on:use l2));
         ]
        @ match l3 with None -> [] | Some s -> [ ("l3", Json.Str s) ]) );
  ]

let compile_op t req =
  let _, source, flags, use, compiled, l1, l2 = compile_common t req in
  let head = compile_head ~op:"compile" ~source ~flags ~use ~l1 ~l2 () in
  let extra =
    if field_bool req "emit" ~default:false then
      [ ("f77", Json.Str (F90d_ir.Emit_f77.emit_program compiled.F90d.Driver.c_ir)) ]
    else []
  in
  Json.Obj (head @ extra)

let explain_op t req =
  let _, source, flags, use, compiled, l1, l2 = compile_common t req in
  let head = compile_head ~op:"explain" ~source ~flags ~use ~l1 ~l2 () in
  Json.Obj
    (head
    @ [ ("explain", embed_doc (F90d_report.Report.explain_json compiled.F90d.Driver.c_ir)) ])

let sched_key ~source ~flags ~nprocs =
  Digest.to_hex
    (Digest.string
       (String.concat ":"
          [ Cache.source_digest source; Cache.flags_fp flags; string_of_int nprocs ]))

type sched_io = {
  sio_preload : (int -> (string * string) list) option;
  sio_collect : (int -> (string * string) list -> unit) option;
  sio_commit : unit -> unit;
  sio_temp : string;  (* "hit" | "miss" | "off" *)
}

let sched_io store ~use ~source ~flags ~nprocs =
  let off = { sio_preload = None; sio_collect = None; sio_commit = ignore; sio_temp = "off" } in
  match store with
  | Some st when use -> (
      let key = sched_key ~source ~flags ~nprocs in
      match Store.load st ~key with
      | Some ranks when Array.length ranks = nprocs ->
          {
            sio_preload = Some (fun r -> ranks.(r));
            sio_collect = None;
            sio_commit = ignore;
            sio_temp = "hit";
          }
      | _ ->
          let slots = Array.make nprocs [] in
          {
            sio_preload = None;
            sio_collect = Some (fun rank entries -> slots.(rank) <- entries);
            sio_commit = (fun () -> Store.save st ~key slots);
            sio_temp = "miss";
          })
  | _ -> off

let run_like t req ~op =
  let nprocs, source, flags, use, compiled, l1, l2 = compile_common t req in
  let machine = Option.value (field_str req "machine") ~default:"ipsc860" in
  let model = model_of_name machine in
  let show_finals = field_bool req "finals" ~default:false in
  let tracing = op <> "run" in
  let topology =
    if F90d_base.Util.is_pow2 nprocs then F90d_machine.Topology.Hypercube
    else F90d_machine.Topology.Full
  in
  let sio = sched_io t.store ~use ~source ~flags ~nprocs in
  let timeout = Option.value (field_float req "timeout_s") ~default:t.timeout in
  let poll =
    if timeout > 0. then begin
      let deadline = Unix.gettimeofday () +. timeout in
      Some (fun () -> if Unix.gettimeofday () > deadline then raise (Timed_out timeout))
    end
    else None
  in
  let t0 = Unix.gettimeofday () in
  let result =
    F90d.Driver.run ~collect_finals:show_finals ~model ~topology ~trace:tracing ?poll
      ?sched_preload:sio.sio_preload ?sched_collect:sio.sio_collect ~nprocs compiled
  in
  let host_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  sio.sio_commit ();
  let stats = result.F90d.Driver.stats in
  Telemetry.observe_run t.tel ~elapsed:result.F90d.Driver.elapsed stats;
  let head = compile_head ~op ~source ~flags ~use ~l1 ~l2 ~l3:(Some sio.sio_temp) () in
  let body =
    [
      ("nprocs", Json.Int nprocs);
      ("machine", Json.Str machine);
      ("elapsed_s", Json.Float result.F90d.Driver.elapsed);
      ("messages", Json.Int stats.F90d_machine.Stats.messages);
      ("bytes", Json.Int stats.F90d_machine.Stats.bytes);
      ("recv_wait_s", Json.Float stats.F90d_machine.Stats.recv_wait);
      ("recv_wait_hidden_s", Json.Float stats.F90d_machine.Stats.recv_wait_hidden);
      ("sched_builds", Json.Int stats.F90d_machine.Stats.sched_builds);
      ("sched_hits", Json.Int stats.F90d_machine.Stats.sched_hits);
      ("output", Json.Str result.F90d.Driver.outcome.F90d_exec.Interp.output);
    ]
  in
  let specific =
    match (op, result.F90d.Driver.trace) with
    | "trace", Some tr ->
        [
          ("trace_events", Json.Int (F90d_trace.Trace.total_events tr));
          ("trace", embed_doc (F90d_trace.Trace.to_chrome_json tr));
        ]
    | "profile", Some tr ->
        [
          ( "profile",
            embed_doc (F90d_report.Report.profile_json compiled.F90d.Driver.c_ir tr) );
        ]
    | _ -> []
  in
  let fin = if show_finals then finals_fields result.F90d.Driver.outcome else [] in
  Json.Obj (head @ body @ specific @ fin @ [ ("host_ms", Json.Float host_ms) ])

let stats_op t =
  let cache_fields =
    let l1e, l2e = Cache.entries t.cache in
    [
      ("l1_hits", Json.Int (Cache.l1_hits t.cache));
      ("l1_misses", Json.Int (Cache.l1_misses t.cache));
      ("l2_hits", Json.Int (Cache.l2_hits t.cache));
      ("l2_misses", Json.Int (Cache.l2_misses t.cache));
      ("l1_entries", Json.Int l1e);
      ("l2_entries", Json.Int l2e);
      ( "store",
        match t.store with
        | None -> Json.Null
        | Some st ->
            Json.Obj
              [
                ("dir", Json.Str (Store.dir st));
                ("hits", Json.Int (Store.hits st));
                ("misses", Json.Int (Store.misses st));
                ("corrupt", Json.Int (Store.corrupt st));
              ] );
    ]
  in
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("op", Json.Str "stats");
      ("version", Json.Str F90d_base.Util.package_version);
      ("cache_version", Json.Int F90d_base.Util.cache_version);
      ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started));
      ("workers", Json.Int t.workers);
      (* thin integer views over the metrics registry — the [metrics] op
         exposes the same counters in exposition format *)
      ("requests", Json.Int (Telemetry.requests_total t.tel));
      ("errors", Json.Int (Telemetry.errors_total t.tel));
      ("timeouts", Json.Int (Telemetry.timeouts_total t.tel));
      ("in_flight", Json.Int (Telemetry.in_flight t.tel));
      ( "by_op",
        Json.Obj
          (List.map (fun (op, n) -> (op, Json.Int n)) (Telemetry.requests_by_op t.tel)) );
      ("cache", Json.Obj cache_fields);
    ]

let metrics_op t =
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("op", Json.Str "metrics");
      ("format", Json.Str "prometheus-text-0.0.4");
      ("body", Json.Str (Telemetry.render t.tel));
    ]

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let dispatch t req ~op =
  try
    match op with
    | "compile" -> compile_op t req
    | "run" | "trace" | "profile" -> run_like t req ~op
    | "explain" -> explain_op t req
    | "stats" -> stats_op t
    | "metrics" -> metrics_op t
    | "shutdown" ->
        Json.Obj
          [ ("ok", Json.Bool true); ("op", Json.Str "shutdown"); ("stopping", Json.Bool true) ]
    | "" ->
        Telemetry.count_error t.tel;
        err op "request needs a string \"op\" field"
    | other ->
        Telemetry.count_error t.tel;
        err op "unknown op %S (expected one of %s)" other (String.concat ", " ops)
  with
  | Timed_out limit ->
      Telemetry.count_error t.tel;
      Telemetry.count_timeout t.tel;
      err op "request exceeded its %gs wall-clock limit" limit
        ~extra:[ ("timeout", Json.Bool true); ("timeout_s", Json.Float limit) ]
  | Bad_request msg ->
      Telemetry.count_error t.tel;
      err op "%s" msg
  | F90d_base.Diag.Error (loc, msg) ->
      Telemetry.count_error t.tel;
      err op "%s" (Format.asprintf "%a: %s" F90d_base.Loc.pp loc msg)
  | Invalid_argument msg ->
      Telemetry.count_error t.tel;
      err op "%s" msg
  | e ->
      Telemetry.count_error t.tel;
      err op "internal error: %s" (Printexc.to_string e)

let response_ok = function
  | Json.Obj fields -> (
      match List.assoc_opt "ok" fields with Some (Json.Bool b) -> b | _ -> false)
  | _ -> false

let handle t req =
  let op =
    match Json.mem req "op" with
    | Some v -> Option.value (Json.str v) ~default:""
    | None -> ""
  in
  let label = if List.mem op ops then op else "other" in
  Telemetry.count_request t.tel op;
  Telemetry.in_flight_add t.tel 1.;
  let rid = Log.next_request_id () in
  Log.debug "request" [ ("id", Log.S rid); ("op", Log.S op) ];
  let t0 = Unix.gettimeofday () in
  let resp =
    Fun.protect
      ~finally:(fun () ->
        Telemetry.in_flight_add t.tel (-1.);
        Telemetry.observe_duration t.tel label (Unix.gettimeofday () -. t0))
      (fun () -> dispatch t req ~op)
  in
  let dt = Unix.gettimeofday () -. t0 in
  if t.slow > 0. && dt >= t.slow then
    Log.warn "slow_request"
      [
        ("id", Log.S rid);
        ("op", Log.S op);
        ("elapsed_s", Log.F dt);
        ("threshold_s", Log.F t.slow);
      ];
  Log.info "request_done"
    [
      ("id", Log.S rid);
      ("op", Log.S op);
      ("ok", Log.B (response_ok resp));
      ("elapsed_s", Log.F dt);
    ];
  resp

let handle_line t line =
  match Json.parse line with
  | exception Json.Parse_error msg ->
      Telemetry.count_request t.tel "";
      Telemetry.count_error t.tel;
      Log.warn "bad_frame" [ ("reason", Log.S msg) ];
      (Json.to_string (err "" "malformed request: %s" msg), `Continue)
  | req ->
      let resp = handle t req in
      let next =
        match Json.mem req "op" with
        | Some v when Json.str v = Some "shutdown" -> `Shutdown
        | _ -> `Continue
      in
      (Json.to_string resp, next)

let strip_volatile = function
  | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "host_ms") fields)
  | j -> j
