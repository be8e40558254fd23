(* The serve subsystem (lib/serve): the JSON codec and wire framing at
   the daemon boundary, the persisted schedule store (including
   corruption recovery), the service dispatch (malformed requests,
   timeouts), and the property the whole design leans on — daemon
   responses bit-identical to the in-process one-shot path at equal
   cache temperature, even under concurrent clients. *)

open F90d_serve

(* ------------------------------------------------------------------ *)
(* Pass table                                                          *)
(* ------------------------------------------------------------------ *)

(* The fingerprint is part of every L2/L3 key: pinning it keeps stored
   schedules valid across releases without a [cache_version] bump. *)
let test_flags_fingerprint () =
  let open F90d_opt.Passes in
  Alcotest.(check string) "all_on" "su1fm1sr1hc1co1sp1la1bk1" (Cache.flags_fp all_on);
  Alcotest.(check string) "all_off" "su0fm0sr0hc0co0sp0la0bk1" (Cache.flags_fp all_off)

let test_flags_of_names () =
  let open F90d_opt.Passes in
  List.iter
    (fun p ->
      let f = Service.flags_of_names ~no_opt:false [ p.name ] in
      List.iter
        (fun q ->
          Alcotest.(check bool) (p.name ^ " clears " ^ q.name) (q.name <> p.name) (q.get f))
        passes)
    passes;
  Alcotest.check_raises "unknown pass" (Invalid_argument "unknown optimization pass: nope")
    (fun () -> ignore (Service.flags_of_names ~no_opt:false [ "nope" ]))

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let cases =
    [
      "null";
      "true";
      "[]";
      "{}";
      "[1,2,3]";
      {|{"a":1,"b":[true,false,null],"c":"x\ny"}|};
      {|{"nested":{"deep":[{"k":"v"}]}}|};
      "-42";
      "0.5";
    ]
  in
  List.iter
    (fun s ->
      let v = Json.parse s in
      let v' = Json.parse (Json.to_string v) in
      Alcotest.(check string) ("roundtrip " ^ s) (Json.to_string v) (Json.to_string v'))
    cases

let test_json_float_bits () =
  (* %.17g must round-trip doubles exactly — the protocol's bit-identity
     guarantee for simulated times rests on it *)
  List.iter
    (fun x ->
      match Json.parse (Json.to_string (Json.Float x)) with
      | Json.Float y ->
          Alcotest.(check bool)
            (Printf.sprintf "bits of %h" x)
            true
            (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
      | Json.Int y ->
          Alcotest.(check bool)
            (Printf.sprintf "integral %h" x)
            true
            (float_of_int y = x)
      | _ -> Alcotest.fail "not a number")
    [ 0.1; 1. /. 3.; 1e-300; 1.7976931348623157e308; 0.30000000000000004; 2.; -0. ]

let test_json_rejects () =
  List.iter
    (fun s ->
      match Json.parse s with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.fail ("accepted malformed: " ^ s))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "{\"a\" 1}"; "nan" ]

let test_json_strings () =
  let v = Json.parse {|"éA😀 \\ \" \n"|} in
  match v with
  | Json.Str s ->
      (* é, A, an emoji through a surrogate pair, escapes *)
      Alcotest.(check string) "utf8" "\xc3\xa9A\xf0\x9f\x98\x80 \\ \" \n" s;
      Alcotest.(check string) "reprint parses back"
        s
        (match Json.parse (Json.to_string v) with Json.Str s' -> s' | _ -> "?")
  | _ -> Alcotest.fail "not a string"

(* ------------------------------------------------------------------ *)
(* Wire framing                                                        *)
(* ------------------------------------------------------------------ *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_wire_roundtrip () =
  with_socketpair (fun a b ->
      let payloads = [ ""; "x"; String.make 100_000 'q'; "{\"op\":\"run\"}" ] in
      List.iter
        (fun p ->
          Wire.write_frame a p;
          Alcotest.(check string) "frame payload" p (Wire.read_frame b))
        payloads)

let test_wire_closed () =
  with_socketpair (fun a b ->
      Unix.close a;
      match Wire.read_frame b with
      | exception Wire.Closed -> ()
      | _ -> Alcotest.fail "expected Closed")

let test_wire_bad_header () =
  List.iter
    (fun junk ->
      with_socketpair (fun a b ->
          let _ = Unix.write_substring a junk 0 (String.length junk) in
          Unix.close a;
          match Wire.read_frame b with
          | exception Wire.Framing _ -> ()
          | exception Wire.Closed -> ()
          | _ -> Alcotest.fail ("accepted bad header: " ^ String.escaped junk)))
    [ "notdigits\n"; "12x\n"; "99999999999999999999999\n"; "999999999999\nhello" ]

(* ------------------------------------------------------------------ *)
(* Store: persistence, corruption recovery                             *)
(* ------------------------------------------------------------------ *)

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "f90d-test-serve-%d-%d" (Unix.getpid ()) !counter)
    in
    (try Sys.mkdir d 0o755 with Sys_error _ -> ());
    d

let sample_ranks =
  [|
    [ ("k0", "blob-zero"); ("k1", String.make 513 '\x00') ];
    [];
    [ ("other", "\xff\xfe binary \n bytes") ];
  |]

let test_store_roundtrip () =
  let st = Store.create ~dir:(tmp_dir ()) in
  Alcotest.(check bool) "initial miss" true (Store.load st ~key:"abc" = None);
  Store.save st ~key:"abc" sample_ranks;
  (match Store.load st ~key:"abc" with
  | Some ranks -> Alcotest.(check bool) "payload" true (ranks = sample_ranks)
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check int) "hit counter" 1 (Store.hits st);
  Alcotest.(check int) "miss counter" 1 (Store.misses st)

let corrupt_file path f =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let s' = f s in
  let oc = open_out_bin path in
  output_string oc s';
  close_out oc

let test_store_corruption () =
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Bytes.to_string b
  in
  let scenarios =
    [
      ("bit flip in body", fun s -> flip s (String.length s - 3));
      ("truncation", fun s -> String.sub s 0 (String.length s - 5));
      ("wrong magic", fun s -> "not-a-store" ^ s);
      ( "stale layout version",
        fun s ->
          Str.replace_first
            (Str.regexp "f90d_cache_version [0-9]+")
            "f90d_cache_version 999999" s );
      ("emptied", fun _ -> "");
    ]
  in
  List.iter
    (fun (name, mangle) ->
      let st = Store.create ~dir:(tmp_dir ()) in
      Store.save st ~key:"k" sample_ranks;
      let path = Filename.concat (Store.dir st) "sched-k.bin" in
      corrupt_file path mangle;
      Alcotest.(check bool) (name ^ " rejected") true (Store.load st ~key:"k" = None);
      Alcotest.(check int) (name ^ " counted") 1 (Store.corrupt st);
      Alcotest.(check bool) (name ^ " deleted") false (Sys.file_exists path);
      (* and the store still works: rebuild, reload *)
      Store.save st ~key:"k" sample_ranks;
      Alcotest.(check bool) (name ^ " rebuilt") true (Store.load st ~key:"k" <> None))
    scenarios

(* ------------------------------------------------------------------ *)
(* Service dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let geti resp key = Option.value ~default:(-1) (Option.bind (Json.mem resp key) Json.int)
let gets resp key = Option.value ~default:"" (Option.bind (Json.mem resp key) Json.str)
let ok resp = Json.mem resp "ok" = Some (Json.Bool true)
let cache_temp resp level =
  Option.value ~default:""
    (Option.bind (Option.bind (Json.mem resp "cache") (fun c -> Json.mem c level)) Json.str)

let run_req ?(nprocs = 4) ?(extra = []) demo n =
  Json.Obj
    ([
       ("op", Json.Str "run");
       ("demo", Json.Str demo);
       ("demo_n", Json.Int n);
       ("nprocs", Json.Int nprocs);
       ("finals", Json.Bool true);
     ]
    @ extra)

let test_service_cold_warm () =
  let svc = Service.create ~store:(Store.create ~dir:(tmp_dir ())) () in
  let req = run_req "irregular" 128 in
  let cold = Service.handle svc req in
  let warm = Service.handle svc req in
  Alcotest.(check bool) "cold ok" true (ok cold);
  Alcotest.(check bool) "warm ok" true (ok warm);
  Alcotest.(check string) "cold l3" "miss" (cache_temp cold "l3");
  Alcotest.(check string) "warm l3" "hit" (cache_temp warm "l3");
  Alcotest.(check string) "warm l1" "hit" (cache_temp warm "l1");
  Alcotest.(check bool) "cold builds schedules" true (geti cold "sched_builds" > 0);
  Alcotest.(check int) "warm builds none" 0 (geti warm "sched_builds");
  (* data results are temperature-independent *)
  Alcotest.(check string) "same finals" (gets cold "finals_digest") (gets warm "finals_digest");
  Alcotest.(check string) "same output" (gets cold "output") (gets warm "output");
  (* a warm replay is deterministic down to the byte *)
  let warm2 = Service.handle svc req in
  Alcotest.(check string) "warm replay bit-identical"
    (Json.to_string (Service.strip_volatile warm))
    (Json.to_string (Service.strip_volatile warm2))

let test_service_rejects () =
  let svc = Service.create () in
  let bad =
    [
      "no op", Json.Obj [];
      "op not a string", Json.Obj [ ("op", Json.Int 3) ];
      "unknown op", Json.Obj [ ("op", Json.Str "frobnicate") ];
      "no source", Json.Obj [ ("op", Json.Str "run") ];
      ("bad nprocs type",
       Json.Obj [ ("op", Json.Str "run"); ("demo", Json.Str "jacobi"); ("nprocs", Json.Str "x") ]);
      ("unknown demo", Json.Obj [ ("op", Json.Str "run"); ("demo", Json.Str "nope") ]);
      ("unknown pass",
       Json.Obj
         [ ("op", Json.Str "compile"); ("demo", Json.Str "jacobi");
           ("fno", Json.List [ Json.Str "warp-drive" ]) ]);
      ("syntax error in source",
       Json.Obj [ ("op", Json.Str "compile"); ("source", Json.Str "PROGRAM ???") ]);
      "not even json", Json.Str "run";
    ]
  in
  List.iter
    (fun (name, req) ->
      let resp = Service.handle svc req in
      Alcotest.(check bool) (name ^ " rejected") false (ok resp);
      Alcotest.(check bool) (name ^ " has error") true (gets resp "error" <> ""))
    bad;
  (* the service is still alive and serves the next good request *)
  let resp = Service.handle svc (run_req "jacobi" 32) in
  Alcotest.(check bool) "still serving after rejects" true (ok resp);
  (* and a malformed frame payload is an error response, not an exception *)
  let reply, next = Service.handle_line svc "{\"op\": " in
  Alcotest.(check bool) "malformed line rejected" true
    (String.length reply > 0 && not (ok (Json.parse reply)));
  Alcotest.(check bool) "connection continues" true (next = `Continue)

let test_service_timeout () =
  let svc = Service.create ~store:(Store.create ~dir:(tmp_dir ())) () in
  let slow = run_req "gauss" 300 ~nprocs:8 ~extra:[ ("timeout_s", Json.Float 0.005) ] in
  let resp = Service.handle svc slow in
  Alcotest.(check bool) "timed out" false (ok resp);
  Alcotest.(check bool) "flagged as timeout" true
    (Json.mem resp "timeout" = Some (Json.Bool true));
  (* the timeout cancelled cooperatively: the service still works, and
     the aborted run must not have persisted partial schedules *)
  let resp2 = Service.handle svc (run_req "irregular" 128) in
  Alcotest.(check bool) "alive after timeout" true (ok resp2);
  Alcotest.(check string) "aborted run persisted nothing" "miss" (cache_temp resp2 "l3")

(* Compiled scalar code still polls once per executed statement: a run
   that is one scalar DO loop, with no FORALL and no receive, ends early
   when the engine's poll hook raises, and a serve request for it times
   out without taking the service down. *)
let test_cancel_scalar_loop () =
  let src =
    "      PROGRAM T\n      INTEGER I\n      REAL X\n      DO I = 1, 1000000\n        X = X + 1.0\n      END DO\n      END\n"
  in
  let calls = ref 0 in
  let poll () =
    incr calls;
    if !calls > 1000 then raise Exit
  in
  (match F90d.Driver.run ~poll ~nprocs:2 (F90d.Driver.compile src) with
  | _ -> Alcotest.fail "the poll hook's exception did not end the run"
  | exception Exit -> ());
  Alcotest.(check bool) "ended early" true (!calls < 10_000);
  let svc = Service.create ~store:(Store.create ~dir:(tmp_dir ())) () in
  let req =
    Json.Obj
      [
        ("op", Json.Str "run");
        ("source", Json.Str src);
        ("nprocs", Json.Int 2);
        ("timeout_s", Json.Float 0.005);
      ]
  in
  let resp = Service.handle svc req in
  Alcotest.(check bool) "timed out" false (ok resp);
  Alcotest.(check bool) "flagged as timeout" true (Json.mem resp "timeout" = Some (Json.Bool true));
  Alcotest.(check bool) "alive after timeout" true (ok (Service.handle svc (run_req "jacobi" 32)))

let test_service_store_corruption_rebuild () =
  let store = Store.create ~dir:(tmp_dir ()) in
  let svc = Service.create ~store () in
  let req = run_req "irregular" 128 in
  let cold = Service.handle svc req in
  (* corrupt the single artifact on disk *)
  (match Sys.readdir (Store.dir store) with
  | [| name |] ->
      corrupt_file (Filename.concat (Store.dir store) name) (fun s ->
          String.sub s 0 (String.length s / 2))
  | files -> Alcotest.fail (Printf.sprintf "expected 1 artifact, found %d" (Array.length files)));
  let rebuilt = Service.handle svc req in
  Alcotest.(check bool) "rebuild ok" true (ok rebuilt);
  Alcotest.(check string) "rebuild is a miss" "miss" (cache_temp rebuilt "l3");
  Alcotest.(check int) "corruption counted" 1 (Store.corrupt store);
  Alcotest.(check string) "same finals after rebuild" (gets cold "finals_digest")
    (gets rebuilt "finals_digest");
  (* the rebuilt artifact is valid again *)
  let warm = Service.handle svc req in
  Alcotest.(check string) "warm again" "hit" (cache_temp warm "l3");
  Alcotest.(check int) "no schedule builds" 0 (geti warm "sched_builds")

(* value of the exposition sample whose "name{labels}" part is [key] *)
let msample text key =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.rindex_opt line ' ' with
         | Some sp when String.sub line 0 sp = key ->
             Some (float_of_string (String.sub line (sp + 1) (String.length line - sp - 1)))
         | _ -> None)

let msample_exn text key =
  match msample text key with
  | Some v -> v
  | None -> Alcotest.fail ("no metric sample for " ^ key)

(* The metrics op: required families present, and across a cold->warm
   pass sched_builds stays flat while the l3 hit counter increases —
   the cache is what makes the warm pass cheap, and the scrape proves
   it. *)
let test_service_metrics () =
  let svc = Service.create ~store:(Store.create ~dir:(tmp_dir ())) () in
  let scrape () =
    let resp = Service.handle svc (Json.Obj [ ("op", Json.Str "metrics") ]) in
    Alcotest.(check bool) "metrics ok" true (ok resp);
    Alcotest.(check string) "format" "prometheus-text-0.0.4" (gets resp "format");
    gets resp "body"
  in
  ignore (Service.handle svc (run_req "irregular" 128));
  let cold = scrape () in
  List.iter
    (fun key ->
      Alcotest.(check bool) ("family present: " ^ key) true (msample cold key <> None))
    [
      {|f90d_requests_total{op="run"}|};
      {|f90d_requests_total{op="metrics"}|};
      {|f90d_request_duration_seconds_bucket{op="run",le="+Inf"}|};
      "f90d_request_duration_seconds_sum{op=\"run\"}";
      "f90d_request_errors_total";
      "f90d_request_timeouts_total";
      "f90d_requests_in_flight";
      "f90d_runs_total";
      {|f90d_cache_hits_total{level="l1"}|};
      {|f90d_cache_misses_total{level="l3"}|};
      {|f90d_cache_entries{level="l1"}|};
      "f90d_store_corrupt_total";
      "f90d_store_size_bytes";
      "f90d_store_artifacts";
      "f90d_pool_workers";
      "f90d_pool_queue_depth";
      "f90d_uptime_seconds";
      "f90d_sim_messages_total";
      "f90d_sim_bytes_total";
      "f90d_sched_builds_total";
      "f90d_sched_hits_total";
      "f90d_sim_elapsed_seconds_total";
    ];
  Alcotest.(check bool) "cold built schedules" true (msample_exn cold "f90d_sched_builds_total" > 0.);
  Alcotest.(check bool) "cold l3 miss" true
    (msample_exn cold {|f90d_cache_misses_total{level="l3"}|} >= 1.);
  Alcotest.(check bool) "no corruption" true (msample_exn cold "f90d_store_corrupt_total" = 0.);
  Alcotest.(check bool) "run counted" true (msample_exn cold {|f90d_requests_total{op="run"}|} = 1.);
  Alcotest.(check bool) "build_info" true
    (msample cold
       (Printf.sprintf {|f90d_build_info{version="%s",cache_version="%d"}|}
          F90d_base.Util.package_version F90d_base.Util.cache_version)
    = Some 1.);
  ignore (Service.handle svc (run_req "irregular" 128));
  let warm = scrape () in
  Alcotest.(check bool) "sched_builds flat across warm pass" true
    (msample_exn warm "f90d_sched_builds_total" = msample_exn cold "f90d_sched_builds_total");
  Alcotest.(check bool) "l3 hits increased" true
    (msample_exn warm {|f90d_cache_hits_total{level="l3"}|}
    > msample_exn cold {|f90d_cache_hits_total{level="l3"}|});
  Alcotest.(check bool) "runs_total tracks" true (msample_exn warm "f90d_runs_total" = 2.);
  (* unknown and malformed requests land in op="other", keeping the
     requests_total sum complete *)
  ignore (Service.handle svc (Json.Obj [ ("op", Json.Str "frobnicate") ]));
  ignore (Service.handle_line svc "{\"op\": ");
  let after = scrape () in
  Alcotest.(check bool) "unknown ops counted as other" true
    (msample_exn after {|f90d_requests_total{op="other"}|} = 2.);
  Alcotest.(check bool) "errors counted" true (msample_exn after "f90d_request_errors_total" = 2.)

(* ------------------------------------------------------------------ *)
(* Daemon over a real socket                                           *)
(* ------------------------------------------------------------------ *)

let with_daemon ?(workers = 3) f =
  let dir = tmp_dir () in
  let sock = Filename.concat dir "d.sock" in
  let service =
    Service.create ~store:(Store.create ~dir:(Filename.concat dir "store")) ~workers ()
  in
  let srv = Server.start ~workers ~service ~sock_path:sock () in
  let r =
    try f sock
    with e ->
      Server.stop srv;
      Server.wait srv;
      raise e
  in
  Client.with_conn sock (fun c -> ignore (Client.request c (Json.Obj [ ("op", Json.Str "shutdown") ])));
  Server.wait srv;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock);
  r

let test_daemon_basic () =
  with_daemon (fun sock ->
      Client.with_conn sock (fun c ->
          let cold = Client.request c (run_req "irregular" 128) in
          let warm = Client.request c (run_req "irregular" 128) in
          Alcotest.(check bool) "cold ok" true (ok cold);
          Alcotest.(check string) "warm l3 hit" "hit" (cache_temp warm "l3");
          Alcotest.(check int) "warm sched_builds" 0 (geti warm "sched_builds");
          (* a framing-level error response, then the daemon still answers
             on a fresh connection *)
          let reply, _ = (Service.handle_line (Service.create ()) "zap" : string * _) in
          ignore reply);
      (* malformed JSON payload over the real socket *)
      Client.with_conn sock (fun c ->
          let resp = Json.parse (Client.request_raw c "zap!") in
          Alcotest.(check bool) "malformed rejected" false (ok resp));
      Client.with_conn sock (fun c ->
          let resp = Client.request c (Json.Obj [ ("op", Json.Str "stats") ]) in
          Alcotest.(check bool) "stats after malformed" true (ok resp);
          Alcotest.(check bool) "stats counts errors" true (geti resp "errors" >= 1)))

(* The stats op is a thin view over the same registry: request counts
   match by_op exactly, and in_flight reads 1 while the stats request
   itself is being served.  Over the socket, the pool gauges report the
   real worker count. *)
let test_daemon_stats_metrics () =
  with_daemon ~workers:3 (fun sock ->
      Client.with_conn sock (fun c ->
          ignore (Client.request c (run_req "jacobi" 32));
          let stats = Client.request c (Json.Obj [ ("op", Json.Str "stats") ]) in
          Alcotest.(check bool) "stats ok" true (ok stats);
          Alcotest.(check int) "in_flight is this request" 1 (geti stats "in_flight");
          Alcotest.(check bool) "uptime present" true
            (Option.bind (Json.mem stats "uptime_s") Json.float <> None);
          Alcotest.(check int) "workers" 3 (geti stats "workers");
          (match Json.mem stats "by_op" with
          | Some (Json.Obj kv) ->
              let sum =
                List.fold_left (fun acc (_, v) -> acc + Option.value ~default:0 (Json.int v)) 0 kv
              in
              Alcotest.(check int) "requests = sum of by_op" (geti stats "requests") sum;
              Alcotest.(check (option int)) "run counted" (Some 1)
                (Option.bind (List.assoc_opt "run" kv) Json.int)
          | _ -> Alcotest.fail "stats has no by_op object");
          let m = Client.request c (Json.Obj [ ("op", Json.Str "metrics") ]) in
          Alcotest.(check bool) "metrics ok" true (ok m);
          let body = gets m "body" in
          Alcotest.(check (option (float 0.))) "pool workers gauge" (Some 3.)
            (msample body "f90d_pool_workers");
          Alcotest.(check bool) "stats op counted" true
            (msample_exn body {|f90d_requests_total{op="stats"}|} = 1.);
          (* thin views and exposition agree *)
          Alcotest.(check bool) "views agree on run count" true
            (msample_exn body {|f90d_requests_total{op="run"}|} = 1.)))

(* Satellite: concurrent-run isolation.  N clients fire the same warm
   request simultaneously from separate threads; every response must be
   byte-identical to the sequential warm response, including the cache
   temperatures and the schedule-cache hit accounting. *)
let test_daemon_concurrent_isolation () =
  with_daemon (fun sock ->
      let reqs =
        [ run_req "irregular" 128; run_req "jacobi" 32; run_req "gauss" 48 ~nprocs:8 ]
      in
      (* warm every cache level first *)
      let reference =
        Client.with_conn sock (fun c ->
            List.map (fun r -> ignore (Client.request c r); Client.request c r) reqs)
      in
      List.iter
        (fun r -> Alcotest.(check int) "reference is warm" 0 (geti r "sched_builds"))
        reference;
      let strip r = Json.to_string (Service.strip_volatile r) in
      let n_threads = 8 in
      let results = Array.make n_threads [] in
      let threads =
        Array.init n_threads (fun i ->
            Thread.create
              (fun () ->
                results.(i) <-
                  Client.with_conn sock (fun c -> List.map (Client.request c) reqs))
              ())
      in
      Array.iter Thread.join threads;
      Array.iteri
        (fun i resps ->
          List.iter2
            (fun want got ->
              Alcotest.(check string)
                (Printf.sprintf "thread %d bit-identical to solo warm" i)
                (strip want) (strip got))
            reference resps)
        results)

(* Concurrent cold compiles of distinct programs must each succeed and
   match what a lone service produces for the same program. *)
let test_daemon_concurrent_distinct () =
  with_daemon (fun sock ->
      let solo = Service.create ~store:(Store.create ~dir:(tmp_dir ())) () in
      let cases = [ ("irregular", 96); ("jacobi", 40); ("gauss", 56); ("fft", 64) ] in
      let results = Array.make (List.length cases) Json.Null in
      let threads =
        List.mapi
          (fun i (demo, n) ->
            Thread.create
              (fun () ->
                results.(i) <-
                  Client.with_conn sock (fun c -> Client.request c (run_req demo n)))
              ())
          cases
      in
      List.iter Thread.join threads;
      List.iteri
        (fun i (demo, n) ->
          let daemon_resp = results.(i) in
          let solo_resp = Service.handle solo (run_req demo n) in
          Alcotest.(check bool) (demo ^ " ok") true (ok daemon_resp);
          Alcotest.(check string)
            (demo ^ " finals match solo")
            (gets solo_resp "finals_digest")
            (gets daemon_resp "finals_digest");
          Alcotest.(check int)
            (demo ^ " same messages")
            (geti solo_resp "messages") (geti daemon_resp "messages"))
        cases)

let test_daemon_timeout_isolation () =
  (* a request that times out must not disturb a concurrent good request *)
  with_daemon (fun sock ->
      let good = ref Json.Null and timed = ref Json.Null in
      let t1 =
        Thread.create
          (fun () ->
            timed :=
              Client.with_conn sock (fun c ->
                  Client.request c
                    (run_req "gauss" 300 ~nprocs:8
                       ~extra:[ ("timeout_s", Json.Float 0.005) ])))
          ()
      in
      let t2 =
        Thread.create
          (fun () ->
            good := Client.with_conn sock (fun c -> Client.request c (run_req "jacobi" 32)))
          ()
      in
      Thread.join t1;
      Thread.join t2;
      Alcotest.(check bool) "timed out" false (ok !timed);
      Alcotest.(check bool) "timeout flagged" true
        (Json.mem !timed "timeout" = Some (Json.Bool true));
      Alcotest.(check bool) "concurrent request unaffected" true (ok !good))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "passes",
        [
          Alcotest.test_case "cache fingerprint pinned" `Quick test_flags_fingerprint;
          Alcotest.test_case "flags_of_names clears one pass" `Quick test_flags_of_names;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "float bit round-trip" `Quick test_json_float_bits;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects;
          Alcotest.test_case "string escapes and surrogates" `Quick test_json_strings;
        ] );
      ( "wire",
        [
          Alcotest.test_case "frame roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "clean EOF" `Quick test_wire_closed;
          Alcotest.test_case "bad headers" `Quick test_wire_bad_header;
        ] );
      ( "store",
        [
          Alcotest.test_case "save/load roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "corruption detected, dropped, rebuilt" `Quick
            test_store_corruption;
        ] );
      ( "service",
        [
          Alcotest.test_case "cold then warm (sched_builds = 0)" `Quick test_service_cold_warm;
          Alcotest.test_case "malformed requests rejected, service lives" `Quick
            test_service_rejects;
          Alcotest.test_case "request timeout" `Quick test_service_timeout;
          Alcotest.test_case "cancellation reaches compiled scalar code" `Quick
            test_cancel_scalar_loop;
          Alcotest.test_case "metrics op: families, warm-pass deltas" `Quick
            test_service_metrics;
          Alcotest.test_case "store corruption mid-service" `Quick
            test_service_store_corruption_rebuild;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "cold/warm over the socket" `Quick test_daemon_basic;
          Alcotest.test_case "stats thin views and pool gauges" `Quick
            test_daemon_stats_metrics;
          Alcotest.test_case "concurrent warm runs bit-identical" `Quick
            test_daemon_concurrent_isolation;
          Alcotest.test_case "concurrent distinct programs" `Quick
            test_daemon_concurrent_distinct;
          Alcotest.test_case "timeout does not disturb neighbours" `Quick
            test_daemon_timeout_isolation;
        ] );
    ]
