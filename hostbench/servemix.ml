(* The serve layer: an [f90dc --serve] daemon driven over its Unix
   socket, and the in-process [Service] it is compared against. *)

module Json = F90d_serve.Json
module Client = F90d_serve.Client
module Service = F90d_serve.Service
module Store = F90d_serve.Store

let f90dc () =
  match Sys.getenv_opt "F90DC" with
  | Some p -> p
  | None -> List.fold_left Filename.concat "_build" [ "default"; "bin"; "f90dc.exe" ]

type daemon = { proc : Proc.child; sock : string; cache : string; dir : string }

let daemons = ref 0

(* Start a daemon with an empty schedule store and wait for the line it
   prints once its socket is listening.  It gets one worker domain: with
   two, concurrent compiles share Lower's process-wide statement-id
   counter, so one program's ids can repeat (see README.md, Findings). *)
let start () =
  incr daemons;
  let dir = Proc.scratch (Printf.sprintf "daemon%d" !daemons) in
  let sock = Filename.concat dir "s" and cache = Filename.concat dir "cache" in
  let proc =
    Proc.spawn [| f90dc (); "--serve"; sock; "--cache-dir"; cache; "--serve-workers"; "1" |]
  in
  match Proc.read_line proc with
  | Some l when String.starts_with ~prefix:"f90dc: serving on" l -> { proc; sock; cache; dir }
  | _ -> failwith ("the daemon did not start: " ^ f90dc ())

let stop d =
  Client.with_conn d.sock (fun c -> ignore (Client.request_raw c {|{"op":"shutdown"}|}));
  Proc.finish d.proc;
  Proc.remove d.dir

(* The daemons started only for set-up samples are killed: a shutdown
   request ends a daemon only when its accept loop next wakes, up to
   0.2 s later. *)
let kill d =
  Proc.kill d.proc;
  Proc.remove d.dir

let peak_rss_mb d = float_of_int (Proc.status_kb ~pid:(string_of_int d.proc.Proc.pid) "VmHWM") /. 1024.

(* A response is correct when it is [ok], or — for a deliberately bad
   source — an error carrying a source location. *)
let response_ok (req : Inputs.request) resp =
  match Json.parse resp with
  | exception Json.Parse_error _ -> false
  | j -> (
      match (Json.mem j "ok", Json.mem j "error") with
      | Some (Json.Bool true), _ -> not req.Inputs.bad
      | Some (Json.Bool false), Some (Json.Str e) -> req.Inputs.bad && Check.located e
      | _ -> false)

(* Normalize names the loop variables it invents (I__1, I__2, ...) from
   a process-wide counter, so explain and profile texts name them
   differently in two processes with different histories, and the
   statement texts, truncated to a fixed width, then end at different
   points.  Comparisons renumber invented names in order of first
   appearance and drop the truncated texts; every other difference
   stays visible. *)
let canonical_fresh s =
  let b = Buffer.create (String.length s) and seen = Hashtbl.create 8 in
  let n = String.length s in
  let digit i = i < n && s.[i] >= '0' && s.[i] <= '9' in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '_' && !i + 1 < n && s.[!i + 1] = '_' && digit (!i + 2) then begin
      let j = ref (!i + 2) in
      while digit !j do incr j done;
      let num = String.sub s (!i + 2) (!j - !i - 2) in
      if not (Hashtbl.mem seen num) then Hashtbl.add seen num (Hashtbl.length seen);
      Buffer.add_string b (Printf.sprintf "__%d" (Hashtbl.find seen num));
      i := !j
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let rec drop_stmt_texts = function
  | Json.Obj kv -> Json.Obj (List.filter_map (fun (k, v) -> if k = "stmt" then None else Some (k, drop_stmt_texts v)) kv)
  | Json.List l -> Json.List (List.map drop_stmt_texts l)
  | j -> j

(* What the daemon and the in-process service must agree on. *)
let stripped resp =
  canonical_fresh (Json.to_string (drop_stmt_texts (Service.strip_volatile (Json.parse resp))))

(* ------------------------------------------------------------------ *)
(* serve-mix, untraced: a closed loop of two connections                *)
(* ------------------------------------------------------------------ *)

type sample = { req : Inputs.request; secs : float; resp : string }

(* Daemon spawn to the answers to [reqs], sent one at a time over one
   connection. *)
let setup (reqs : Inputs.request list) =
  let t0 = Clock.now () in
  let d = start () in
  let resps =
    Client.with_conn d.sock (fun c -> List.map (fun (r : Inputs.request) -> Client.request_raw c r.Inputs.payload) reqs)
  in
  (d, Clock.since t0, resps)

(* One slice of the closed loop: each connection sends the cursor's next
   request as soon as its previous one is answered, until [seconds] have
   passed or [limit] requests have been sent.  Returns the samples and
   the time to the last answer. *)
let slice conns next ~seconds ~limit ~dead =
  let m = Mutex.create () and sent = ref 0 in
  let t_start = Clock.now () in
  let results = Array.make (List.length conns) [] and t_last = Array.make (List.length conns) t_start in
  let client k c () =
    try
      let rec loop acc =
        Mutex.lock m;
        let req =
          if Clock.since t_start < seconds && !sent < limit then begin
            incr sent;
            Some (next ())
          end
          else None
        in
        Mutex.unlock m;
        match req with
        | None -> acc
        | Some req ->
            let t0 = Clock.now () in
            let resp = Client.request_raw c req.Inputs.payload in
            t_last.(k) <- Clock.now ();
            loop ({ req; secs = Clock.seconds_between t0 t_last.(k); resp } :: acc)
      in
      results.(k) <- loop []
    with e ->
      Printf.eprintf "serve-mix client %d: %s\n%!" k (Printexc.to_string e);
      Atomic.incr dead
  in
  List.iter Thread.join (List.mapi (fun k c -> Thread.create (client k c) ()) conns);
  ( List.concat (Array.to_list results),
    Clock.seconds_between t_start (Array.fold_left max t_start t_last) )

(* The daemon's peak resident set is read once exactly this many
   requests have been answered: the cache contents, and so the
   footprint, depend on how many have been. *)
let rss_after = 2000

(* [conns] closed-loop connections for [seconds], in quarter-second slices
   with a speed sample between slices to correct the slice's samples.
   [between ~before] runs in each pause and returns the pause's closing
   speed sample.  The loop goes on past [seconds] until [rss_after]
   requests are answered, and stops sending at that count until the
   resident set is read.  Returns the samples, the corrected busy time,
   that resident set, and the number of clients that died. *)
let closed_loop d next ~seconds ~conns ~before ~between =
  let cs = List.init conns (fun _ -> Client.connect d.sock) in
  let samples = ref [] and n = ref 0 and busy = ref 0. and rss = ref None in
  let dead = Atomic.make 0 and before = ref before in
  let t0 = Clock.now () in
  while Atomic.get dead = 0 && (Clock.since t0 < seconds || !rss = None) do
    let limit = if !rss = None then rss_after - !n else max_int in
    let got, dur = slice cs next ~seconds:0.25 ~limit ~dead in
    let after = Clock.speed () in
    let fix = Clock.corrected ~before:!before ~after in
    samples := List.rev_append (List.map (fun smp -> { smp with secs = fix smp.secs }) got) !samples;
    n := !n + List.length got;
    busy := !busy +. fix dur;
    if !rss = None && !n >= rss_after then rss := Some (peak_rss_mb d);
    before := between ~before:after
  done;
  List.iter Client.close cs;
  (!samples, !busy, (match !rss with Some r -> r | None -> peak_rss_mb d), Atomic.get dead)

(* ------------------------------------------------------------------ *)
(* Traced replay: the same requests through a daemon and in process     *)
(* ------------------------------------------------------------------ *)

let ratio hits misses = if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)

(* Replays [reqs] sequentially over one connection to a fresh daemon and
   then through a fresh in-process service (each with an empty store, so
   request i meets the same cache temperature in both), and returns the
   serve-layer metrics and the number of incorrect responses. *)
let replay (reqs : Inputs.request list) =
  let d = start () in
  let daemon =
    Client.with_conn d.sock (fun c ->
        List.map
          (fun (r : Inputs.request) ->
            Span.set_unit r.Inputs.index;
            Span.record "serve.rtt" (fun () -> Clock.time (fun () -> Client.request_raw c r.Inputs.payload)))
          reqs)
  in
  let store_bytes, _ = Store.disk_usage (Store.create ~dir:d.cache) in
  stop d;
  let dir = Proc.scratch "inproc" in
  let svc = Service.create ~store:(Store.create ~dir) () in
  let inproc =
    List.map
      (fun (r : Inputs.request) ->
        Span.set_unit r.Inputs.index;
        Span.record "serve.handle" (fun () ->
            Clock.time (fun () -> fst (Service.handle_line svc r.Inputs.payload))))
      reqs
  in
  Proc.remove dir;
  let failed =
    List.fold_left2
      (fun n (r, (dresp, _)) (iresp, _) ->
        if response_ok r dresp && stripped dresp = stripped iresp then n else n + 1)
      0 (List.combine reqs daemon) inproc
  in
  let rtts ok = List.filter_map (fun (r, (_, s)) -> if ok r then Some s else None) (List.combine reqs daemon) in
  let temps = Hashtbl.create 8 in
  let builds = ref 0 in
  List.iter
    (fun (resp, _) ->
      let j = Json.parse resp in
      (match Json.mem j "cache" with
      | Some (Json.Obj levels) ->
          List.iter
            (fun (l, v) ->
              let k = (l, Json.str v) in
              Hashtbl.replace temps k (1 + Option.value (Hashtbl.find_opt temps k) ~default:0))
            levels
      | _ -> ());
      match Option.bind (Json.mem j "sched_builds") Json.int with
      | Some b -> builds := !builds + b
      | None -> ())
    daemon;
  let count l t = Option.value (Hashtbl.find_opt temps (l, Some t)) ~default:0 in
  let hit l = ratio (count l "hit") (count l "miss") in
  let ms = List.map (fun s -> s *. 1e3) in
  let metrics =
    [
      ("serve.handle_p50_ms", Clock.median (ms (List.map snd inproc)));
      ( "serve.wire_p50_ms",
        Clock.median (ms (List.map2 (fun (_, rtt) (_, h) -> rtt -. h) daemon inproc)) );
      ( "serve.compile_p50_ms",
        Clock.median (ms (rtts (fun r -> r.Inputs.op = "compile" && not r.Inputs.bad))) );
      ("serve.run_p50_ms", Clock.median (ms (rtts (fun r -> r.Inputs.op = "run"))));
      ("serve.req_p99_ms", Clock.percentile (ms (rtts (fun _ -> true))) 99.);
      ("serve.l1_hit_ratio", hit "l1");
      ("serve.l2_hit_ratio", hit "l2");
      ("serve.l3_hit_ratio", hit "l3");
      ("serve.sched_builds", float_of_int !builds);
      ("serve.store_mb", float_of_int store_bytes /. 1048576.);
    ]
  in
  (metrics, failed)
