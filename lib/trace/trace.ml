open F90d_base

(* Event kinds.  A [Span] covers [t0, t1] on one processor's virtual
   clock; an instant has t1 = t0.  Sends and receives carry enough
   payload to reconstruct the message DAG: channels are exact-match
   (src, tag) FIFOs, so the k-th receive on a channel pairs with the
   k-th send — no message ids are needed. *)
(* Every event carries the statement id (sid) of the IR statement that
   was executing when it was recorded — 0 means "<runtime>" (engine
   internals outside any statement).  The interpreter stamps the current
   sid via [set_stmt] before executing each statement, so attribution
   costs one integer store per statement, not per event. *)
(* [parts] is non-empty only for coalesced batch sends: (member sid,
   member bytes) in packing order, summing to the event's [bytes], so
   profiles can split one physical message back to the statements whose
   traffic it carries. *)
type kind =
  | Send of {
      dest : int;
      tag : int;
      bytes : int;
      arrival : float;
      sid : int;
      parts : (int * int) array;
      relay : bool;
          (* a message-system forward of just-arrived data (split-phase
             broadcast): t0/t1 lie on the relay timeline, not the CPU's,
             so relays are excluded from per-rank CPU time accounting *)
    }
  | Recv of { src : int; tag : int; arrival : float; sid : int; posted : float }
  (* [posted] is when the receive was issued: equal to t0 for a blocking
     receive, earlier for the wait half of a split-phase receive.  The
     hidden latency is max(0, arrival - posted) - (t1 - t0). *)
  | Span of { name : string; cat : string; bytes : int; sid : int }
  | Mark of { name : string; cat : string; sid : int }

type event = { t0 : float; t1 : float; kind : kind }

(* One processor's private recorder.  Events land in a ring that doubles
   when full; the ring, the open-span stack and the compute accumulator
   are written only by the owning fiber, so the per-rank streams are
   independent of slice interleaving. *)
type rank = {
  me : int;
  mutable ring : event array;
  mutable len : int;
  mutable open_spans : (string * string * float * int) list;  (* name, cat, t0, sid *)
  mutable computed : float;  (* total Engine.advance time, seconds *)
  mutable sid : int;  (* current statement id; 0 = outside any statement *)
}

let dummy_event = { t0 = 0.; t1 = 0.; kind = Mark { name = ""; cat = ""; sid = 0 } }

type handle = rank option

let disabled : handle = None

let rank_create ~me : handle =
  Some { me; ring = Array.make 256 dummy_event; len = 0; open_spans = []; computed = 0.; sid = 0 }

let enabled = Option.is_some
let set_stmt h ~sid = match h with None -> () | Some r -> r.sid <- sid

let push r ev =
  if r.len = Array.length r.ring then begin
    let bigger = Array.make (2 * Array.length r.ring) dummy_event in
    Array.blit r.ring 0 bigger 0 r.len;
    r.ring <- bigger
  end;
  r.ring.(r.len) <- ev;
  r.len <- r.len + 1

let send ?(parts = [||]) ?(relay = false) h ~t0 ~t1 ~dest ~tag ~bytes ~arrival =
  match h with
  | None -> ()
  | Some r ->
      push r { t0; t1; kind = Send { dest; tag; bytes; arrival; sid = r.sid; parts; relay } }

let recv ?posted h ~t0 ~t1 ~src ~tag ~arrival =
  match h with
  | None -> ()
  | Some r ->
      let posted = Option.value posted ~default:t0 in
      push r { t0; t1; kind = Recv { src; tag; arrival; sid = r.sid; posted } }

let computed h dt = match h with None -> () | Some r -> r.computed <- r.computed +. dt

let span_begin h ~t name ~cat =
  match h with None -> () | Some r -> r.open_spans <- (name, cat, t, r.sid) :: r.open_spans

let span_end ?(bytes = 0) h ~t =
  match h with
  | None -> ()
  | Some r -> (
      match r.open_spans with
      | [] -> Diag.bug "trace: span_end without span_begin"
      | (name, cat, t0, sid) :: rest ->
          r.open_spans <- rest;
          push r { t0; t1 = t; kind = Span { name; cat; bytes; sid } })

let mark h ~t name ~cat =
  match h with
  | None -> ()
  | Some r -> push r { t0 = t; t1 = t; kind = Mark { name; cat; sid = r.sid } }

(* ------------------------------------------------------------------ *)
(* Merged trace                                                        *)
(* ------------------------------------------------------------------ *)

type t = {
  nprocs : int;
  events : event array array;  (* events.(rank), in recording order *)
  compute : float array;  (* total charged compute per rank *)
  clocks : float array;  (* final virtual clocks *)
}

let merge ~clocks handles =
  let take = function
    | Some r ->
        if r.open_spans <> [] then Diag.bug "trace: unterminated span at end of run";
        (Array.sub r.ring 0 r.len, r.computed)
    | None -> ([||], 0.)
  in
  let parts = Array.map take handles in
  {
    nprocs = Array.length handles;
    events = Array.map fst parts;
    compute = Array.map snd parts;
    clocks = Array.copy clocks;
  }

let events t ~rank = t.events.(rank)
let nprocs t = t.nprocs
let clocks t = t.clocks
let compute_time t ~rank = t.compute.(rank)
let total_events t = Array.fold_left (fun acc evs -> acc + Array.length evs) 0 t.events

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                           *)
(* ------------------------------------------------------------------ *)

(* One pid per simulated processor, everything on tid 0; spans become
   "X" (complete) events, instants become "i".  Timestamps are virtual
   microseconds printed with %.17g so exports are byte-stable across
   runs and engines. *)

let us v = Printf.sprintf "%.17g" (v *. 1e6)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let chrome_event b ~pid ev =
  let common ~name ~cat ~ph ~t =
    Printf.bprintf b "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"pid\":%d,\"tid\":0,\"ts\":%s"
      (escape name) (escape cat) ph pid (us t)
  in
  (match ev.kind with
  | Send { dest; tag; bytes; arrival; sid; parts; relay } ->
      common
        ~name:(Printf.sprintf "%s tag=%d" (if relay then "relay" else "send") tag)
        ~cat:"send" ~ph:"X" ~t:ev.t0;
      Printf.bprintf b
        ",\"dur\":%s,\"args\":{\"dest\":%d,\"tag\":%d,\"bytes\":%d,\"arrival_us\":%s,\"sid\":%d"
        (us (ev.t1 -. ev.t0)) dest tag bytes (us arrival) sid;
      if relay then Buffer.add_string b ",\"relay\":true";
      if Array.length parts > 0 then begin
        Buffer.add_string b ",\"parts\":[";
        Array.iteri
          (fun i (psid, pbytes) ->
            if i > 0 then Buffer.add_char b ',';
            Printf.bprintf b "[%d,%d]" psid pbytes)
          parts;
        Buffer.add_char b ']'
      end;
      Buffer.add_char b '}'
  | Recv { src; tag; arrival; sid; posted } ->
      common ~name:(Printf.sprintf "recv tag=%d" tag) ~cat:"recv" ~ph:"X" ~t:ev.t0;
      let hidden = Float.max 0. (arrival -. posted) -. (ev.t1 -. ev.t0) in
      Printf.bprintf b
        ",\"dur\":%s,\"args\":{\"src\":%d,\"tag\":%d,\"arrival_us\":%s,\"waited\":%s,\"sid\":%d,\"posted_us\":%s,\"hidden_us\":%s}"
        (us (ev.t1 -. ev.t0)) src tag (us arrival)
        (if ev.t1 > ev.t0 then "true" else "false")
        sid (us posted)
        (us (Float.max 0. hidden))
  | Span { name; cat; bytes; sid } ->
      common ~name ~cat ~ph:"X" ~t:ev.t0;
      Printf.bprintf b ",\"dur\":%s,\"args\":{\"bytes\":%d,\"sid\":%d}" (us (ev.t1 -. ev.t0))
        bytes sid
  | Mark { name; cat; sid } ->
      common ~name ~cat ~ph:"i" ~t:ev.t0;
      Printf.bprintf b ",\"s\":\"t\",\"args\":{\"sid\":%d}" sid);
  Buffer.add_char b '}'

let to_chrome_json t =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let emit pid ev =
    if !first then first := false else Buffer.add_string b ",\n";
    chrome_event b ~pid ev
  in
  for rank = 0 to t.nprocs - 1 do
    (if !first then first := false else Buffer.add_string b ",\n");
    Printf.bprintf b
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"p%d\"}}"
      rank rank;
    Array.iter (emit rank) t.events.(rank)
  done;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
