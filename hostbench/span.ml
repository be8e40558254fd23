(* In-memory spans recorded by the traced run around calls into each
   layer's public functions: name, start, end, the enclosing span, and
   the job or request the span belongs to.  The prefix of a span's name
   before the first dot is its layer.  Recording is off unless [on] is
   set, so the untraced jobs of a traced run take the same code path at
   the cost of one test per call. *)

module Json = F90d_serve.Json

type t = { id : int; parent : int; unit_id : int; name : string; t0 : int64; t1 : int64 }

let on = ref false
let recorded = ref []
let next_id = ref 0
let open_spans = ref []
let current_unit = ref 0
let set_unit u = current_unit := u

let record name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let t0 = Clock.now () in
    let close () =
      let t1 = Clock.now () in
      open_spans := List.tl !open_spans;
      recorded := { id; parent; unit_id = !current_unit; name; t0; t1 } :: !recorded
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

let all () = List.rev !recorded
let count () = !next_id

(* Host seconds one recorded span costs: the mean over many spans around
   an empty call, which are then dropped. *)
let cost () =
  let kept = !recorded and was_on = !on in
  on := true;
  let n = 100_000 in
  let (), s = Clock.time (fun () -> for _ = 1 to n do record "bench.span_cost" ignore done) in
  on := was_on;
  recorded := kept;
  s /. float_of_int n

let duration s = Clock.seconds_between s.t0 s.t1
let named name = List.filter (fun s -> s.name = name) (all ())

let layer s = match String.index_opt s.name '.' with Some i -> String.sub s.name 0 i | None -> s.name

(* Time the span's children cover. *)
let child_time () =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace tbl s.parent (duration s +. Option.value (Hashtbl.find_opt tbl s.parent) ~default:0.))
    !recorded;
  fun s -> Option.value (Hashtbl.find_opt tbl s.id) ~default:0.

(* Per layer: calls, total time and self time (total minus the part its
   child spans cover), most total time first. *)
let layers () =
  let covered = child_time () in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let calls, total, self = Option.value (Hashtbl.find_opt tbl (layer s)) ~default:(0, 0., 0.) in
      let d = duration s in
      Hashtbl.replace tbl (layer s) (calls + 1, total +. d, self +. d -. covered s))
    !recorded;
  Hashtbl.fold (fun l r acc -> (l, r) :: acc) tbl []
  |> List.sort (fun (_, (_, a, _)) (_, (_, b, _)) -> Float.compare b a)

let print_layers oc =
  Printf.fprintf oc "%-10s %8s %12s %12s\n" "layer" "calls" "total_ms" "self_ms";
  List.iter
    (fun (l, (calls, total, self)) ->
      Printf.fprintf oc "%-10s %8d %12.3f %12.3f\n" l calls (total *. 1e3) (self *. 1e3))
    (layers ())

(* Chrome trace_event JSON ("X" complete events, microseconds). *)
let to_chrome () =
  let spans = all () in
  let origin = match spans with s :: _ -> s.t0 | [] -> 0L in
  let us t = Int64.to_float (Int64.sub t origin) /. 1e3 in
  Json.to_string
    (Json.Obj
       [
         ( "traceEvents",
           Json.List
             (List.map
                (fun s ->
                  Json.Obj
                    [
                      ("name", Json.Str s.name);
                      ("cat", Json.Str (layer s));
                      ("ph", Json.Str "X");
                      ("ts", Json.Float (us s.t0));
                      ("dur", Json.Float (us s.t1 -. us s.t0));
                      ("pid", Json.Int 1);
                      ("tid", Json.Int 1);
                      ( "args",
                        Json.Obj
                          [
                            ("id", Json.Int s.id);
                            ("parent", Json.Int s.parent);
                            ("unit", Json.Int s.unit_id);
                          ] );
                    ])
                spans) );
         ("displayTimeUnit", Json.Str "ms");
       ])

(* For each span called [name], the share of its duration that its child
   spans cover. *)
let coverage name =
  let covered = child_time () in
  List.map (fun s -> covered s /. duration s) (named name)
