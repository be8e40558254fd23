(* Each simulated processor accumulates into its own [rank] collector;
   [merge] folds the collectors into the read-only per-run view the
   harness and the tests consume. *)

(* Why the node-kernel layer handed a FORALL nest back to the
   interpreter; see [F90d_exec.Kernel.execute]. *)
type kernel_fallback =
  | Scalar_kind
  | Explicit_layout
  | Out_of_bounds
  | Not_injective
  | Missing_temp
  | Zero_divisor
  | Storage_alias

(* every reason with its Prometheus label, in declaration order *)
let reasons =
  [
    (Scalar_kind, "scalar_kind");
    (Explicit_layout, "explicit_layout");
    (Out_of_bounds, "out_of_bounds");
    (Not_injective, "store_not_injective");
    (Missing_temp, "missing_temporary");
    (Zero_divisor, "zero_divisor");
    (Storage_alias, "storage_alias");
  ]

let kernel_fallback_label why = List.assoc why reasons
let nreasons = List.length reasons

let reason_index why =
  let rec go i = function
    | [] -> assert false
    | (r, _) :: tl -> if r = why then i else go (i + 1) tl
  in
  go 0 reasons

type rank = {
  mutable r_messages : int;
  mutable r_bytes : int;
  mutable r_recv_wait : float;
  mutable r_recv_wait_hidden : float;
  r_by_tag : (int, int * int) Hashtbl.t;
  mutable r_sched_builds : int;
  mutable r_sched_hits : int;
  mutable r_kernel_runs : int;
  mutable r_kernel_fallbacks : int array;
      (* per reason, in [reasons] order; allocated at the
         first fallback, so ranks that never fall back carry none *)
}

type t = {
  messages : int;
  bytes : int;
  recv_wait : float;
  recv_wait_hidden : float;
  (* latency that a split-phase receive absorbed between issue and wait:
     the message was in flight that long while the receiver kept
     computing, so it never surfaced in [recv_wait] *)
  per_rank_messages : int array;
  per_rank_bytes : int array;
  by_tag : (int, int * int) Hashtbl.t;
  sched_builds : int;
  sched_hits : int;
  kernel_runs : int;
  kernel_fallbacks : int;
  kernel_fallbacks_by : (kernel_fallback * int) list;
  kernel_blocked : int;
}

let rank_create () =
  {
    r_messages = 0;
    r_bytes = 0;
    r_recv_wait = 0.;
    r_recv_wait_hidden = 0.;
    r_by_tag = Hashtbl.create 16;
    r_sched_builds = 0;
    r_sched_hits = 0;
    r_kernel_runs = 0;
    r_kernel_fallbacks = [||];
  }

let record_send ?(tag = 0) r ~bytes =
  r.r_messages <- r.r_messages + 1;
  r.r_bytes <- r.r_bytes + bytes;
  let m, b = Option.value (Hashtbl.find_opt r.r_by_tag tag) ~default:(0, 0) in
  Hashtbl.replace r.r_by_tag tag (m + 1, b + bytes)

let record_wait r dt = r.r_recv_wait <- r.r_recv_wait +. dt
let record_wait_hidden r dt = r.r_recv_wait_hidden <- r.r_recv_wait_hidden +. dt
let record_sched_build r = r.r_sched_builds <- r.r_sched_builds + 1
let record_sched_hit r = r.r_sched_hits <- r.r_sched_hits + 1
let record_kernel_run r = r.r_kernel_runs <- r.r_kernel_runs + 1

let record_kernel_fallback r why =
  if r.r_kernel_fallbacks = [||] then r.r_kernel_fallbacks <- Array.make nreasons 0;
  let i = reason_index why in
  r.r_kernel_fallbacks.(i) <- r.r_kernel_fallbacks.(i) + 1

let merge ranks =
  let by_tag = Hashtbl.create 16 in
  let messages = ref 0 and bytes = ref 0 and recv_wait = ref 0. in
  let hidden = ref 0. in
  let builds = ref 0 and hits = ref 0 in
  let kruns = ref 0 and kfalls = Array.make nreasons 0 in
  Array.iter
    (fun r ->
      messages := !messages + r.r_messages;
      bytes := !bytes + r.r_bytes;
      recv_wait := !recv_wait +. r.r_recv_wait;
      hidden := !hidden +. r.r_recv_wait_hidden;
      builds := !builds + r.r_sched_builds;
      hits := !hits + r.r_sched_hits;
      kruns := !kruns + r.r_kernel_runs;
      Array.iteri (fun i n -> kfalls.(i) <- kfalls.(i) + n) r.r_kernel_fallbacks;
      Hashtbl.iter
        (fun tag (m, b) ->
          let m0, b0 = Option.value (Hashtbl.find_opt by_tag tag) ~default:(0, 0) in
          Hashtbl.replace by_tag tag (m0 + m, b0 + b))
        r.r_by_tag)
    ranks;
  {
    messages = !messages;
    bytes = !bytes;
    recv_wait = !recv_wait;
    recv_wait_hidden = !hidden;
    per_rank_messages = Array.map (fun r -> r.r_messages) ranks;
    per_rank_bytes = Array.map (fun r -> r.r_bytes) ranks;
    by_tag;
    sched_builds = !builds;
    sched_hits = !hits;
    kernel_runs = !kruns;
    kernel_fallbacks = Array.fold_left ( + ) 0 kfalls;
    kernel_fallbacks_by = List.mapi (fun i (why, _) -> (why, kfalls.(i))) reasons;
    (* every kernel run executes through row strips *)
    kernel_blocked = !kruns;
  }

let per_tag t =
  Hashtbl.fold (fun tag mb acc -> (tag, mb) :: acc) t.by_tag []
  |> List.sort (fun (t1, _) (t2, _) -> compare t1 t2)

(* message tags are namespaced by hundreds (see F90d_runtime.Tags) *)
let tag_family tag = tag / 100 * 100

let breakdown t ~name_of =
  let fams = Hashtbl.create 8 in
  Hashtbl.iter
    (fun tag (m, b) ->
      let f = tag_family tag in
      let m0, b0 = Option.value (Hashtbl.find_opt fams f) ~default:(0, 0) in
      Hashtbl.replace fams f (m0 + m, b0 + b))
    t.by_tag;
  Hashtbl.fold (fun f (m, b) acc -> (name_of f, m, b) :: acc) fams []
  |> List.sort (fun (_, m1, _) (_, m2, _) -> compare m2 m1)

let pp ppf t =
  Format.fprintf ppf "messages=%d bytes=%d recv_wait=%.6fs" t.messages t.bytes t.recv_wait

(* The canonical export of a run's totals to the fleet-metrics layer:
   one (Prometheus family name, value) pair per counter.  The serve
   telemetry accumulates these into its registry after every run, and
   builds its counter set from this list — adding a field here is the
   single step that adds the family everywhere. *)
let metric_families t =
  let row name help v = (name, [], help, v) in
  [
    row "f90d_sim_messages_total" "simulated messages sent" (float_of_int t.messages);
    row "f90d_sim_bytes_total" "simulated bytes sent" (float_of_int t.bytes);
    row "f90d_sim_recv_wait_seconds_total" "simulated time receivers spent blocked" t.recv_wait;
    row "f90d_sim_recv_wait_hidden_seconds_total"
      "simulated receive latency overlapped with compute by split-phase comms" t.recv_wait_hidden;
    row "f90d_sched_builds_total" "PARTI inspector schedules built" (float_of_int t.sched_builds);
    row "f90d_sched_hits_total" "PARTI schedule-cache hits" (float_of_int t.sched_hits);
    row "f90d_kernel_runs_total" "FORALL nests executed by the node kernel layer"
      (float_of_int t.kernel_runs);
    row "f90d_kernel_fallbacks_total" "FORALL nests that fell back to the tree interpreter"
      (float_of_int t.kernel_fallbacks);
    row "f90d_kernel_blocked_loops_total"
      "kernel nests executed through the blocked/fused fast path" (float_of_int t.kernel_blocked);
  ]
  @ List.map
      (fun (why, n) ->
        ( "f90d_kernel_fallback_reasons_total",
          [ ("reason", kernel_fallback_label why) ],
          "FORALL nests handed back to the tree interpreter, by reason",
          float_of_int n ))
      t.kernel_fallbacks_by

let empty = merge [||]
