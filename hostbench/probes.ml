(* Layer probes for the traced run: small programs that call one layer's
   public functions at the workload's machine size, timed with and
   without the call under test so the difference isolates it.  Each
   result is the median of three repetitions. *)

open F90d_base
open F90d_dist
open F90d_machine
open F90d_runtime

let reps = 3
let median_time f = Clock.median (List.init reps (fun _ -> snd (Clock.time f)))

let config nprocs = Engine.config ~model:Model.ipsc860 ~topology:Topology.Hypercube nprocs

(* Host milliseconds of [Driver.run] for a declarations-only program:
   the per-rank cost of instantiating the machine and the node
   programs before any statement runs. *)
let rank_setup_ms ~nprocs source =
  let c = F90d.Driver.compile (Inputs.declarations_only source) in
  Span.record "exec.rank_setup" (fun () ->
      median_time (fun () ->
          F90d.Driver.run ~collect_finals:false ~model:Model.ipsc860 ~topology:Topology.Hypercube
            ~jobs:1 ~nprocs c))
  *. 1e3

(* Host microseconds per message of machine-wide binomial broadcasts
   ([Engine.run] + [Collectives.broadcast]) minus an [Engine.run] that
   broadcasts nothing. *)
let bcast_us_per_msg ~nprocs =
  let grid = Grid.make [| nprocs |] in
  let rounds = max 1 (32768 / max 1 (nprocs - 1)) in
  let probe k () =
    Engine.run (config nprocs) (fun ctx ->
        let rctx = Rctx.make ctx grid in
        let team = Collectives.team_all rctx in
        for _ = 1 to k do
          ignore (Collectives.broadcast rctx team ~root:0 (Message.Scalar (Scalar.Real 1.0)))
        done)
  in
  Span.record "machine.bcast_probe" (fun () ->
      let messages = (probe rounds ()).Engine.stats.Stats.messages in
      let full = median_time (fun () -> ignore (probe rounds ())) in
      let empty = median_time (fun () -> ignore (probe 0 ())) in
      (full -. empty) /. float_of_int (max 1 messages) *. 1e6)

(* The PARTI inspector ([Schedule.build_read_comm]) and executor
   ([Schedule.read]) for a seeded permutation gather over a BLOCK array,
   as host milliseconds per build and per read.  The communicating build
   exchanges index lists between every pair of ranks, so the probe runs
   on at most 256 ranks. *)
let parti_ms ~nprocs =
  let p = min nprocs 256 in
  let n = max 4096 (64 * p) in
  let grid = Grid.make [| p |] in
  let dad = Dad.make ~name:"B" ~kind:Scalar.Kreal ~grid [| Dad.block_dim ~flb:1 ~extent:n ~pdim:0 ~p () |] in
  let needs_for rank =
    let lay = Dad.layout_at dad ~dim:0 ~rank in
    Array.init (Layout.count lay) (fun l ->
        let i = Layout.global_of_local lay l + 1 in
        let src = [| (((2 * (n / 3)) + 1) * i mod n) + 1 |] in
        let owner = Dad.home_rank dad src in
        (owner, Dad.storage_flat dad ~rank:owner (Option.get (Dad.local_indices dad ~rank:owner src))))
  in
  let reads = 8 in
  let probe ~build ~reads () =
    ignore
      (Engine.run (config p) (fun ctx ->
           let rctx = Rctx.make ctx grid in
           let b = Darray.init_global rctx dad (fun g -> Scalar.Real (float_of_int g.(0))) in
           let needs = needs_for (Rctx.me rctx) in
           if build then begin
             let s = Schedule.build_read_comm rctx ~needs in
             for _ = 1 to reads do
               ignore (Schedule.read rctx s b)
             done
           end))
  in
  Span.record "runtime.parti_probe" (fun () ->
      let base = median_time (probe ~build:false ~reads:0) in
      let inspect = median_time (probe ~build:true ~reads:0) in
      let execute = median_time (probe ~build:true ~reads) in
      ((inspect -. base) *. 1e3, (execute -. inspect) /. float_of_int reads *. 1e3))
