open F90d_base
open F90d_dist
open F90d_machine

type cache_entry = ..
type plan = ..

type t = {
  eng : Engine.ctx;
  grid : Grid.t;
  sched_cache : (string, cache_entry) Hashtbl.t;
  mutable plans : plan list;
  mutable split_seq : int;
  kernels : bool;
}

let make ?(kernels = true) eng grid =
  if Grid.size grid <> Engine.nprocs eng then
    Diag.bug "rctx: grid size %d does not cover the machine (%d nodes)" (Grid.size grid)
      (Engine.nprocs eng);
  { eng; grid; sched_cache = Hashtbl.create 16; plans = []; split_seq = 0; kernels }

let kernels t = t.kernels

let engine t = t.eng
let grid t = t.grid
let me t = Grid.rank_of_phys t.grid (Engine.rank t.eng)
let nprocs t = Grid.size t.grid
let my_coords t = Grid.coords_of_rank t.grid (me t)
let time t = Engine.time t.eng

let cache_find t key = Hashtbl.find_opt t.sched_cache key
let cache_store t key entry = Hashtbl.replace t.sched_cache key entry
let cache_fold t f acc = Hashtbl.fold f t.sched_cache acc
let plans t = t.plans
let add_plan t p = t.plans <- p :: t.plans
let trace t = Engine.trace t.eng
let set_stmt t ~sid ~loc = Engine.set_stmt t.eng ~sid ~loc

let at_stmt t ~sid ~loc f =
  let sid0, loc0 = Engine.current_stmt t.eng in
  set_stmt t ~sid ~loc;
  match f () with
  | r ->
      set_stmt t ~sid:sid0 ~loc:loc0;
      r
  | exception Diag.Error (l, msg) when l.Loc.line = 0 -> raise (Diag.Error (loc, msg))

let send ?parts t ~dest ~tag payload =
  Engine.send ?parts t.eng ~dest:(Grid.phys_of_rank t.grid dest) ~tag payload

let recv t ~src ~tag = Engine.recv t.eng ~src:(Grid.phys_of_rank t.grid src) ~tag

(* Split-phase receive: the logical->physical rank translation happens at
   issue time, so a handle is engine-level and valid regardless of later
   grid lookups. *)
let irecv t ~src ~tag = Engine.irecv t.eng ~src:(Grid.phys_of_rank t.grid src) ~tag
let wait_recv t h = Engine.wait t.eng h

(* Several split-phase collectives can be in flight at once, and their
   trees may share a (source, tag) channel — FIFO matching would then
   cross-deliver between trees.  Every rank executes the same sequence
   of collective calls (SPMD), so a per-rank counter yields the same
   instance number on all ranks with no extra messages. *)
let next_split_seq t =
  t.split_seq <- t.split_seq + 1;
  t.split_seq

let relay t ~from_t ~dest ~tag payload =
  Engine.relay t.eng ~from_t ~dest:(Grid.phys_of_rank t.grid dest) ~tag payload

let charge_flops t n = Engine.charge_flops t.eng n
let charge_iops t n = Engine.charge_iops t.eng n
let charge_copy_bytes t n = Engine.charge_copy_bytes t.eng n
