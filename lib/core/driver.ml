open F90d_base
open F90d_dist
open F90d_machine
open F90d_runtime
open F90d_frontend

type compiled = {
  c_source : string;
  c_env : Sema.program_env;
  c_ir : F90d_ir.Ir.program_ir;
  c_flags : F90d_opt.Passes.flags;
}

(* The front half (parse, analyze, lower) is independent of the pass
   flags, so the serve-mode compile cache can keep one front per source
   digest and re-optimize it per flag set.  Both stages produce immutable
   structures: a cached [front] or [compiled] can be optimized or run
   from concurrent domains. *)
type front = { f_source : string; f_env : Sema.program_env; f_ir : F90d_ir.Ir.program_ir }

let front ?(file = "<input>") source =
  let ast = Parser.parse ~file source in
  let env = Sema.analyze ast in
  { f_source = source; f_env = env; f_ir = F90d_codegen.Lower.lower_program env }

let optimize ?(flags = F90d_opt.Passes.all_on) f =
  {
    c_source = f.f_source;
    c_env = f.f_env;
    c_ir = F90d_opt.Passes.apply flags f.f_ir;
    c_flags = flags;
  }

let compile ?flags ?file source = optimize ?flags (front ?file source)

type run_result = {
  outcome : F90d_exec.Interp.outcome;
  elapsed : float;
  clocks : float array;
  stats : Stats.t;
  trace : F90d_trace.Trace.t option;
}

let run ?(collect_finals = true) ?(model = Model.ideal) ?(topology = Topology.Full) ?(jobs = 1)
    ?(trace = false) ?poll ?sched_preload ?sched_collect ~nprocs compiled =
  if jobs <> 1 then invalid_arg (Printf.sprintf "Driver.run: ~jobs:%d (only 1 is accepted)" jobs);
  let dims = Sema.grid_dims compiled.c_env ~nprocs in
  let phys_of_rank = Topology.grid_embedding topology ~nprocs dims in
  let grid = Grid.make ?phys_of_rank dims in
  let cfg = Engine.config ~model ~topology ~tracing:trace ?poll nprocs in
  (* [grid] and [prepared] are shared by every rank fiber of this run and
     belong to it: built here, before the engine starts *)
  let prepared = F90d_exec.Interp.prepare ~grid compiled.c_ir in
  let kernels = compiled.c_flags.F90d_opt.Passes.blocked_kernels in
  let node eng =
    let rctx = Rctx.make ~kernels eng grid in
    (* Seed the rank's schedule cache from the persistent store (serve
       mode).  Preloading is all-or-nothing across ranks — the store
       layer guarantees it by keeping every rank's schedules in one
       digest-checked artifact — so either every rank hits a key or
       every rank rebuilds it collectively. *)
    (match sched_preload with
    | Some load -> Schedule.preload rctx (load (Rctx.me rctx))
    | None -> ());
    let outcome =
      F90d_exec.Interp.node_main ~collect_finals
        ~coalesce:compiled.c_flags.F90d_opt.Passes.coalesce prepared rctx
    in
    (match sched_collect with
    | Some collect -> collect (Rctx.me rctx) (Schedule.export rctx)
    | None -> ());
    outcome
  in
  let report = Engine.run cfg node in
  (* rank 0 of the grid carries the program output *)
  let root_phys = Grid.phys_of_rank grid 0 in
  {
    outcome = report.Engine.results.(root_phys);
    elapsed = report.Engine.elapsed;
    clocks = report.Engine.clocks;
    stats = report.Engine.stats;
    trace = report.Engine.trace;
  }

let final result name =
  match List.assoc_opt name result.outcome.F90d_exec.Interp.finals with
  | Some a -> a
  | None -> Diag.error "no final array '%s' (was collect_finals set?)" name

let final_scalar result name =
  match List.assoc_opt name result.outcome.F90d_exec.Interp.final_scalars with
  | Some s -> s
  | None -> Diag.error "no final scalar '%s'" name
