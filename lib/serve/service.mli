(** The compile-and-simulate service: one JSON request in, one JSON
    response out, independent of any transport.

    The daemon ({!Server}) calls {!handle} from its domain workers; the
    CLI's one-shot cache mode and the benches call it in-process — both
    paths share every cache level, which is what makes "daemon response
    = one-shot response at equal cache temperature" a checkable
    property.

    Supported [op] values: [compile], [run], [trace], [explain],
    [profile], [stats], [metrics], [shutdown].  Every response carries
    ["ok": true/false]; failures ([Diag.Error] diagnostics, malformed
    requests, timeouts) are error responses, never exceptions — a bad
    request can not take the service down.

    Request fields (all optional unless noted):
    - [op] (required), [source] or [demo] (+[demo_n]) for program ops;
    - [nprocs] (default 4), [machine] ("ipsc860");
    - [no_opt] (false), [fno] (list of pass names as in [f90dc --fno-*]);
    - [cache] (true) — set false to bypass all three cache levels;
    - [timeout_s] — overrides the service default for this request;
    - [finals] (false) — gather and return final arrays/scalars (their
      rendering round-trips doubles bit-for-bit) plus [finals_digest];
    - [emit] (false, [compile] only) — include the generated F77+MP text.

    Level-3 schedule persistence activates when the service has a
    {!Store.t} and the request allows caching: before the run every
    rank's schedule cache is preloaded from the store artifact keyed by
    (source digest, pass flags, nprocs) — the distribution directives
    are part of the digested source — and on a store miss the built
    schedules are persisted afterwards.  A fully warm run reports
    [sched_builds = 0]. *)

type t

exception Timed_out of float
(** Raised (internally) by the engine poll hook when a request exceeds
    its deadline; {!handle} turns it into an error response with
    ["timeout": true]. *)

val create :
  ?cache:Cache.t ->
  ?store:Store.t ->
  ?registry:F90d_obs.Metrics.registry ->
  ?timeout:float ->
  ?slow:float ->
  ?workers:int ->
  unit ->
  t
(** [timeout] is the default per-request wall-clock limit in seconds
    (0 or absent = unlimited); [workers] is reported by [stats];
    [registry] receives every metric family (default: a fresh registry,
    so two services in one process never conflate counters); requests
    slower than [slow] seconds (default 10, 0 = never) log a warn-level
    [slow_request] record. *)

val ops : string list
(** The known operation vocabulary, in dispatch order. *)

val store : t -> Store.t option
val cache : t -> Cache.t

val telemetry : t -> Telemetry.t
(** The service's metric families — [Telemetry.render] is what the
    [metrics] op returns in its ["body"]. *)

val set_pool :
  t -> workers:int -> queue_depth:(unit -> int) -> busy:(unit -> int) -> unit
(** Wire the worker-pool gauges (called by {!Server.start}). *)

val handle : t -> Json.t -> Json.t
(** Serve one request.  Never raises. *)

val handle_line : t -> string -> string * [ `Continue | `Shutdown ]
(** Transport entry point: parse one frame payload (a parse failure is
    an error response), serve it, and say whether it was an accepted
    [shutdown]. *)

val strip_volatile : Json.t -> Json.t
(** Drop the fields that legitimately differ between two executions of
    the same request at equal cache temperature (host wall time); the
    rest of the response is deterministic, so equality on the result is
    the protocol's bit-identity check. *)

val demo_source : string -> nprocs:int -> n:int -> string
(** The built-in demo programs ([gauss], [gauss-cyclic], [jacobi],
    [jacobi2d], [irregular], [fft]) shared with the CLI.
    @raise Invalid_argument on an unknown name. *)

val model_of_name : string -> F90d_machine.Model.t
(** [ipsc860], [ncube2] or [ideal]; @raise Invalid_argument otherwise. *)

val flags_of_names : no_opt:bool -> string list -> F90d_opt.Passes.flags
(** Fold [--fno-*]-style pass names over the base flag set.
    @raise Invalid_argument on an unknown pass name. *)

(** {2 Level-3 plumbing shared with [f90dc --cache-dir] and the bench} *)

type sched_io = {
  sio_preload : (int -> (string * string) list) option;
      (** pass to {!F90d.Driver.run}'s [sched_preload] *)
  sio_collect : (int -> (string * string) list -> unit) option;
      (** pass to [sched_collect] *)
  sio_commit : unit -> unit;
      (** call after a successful run to persist what was collected
          (no-op on a store hit) *)
  sio_temp : string;  (** ["hit"], ["miss"] or ["off"] *)
}

val sched_io :
  Store.t option ->
  use:bool ->
  source:string ->
  flags:F90d_opt.Passes.flags ->
  nprocs:int ->
  sched_io
(** Look up the persisted schedules for (source, flags, nprocs) and
    return the run hooks: on a store hit, a preloader; on a miss, a
    per-rank collector plus the commit that persists it. *)
