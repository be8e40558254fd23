(** PARTI-style communication schedules (§5.3.2).

    A schedule records, per peer, which buffer positions to pack into a
    single vectorized message and where incoming values land — the
    inspector half of the inspector/executor model.  Data always moves in
    one message per communicating pair, which is the paper's message
    vectorization optimization.

    Two build families mirror the paper's two kinds of preprocessing:

    - {e local} builds (schedule1 of precomp_read / postcomp_write): both
      sides of every exchange are computed without communication, from an
      invertible subscript.  The caller supplies one inspector pass over
      every rank's iteration space, indexed by owner ({!owner_index}).
      Nothing in it depends on the rank that built it, so one index
      serves every rank of a run: each reads its own entries and what
      every peer wants from (or writes to) it as slices of the index.
    - {e communicating} builds (schedule2/schedule3 of gather / scatter):
      only one side is locally known; index lists are exchanged during
      scheduling (the fan-in the paper describes).

    Entries come as two unboxed arrays: entry [i] pairs a tmp-buffer
    position (entries in iteration order) with [owners.(i)], the owner
    grid rank, and [flats.(i)], the flat storage position on the owner.
    A local build's pass holds every rank's entries, rank [r]'s at
    [starts.(r)] .. [starts.(r + 1) - 1]; a communicating build's holds
    only the caller's.  Either is bucketed by owner in one stable
    counting sort. *)

type t

type index
(** A pass's entries sorted by owner rank, stably: within an owner, in
    entry order, so each slot's entries form one run. *)

val owner_index :
  nprocs:int -> owners:int array -> flats:int array -> starts:int array -> index
(** [owner_index ~nprocs ~owners ~flats ~starts] indexes a pass whose
    slot [s] holds entries [starts.(s)] .. [starts.(s + 1) - 1]. *)

val entries : index -> int -> int
(** [entries ix s] is the number of entries in slot [s]. *)

val build_read_local : Rctx.t -> index -> t
(** schedule1 for precomp_read, from an index of every rank's pass (slot
    [r] is rank [r]'s iterations). *)

val build_gather : Rctx.t -> owners:int array -> flats:int array -> t
(** schedule2 for gather. *)

val build_read_comm : Rctx.t -> needs:(int * int) array -> t
(** {!build_gather} from [(owner, flat)] pairs. *)

val build_write_local : Rctx.t -> index -> t
(** schedule1 for postcomp_write, from an index as for
    {!build_read_local}. *)

val build_scatter : Rctx.t -> owners:int array -> flats:int array -> t
(** schedule3 for scatter. *)

val read : Rctx.t -> t -> Darray.t -> F90d_base.Ndarray.t
(** Executor: fetch every needed element into a flat tmp buffer ordered
    like [needs]. *)

val write : Rctx.t -> t -> Darray.t -> F90d_base.Ndarray.t -> unit
(** Executor: store tmp values (ordered like [writes]) into their owners'
    local sections. *)

(** {2 Schedule reuse (§7, optimization 3)} *)

val cached : Rctx.t -> key:string -> (unit -> t) -> t
(** Returns the cached schedule for [key] on this processor, building it
    once per run (the cache lives in the {!Rctx.t}, so runs and ranks are
    isolated).  The compiler emits stable keys for reusable inspectors.
    Builds and hits are recorded in the processor's {!F90d_machine.Stats}
    collector and appear as [sched_builds]/[sched_hits] in the run
    report. *)

(** {2 Cross-process persistence}

    Schedules are pure index data, so a rank's cache can be exported at
    the end of a run and preloaded into a fresh {!Rctx.t} before the
    next run of the {e same} (program, distribution, machine size) —
    the deterministic SPMD replay then generates the same key sequence
    on every rank, each lookup hits, and the inspector (including its
    index-list exchange messages) is skipped.  Preloading must be
    all-or-nothing across ranks: a rank that rebuilds while its peers
    hit would wait for index lists nobody sends. *)

exception Corrupt of string
(** Raised by {!of_string} on a malformed blob (truncated, negative
    lengths, trailing bytes).  Store layers turn this into a cache-miss
    plus rebuild, never a crash. *)

val to_string : t -> string
(** Stable little-endian binary encoding (no [Marshal]: blobs survive
    compiler rebuilds and digest checks stay meaningful). *)

val of_string : string -> t
(** Inverse of {!to_string}; raises {!Corrupt} on malformed input. *)

val export : Rctx.t -> (string * string) list
(** This rank's cached schedules as [(key, to_string blob)] pairs,
    sorted by key (deterministic across engines). *)

val preload : Rctx.t -> (string * string) list -> unit
(** Seed a fresh context's cache; subsequent {!cached} lookups on these
    keys record hits, so a fully warm run reports [sched_builds = 0].
    Raises {!Corrupt} on a bad blob. *)
