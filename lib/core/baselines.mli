(** Hand-written message-passing baselines (the "Fortran 77+MP" codes of
    §8.2), written directly against the run-time library the way a careful
    1993 programmer would.

    The Gaussian elimination baseline runs the same algorithm on the same
    column-BLOCK data layout as the compiled {!Programs.gauss}, but fuses
    each step's communication into a {e single} broadcast carrying the
    pivot row index, the pivot value and the swapped multiplier column —
    where the compiler-generated code issues a column multicast for the
    pivot search, a scalar pivot broadcast and a second multiplier-column
    multicast.  That fused-vs-separate difference is exactly the gap of
    Table 4 / Figure 6. *)

open F90d_machine

type gauss_run = {
  elapsed : float;  (** simulated parallel time, seconds *)
  stats : Stats.t;
  solution : float array;  (** replicated solution vector *)
}

val run_hand_gauss :
  ?model:Model.t -> ?topology:Topology.t -> nprocs:int -> n:int -> unit -> gauss_run
(** Set up the machine and grid and run the baseline. *)

val seq_gauss : n:int -> float array
(** Sequential oracle for the same system (host arithmetic, no machine):
    the reference solution for verification. *)
