(** The paper's [set_BOUND] primitive lifted to DAD dimensions (§4).

    Given a global computation range in Fortran indices of an array
    dimension, compute each processor's local triplet — masking inactive
    processors by returning [None]. *)

type triplet = { llb : int; lub : int; lst : int }

val set_bound :
  Dad.t -> dim:int -> rank:int -> glb:int -> gub:int -> gst:int -> triplet option
(** Local (0-based storage, ghost-offset excluded) bounds on [rank] of the
    global Fortran range [glb:gub:gst] over dimension [dim]. *)

val global_of_local_index : Dad.t -> dim:int -> rank:int -> int -> int
(** Fortran global index corresponding to a local position — the
    [global_to_local]⁻¹ used inside generated loops. *)

val local_of_global_index : Dad.t -> dim:int -> rank:int -> int -> int option
(** The generated code's [global_to_local]: storage position of a global
    Fortran index if owned by [rank]. *)

val iterations : triplet option -> int
(** Number of local iterations a triplet yields (0 for [None]; correct for
    ascending and descending strides alike).
    @raise Invalid_argument on a zero stride. *)
