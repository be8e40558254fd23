open F90d_base
open F90d_dist
open F90d_machine

let table3_category name =
  match String.uppercase_ascii name with
  | "CSHIFT" | "EOSHIFT" -> Some "structured communication"
  | "DOTPRODUCT" | "DOT_PRODUCT" | "ALL" | "ANY" | "COUNT" | "MAXVAL" | "MINVAL" | "PRODUCT"
  | "SUM" | "MAXLOC" | "MINLOC" ->
      Some "reduction"
  | "SPREAD" -> Some "multicasting"
  | "PACK" | "UNPACK" | "RESHAPE" | "TRANSPOSE" -> Some "unstructured communication"
  | "MATMUL" -> Some "special routines"
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Structured: CSHIFT / EOSHIFT                                        *)
(* ------------------------------------------------------------------ *)

let shifted_darray ctx (src : Darray.t) ~dim ~shift ~circular ~boundary =
  let dad = src.Darray.dad in
  let d = (Dad.dims dad).(dim) in
  let out = Darray.create ctx dad in
  (match d.Dad.pdim with
  | None ->
      (* dimension lives wholly on-processor: pure local movement *)
      let me = Rctx.me ctx in
      Darray.iter_owned out ~rank:me (fun g flat ->
          let sg = Array.copy g in
          let p = g.(dim) - d.Dad.flb + shift in
          let v =
            if circular then begin
              sg.(dim) <- d.Dad.flb + Util.modulo p d.Dad.extent;
              Option.get (Darray.get_local src ~rank:me sg)
            end
            else if p >= 0 && p < d.Dad.extent then begin
              sg.(dim) <- d.Dad.flb + p;
              Option.get (Darray.get_local src ~rank:me sg)
            end
            else boundary
          in
          Ndarray.set_flat out.Darray.local flat v);
      Rctx.charge_copy_bytes ctx (Darray.owned_count out ~rank:me * 8)
  | Some _ ->
      let wants c =
        let l = Dad.layout_at dad ~dim ~rank:(Collectives.team_along ctx ~dim:(Option.get d.Dad.pdim)).(c) in
        Array.init (Layout.count l) (fun i ->
            let g = Layout.global_of_local l i + shift in
            if circular then Util.modulo g d.Dad.extent else g)
      in
      let tmp = Structured.exchange_wants ctx src ~dim ~wants in
      (* tmp is the owned box in local order; positions that fell outside a
         non-circular shift keep zero and are overwritten with boundary *)
      let me = Rctx.me ctx in
      let lay = Dad.layout_at dad ~dim ~rank:me in
      Dad.iter_local dad ~rank:me (fun _ lidx ->
          let tmp_idx = Array.map (( + ) 1) lidx in
          let v =
            let p = Layout.global_of_local lay lidx.(dim) + shift in
            if (not circular) && (p < 0 || p >= d.Dad.extent) then boundary
            else Ndarray.get tmp tmp_idx
          in
          Ndarray.set out.Darray.local (Array.copy lidx) v));
  out

let cshift ctx src ~dim ~shift =
  shifted_darray ctx src ~dim ~shift ~circular:true ~boundary:(Scalar.zero (Darray.kind src))

let eoshift ctx src ~dim ~shift ~boundary =
  shifted_darray ctx src ~dim ~shift ~circular:false ~boundary

(* ------------------------------------------------------------------ *)
(* Reductions                                                          *)
(* ------------------------------------------------------------------ *)

(* Owned elements only; replicated dimensions would otherwise be counted
   once per processor holding them.  Processors owning a replicated copy
   contribute only when they hold grid coordinate 0 on the unused grid
   dimensions. *)
let is_contributor ctx (darr : Darray.t) =
  let dad = darr.Darray.dad in
  let used = Array.make (Grid.ndims (Dad.grid dad)) false in
  Array.iter
    (fun d -> match d.Dad.pdim with Some p -> used.(p) <- true | None -> ())
    (Dad.dims dad);
  let coords = Rctx.my_coords ctx in
  let ok = ref true in
  Array.iteri (fun i u -> if (not u) && coords.(i) <> 0 then ok := false) used;
  !ok

let local_fold ctx op (darr : Darray.t) =
  let me = Rctx.me ctx in
  let acc = ref (Redop.identity op (Darray.kind darr)) in
  (if is_contributor ctx darr then
     match (Rctx.kernels ctx, op, darr.Darray.local.Ndarray.data) with
     | true, (Redop.Sum | Redop.Prod | Redop.Max | Redop.Min), Ndarray.Reals d ->
         (* unboxed fold in iteration order; MAX/MIN use [compare] like
            Scalar.max2/min2 (first operand wins ties), so the result is
            bit-identical to the Redop.scalar chain *)
         let f =
           match op with
           | Redop.Sum -> ( +. )
           | Redop.Prod -> ( *. )
           | Redop.Max -> fun (x : float) y -> if compare x y >= 0 then x else y
           | _ -> fun (x : float) y -> if compare x y <= 0 then x else y
         in
         let r = ref (Scalar.to_real !acc) in
         Darray.iter_owned darr ~rank:me (fun _ flat -> r := f !r (Array.unsafe_get d flat));
         acc := Scalar.Real !r
     | _ ->
         Darray.iter_owned darr ~rank:me (fun _ flat ->
             acc := Redop.scalar op !acc (Ndarray.get_flat darr.Darray.local flat)));
  Rctx.charge_flops ctx (Darray.owned_count darr ~rank:me);
  !acc

let reduce ctx op darr =
  let local = local_fold ctx op darr in
  let team = Collectives.team_all ctx in
  match
    Collectives.allreduce ctx team ~combine:(Redop.payload op) (Message.Scalar local)
  with
  | Message.Scalar v -> v
  | _ -> Diag.bug "reduce: protocol error"

let reduce_dim ctx op (src : Darray.t) ~dim ~dad =
  let me = Rctx.me ctx in
  let sdad = src.Darray.dad in
  let counts = Dad.local_counts sdad ~rank:me in
  (* local partial fold along [dim] into a slab of extent 1 *)
  let pextents = Array.copy counts in
  pextents.(dim) <- min 1 counts.(dim);
  let partial = Ndarray.create (Darray.kind src) (Array.map (max 1) pextents) in
  Ndarray.fill partial (Redop.identity op (Darray.kind src));
  Dad.iter_local sdad ~rank:me (fun _ lidx ->
      let p = Array.mapi (fun d l -> if d = dim then 1 else l + 1) lidx in
      let v = Ndarray.get src.Darray.local lidx in
      Ndarray.set partial p (Redop.scalar op (Ndarray.get partial p) v));
  Rctx.charge_flops ctx (Darray.owned_count src ~rank:me);
  (* combine partial slabs across the grid axis of the folded dimension *)
  let combined =
    match (Dad.dims sdad).(dim).Dad.pdim with
    | None -> partial
    | Some p -> (
        let team = Collectives.team_along ctx ~dim:p in
        match
          Collectives.allreduce ctx team ~combine:(Redop.payload op) (Message.Arr partial)
        with
        | Message.Arr a -> a
        | _ -> Diag.bug "reduce_dim: protocol error")
  in
  (* an intermediate descriptor: the source with [dim] collapsed *)
  let mid = Darray.create ctx (Dad.collapse sdad ~dim) in
  let i = ref 0 in
  Darray.iter_owned mid ~rank:me (fun _ flat ->
      Ndarray.set_flat mid.Darray.local flat (Ndarray.get_flat combined !i);
      incr i);
  (* drop the folded dimension into the caller's descriptor *)
  let dst = Darray.create ctx dad in
  Redistribute.remap ctx ~dst ~src:mid ~f:(fun g ->
      let out = Array.make (Array.length g + 1) 1 in
      Array.iteri (fun d v -> out.(if d < dim then d else d + 1) <- v) g;
      out)
  |> fun () -> dst

let count ctx darr =
  let me = Rctx.me ctx in
  let c = ref 0 in
  if is_contributor ctx darr then
    Darray.iter_owned darr ~rank:me (fun _ flat ->
        if Scalar.to_bool (Ndarray.get_flat darr.Darray.local flat) then incr c);
  Rctx.charge_iops ctx (Darray.owned_count darr ~rank:me);
  let team = Collectives.team_all ctx in
  match
    Collectives.allreduce ctx team ~combine:(Redop.payload Redop.Sum) (Message.Scalar (Scalar.Int !c))
  with
  | Message.Scalar v -> v
  | _ -> Diag.bug "count: protocol error"

let same_layout (a : Darray.t) (b : Darray.t) =
  let da = Dad.dims a.Darray.dad and db = Dad.dims b.Darray.dad in
  Array.length da = Array.length db
  && Array.for_all2
       (fun x y ->
         x.Dad.extent = y.Dad.extent && x.Dad.pdim = y.Dad.pdim
         && x.Dad.dist.Distrib.form = y.Dad.dist.Distrib.form
         && Affine.equal x.Dad.align y.Dad.align)
       da db

(* After alignment b shares a's layout; when the ghost halos also agree
   the two locals are congruent and a's flat offsets index b directly. *)
let congruent_locals (a : Darray.t) (b : Darray.t) =
  let da = Dad.dims a.Darray.dad and db = Dad.dims b.Darray.dad in
  Array.length da = Array.length db
  && Array.for_all2
       (fun (x : Dad.dim) (y : Dad.dim) ->
         x.Dad.ghost_lo = y.Dad.ghost_lo && x.Dad.ghost_hi = y.Dad.ghost_hi)
       da db

let dotproduct ctx (a : Darray.t) (b : Darray.t) =
  let b = if same_layout a b then b else Redistribute.redistribute ctx b a.Darray.dad in
  let me = Rctx.me ctx in
  let acc = ref 0. in
  (if is_contributor ctx a then
     match (Rctx.kernels ctx, a.Darray.local.Ndarray.data, b.Darray.local.Ndarray.data) with
     | true, Ndarray.Reals ad, Ndarray.Reals bd when congruent_locals a b ->
         Darray.iter_owned a ~rank:me (fun _ flat ->
             acc := !acc +. (Array.unsafe_get ad flat *. Array.unsafe_get bd flat))
     | _ ->
         Darray.iter_owned a ~rank:me (fun g flat ->
             let x = Scalar.to_real (Ndarray.get_flat a.Darray.local flat) in
             let y = Scalar.to_real (Option.get (Darray.get_local b ~rank:me g)) in
             acc := !acc +. (x *. y)));
  Rctx.charge_flops ctx (2 * Darray.owned_count a ~rank:me);
  let team = Collectives.team_all ctx in
  match
    Collectives.allreduce ctx team ~combine:(Redop.payload Redop.Sum)
      (Message.Scalar (Scalar.Real !acc))
  with
  | Message.Scalar v -> v
  | _ -> Diag.bug "dotproduct: protocol error"

(* Column-major flat position of a global Fortran index vector — the
   tie-breaking order for MAXLOC/MINLOC. *)
let global_flat (darr : Darray.t) g =
  let dims = Dad.dims darr.Darray.dad in
  let off = ref 0 and stride = ref 1 in
  Array.iteri
    (fun d gd ->
      off := !off + ((gd - dims.(d).Dad.flb) * !stride);
      stride := !stride * dims.(d).Dad.extent)
    g;
  !off

let loc_reduce ctx ~better ~combine (darr : Darray.t) =
  let me = Rctx.me ctx in
  let best = ref None in
  if is_contributor ctx darr then
    Darray.iter_owned darr ~rank:me (fun g flat ->
        let v = Ndarray.get_flat darr.Darray.local flat in
        match !best with
        | None -> best := Some (v, Array.copy g)
        | Some (bv, bg) ->
            if
              Scalar.to_bool (better v bv)
              || (Scalar.equal v bv && global_flat darr g < global_flat darr bg)
            then best := Some (v, Array.copy g));
  Rctx.charge_flops ctx (Darray.owned_count darr ~rank:me);
  let payload =
    match !best with
    | None -> Message.Empty
    | Some (v, g) -> Message.Pair (Message.Scalar v, Message.Ints g)
  in
  let team = Collectives.team_all ctx in
  match Collectives.allreduce ctx team ~combine payload with
  | Message.Pair (_, Message.Ints g) -> g
  | _ -> Diag.bug "maxloc/minloc: empty array"

(* combine with Fortran first-occurrence tie-breaking on the global flat
   position *)
let loc_combine darr better a b =
  match (a, b) with
  | Message.Empty, x | x, Message.Empty -> x
  | ( Message.Pair (Message.Scalar va, Message.Ints ga),
      Message.Pair (Message.Scalar vb, Message.Ints gb) ) ->
      if Scalar.to_bool (better vb va) then b
      else if Scalar.equal va vb && global_flat darr gb < global_flat darr ga then b
      else a
  | _ -> Diag.bug "maxloc/minloc: bad payload"

let maxloc ctx darr =
  loc_reduce ctx ~better:Scalar.cmp_gt ~combine:(loc_combine darr Scalar.cmp_gt) darr

let minloc ctx darr =
  loc_reduce ctx ~better:Scalar.cmp_lt ~combine:(loc_combine darr Scalar.cmp_lt) darr

(* ------------------------------------------------------------------ *)
(* Multicast / unstructured                                            *)
(* ------------------------------------------------------------------ *)

let spread ctx (src : Darray.t) ~dim ~dad =
  let dst = Darray.create ctx dad in
  Redistribute.remap ctx ~dst ~src ~f:(fun g ->
      (* drop the spread dimension *)
      Array.of_list (List.filteri (fun d _ -> d <> dim) (Array.to_list g)));
  dst

let transpose ctx (src : Darray.t) ~dad =
  let dst = Darray.create ctx dad in
  Redistribute.remap ctx ~dst ~src ~f:(fun g -> [| g.(1); g.(0) |]);
  dst

let reshape ctx (src : Darray.t) ~dad =
  let dst = Darray.create ctx dad in
  let src_dims = Dad.dims src.Darray.dad in
  let dst_dims = Dad.dims dad in
  if Dad.global_size dad <> Dad.global_size src.Darray.dad then
    Diag.bug "reshape: element counts differ";
  Redistribute.remap ctx ~dst ~src ~f:(fun g ->
      (* column-major element order in both shapes *)
      let flat = ref 0 and stride = ref 1 in
      Array.iteri
        (fun d gd ->
          flat := !flat + ((gd - dst_dims.(d).Dad.flb) * !stride);
          stride := !stride * dst_dims.(d).Dad.extent)
        g;
      let out = Array.make (Array.length src_dims) 0 in
      let r = ref !flat in
      Array.iteri
        (fun d sd ->
          out.(d) <- sd.Dad.flb + (!r mod sd.Dad.extent);
          r := !r / sd.Dad.extent)
        src_dims;
      out);
  dst

(* PACK needs a data-dependent mapping, so the mask positions are counted
   on a replicated copy first (the paper routes PACK through the
   unstructured executors too). *)
let pack ctx (src : Darray.t) ~mask ~dad =
  let gmask = Darray.gather_global ctx mask in
  let positions = ref [] and n = ref 0 in
  Ndarray.iteri gmask (fun idx v ->
      if Scalar.to_bool v then begin
        positions := Array.copy idx :: !positions;
        incr n
      end);
  let positions = Array.of_list (List.rev !positions) in
  Rctx.charge_iops ctx (Ndarray.size gmask);
  let dst = Darray.create ctx dad in
  let flb = (Dad.dims dad).(0).Dad.flb in
  let src_first = Array.map (fun d -> d.Dad.flb) (Dad.dims src.Darray.dad) in
  Redistribute.remap ctx ~dst ~src ~f:(fun g ->
      let i = g.(0) - flb in
      if i < Array.length positions then positions.(i) else src_first);
  (* zero-pad the tail beyond the packed count *)
  let me = Rctx.me ctx in
  Darray.iter_owned dst ~rank:me (fun g flat ->
      if g.(0) - flb >= !n then
        Ndarray.set_flat dst.Darray.local flat (Scalar.zero (Darray.kind dst)));
  (dst, !n)

let unpack ctx (vec : Darray.t) ~mask ~field =
  let gmask = Darray.gather_global ctx mask in
  let dst = Darray.create ctx field.Darray.dad in
  (* positions of .TRUE. cells in array-element order, mapped to vector indices *)
  let index_of = Hashtbl.create 64 in
  let n = ref 0 in
  Ndarray.iteri gmask (fun idx v ->
      if Scalar.to_bool v then begin
        Hashtbl.add index_of (Array.to_list idx) !n;
        incr n
      end);
  Rctx.charge_iops ctx (Ndarray.size gmask);
  let vlb = (Dad.dims vec.Darray.dad).(0).Dad.flb in
  (* first fill from field, then overwrite masked cells from the vector *)
  let me = Rctx.me ctx in
  Darray.iter_owned dst ~rank:me (fun g flat ->
      Ndarray.set_flat dst.Darray.local flat (Option.get (Darray.get_local field ~rank:me g)));
  let masked = Darray.create ctx field.Darray.dad in
  Redistribute.remap ctx ~dst:masked ~src:vec ~f:(fun g ->
      match Hashtbl.find_opt index_of (Array.to_list g) with
      | Some i -> [| vlb + i |]
      | None -> [| vlb |]);
  Darray.iter_owned dst ~rank:me (fun g flat ->
      if Scalar.to_bool (Ndarray.get gmask g) then
        Ndarray.set_flat dst.Darray.local flat (Option.get (Darray.get_local masked ~rank:me g)));
  dst

(* ------------------------------------------------------------------ *)
(* Special: MATMUL                                                     *)
(* ------------------------------------------------------------------ *)

(* Is this the SUMMA-friendly shape: C, A, B all 2-D with C(i,j), A(i,k)
   sharing the row mapping and B(k,j) sharing the column mapping, identity
   alignments?  Then the classic panel-broadcast algorithm applies. *)
let summa_compatible (a : Darray.t) (b : Darray.t) (cdad : Dad.t) =
  let dims d = Dad.dims d in
  let same (x : Dad.dim) (y : Dad.dim) =
    x.Dad.flb = y.Dad.flb && x.Dad.extent = y.Dad.extent && x.Dad.pdim = y.Dad.pdim
    && x.Dad.dist.Distrib.form = y.Dad.dist.Distrib.form
    && Affine.equal x.Dad.align y.Dad.align
  in
  Array.length (dims a.Darray.dad) = 2
  && Array.length (dims b.Darray.dad) = 2
  && Array.length (dims cdad) = 2
  && same (dims a.Darray.dad).(0) (dims cdad).(0)
  && same (dims b.Darray.dad).(1) (dims cdad).(1)
  && (dims a.Darray.dad).(1).Dad.pdim <> None
  && (dims b.Darray.dad).(0).Dad.pdim <> None
  && Array.for_all (fun (d : Dad.dim) -> Affine.is_identity d.Dad.align) (dims a.Darray.dad)
  && Array.for_all (fun (d : Dad.dim) -> Affine.is_identity d.Dad.align) (dims b.Darray.dad)

(* SUMMA: for every inner index k, the owners of A(:,k) broadcast their
   column piece along the grid rows and the owners of B(k,:) broadcast
   their row piece along the grid columns; everyone adds the outer
   product of the two slabs into its owned block of C.  Communication is
   O(K log P) slab broadcasts instead of replicating both operands. *)
let matmul_summa ctx (a : Darray.t) (b : Darray.t) ~dad =
  let me = Rctx.me ctx in
  let dst = Darray.create ctx dad in
  let inner = (Dad.dims a.Darray.dad).(1).Dad.extent in
  let crows = (Dad.local_counts dad ~rank:me).(0)
  and ccols = (Dad.local_counts dad ~rank:me).(1) in
  let acc = Array.make (crows * ccols) 0. in
  let kb = Rctx.kernels ctx in
  for k0 = 0 to inner - 1 do
    let apanel = Structured.multicast ctx a ~dim:1 ~g:k0 in
    let bpanel = Structured.multicast ctx b ~dim:0 ~g:k0 in
    match (kb, apanel.Ndarray.data, bpanel.Ndarray.data) with
    | true, Ndarray.Reals ad, Ndarray.Reals bd
      when Ndarray.size apanel = crows && Ndarray.size bpanel = ccols
           && apanel.Ndarray.lb = [| 1; 1 |] && bpanel.Ndarray.lb = [| 1; 1 |] ->
        (* panels are dense slabs with one unit extent, so element (i,1)
           (resp. (1,j)) sits at flat i-1 (j-1) under either stride order;
           same j-outer/i-inner rank-1 update, minus the Scalar boxing *)
        for j = 0 to ccols - 1 do
          let bkj = Array.unsafe_get bd j in
          let jo = j * crows in
          for i = 0 to crows - 1 do
            Array.unsafe_set acc (jo + i)
              (Array.unsafe_get acc (jo + i) +. (Array.unsafe_get ad i *. bkj))
          done
        done
    | _ ->
        for j = 0 to ccols - 1 do
          let bkj = Scalar.to_real (Ndarray.get bpanel [| 1; j + 1 |]) in
          for i = 0 to crows - 1 do
            acc.((j * crows) + i) <-
              acc.((j * crows) + i)
              +. (Scalar.to_real (Ndarray.get apanel [| i + 1; 1 |]) *. bkj)
          done
        done
  done;
  Rctx.charge_flops ctx (2 * inner * crows * ccols);
  let i = ref 0 in
  Darray.iter_owned dst ~rank:me (fun _ flat ->
      (* iter_owned runs column-major over the local box, matching acc *)
      Ndarray.set_flat dst.Darray.local flat (Scalar.Real acc.(!i));
      incr i);
  dst

(* Edge of the k tiles in the tiled DGEMM below. *)
let dgemm_tile = 64

(* Fallback for arbitrary shapes/alignments: replicate both operands
   (tree-based gathers) and compute only the owned block. *)
let matmul_replicated ctx (a : Darray.t) (b : Darray.t) ~dad =
  let ga = Darray.gather_global ctx a and gb = Darray.gather_global ctx b in
  let inner = (Dad.dims a.Darray.dad).(1).Dad.extent in
  let a1 = (Dad.dims a.Darray.dad).(1).Dad.flb in
  let b0 = (Dad.dims b.Darray.dad).(0).Dad.flb in
  let dst = Darray.create ctx dad in
  let me = Rctx.me ctx in
  (match (Rctx.kernels ctx, ga.Ndarray.data, gb.Ndarray.data) with
  | true, Ndarray.Reals gad, Ndarray.Reals gbd ->
      (* k-tiled DGEMM: the accumulator for every owned C(i,j) persists
         across tiles and the k tiles run in ascending order, so each
         element sees its contributions in exactly the scalar-loop order
         — bit-identical, but A panels and B rows stay cache-resident
         for a whole tile *)
      let sa = Ndarray.strides ga and sb = Ndarray.strides gb in
      let la = ga.Ndarray.lb and lb = gb.Ndarray.lb in
      let rows = ref [] in
      Darray.iter_owned dst ~rank:me (fun g flat -> rows := (g.(0), g.(1), flat) :: !rows);
      let items = Array.of_list (List.rev !rows) in
      let n = Array.length items in
      let acc = Array.make (max 1 n) 0. in
      let k0 = ref 0 in
      while !k0 < inner do
        let khi = min inner (!k0 + dgemm_tile) in
        for idx = 0 to n - 1 do
          let g0, g1, _ = Array.unsafe_get items idx in
          let abase = ((g0 - la.(0)) * sa.(0)) + ((a1 - la.(1)) * sa.(1)) in
          let bbase = ((b0 - lb.(0)) * sb.(0)) + ((g1 - lb.(1)) * sb.(1)) in
          let s = ref (Array.unsafe_get acc idx) in
          for k = !k0 to khi - 1 do
            s :=
              !s
              +. (Array.unsafe_get gad (abase + (k * sa.(1)))
                 *. Array.unsafe_get gbd (bbase + (k * sb.(0))))
          done;
          Array.unsafe_set acc idx !s
        done;
        k0 := !k0 + dgemm_tile
      done;
      Array.iteri
        (fun idx (_, _, flat) -> Ndarray.set_flat dst.Darray.local flat (Scalar.Real acc.(idx)))
        items
  | _ ->
      Darray.iter_owned dst ~rank:me (fun g flat ->
          let acc = ref 0. in
          for k = 0 to inner - 1 do
            acc :=
              !acc
              +. Scalar.to_real (Ndarray.get ga [| g.(0); a1 + k |])
                 *. Scalar.to_real (Ndarray.get gb [| b0 + k; g.(1) |])
          done;
          Ndarray.set_flat dst.Darray.local flat (Scalar.Real !acc)));
  Rctx.charge_flops ctx (2 * inner * Darray.owned_count dst ~rank:me);
  dst

let matmul ctx (a : Darray.t) (b : Darray.t) ~dad =
  if summa_compatible a b dad then matmul_summa ctx a b ~dad
  else matmul_replicated ctx a b ~dad
