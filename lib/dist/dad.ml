open F90d_base

type dim = {
  flb : int;
  extent : int;
  align : Affine.t;
  dist : Distrib.t;
  pdim : int option;
  ghost_lo : int;
  ghost_hi : int;
}

type t = {
  name : string;
  kind : Scalar.kind;
  grid : Grid.t;
  dims : dim array;
  layouts : Layout.t array array;
      (* per dimension, one layout per grid coordinate along its [pdim]
         (a single entry when the dimension is not distributed) *)
  extents : int array array;
      (* indexed like [layouts]: the storage extent, owned count plus
         ghost cells *)
  rstrides : int array;
      (* per dimension, the grid-rank stride of its [pdim]; 0 when not
         distributed *)
  replicas : int array;
      (* rank offsets from the home rank of every copy of an element:
         grid dimensions no array dimension maps to replicate it *)
}

(* The lookup tables derived from resolved layouts. *)
let with_layouts ~name ~kind ~grid dims layouts =
  let extents =
    Array.mapi
      (fun i lays -> Array.map (fun l -> Layout.count l + dims.(i).ghost_lo + dims.(i).ghost_hi) lays)
      layouts
  in
  let rstrides =
    Array.map (fun d -> match d.pdim with None -> 0 | Some p -> Grid.stride grid ~dim:p) dims
  in
  let used = Array.make (Grid.ndims grid) false in
  Array.iter (fun d -> Option.iter (fun p -> used.(p) <- true) d.pdim) dims;
  (* the first unused grid dimension varies slowest *)
  let replicas = ref [| 0 |] in
  Array.iteri
    (fun p n ->
      if not used.(p) then
        replicas :=
          Array.concat
            (List.map
               (fun o -> Array.init n (fun c -> o + (c * Grid.stride grid ~dim:p)))
               (Array.to_list !replicas)))
    (Grid.dims grid);
  { name; kind; grid; dims; layouts; extents; rstrides; replicas = !replicas }

let make ~name ~kind ~grid dims =
  let used = Array.make (Grid.ndims grid) false in
  let resolve d =
    let coords =
      match d.pdim with
      | None -> 1
      | Some p ->
          if p < 0 || p >= Grid.ndims grid then
            Diag.bug "dad %s: grid dimension %d out of range" name p;
          if used.(p) then Diag.bug "dad %s: two dimensions distributed over grid dim %d" name p;
          used.(p) <- true;
          (Grid.dims grid).(p)
    in
    Array.init coords (fun proc -> Layout.resolve d.dist ~align:d.align ~extent:d.extent ~proc)
  in
  with_layouts ~name ~kind ~grid dims (Array.map resolve dims)

let replicated_dim ~flb ~extent =
  {
    flb;
    extent;
    align = Affine.ident;
    dist = Distrib.make Replicated ~n:(max extent 1) ~p:1;
    pdim = None;
    ghost_lo = 0;
    ghost_hi = 0;
  }

let dist_dim form ?(align = Affine.ident) ?tn ~flb ~extent ~pdim ~p () =
  let tn =
    match tn with
    | Some n -> n
    | None -> max 1 (max (Affine.eval align 0) (Affine.eval align (extent - 1)) + 1)
  in
  { flb; extent; align; dist = Distrib.make form ~n:tn ~p; pdim = Some pdim; ghost_lo = 0; ghost_hi = 0 }

let block_dim ?align ?tn ~flb ~extent ~pdim ~p () =
  dist_dim Distrib.Block ?align ?tn ~flb ~extent ~pdim ~p ()

let cyclic_dim ?align ?tn ~flb ~extent ~pdim ~p () =
  dist_dim Distrib.Cyclic ?align ?tn ~flb ~extent ~pdim ~p ()

let collapse t ~dim =
  let at_dim x keep = Array.mapi (fun i y -> if i = dim then x else keep y) in
  with_layouts ~name:(t.name ^ "#fold") ~kind:t.kind ~grid:t.grid
    (at_dim (replicated_dim ~flb:1 ~extent:1) (fun d -> { d with ghost_lo = 0; ghost_hi = 0 }) t.dims)
    (at_dim [| Layout.Prog { first = 0; step = 1; count = 1 } |] Fun.id t.layouts)

let name t = t.name
let kind t = t.kind
let grid t = t.grid
let dims t = t.dims
let rank t = Array.length t.dims
let is_replicated t = Array.for_all (fun d -> d.pdim = None) t.dims
let global_extents t = Array.map (fun d -> d.extent) t.dims
let global_size t = Array.fold_left (fun acc d -> acc * d.extent) 1 t.dims
let elem_bytes t = match t.kind with Scalar.Kreal -> 8 | _ -> 4

(* Index into a per-coordinate table of dimension [dim] for a grid rank. *)
let coord_at t dim ~rank =
  match t.dims.(dim).pdim with None -> 0 | Some p -> Grid.coord t.grid ~rank ~dim:p

let layout_at t ~dim ~rank = t.layouts.(dim).(coord_at t dim ~rank)

let local_counts t ~rank =
  Array.mapi (fun i _ -> Layout.count (layout_at t ~dim:i ~rank)) t.dims

let alloc_local t ~rank =
  let counts = local_counts t ~rank in
  let extents =
    Array.mapi (fun i c -> c + t.dims.(i).ghost_lo + t.dims.(i).ghost_hi) counts
  in
  let lb = Array.map (fun d -> -d.ghost_lo) t.dims in
  Ndarray.create t.kind ~lb extents

(* 0-based index of a Fortran subscript, range-checked against the
   declaration: everything downstream indexes tables with it. *)
let checked_a0 t dim g =
  let d = t.dims.(dim) in
  let a0 = g - d.flb in
  if a0 < 0 || a0 >= d.extent then
    Diag.error "index %d of %s dim %d is outside the declared bounds %d:%d" g t.name (dim + 1)
      d.flb (d.flb + d.extent - 1);
  a0

(* Grid coordinate along [pdim] owning 0-based index [a0] of a dimension. *)
let owner_coord d a0 =
  match d.pdim with None -> 0 | Some _ -> Distrib.owner d.dist (Affine.eval d.align a0)

let home_rank t idx =
  let home = ref 0 in
  for i = 0 to Array.length t.dims - 1 do
    home := !home + (owner_coord t.dims.(i) (checked_a0 t i idx.(i)) * t.rstrides.(i))
  done;
  !home

let owning_ranks t idx =
  let home = home_rank t idx in
  Array.to_list (Array.map (fun o -> home + o) t.replicas)

let copies t = Array.length t.replicas

let locate t idx ~every_owner ~owners ~flats ~at =
  let home = ref 0 and off = ref 0 and stride = ref 1 in
  for i = 0 to Array.length t.dims - 1 do
    let d = t.dims.(i) in
    let a0 = checked_a0 t i idx.(i) in
    let c = owner_coord d a0 in
    home := !home + (c * t.rstrides.(i));
    off := !off + ((Layout.local_of_global t.layouts.(i).(c) a0 + d.ghost_lo) * !stride);
    stride := !stride * t.extents.(i).(c)
  done;
  for j = 0 to (if every_owner then Array.length t.replicas else 1) - 1 do
    owners.(at + j) <- !home + t.replicas.(j);
    flats.(at + j) <- !off
  done

let is_local t ~rank idx =
  let rec go i =
    i >= Array.length t.dims
    || (Layout.is_owned (layout_at t ~dim:i ~rank) (idx.(i) - t.dims.(i).flb) && go (i + 1))
  in
  go 0

let local_indices t ~rank idx =
  let n = Array.length t.dims in
  let out = Array.make n 0 in
  let rec go i =
    if i >= n then Some out
    else
      let l = layout_at t ~dim:i ~rank in
      let a0 = checked_a0 t i idx.(i) in
      if Layout.is_owned l a0 then begin
        out.(i) <- Layout.local_of_global l a0;
        go (i + 1)
      end
      else None
  in
  go 0

let global_of_local t ~rank lidx =
  Array.mapi
    (fun i l -> Layout.global_of_local (layout_at t ~dim:i ~rank) l + t.dims.(i).flb)
    lidx

let storage_flat t ~rank lidx =
  let off = ref 0 and stride = ref 1 in
  for d = 0 to Array.length t.dims - 1 do
    let ext = t.extents.(d).(coord_at t d ~rank) in
    let pos = lidx.(d) + t.dims.(d).ghost_lo in
    if pos < 0 || pos >= ext then
      Diag.bug "dad %s: local index %d out of storage in dim %d" t.name lidx.(d) (d + 1);
    off := !off + (pos * !stride);
    stride := !stride * ext
  done;
  !off

let iter_local t ~rank f =
  let counts = local_counts t ~rank in
  let nd = Array.length counts in
  let total = Array.fold_left ( * ) 1 counts in
  if total > 0 then begin
    let lidx = Array.make nd 0 in
    for _ = 1 to total do
      f (global_of_local t ~rank lidx) lidx;
      let rec bump d =
        if d < nd then
          if lidx.(d) < counts.(d) - 1 then lidx.(d) <- lidx.(d) + 1
          else begin
            lidx.(d) <- 0;
            bump (d + 1)
          end
      in
      bump 0
    done
  end

let pp ppf t =
  Format.fprintf ppf "@[<hov 2>DAD %s %a(" t.name Scalar.pp_kind t.kind;
  Array.iteri
    (fun i d ->
      if i > 0 then Format.pp_print_string ppf ", ";
      Format.fprintf ppf "%d:%d %s%s" d.flb
        (d.flb + d.extent - 1)
        (Distrib.form_name d.dist.form)
        (match d.pdim with Some p -> Printf.sprintf "@p%d" p | None -> ""))
    t.dims;
  Format.fprintf ppf ") on %a@]" Grid.pp t.grid
