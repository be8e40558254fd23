open F90d_base

type t = {
  dims : int array;
  strides : int array;  (* rank distance between neighbours along each dimension *)
  phys_of_rank : int array;
  rank_of_phys : int array;
  all : int array;
  lines : int array array array;  (* lines.(dim).(rank): the line through rank *)
}

let size_of dims = Array.fold_left ( * ) 1 dims

let dims t = t.dims
let ndims t = Array.length t.dims
let size t = size_of t.dims

let rank_of_coords t coords =
  if Array.length coords <> ndims t then Diag.bug "grid: coordinate rank mismatch";
  let rank = ref 0 and stride = ref 1 in
  for d = 0 to ndims t - 1 do
    if coords.(d) < 0 || coords.(d) >= t.dims.(d) then
      Diag.bug "grid: coordinate %d out of range in dim %d" coords.(d) d;
    rank := !rank + (coords.(d) * !stride);
    stride := !stride * t.dims.(d)
  done;
  !rank

let coord t ~rank ~dim = (rank / t.strides.(dim)) mod t.dims.(dim)
let stride t ~dim = t.strides.(dim)

let coords_of_rank t rank =
  if rank < 0 || rank >= size t then Diag.bug "grid: rank %d out of range" rank;
  Array.init (ndims t) (fun dim -> coord t ~rank ~dim)

let make ?phys_of_rank dims =
  Array.iter (fun d -> if d < 1 then Diag.bug "grid: dimension extent %d < 1" d) dims;
  let n = size_of dims in
  let phys = match phys_of_rank with Some p -> p | None -> Array.init n Fun.id in
  if Array.length phys <> n then Diag.bug "grid: embedding size mismatch";
  let inv = Array.make n (-1) in
  Array.iteri
    (fun rank node ->
      if node < 0 || node >= n || inv.(node) <> -1 then Diag.bug "grid: embedding is not a permutation";
      inv.(node) <- rank)
    phys;
  let strides = Array.make (Array.length dims) 1 in
  for d = 1 to Array.length dims - 1 do
    strides.(d) <- strides.(d - 1) * dims.(d - 1)
  done;
  (* each line is built once, at its first member, and shared by all;
     ascending ranks meet every line first at its coordinate-0 member *)
  let lines_along dim =
    let lines = Array.make n [||] in
    for rank = 0 to n - 1 do
      if Array.length lines.(rank) = 0 then begin
        let line = Array.init dims.(dim) (fun c -> rank + (c * strides.(dim))) in
        Array.iter (fun r -> lines.(r) <- line) line
      end
    done;
    lines
  in
  let lines = Array.init (Array.length dims) lines_along in
  { dims; strides; phys_of_rank = phys; rank_of_phys = inv; all = Array.init n Fun.id; lines }

let phys_of_rank t rank = t.phys_of_rank.(rank)
let rank_of_phys t node = t.rank_of_phys.(node)

let all_ranks t = t.all
let ranks_along t ~rank ~dim = t.lines.(dim).(rank)

let neighbour t ~rank ~dim ~delta =
  let c = coord t ~rank ~dim + delta in
  if c < 0 || c >= t.dims.(dim) then None else Some (rank + (delta * t.strides.(dim)))

let pp ppf t =
  Format.fprintf ppf "grid(%s)"
    (String.concat "x" (Array.to_list (Array.map string_of_int t.dims)))
