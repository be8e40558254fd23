open F90d_base
open F90d_machine

type segment = { peer : int; positions : int array }

type t = {
  out_segs : segment list;  (* positions into the source buffer, per peer *)
  in_segs : segment list;  (* positions into the destination buffer, per peer *)
  self_src : int array;
  self_dst : int array;
  tmp_size : int;
}

(* A stable counting sort of entries [lo, hi) by owner rank: the
   entries owned by rank [q] sit, in entry order, at [bstart.(q)] ..
   [bstart.(q + 1) - 1] of [bseq] (their buffer positions, [i - lo]) and
   of [bflat] (their storage flats on [q]). *)
type buckets = { bstart : int array; bseq : int array; bflat : int array }

let bucket ctx ~owners ~flats ~lo ~hi =
  let p = Rctx.nprocs ctx in
  let bstart = Array.make (p + 1) 0 in
  for i = lo to hi - 1 do
    bstart.(owners.(i) + 1) <- bstart.(owners.(i) + 1) + 1
  done;
  for q = 1 to p do
    bstart.(q) <- bstart.(q) + bstart.(q - 1)
  done;
  let fill = Array.sub bstart 0 p in
  let bseq = Array.make (hi - lo) 0 and bflat = Array.make (hi - lo) 0 in
  for i = lo to hi - 1 do
    let q = owners.(i) in
    let k = fill.(q) in
    bseq.(k) <- i - lo;
    bflat.(k) <- flats.(i);
    fill.(q) <- k + 1
  done;
  { bstart; bseq; bflat }

let bucket_of b a q = Array.sub a b.bstart.(q) (b.bstart.(q + 1) - b.bstart.(q))

(* One segment per peer other than me with a non-empty bucket, in
   grid-rank order. *)
let peer_segs ctx b a =
  let me = Rctx.me ctx in
  let segs = ref [] in
  for peer = Rctx.nprocs ctx - 1 downto 0 do
    if peer <> me && b.bstart.(peer + 1) > b.bstart.(peer) then
      segs := { peer; positions = bucket_of b a peer } :: !segs
  done;
  !segs

(* The other side of a local build, read off every peer's entries: the
   flats each peer's entries address on me, for each peer that has any. *)
let segs_owned_by_me ctx ~owners ~flats ~starts =
  let me = Rctx.me ctx in
  let segs = ref [] in
  for peer = Rctx.nprocs ctx - 1 downto 0 do
    if peer <> me then begin
      let n = ref 0 in
      for i = starts.(peer) to starts.(peer + 1) - 1 do
        if owners.(i) = me then incr n
      done;
      if !n > 0 then begin
        let positions = Array.make !n 0 in
        let k = ref 0 in
        for i = starts.(peer) to starts.(peer + 1) - 1 do
          if owners.(i) = me then begin
            positions.(!k) <- flats.(i);
            incr k
          end
        done;
        segs := { peer; positions } :: !segs
      end
    end
  done;
  !segs

(* Preprocessing-loop cost: a few index operations per element inspected. *)
let charge_inspector ctx n = Rctx.charge_iops ctx (3 * n)

(* Inspector builds and executor exchanges as named trace spans (no-ops
   when tracing is off). *)
let spanned ctx name ~cat ~bytes_of f =
  let tr = Rctx.trace ctx in
  if not (F90d_trace.Trace.enabled tr) then f ()
  else begin
    F90d_trace.Trace.span_begin tr ~t:(Rctx.time ctx) name ~cat;
    let r = f () in
    F90d_trace.Trace.span_end tr ~t:(Rctx.time ctx) ~bytes:(bytes_of r);
    r
  end

let sched_bytes elem s =
  let seg_positions segs = List.fold_left (fun acc g -> acc + Array.length g.positions) 0 segs in
  elem * (seg_positions s.out_segs + seg_positions s.in_segs + Array.length s.self_src)

let build_read_local ctx ~owners ~flats ~starts =
  spanned ctx "inspector:read_local" ~cat:"inspector" ~bytes_of:(fun _ -> 0) @@ fun () ->
  let me = Rctx.me ctx in
  let lo = starts.(me) and hi = starts.(me + 1) in
  charge_inspector ctx (hi - lo);
  let b = bucket ctx ~owners ~flats ~lo ~hi in
  {
    out_segs = segs_owned_by_me ctx ~owners ~flats ~starts;
    in_segs = peer_segs ctx b b.bseq;
    self_src = bucket_of b b.bflat me;
    self_dst = bucket_of b b.bseq me;
    tmp_size = hi - lo;
  }

(* Exchange index lists with every peer: I tell each peer which of its flat
   positions I need (or will write); each peer's reply order defines the
   packing order on its side. *)
let exchange_index_lists ctx b =
  let me = Rctx.me ctx and p = Rctx.nprocs ctx in
  for peer = 0 to p - 1 do
    if peer <> me then
      Rctx.send ctx ~dest:peer ~tag:Tags.schedule_indices (Message.Ints (bucket_of b b.bflat peer))
  done;
  let segs = ref [] in
  let incoming = Array.make p [||] in
  for peer = 0 to p - 1 do
    if peer <> me then incoming.(peer) <- Message.ints (Rctx.recv ctx ~src:peer ~tag:Tags.schedule_indices)
  done;
  for peer = p - 1 downto 0 do
    if Array.length incoming.(peer) > 0 then segs := { peer; positions = incoming.(peer) } :: !segs
  done;
  !segs

let build_gather ctx ~owners ~flats =
  spanned ctx "inspector:read_comm" ~cat:"inspector" ~bytes_of:(fun _ -> 0) @@ fun () ->
  let me = Rctx.me ctx and n = Array.length owners in
  charge_inspector ctx n;
  let b = bucket ctx ~owners ~flats ~lo:0 ~hi:n in
  let in_segs = peer_segs ctx b b.bseq in
  {
    out_segs = exchange_index_lists ctx b;
    in_segs;
    self_src = bucket_of b b.bflat me;
    self_dst = bucket_of b b.bseq me;
    tmp_size = n;
  }

let build_read_comm ctx ~needs =
  build_gather ctx ~owners:(Array.map fst needs) ~flats:(Array.map snd needs)

let build_write_local ctx ~owners ~flats ~starts =
  spanned ctx "inspector:write_local" ~cat:"inspector" ~bytes_of:(fun _ -> 0) @@ fun () ->
  let me = Rctx.me ctx in
  let lo = starts.(me) and hi = starts.(me + 1) in
  charge_inspector ctx (hi - lo);
  let b = bucket ctx ~owners ~flats ~lo ~hi in
  {
    out_segs = peer_segs ctx b b.bseq;
    in_segs = segs_owned_by_me ctx ~owners ~flats ~starts;
    self_src = bucket_of b b.bseq me;
    self_dst = bucket_of b b.bflat me;
    tmp_size = hi - lo;
  }

let build_scatter ctx ~owners ~flats =
  spanned ctx "inspector:write_comm" ~cat:"inspector" ~bytes_of:(fun _ -> 0) @@ fun () ->
  let me = Rctx.me ctx and n = Array.length owners in
  charge_inspector ctx n;
  let b = bucket ctx ~owners ~flats ~lo:0 ~hi:n in
  {
    out_segs = peer_segs ctx b b.bseq;
    in_segs = exchange_index_lists ctx b;
    self_src = bucket_of b b.bseq me;
    self_dst = bucket_of b b.bflat me;
    tmp_size = n;
  }

let pack ctx src positions =
  let out = Ndarray.gather_flat src positions in
  Rctx.charge_copy_bytes ctx (Ndarray.bytes out);
  out

let unpack ctx dst positions values =
  Ndarray.scatter_flat dst positions values;
  Rctx.charge_copy_bytes ctx (Ndarray.elem_bytes values * Array.length positions)

let exchange ctx sched ~src ~dst =
  spanned ctx "executor:exchange" ~cat:"executor"
    ~bytes_of:(fun _ -> sched_bytes (Ndarray.elem_bytes src) sched)
  @@ fun () ->
  List.iter
    (fun s -> Rctx.send ctx ~dest:s.peer ~tag:Tags.exec_data (Message.Arr (pack ctx src s.positions)))
    sched.out_segs;
  Ndarray.copy_flat ~src ~src_positions:sched.self_src ~dst ~dst_positions:sched.self_dst;
  Rctx.charge_copy_bytes ctx (Ndarray.elem_bytes src * Array.length sched.self_src);
  List.iter
    (fun s ->
      let msg = Rctx.recv ctx ~src:s.peer ~tag:Tags.exec_data in
      unpack ctx dst s.positions (Message.arr msg))
    sched.in_segs

let read ctx sched (darr : Darray.t) =
  let tmp = Ndarray.create (Darray.kind darr) [| sched.tmp_size |] in
  exchange ctx sched ~src:darr.Darray.local ~dst:tmp;
  tmp

let write ctx sched (darr : Darray.t) tmp =
  exchange ctx sched ~src:tmp ~dst:darr.Darray.local

(* ------------------------------------------------------------------ *)
(* Schedule reuse                                                      *)
(* ------------------------------------------------------------------ *)

(* The cache lives inside the processor context (one per rank per run):
   concurrent ranks never contend on it, and consecutive runs with
   different programs, distributions or machine sizes cannot observe each
   other's schedules.  Builds/hits are charged to the rank's statistics
   collector and show up merged in the run report. *)

type Rctx.cache_entry += Cached_schedule of t

(* ------------------------------------------------------------------ *)
(* (De)serialization for the cross-process schedule store               *)
(* ------------------------------------------------------------------ *)

(* A schedule is plain index data (peer ranks and buffer positions), so a
   hand-rolled little-endian binary layout is used instead of [Marshal]:
   the bytes are stable across compiler builds, which keeps the store's
   content digests meaningful, and a malformed blob can only raise
   [Corrupt] — never segfault the daemon. *)

exception Corrupt of string

let ser_int b n = Buffer.add_int64_le b (Int64.of_int n)

let ser_int_array b a =
  ser_int b (Array.length a);
  Array.iter (ser_int b) a

let ser_segs b segs =
  ser_int b (List.length segs);
  List.iter
    (fun s ->
      ser_int b s.peer;
      ser_int_array b s.positions)
    segs

let to_string t =
  let b = Buffer.create 256 in
  ser_segs b t.out_segs;
  ser_segs b t.in_segs;
  ser_int_array b t.self_src;
  ser_int_array b t.self_dst;
  ser_int b t.tmp_size;
  Buffer.contents b

let of_string s =
  let pos = ref 0 in
  let de_int () =
    if !pos + 8 > String.length s then raise (Corrupt "schedule blob truncated");
    let n = Int64.to_int (String.get_int64_le s !pos) in
    pos := !pos + 8;
    n
  in
  let de_len what =
    let n = de_int () in
    if n < 0 || n > String.length s then raise (Corrupt ("bad " ^ what ^ " length"));
    n
  in
  let de_int_array what = Array.init (de_len what) (fun _ -> de_int ()) in
  let de_segs what =
    List.init (de_len what) (fun _ ->
        let peer = de_int () in
        { peer; positions = de_int_array (what ^ " positions") })
  in
  let out_segs = de_segs "out_segs" in
  let in_segs = de_segs "in_segs" in
  let self_src = de_int_array "self_src" in
  let self_dst = de_int_array "self_dst" in
  let tmp_size = de_int () in
  if !pos <> String.length s then raise (Corrupt "trailing bytes in schedule blob");
  { out_segs; in_segs; self_src; self_dst; tmp_size }

let export ctx =
  Rctx.cache_fold ctx
    (fun key entry acc ->
      match entry with Cached_schedule s -> (key, to_string s) :: acc | _ -> acc)
    []
  |> List.sort compare

let preload ctx entries =
  List.iter (fun (key, blob) -> Rctx.cache_store ctx key (Cached_schedule (of_string blob))) entries

let cached ctx ~key builder =
  let tr = Rctx.trace ctx in
  match Rctx.cache_find ctx key with
  | Some (Cached_schedule s) ->
      Stats.record_sched_hit (Engine.rank_stats (Rctx.engine ctx));
      if F90d_trace.Trace.enabled tr then
        F90d_trace.Trace.mark tr ~t:(Rctx.time ctx) ("schedule hit " ^ key) ~cat:"schedule";
      s
  | _ ->
      Stats.record_sched_build (Engine.rank_stats (Rctx.engine ctx));
      if F90d_trace.Trace.enabled tr then
        F90d_trace.Trace.mark tr ~t:(Rctx.time ctx) ("schedule build " ^ key) ~cat:"schedule";
      let s = builder () in
      Rctx.cache_store ctx key (Cached_schedule s);
      s
