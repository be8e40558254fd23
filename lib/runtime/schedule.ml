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

(* A stable counting sort of a pass's entries by owner rank: the entries
   owned by rank [q] sit, in entry order, at [bstart.(q)] ..
   [bstart.(q + 1) - 1] of [bseq] (their entry numbers) and of [bflat]
   (their storage flats on [q]).  Slot [s] of the pass holds entries
   [starts.(s)] .. [starts.(s + 1) - 1]. *)
type index = { starts : int array; bstart : int array; bseq : int array; bflat : int array }

let owner_index ~nprocs ~owners ~flats ~starts =
  let n = Array.length owners in
  let bstart = Array.make (nprocs + 1) 0 in
  for i = 0 to n - 1 do
    let q = owners.(i) in
    bstart.(q + 1) <- bstart.(q + 1) + 1
  done;
  for q = 1 to nprocs do
    bstart.(q) <- bstart.(q) + bstart.(q - 1)
  done;
  let fill = Array.sub bstart 0 nprocs in
  let bseq = Array.make n 0 and bflat = Array.make n 0 in
  for i = 0 to n - 1 do
    let q = owners.(i) in
    let k = fill.(q) in
    bseq.(k) <- i;
    bflat.(k) <- flats.(i);
    fill.(q) <- k + 1
  done;
  { starts; bstart; bseq; bflat }

let entries ix s = ix.starts.(s + 1) - ix.starts.(s)

(* The first position of [q]'s bucket whose entry number is [e] or more. *)
let lower_bound ix q e =
  let lo = ref ix.bstart.(q) and hi = ref ix.bstart.(q + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ix.bseq.(mid) < e then lo := mid + 1 else hi := mid
  done;
  !lo

(* The entries of slot [s] owned by [q], as a range of [q]'s bucket:
   their storage flats on [q], and their positions in [s]'s buffer. *)
let cell ix ~slot:s ~owner:q = (lower_bound ix q ix.starts.(s), lower_bound ix q ix.starts.(s + 1))
let flats_of ix (a, b) = Array.sub ix.bflat a (b - a)
let positions_of ix ~slot:s (a, b) =
  let p = Array.sub ix.bseq a (b - a) and base = ix.starts.(s) in
  if base <> 0 then
    for i = 0 to b - a - 1 do
      p.(i) <- p.(i) - base
    done;
  p

(* One segment per peer other than me whose array is not empty, in
   grid-rank order. *)
let peer_segs ctx positions =
  let me = Rctx.me ctx in
  let segs = ref [] in
  for peer = Rctx.nprocs ctx - 1 downto 0 do
    if peer <> me then
      match positions peer with
      | [||] -> ()
      | positions -> segs := { peer; positions } :: !segs
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

(* The schedule of slot [slot]'s entries: per owner, the positions of
   the tmp buffer they fill (a read) or drain (a write), and [other ()],
   the flats on me that each peer's entries address. *)
let of_index ctx ix ~slot ~write ~other =
  let me = Rctx.me ctx in
  charge_inspector ctx (entries ix slot);
  let mine q = cell ix ~slot ~owner:q in
  let by_owner = peer_segs ctx (fun q -> positions_of ix ~slot (mine q)) in
  let flats = flats_of ix (mine me) and positions = positions_of ix ~slot (mine me) in
  let other = other () and tmp_size = entries ix slot in
  if write then
    { out_segs = by_owner; in_segs = other; self_src = positions; self_dst = flats; tmp_size }
  else { out_segs = other; in_segs = by_owner; self_src = flats; self_dst = positions; tmp_size }

(* A local build reads the other side off the index: the entries of
   each peer's slot that I own. *)
let local ctx ix ~write =
  let me = Rctx.me ctx in
  of_index ctx ix ~slot:me ~write ~other:(fun () ->
      peer_segs ctx (fun peer -> flats_of ix (cell ix ~slot:peer ~owner:me)))

let build_read_local ctx ix =
  spanned ctx "inspector:read_local" ~cat:"inspector" ~bytes_of:(fun _ -> 0) @@ fun () ->
  local ctx ix ~write:false

let build_write_local ctx ix =
  spanned ctx "inspector:write_local" ~cat:"inspector" ~bytes_of:(fun _ -> 0) @@ fun () ->
  local ctx ix ~write:true

(* A communicating build indexes the caller's entries alone (one slot)
   and exchanges index lists with every peer: I tell each peer which of
   its flat positions I need (or will write); each peer's reply order
   defines the packing order on its side. *)
let communicating ctx ~owners ~flats ~write =
  let me = Rctx.me ctx and p = Rctx.nprocs ctx in
  let ix = owner_index ~nprocs:p ~owners ~flats ~starts:[| 0; Array.length owners |] in
  of_index ctx ix ~slot:0 ~write ~other:(fun () ->
      for peer = 0 to p - 1 do
        if peer <> me then
          Rctx.send ctx ~dest:peer ~tag:Tags.schedule_indices
            (Message.Ints (flats_of ix (cell ix ~slot:0 ~owner:peer)))
      done;
      let incoming = Array.make p [||] in
      for peer = 0 to p - 1 do
        if peer <> me then
          incoming.(peer) <- Message.ints (Rctx.recv ctx ~src:peer ~tag:Tags.schedule_indices)
      done;
      peer_segs ctx (Array.get incoming))

let build_gather ctx ~owners ~flats =
  spanned ctx "inspector:read_comm" ~cat:"inspector" ~bytes_of:(fun _ -> 0) @@ fun () ->
  communicating ctx ~owners ~flats ~write:false

let build_read_comm ctx ~needs =
  build_gather ctx ~owners:(Array.map fst needs) ~flats:(Array.map snd needs)

let build_scatter ctx ~owners ~flats =
  spanned ctx "inspector:write_comm" ~cat:"inspector" ~bytes_of:(fun _ -> 0) @@ fun () ->
  communicating ctx ~owners ~flats ~write:true

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

(* A reused [into] is not cleared first: every position of the
   temporary belongs to exactly one entry, and every entry has exactly
   one owner, so the exchange writes each position once, through
   [self_dst] when I own the entry or through the owner's incoming
   segment otherwise. *)
let read ?into ctx sched (darr : Darray.t) =
  let tmp = Ndarray.reuse into (Darray.kind darr) sched.tmp_size in
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
