open F90d_base
open F90d_dist
open F90d_machine
open F90d_runtime

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Run an SPMD program on a [dims] grid of the ideal machine; each node
   program receives an Rctx. *)
let run_grid ?(model = Model.ideal) dims f =
  let grid = Grid.make dims in
  let cfg = Engine.config ~model (Grid.size grid) in
  Engine.run cfg (fun eng -> f (Rctx.make eng grid))

let results r = r.Engine.results

(* Every member's payload, in team order, over the whole grid. *)
let allgather_all ctx payload =
  match
    Collectives.allgather ctx (Collectives.team_all ctx)
      ~assemble:(fun parts -> Message.List (Array.to_list parts))
      payload
  with
  | Message.List l -> Array.of_list l
  | _ -> Alcotest.fail "allgather: expected the list of parts"

(* A distributed 1-D real array over a [p] grid. *)
let dad1 ?(name = "A") ?(form = `Block) ~n ~p () =
  let grid = Grid.make [| p |] in
  let dim =
    match form with
    | `Block -> Dad.block_dim ~flb:1 ~extent:n ~pdim:0 ~p ()
    | `Cyclic -> Dad.cyclic_dim ~flb:1 ~extent:n ~pdim:0 ~p ()
  in
  Dad.make ~name ~kind:Scalar.Kreal ~grid [| dim |]

let dad2 ?(name = "M") ~n ~m ~p ~q ~forms () =
  let grid = Grid.make [| p; q |] in
  let f1, f2 = forms in
  let mk form ~extent ~pdim ~np =
    match form with
    | `Block -> Dad.block_dim ~flb:1 ~extent ~pdim ~p:np ()
    | `Cyclic -> Dad.cyclic_dim ~flb:1 ~extent ~pdim ~p:np ()
    | `Repl -> Dad.replicated_dim ~flb:1 ~extent
  in
  Dad.make ~name ~kind:Scalar.Kreal ~grid [| mk f1 ~extent:n ~pdim:0 ~np:p; mk f2 ~extent:m ~pdim:1 ~np:q |]

(* [dad] rebuilt with overlap cells on dimension [dim] *)
let with_ghosts dad ~dim ~lo ~hi =
  Dad.make ~name:(Dad.name dad) ~kind:(Dad.kind dad) ~grid:(Dad.grid dad)
    (Array.mapi
       (fun i d -> if i = dim then { d with Dad.ghost_lo = lo; ghost_hi = hi } else d)
       (Dad.dims dad))

let init1 g = Scalar.Real (float_of_int (10 * g.(0)))
let init2 g = Scalar.Real (float_of_int ((100 * g.(0)) + g.(1)))

(* ------------------------------------------------------------------ *)
(* Collectives                                                         *)
(* ------------------------------------------------------------------ *)

let test_broadcast () =
  let r =
    run_grid [| 5 |] (fun ctx ->
        let team = Collectives.team_all ctx in
        match Collectives.broadcast ctx team ~root:2
                (if Rctx.me ctx = 2 then Message.Scalar (Scalar.Int 99) else Message.Empty)
        with
        | Message.Scalar v -> Scalar.to_int v
        | _ -> -1)
  in
  Array.iter (fun v -> check "bcast" 99 v) (results r)

let test_broadcast_tree_latency () =
  (* binomial tree over P=8: elapsed = 3 rounds, not 7 sequential sends *)
  let m = Model.ipsc860 in
  let r =
    run_grid ~model:m [| 8 |] (fun ctx ->
        let team = Collectives.team_all ctx in
        ignore (Collectives.broadcast ctx team ~root:0 (Message.Scalar (Scalar.Int 1))))
  in
  let per_msg = m.Model.alpha +. (8. *. m.Model.beta) in
  checkb "O(log P) broadcast" true (r.Engine.elapsed <= (3.2 *. per_msg));
  check "P-1 messages total" 7 r.Engine.stats.Stats.messages

let test_reduce_allreduce () =
  let r =
    run_grid [| 6 |] (fun ctx ->
        let team = Collectives.team_all ctx in
        let mine = Message.Scalar (Scalar.Int (Rctx.me ctx + 1)) in
        let all op =
          match Collectives.allreduce ctx team ~combine:(Redop.payload op) mine with
          | Message.Scalar v -> Scalar.to_int v
          | _ -> -1
        in
        let total = all Redop.Sum in
        (total, all Redop.Max))
  in
  Array.iter
    (fun (total, largest) ->
      check "allreduce sum" 21 total;
      check "allreduce max" 6 largest)
    (results r);
  (* two binomial trees over 6 ranks, 5 edges each way *)
  check "messages" 20 r.Engine.stats.Stats.messages

let test_allgather_order () =
  let r =
    run_grid [| 5 |] (fun ctx ->
        allgather_all ctx (Message.Scalar (Scalar.Int (Rctx.me ctx * 7)))
        |> Array.map (function Message.Scalar v -> Scalar.to_int v | _ -> -1))
  in
  Array.iter
    (fun got -> Alcotest.(check (array int)) "team order" [| 0; 7; 14; 21; 28 |] got)
    (results r)

let test_shift_edge_circular () =
  let r =
    run_grid [| 4 |] (fun ctx ->
        let team = Collectives.team_all ctx in
        let me = Rctx.me ctx in
        let edge =
          match Collectives.shift_edge ctx team ~delta:1 (Message.Scalar (Scalar.Int me)) with
          | Some (Message.Scalar v) -> Scalar.to_int v
          | Some _ -> -2
          | None -> -1
        in
        let circ =
          match Collectives.shift_circular ctx team ~delta:(-1) (Message.Scalar (Scalar.Int me)) with
          | Message.Scalar v -> Scalar.to_int v
          | _ -> -2
        in
        (edge, circ))
  in
  (* edge: proc i receives from i-1 (proc 0 nothing); circular -1: from (i+1) mod 4 *)
  Alcotest.(check (list (pair int int)))
    "shifts"
    [ (-1, 1); (0, 2); (1, 3); (2, 0) ]
    (Array.to_list (results r))

let test_transfer_between_columns () =
  let r =
    run_grid [| 4 |] (fun ctx ->
        let team = Collectives.team_all ctx in
        let payload = if Rctx.me ctx = 1 then Some (Message.Scalar (Scalar.Int 5)) else None in
        match Collectives.transfer ctx team ~src:1 ~dest:3 payload with
        | Some (Message.Scalar v) -> Scalar.to_int v
        | Some _ -> -2
        | None -> -1)
  in
  Alcotest.(check (list int)) "transfer" [ -1; -1; -1; 5 ] (Array.to_list (results r))

(* Teams are built once per grid and shared: on an 8x8 grid every rank's
   [team_all] is one physical array, and so is every rank's [team_along]
   within one line. *)
let test_teams_shared () =
  let grid = Grid.make [| 8; 8 |] in
  let cfg = Engine.config ~model:Model.ideal (Grid.size grid) in
  let node eng =
    let ctx = Rctx.make eng grid in
    ( Rctx.me ctx,
      Collectives.team_all ctx,
      Collectives.team_along ctx ~dim:0,
      Collectives.team_along ctx ~dim:1 )
  in
  let r = Engine.run cfg node in
  let teams = Array.make 64 ([||], [||], [||]) in
  Array.iter (fun (me, all, d0, d1) -> teams.(me) <- (all, d0, d1)) r.Engine.results;
  let all0, _, _ = teams.(0) in
  Array.iteri
    (fun rank (all, d0, d1) ->
      checkb "team_all shared" true (all == all0);
      Array.iter
        (fun peer ->
          let _, p0, _ = teams.(peer) in
          checkb "dim-0 line shared" true (p0 == d0))
        d0;
      Array.iter
        (fun peer ->
          let _, _, p1 = teams.(peer) in
          checkb "dim-1 line shared" true (p1 == d1))
        d1;
      checkb "rank in its lines" true (Array.mem rank d0 && Array.mem rank d1))
    teams

(* ------------------------------------------------------------------ *)
(* Darray                                                              *)
(* ------------------------------------------------------------------ *)

let test_darray_gather_matches_init () =
  List.iter
    (fun form ->
      let dad = dad1 ~form ~n:13 ~p:4 () in
      let r =
        run_grid [| 4 |] (fun ctx ->
            let a = Darray.init_global ctx dad init1 in
            Darray.gather_global ctx a)
      in
      let expected = Ndarray.init Scalar.Kreal [| 13 |] init1 in
      Array.iter (fun got -> checkb "gathered = init" true (Ndarray.approx_equal got expected))
        (results r))
    [ `Block; `Cyclic ]

let test_darray_2d_gather () =
  let dad = dad2 ~n:6 ~m:7 ~p:2 ~q:2 ~forms:(`Block, `Cyclic) () in
  let r =
    run_grid [| 2; 2 |] (fun ctx ->
        let a = Darray.init_global ctx dad init2 in
        Darray.gather_global ctx a)
  in
  let expected = Ndarray.init Scalar.Kreal [| 6; 7 |] init2 in
  Array.iter (fun got -> checkb "2d gather" true (Ndarray.approx_equal got expected)) (results r)

let test_iter_owned_flat () =
  (* the flat walk yields iter_owned's storage positions in its order:
     uneven and empty blocks, cyclic layouts, replicated dimensions and
     overlap cells on either side *)
  let cases =
    [
      dad1 ~n:10 ~p:3 ();
      dad1 ~form:`Cyclic ~n:10 ~p:4 ();
      dad1 ~n:2 ~p:4 ();
      with_ghosts (dad2 ~n:5 ~m:7 ~p:2 ~q:3 ~forms:(`Block, `Block) ()) ~dim:0 ~lo:1 ~hi:2;
      with_ghosts (dad2 ~n:4 ~m:6 ~p:1 ~q:3 ~forms:(`Repl, `Block) ()) ~dim:1 ~lo:2 ~hi:1;
      dad2 ~n:6 ~m:5 ~p:3 ~q:2 ~forms:(`Cyclic, `Repl) ();
    ]
  in
  List.iter
    (fun dad ->
      let r =
        run_grid (Grid.dims (Dad.grid dad)) (fun ctx ->
            let a = Darray.create ctx dad and me = Rctx.me ctx in
            let walk iter =
              let l = ref [] in
              iter (fun flat -> l := flat :: !l);
              List.rev !l
            in
            ( walk (fun f -> Darray.iter_owned a ~rank:me (fun _ flat -> f flat)),
              walk (Darray.iter_owned_flat a ~rank:me) ))
      in
      Array.iter
        (fun (want, got) -> checkb "same positions, same order" true (want = got))
        (results r))
    cases

let test_darray_get_global () =
  let dad = dad1 ~n:10 ~p:3 () in
  let r =
    run_grid [| 3 |] (fun ctx ->
        let a = Darray.init_global ctx dad init1 in
        Scalar.to_real (Darray.get_global ctx a [| 7 |]))
  in
  Array.iter (fun v -> Alcotest.(check (float 1e-9)) "get_global" 70. v) (results r)

(* ------------------------------------------------------------------ *)
(* Schedules (PARTI)                                                   *)
(* ------------------------------------------------------------------ *)

(* A(i) = B(2i+1) for i = 1..5 over B(1..11): needs computed per rank from
   the iteration layout of a block-distributed A(1..5). *)
let parti_setup n_a n_b p =
  let grid_dims = [| p |] in
  let dad_a = dad1 ~name:"A" ~n:n_a ~p () in
  let dad_b = dad1 ~name:"B" ~n:n_b ~p () in
  let needs_for rank =
    let lay = Dad.layout_at dad_a ~dim:0 ~rank in
    Array.init (Layout.count lay) (fun l ->
        let i = Layout.global_of_local lay l + 1 in
        (* Fortran i *)
        let src = [| (2 * i) + 1 |] in
        let owner = Dad.home_rank dad_b src in
        let lidx = Option.get (Dad.local_indices dad_b ~rank:owner src) in
        (owner, Dad.storage_flat dad_b ~rank:owner lidx))
  in
  (grid_dims, dad_a, dad_b, needs_for)

(* Every rank's (owner, flat) entries as one inspector pass: owners,
   flats, and where each rank's entries start. *)
let pass_of p entries_for =
  let per = Array.init p entries_for in
  let starts = Array.make (p + 1) 0 in
  Array.iteri (fun r e -> starts.(r + 1) <- starts.(r) + Array.length e) per;
  let all = Array.concat (Array.to_list per) in
  (Array.map fst all, Array.map snd all, starts)

let expected_parti n_a = Array.init n_a (fun l -> float_of_int (10 * ((2 * (l + 1)) + 1)))

let test_precomp_read () =
  let grid_dims, dad_a, dad_b, needs_for = parti_setup 5 11 3 in
  ignore dad_a;
  let r =
    run_grid grid_dims (fun ctx ->
        let b = Darray.init_global ctx dad_b init1 in
        let owners, flats, starts = pass_of (Rctx.nprocs ctx) needs_for in
        let ix = Schedule.owner_index ~nprocs:(Rctx.nprocs ctx) ~owners ~flats ~starts in
        let sched = Schedule.build_read_local ctx ix in
        let tmp = Schedule.read ctx sched b in
        (* allgather the tmps to verify the full fetched sequence *)
        allgather_all ctx (Message.Arr tmp))
  in
  let whole =
    Array.concat
      (List.map
         (function Message.Arr a -> Ndarray.reals a | _ -> [||])
         (Array.to_list (results r).(0)))
  in
  Alcotest.(check (array (float 1e-9))) "precomp_read" (expected_parti 5) whole

let test_gather_schedule_equivalent () =
  let grid_dims, _, dad_b, needs_for = parti_setup 5 11 3 in
  let r =
    run_grid grid_dims (fun ctx ->
        let b = Darray.init_global ctx dad_b init1 in
        let sched = Schedule.build_read_comm ctx ~needs:(needs_for (Rctx.me ctx)) in
        let tmp = Schedule.read ctx sched b in
        allgather_all ctx (Message.Arr tmp))
  in
  let whole =
    Array.concat
      (List.map
         (function Message.Arr a -> Ndarray.reals a | _ -> [||])
         (Array.to_list (results r).(0)))
  in
  Alcotest.(check (array (float 1e-9))) "gather" (expected_parti 5) whole

let test_scatter_roundtrip () =
  (* A(V(i)) = B(i): scatter values to a permutation, then check *)
  let n = 12 and p = 4 in
  let dad_a = dad1 ~name:"A" ~n ~p () in
  let dad_b = dad1 ~name:"B" ~n ~p () in
  let perm i = ((i * 5) mod n) + 1 in
  let r =
    run_grid [| p |] (fun ctx ->
        let me = Rctx.me ctx in
        let a = Darray.create ctx dad_a in
        let b = Darray.init_global ctx dad_b init1 in
        let lay = Dad.layout_at dad_b ~dim:0 ~rank:me in
        let writes =
          Array.init (Layout.count lay) (fun l ->
              let i = Layout.global_of_local lay l + 1 in
              let target = [| perm i |] in
              let owner = Dad.home_rank dad_a target in
              let lidx = Option.get (Dad.local_indices dad_a ~rank:owner target) in
              (owner, Dad.storage_flat dad_a ~rank:owner lidx))
        in
        let sched =
          Schedule.build_scatter ctx ~owners:(Array.map fst writes) ~flats:(Array.map snd writes)
        in
        Schedule.write ctx sched a (Darray.pack_owned b ~rank:me);
        Darray.gather_global ctx a)
  in
  let expected =
    Ndarray.init Scalar.Kreal [| n |] (fun g ->
        (* find i with perm i = g *)
        let rec find i = if perm i = g.(0) then i else find (i + 1) in
        Scalar.Real (float_of_int (10 * find 1)))
  in
  Array.iter (fun got -> checkb "scatter" true (Ndarray.approx_equal got expected)) (results r)

let test_postcomp_write_local_build () =
  (* postcomp_write: A(2i) = B(i) — invertible, schedule built locally *)
  let n = 16 and p = 4 in
  let dad_a = dad1 ~name:"A" ~n ~p () in
  let dad_b = dad1 ~name:"B" ~n:(n / 2) ~p () in
  let writes_for rank =
    let lay = Dad.layout_at dad_b ~dim:0 ~rank in
    Array.init (Layout.count lay) (fun l ->
        let i = Layout.global_of_local lay l + 1 in
        let target = [| 2 * i |] in
        let owner = Dad.home_rank dad_a target in
        let lidx = Option.get (Dad.local_indices dad_a ~rank:owner target) in
        (owner, Dad.storage_flat dad_a ~rank:owner lidx))
  in
  let r =
    run_grid [| p |] (fun ctx ->
        let me = Rctx.me ctx in
        let a = Darray.create ctx dad_a in
        let b = Darray.init_global ctx dad_b init1 in
        let owners, flats, starts = pass_of p writes_for in
        let ix = Schedule.owner_index ~nprocs:p ~owners ~flats ~starts in
        let sched = Schedule.build_write_local ctx ix in
        Schedule.write ctx sched a (Darray.pack_owned b ~rank:me);
        Darray.gather_global ctx a)
  in
  let expected =
    Ndarray.init Scalar.Kreal [| n |] (fun g ->
        if g.(0) mod 2 = 0 then Scalar.Real (float_of_int (10 * (g.(0) / 2))) else Scalar.Real 0.)
  in
  Array.iter (fun got -> checkb "postcomp_write" true (Ndarray.approx_equal got expected))
    (results r)

let test_schedule_cache () =
  let grid_dims, _, dad_b, needs_for = parti_setup 5 11 3 in
  let r =
    run_grid grid_dims (fun ctx ->
        let b = Darray.init_global ctx dad_b init1 in
        for _ = 1 to 4 do
          let sched =
            Schedule.cached ctx ~key:"test-sched" (fun () ->
                Schedule.build_read_comm ctx ~needs:(needs_for (Rctx.me ctx)))
          in
          ignore (Schedule.read ctx sched b)
        done)
  in
  check "one build per proc" 3 r.Engine.stats.Stats.sched_builds;
  check "three hits per proc" 9 r.Engine.stats.Stats.sched_hits

(* The (owner, flat) entry of element [g] of [dad]. *)
let entry dad g =
  let owner = Dad.home_rank dad g in
  (owner, Dad.storage_flat dad ~rank:owner (Option.get (Dad.local_indices dad ~rank:owner g)))

(* [count] random entries of rank [rank] into a BLOCK B(1..n), repeats
   allowed: with 3 ranks the blocks are uneven unless 3 divides [n]. *)
let random_needs dad_b ~n ~count ~seed rank =
  let rs = Random.State.make [| seed; rank |] in
  Array.init count (fun _ -> entry dad_b [| 1 + Random.State.int rs n |])

(* At P=3, a read into a buffer filled with a sentinel is that buffer
   and equals a read into a fresh one, for a communicating and a local
   build; a buffer of another size or kind is left alone. *)
let prop_read_into =
  QCheck.Test.make ~name:"read into a sentinel buffer equals a fresh read" ~count:40
    QCheck.(triple (int_range 1 40) (int_range 0 30) (int_range 0 10_000))
    (fun (n, count, seed) ->
      let p = 3 in
      let dad_b = dad1 ~name:"B" ~n ~p () in
      let needs = random_needs dad_b ~n ~count ~seed in
      let r =
        run_grid [| p |] (fun ctx ->
            let b = Darray.init_global ctx dad_b init1 in
            let owners, flats, starts = pass_of p needs in
            let scheds =
              [
                Schedule.build_read_comm ctx ~needs:(needs (Rctx.me ctx));
                Schedule.build_read_local ctx
                  (Schedule.owner_index ~nprocs:p ~owners ~flats ~starts);
              ]
            in
            List.for_all
              (fun sched ->
                let fresh = Schedule.read ctx sched b in
                let into = Ndarray.of_reals [| count |] (Array.make count (-999.)) in
                let reused = Schedule.read ~into ctx sched b in
                let longer = Ndarray.of_reals [| count + 1 |] (Array.make (count + 1) (-999.)) in
                let ints = Ndarray.create Scalar.Kint [| count |] in
                reused == into && Ndarray.equal reused fresh
                && Schedule.read ~into:longer ctx sched b != longer
                && Schedule.read ~into:ints ctx sched b != ints)
              scheds)
      in
      Array.for_all Fun.id (results r))

(* Minor words per warm read into a fitting buffer, per rank: each of 3
   ranks reads all of a BLOCK B(1..240), so it receives two payloads of
   80 REALs, 91 words each with their record.  The bound is those
   payloads and 64 words per message and per read (the message
   envelope, the exchange's closures and charges); measured at 311 words
   with OCaml 5.1.  A fresh temporary (251 words) or a float boxed per
   packed element (2 words each) breaks it.  The engine's fixed cost
   cancels between a run of [1 + reads] reads and a run of one. *)
let test_warm_read_allocation () =
  let p = 3 and n = 240 in
  let dad_b = dad1 ~name:"B" ~n ~p () in
  let needs = Array.init n (fun i -> entry dad_b [| i + 1 |]) in
  let words reads =
    let w0 = Gc.minor_words () in
    ignore
      (run_grid [| p |] (fun ctx ->
           let b = Darray.init_global ctx dad_b init1 in
           let sched = Schedule.build_read_comm ctx ~needs in
           let into = Schedule.read ctx sched b in
           for _ = 1 to reads do
             if Schedule.read ~into ctx sched b != into then
               Alcotest.fail "the buffer was not reused"
           done));
    Gc.minor_words () -. w0
  in
  let reads = 40 in
  let per_read = (words (1 + reads) -. words 1) /. float_of_int (reads * p) in
  let messages = p - 1 in
  let bound = float_of_int ((messages * ((n / p) + 11)) + (64 * (messages + 1))) in
  if per_read > bound then
    Alcotest.failf "%.1f minor words per warm read, bound %.0f" per_read bound

(* The executor charges memcpy per byte moved; the charge must use the
   array's element size (8 B reals, 4 B integers), not a hard-coded 4*n.
   With a model where only memcpy costs time, the elapsed clock pins the
   charged byte count exactly. *)
let test_exchange_charged_bytes () =
  let memcpy_only = { Model.ideal with Model.name = "memcpy-only"; flop = 0.; iop = 0. } in
  let init kind g =
    match kind with
    | Scalar.Kint -> Scalar.Int g.(0)
    | _ -> Scalar.Real (float_of_int g.(0))
  in
  let mk_dad kind ~n ~p =
    let grid = Grid.make [| p |] in
    Dad.make ~name:"X" ~kind ~grid [| Dad.block_dim ~flb:1 ~extent:n ~pdim:0 ~p () |]
  in
  let pairs_for dad gidxs =
    Array.map
      (fun g ->
        let g = [| g |] in
        let owner = Dad.home_rank dad g in
        let lidx = Option.get (Dad.local_indices dad ~rank:owner g) in
        (owner, Dad.storage_flat dad ~rank:owner lidx))
      gidxs
  in
  (* cross-rank: 2 ranks, each needs the peer's 4 elements, so each rank
     packs 4 elements (4e bytes) and unpacks 4 (4e bytes): elapsed = 8e *)
  let cross kind =
    let dad = mk_dad kind ~n:8 ~p:2 in
    let r =
      run_grid ~model:memcpy_only [| 2 |] (fun ctx ->
          let b = Darray.init_global ctx dad (init kind) in
          let peer = 1 - Rctx.me ctx in
          let needs = pairs_for dad (Array.init 4 (fun i -> (peer * 4) + i + 1)) in
          let sched = Schedule.build_read_comm ctx ~needs in
          ignore (Schedule.read ctx sched b))
    in
    r.Engine.elapsed
  in
  (* self path: 1 rank reads its own 8 elements through the schedule's
     self-copy: elapsed = 8e *)
  let self kind =
    let dad = mk_dad kind ~n:8 ~p:1 in
    let r =
      run_grid ~model:memcpy_only [| 1 |] (fun ctx ->
          let b = Darray.init_global ctx dad (init kind) in
          let needs = pairs_for dad (Array.init 8 (fun i -> i + 1)) in
          let sched = Schedule.build_read_comm ctx ~needs in
          ignore (Schedule.read ctx sched b))
    in
    r.Engine.elapsed
  in
  Alcotest.(check (float 0.)) "float64 exchange: 8 elems * 8 B" 64. (cross Scalar.Kreal);
  Alcotest.(check (float 0.)) "int32 exchange: 8 elems * 4 B" 32. (cross Scalar.Kint);
  Alcotest.(check (float 0.)) "float64 self-copy: 8 elems * 8 B" 64. (self Scalar.Kreal);
  Alcotest.(check (float 0.)) "int32 self-copy: 8 elems * 4 B" 32. (self Scalar.Kint)

(* ------------------------------------------------------------------ *)
(* Structured primitives                                               *)
(* ------------------------------------------------------------------ *)

let test_multicast () =
  (* broadcast global column index 4 (0-based 3) of a block row-distributed
     matrix: tmp(i, 1) = M(i_local, 4) everywhere *)
  let dad = dad2 ~n:4 ~m:8 ~p:1 ~q:4 ~forms:(`Repl, `Block) () in
  let r =
    run_grid [| 1; 4 |] (fun ctx ->
        let a = Darray.init_global ctx dad init2 in
        let tmp = Structured.multicast ctx a ~dim:1 ~g:3 in
        Array.init 4 (fun i -> Scalar.to_real (Ndarray.get tmp [| i + 1; 1 |])))
  in
  Array.iter
    (fun got ->
      Alcotest.(check (array (float 1e-9))) "multicast col 4" [| 104.; 204.; 304.; 404. |] got)
    (results r)

let test_transfer_slab () =
  (* B(:, 3) moves to the owners of column 8 *)
  let dad = dad2 ~n:4 ~m:8 ~p:1 ~q:4 ~forms:(`Repl, `Block) () in
  let r =
    run_grid [| 1; 4 |] (fun ctx ->
        let a = Darray.init_global ctx dad init2 in
        match Structured.transfer ctx a ~dim:1 ~gsrc:2 ~gdest:7 with
        | Some tmp -> Scalar.to_real (Ndarray.get tmp [| 2; 1 |])
        | None -> -1.)
  in
  (* column 8 (0-based 7) owned by coord 3 *)
  Alcotest.(check (list (float 1e-9))) "transfer slab" [ -1.; -1.; -1.; 203. ]
    (Array.to_list (results r))

let test_overlap_shift () =
  let dad = with_ghosts (dad1 ~n:12 ~p:3 ()) ~dim:0 ~lo:1 ~hi:1 in
  let r =
    run_grid [| 3 |] (fun ctx ->
        let a = Darray.init_global ctx dad init1 in
        Structured.overlap_shift ctx a ~dim:0 ~amount:1;
        Structured.overlap_shift ctx a ~dim:0 ~amount:(-1);
        let me = Rctx.me ctx in
        (* ghost cells: storage position -1 holds left neighbour's last,
           position count holds right neighbour's first *)
        let lo = Ndarray.get a.Darray.local [| -1 |] in
        let hi = Ndarray.get a.Darray.local [| 4 |] in
        ignore me;
        (Scalar.to_real lo, Scalar.to_real hi))
  in
  (* proc 1 owns globals 5..8: ghost lo = A(4) = 40, ghost hi = A(9) = 90 *)
  let lo, hi = (results r).(1) in
  Alcotest.(check (float 1e-9)) "ghost lo" 40. lo;
  Alcotest.(check (float 1e-9)) "ghost hi" 90. hi

let test_overlap_shift_2d () =
  (* the non-shifted dimension must anchor at the owned origin, not the
     ghost corner (regression for a 2-D stencil bug) *)
  let dad = with_ghosts (dad2 ~n:4 ~m:6 ~p:1 ~q:3 ~forms:(`Repl, `Block) ()) ~dim:1 ~lo:1 ~hi:1 in
  let r =
    run_grid [| 1; 3 |] (fun ctx ->
        let a = Darray.init_global ctx dad init2 in
        Structured.overlap_shift ctx a ~dim:1 ~amount:1;
        Structured.overlap_shift ctx a ~dim:1 ~amount:(-1);
        (* middle processor (owns cols 3..4): ghost col -1 = global col 2,
           ghost col 2 = global col 5; check every row *)
        if (Rctx.my_coords ctx).(1) = 1 then
          Array.init 4 (fun i ->
              ( Scalar.to_real (Ndarray.get a.Darray.local [| i; -1 |]),
                Scalar.to_real (Ndarray.get a.Darray.local [| i; 2 |]) ))
        else [||])
  in
  Array.iter
    (fun per_proc ->
      Array.iteri
        (fun i (lo, hi) ->
          Alcotest.(check (float 1e-9)) "ghost lo row" (float_of_int ((100 * (i + 1)) + 2)) lo;
          Alcotest.(check (float 1e-9)) "ghost hi row" (float_of_int ((100 * (i + 1)) + 5)) hi)
        per_proc)
    (results r)

let test_temporary_shift () =
  let dad = dad1 ~n:12 ~p:3 () in
  let shift = 5 in
  let r =
    run_grid [| 3 |] (fun ctx ->
        let a = Darray.init_global ctx dad init1 in
        let tmp = Structured.temporary_shift ctx a ~dim:0 ~amount:shift in
        allgather_all ctx (Message.Arr tmp))
  in
  let whole =
    Array.concat
      (List.map (function Message.Arr a -> Ndarray.reals a | _ -> [||])
         (Array.to_list (results r).(0)))
  in
  let expected =
    Array.init 12 (fun l -> if l + shift < 12 then float_of_int (10 * (l + shift + 1)) else 0.)
  in
  Alcotest.(check (array (float 1e-9))) "temporary shift" expected whole

let test_multicast_shift () =
  (* tmp(j) = M(3, j+2) broadcast along dim 0 with shift along dim 1,
     fused and unfused *)
  let dad = dad2 ~n:4 ~m:6 ~p:2 ~q:3 ~forms:(`Block, `Block) () in
  (* each proc's row slab: for its owned columns j (global), value M(3, j+2) *)
  let expected_for coords =
    let layout = Distrib.make Block ~n:6 ~p:3 in
    let count = Distrib.local_count layout ~proc:coords in
    Array.init count (fun l ->
        let j = Distrib.global_of_local layout ~proc:coords l in
        if j + 2 < 6 then float_of_int ((100 * 3) + (j + 2 + 1)) else 0.)
  in
  let grid = Grid.make [| 2; 3 |] in
  List.iter
    (fun fused ->
      let r =
        run_grid [| 2; 3 |] (fun ctx ->
            let a = Darray.init_global ctx dad init2 in
            let tmp = Structured.multicast_shift ctx a ~fused ~mdim:0 ~g:2 ~sdim:1 ~amount:2 in
            Array.init (tmp.Ndarray.extents.(1)) (fun j ->
                Scalar.to_real (Ndarray.get tmp [| 1; j + 1 |])))
      in
      Array.iteri
        (fun rank got ->
          let coords = Grid.coords_of_rank grid rank in
          Alcotest.(check (array (float 1e-9)))
            (Printf.sprintf "multicast_shift fused=%b" fused)
            (expected_for coords.(1)) got)
        (results r))
    [ true; false ]

let test_concat () =
  let dad = dad1 ~form:`Cyclic ~n:9 ~p:3 () in
  let r =
    run_grid [| 3 |] (fun ctx ->
        let a = Darray.init_global ctx dad init1 in
        Darray.gather_global ctx a)
  in
  let expected = Ndarray.init Scalar.Kreal [| 9 |] init1 in
  Array.iter (fun got -> checkb "concat" true (Ndarray.approx_equal got expected)) (results r)

let test_concat_built_once () =
  (* the global array is rank-invariant: every rank gets the one copy the
     rendezvous built, equal to the sequential array *)
  List.iter
    (fun p ->
      let n = (3 * p) + 1 in
      (* a 2-D grid with more processors than elements along a dimension,
         so some ranks own nothing (none can at P=1) *)
      let gp, gq = match p with 64 -> (8, 8) | _ -> (p, 1) in
      let rows = max 1 (gp - 2) in
      List.iter
        (fun (what, dims, dad, init, expected) ->
          let r =
            run_grid dims (fun ctx -> Darray.gather_global ctx (Darray.init_global ctx dad init))
          in
          let first = (results r).(0) in
          Array.iteri
            (fun rank got ->
              checkb (Printf.sprintf "%s P=%d: shared on rank %d" what p rank) true (got == first))
            (results r);
          checkb (Printf.sprintf "%s P=%d: sequential" what p) true (Ndarray.equal first expected))
        [
          ("BLOCK", [| p |], dad1 ~n ~p (), init1, Ndarray.init Scalar.Kreal [| n |] init1);
          ( "CYCLIC",
            [| p |],
            dad1 ~form:`Cyclic ~n ~p (),
            init1,
            Ndarray.init Scalar.Kreal [| n |] init1 );
          ( "2-D",
            [| gp; gq |],
            dad2 ~n:rows ~m:5 ~p:gp ~q:gq ~forms:(`Block, `Block) (),
            init2,
            Ndarray.init Scalar.Kreal [| rows; 5 |] init2 );
        ])
    [ 1; 5; 64 ]

(* ------------------------------------------------------------------ *)
(* Intrinsics                                                          *)
(* ------------------------------------------------------------------ *)

let seq_array1 n = Ndarray.init Scalar.Kreal [| n |] init1

let test_cshift_eoshift () =
  List.iter
    (fun form ->
      let dad = dad1 ~form ~n:10 ~p:4 () in
      let r =
        run_grid [| 4 |] (fun ctx ->
            let a = Darray.init_global ctx dad init1 in
            let c = Intrinsics.cshift ctx a ~dim:0 ~shift:3 in
            let e = Intrinsics.eoshift ctx a ~dim:0 ~shift:(-2) ~boundary:(Scalar.Real (-1.)) in
            (Darray.gather_global ctx c, Darray.gather_global ctx e))
      in
      let exp_c =
        Ndarray.init Scalar.Kreal [| 10 |] (fun g -> init1 [| ((g.(0) - 1 + 3) mod 10) + 1 |])
      in
      let exp_e =
        Ndarray.init Scalar.Kreal [| 10 |] (fun g ->
            if g.(0) - 2 >= 1 then init1 [| g.(0) - 2 |] else Scalar.Real (-1.))
      in
      let gc, ge = (results r).(0) in
      checkb "cshift" true (Ndarray.approx_equal gc exp_c);
      checkb "eoshift" true (Ndarray.approx_equal ge exp_e))
    [ `Block; `Cyclic ]

let test_reductions () =
  let n = 11 in
  let dad = dad1 ~n ~p:4 () in
  let r =
    run_grid [| 4 |] (fun ctx ->
        let a = Darray.init_global ctx dad init1 in
        ( Scalar.to_real (Intrinsics.reduce ctx Redop.Sum a),
          Scalar.to_real (Intrinsics.reduce ctx Redop.Max a),
          Scalar.to_real (Intrinsics.reduce ctx Redop.Min a) ))
  in
  let s, mx, mn = (results r).(0) in
  Alcotest.(check (float 1e-9)) "sum" (float_of_int (10 * n * (n + 1) / 2)) s;
  Alcotest.(check (float 1e-9)) "max" 110. mx;
  Alcotest.(check (float 1e-9)) "min" 10. mn

let test_reduction_replicated_dim () =
  (* a replicated dimension must not be double-counted *)
  let dad = dad2 ~n:3 ~m:4 ~p:2 ~q:2 ~forms:(`Block, `Repl) () in
  let r =
    run_grid [| 2; 2 |] (fun ctx ->
        let a = Darray.init_global ctx dad (fun _ -> Scalar.Real 1.) in
        Scalar.to_real (Intrinsics.reduce ctx Redop.Sum a))
  in
  Array.iter (fun v -> Alcotest.(check (float 1e-9)) "sum=12" 12. v) (results r)

let test_maxloc_first_occurrence () =
  let dad = dad1 ~n:10 ~p:4 () in
  let r =
    run_grid [| 4 |] (fun ctx ->
        let a =
          Darray.init_global ctx dad (fun g ->
              Scalar.Real (if g.(0) = 3 || g.(0) = 7 then 99. else 0.))
        in
        (Intrinsics.maxloc ctx a).(0))
  in
  Array.iter (fun v -> check "first max at 3" 3 v) (results r)

let test_count_any_all () =
  let grid = Grid.make [| 4 |] in
  let dad =
    Dad.make ~name:"L" ~kind:Scalar.Klog ~grid [| Dad.block_dim ~flb:1 ~extent:10 ~pdim:0 ~p:4 () |]
  in
  let r =
    run_grid [| 4 |] (fun ctx ->
        let a = Darray.init_global ctx dad (fun g -> Scalar.Log (g.(0) mod 3 = 0)) in
        ( Scalar.to_int (Intrinsics.count ctx a),
          Scalar.to_bool (Intrinsics.reduce ctx Redop.Or a),
          Scalar.to_bool (Intrinsics.reduce ctx Redop.And a) ))
  in
  let c, any, all = (results r).(0) in
  check "count" 3 c;
  checkb "any" true any;
  checkb "all" false all

let test_dotproduct () =
  let dad_a = dad1 ~name:"X" ~n:8 ~p:4 () in
  let dad_b = dad1 ~name:"Y" ~form:`Cyclic ~n:8 ~p:4 () in
  let r =
    run_grid [| 4 |] (fun ctx ->
        let x = Darray.init_global ctx dad_a (fun g -> Scalar.Real (float_of_int g.(0))) in
        let y = Darray.init_global ctx dad_b (fun g -> Scalar.Real (float_of_int g.(0))) in
        Scalar.to_real (Intrinsics.dotproduct ctx x y))
  in
  Array.iter (fun v -> Alcotest.(check (float 1e-9)) "dot" 204. v) (results r)

let test_transpose () =
  let src = dad2 ~name:"S" ~n:3 ~m:5 ~p:2 ~q:2 ~forms:(`Block, `Block) () in
  let grid = Grid.make [| 2; 2 |] in
  let dst =
    Dad.make ~name:"T" ~kind:Scalar.Kreal ~grid
      [| Dad.block_dim ~flb:1 ~extent:5 ~pdim:0 ~p:2 (); Dad.block_dim ~flb:1 ~extent:3 ~pdim:1 ~p:2 () |]
  in
  let r =
    run_grid [| 2; 2 |] (fun ctx ->
        let a = Darray.init_global ctx src init2 in
        let t = Intrinsics.transpose ctx a ~dad:dst in
        Darray.gather_global ctx t)
  in
  let expected = Ndarray.init Scalar.Kreal [| 5; 3 |] (fun g -> init2 [| g.(1); g.(0) |]) in
  Array.iter (fun got -> checkb "transpose" true (Ndarray.approx_equal got expected)) (results r)

let test_reshape () =
  let src = dad2 ~name:"S" ~n:4 ~m:3 ~p:2 ~q:2 ~forms:(`Block, `Block) () in
  let grid = Grid.make [| 2; 2 |] in
  let dst =
    Dad.make ~name:"R" ~kind:Scalar.Kreal ~grid
      [| Dad.block_dim ~flb:1 ~extent:12 ~pdim:0 ~p:2 (); Dad.replicated_dim ~flb:1 ~extent:1 |]
  in
  let r =
    run_grid [| 2; 2 |] (fun ctx ->
        let a = Darray.init_global ctx src init2 in
        let t = Intrinsics.reshape ctx a ~dad:dst in
        Darray.gather_global ctx t)
  in
  (* column-major: element k of the vector = S(1 + k mod 4, 1 + k/4) *)
  let expected =
    Ndarray.init Scalar.Kreal [| 12; 1 |] (fun g ->
        let k = g.(0) - 1 in
        init2 [| 1 + (k mod 4); 1 + (k / 4) |])
  in
  Array.iter (fun got -> checkb "reshape" true (Ndarray.approx_equal got expected)) (results r)

let test_pack_unpack () =
  let grid = Grid.make [| 4 |] in
  let dad_src = dad1 ~name:"S" ~n:10 ~p:4 () in
  let dad_mask =
    Dad.make ~name:"MK" ~kind:Scalar.Klog ~grid [| Dad.block_dim ~flb:1 ~extent:10 ~pdim:0 ~p:4 () |]
  in
  let dad_vec = dad1 ~name:"V" ~n:10 ~p:4 () in
  let r =
    run_grid [| 4 |] (fun ctx ->
        let s = Darray.init_global ctx dad_src init1 in
        let mask = Darray.init_global ctx dad_mask (fun g -> Scalar.Log (g.(0) mod 2 = 0)) in
        let packed, n = Intrinsics.pack ctx s ~mask ~dad:dad_vec in
        let unpacked = Intrinsics.unpack ctx packed ~mask ~field:s in
        (Darray.gather_global ctx packed, n, Darray.gather_global ctx unpacked))
  in
  let packed, n, unpacked = (results r).(0) in
  check "pack count" 5 n;
  Alcotest.(check (array (float 1e-9)))
    "packed" [| 20.; 40.; 60.; 80.; 100.; 0.; 0.; 0.; 0.; 0. |] (Ndarray.reals packed);
  (* unpack(pack(x)) over the same mask restores x *)
  checkb "unpack" true (Ndarray.approx_equal unpacked (seq_array1 10))

let test_matmul () =
  let grid = Grid.make [| 2; 2 |] in
  let da = dad2 ~name:"A" ~n:4 ~m:3 ~p:2 ~q:2 ~forms:(`Block, `Block) () in
  let db = dad2 ~name:"B" ~n:3 ~m:5 ~p:2 ~q:2 ~forms:(`Block, `Block) () in
  let dc =
    Dad.make ~name:"C" ~kind:Scalar.Kreal ~grid
      [| Dad.block_dim ~flb:1 ~extent:4 ~pdim:0 ~p:2 (); Dad.block_dim ~flb:1 ~extent:5 ~pdim:1 ~p:2 () |]
  in
  let fa g = float_of_int (g.(0) + g.(1)) and fb g = float_of_int (g.(0) * g.(1)) in
  let r =
    run_grid [| 2; 2 |] (fun ctx ->
        let a = Darray.init_global ctx da (fun g -> Scalar.Real (fa g)) in
        let b = Darray.init_global ctx db (fun g -> Scalar.Real (fb g)) in
        let c = Intrinsics.matmul ctx a b ~dad:dc in
        Darray.gather_global ctx c)
  in
  let expected =
    Ndarray.init Scalar.Kreal [| 4; 5 |] (fun g ->
        let acc = ref 0. in
        for k = 1 to 3 do
          acc := !acc +. (fa [| g.(0); k |] *. fb [| k; g.(1) |])
        done;
        Scalar.Real !acc)
  in
  Array.iter (fun got -> checkb "matmul" true (Ndarray.approx_equal got expected)) (results r)

let test_spread () =
  let grid = Grid.make [| 3 |] in
  let dad_src =
    Dad.make ~name:"V" ~kind:Scalar.Kreal ~grid [| Dad.block_dim ~flb:1 ~extent:6 ~pdim:0 ~p:3 () |]
  in
  let dad_dst =
    Dad.make ~name:"S2" ~kind:Scalar.Kreal ~grid
      [| Dad.replicated_dim ~flb:1 ~extent:4; Dad.block_dim ~flb:1 ~extent:6 ~pdim:0 ~p:3 () |]
  in
  let r =
    run_grid [| 3 |] (fun ctx ->
        let v = Darray.init_global ctx dad_src init1 in
        let s = Intrinsics.spread ctx v ~dim:0 ~dad:dad_dst in
        Darray.gather_global ctx s)
  in
  let expected = Ndarray.init Scalar.Kreal [| 4; 6 |] (fun g -> init1 [| g.(1) |]) in
  Array.iter (fun got -> checkb "spread" true (Ndarray.approx_equal got expected)) (results r)

let test_matmul_summa_vs_replicated () =
  (* same product through both algorithms; SUMMA moves panel slabs, the
     fallback replicates whole operands *)
  let grid = Grid.make [| 2; 2 |] in
  let mk name n m =
    Dad.make ~name ~kind:Scalar.Kreal ~grid
      [| Dad.block_dim ~flb:1 ~extent:n ~pdim:0 ~p:2 ();
         Dad.block_dim ~flb:1 ~extent:m ~pdim:1 ~p:2 () |]
  in
  let da = mk "MA" 6 5 and db = mk "MB" 5 4 and dc = mk "MC" 6 4 in
  (* a non-conforming C descriptor forces the replicated fallback *)
  let dc_repl =
    Dad.make ~name:"MCR" ~kind:Scalar.Kreal ~grid
      [| Dad.cyclic_dim ~flb:1 ~extent:6 ~pdim:0 ~p:2 ();
         Dad.block_dim ~flb:1 ~extent:4 ~pdim:1 ~p:2 () |]
  in
  let fa g = float_of_int ((2 * g.(0)) + g.(1)) and fb g = float_of_int (g.(0) * g.(1)) in
  let run dad =
    run_grid [| 2; 2 |] (fun ctx ->
        let a = Darray.init_global ctx da (fun g -> Scalar.Real (fa g)) in
        let b = Darray.init_global ctx db (fun g -> Scalar.Real (fb g)) in
        Darray.gather_global ctx (Intrinsics.matmul ctx a b ~dad))
  in
  let summa = run dc and repl = run dc_repl in
  let expected =
    Ndarray.init Scalar.Kreal [| 6; 4 |] (fun g ->
        let acc = ref 0. in
        for k = 1 to 5 do
          acc := !acc +. (fa [| g.(0); k |] *. fb [| k; g.(1) |])
        done;
        Scalar.Real !acc)
  in
  checkb "summa result" true (Ndarray.approx_equal (results summa).(0) expected);
  checkb "replicated result" true (Ndarray.approx_equal (results repl).(0) expected)

(* ------------------------------------------------------------------ *)
(* Redistribute                                                        *)
(* ------------------------------------------------------------------ *)

let test_redistribute_roundtrip () =
  let dad_b = dad1 ~name:"RB" ~form:`Block ~n:17 ~p:4 () in
  let dad_c = dad1 ~name:"RC" ~form:`Cyclic ~n:17 ~p:4 () in
  let r =
    run_grid [| 4 |] (fun ctx ->
        let a = Darray.init_global ctx dad_b init1 in
        let c = Redistribute.redistribute ctx a dad_c in
        let b = Redistribute.redistribute ctx c dad_b in
        (Darray.gather_global ctx c, Darray.gather_global ctx b))
  in
  let expected = Ndarray.init Scalar.Kreal [| 17 |] init1 in
  let gc, gb = (results r).(0) in
  checkb "block->cyclic" true (Ndarray.approx_equal gc expected);
  checkb "roundtrip" true (Ndarray.approx_equal gb expected)

let test_redistribute_no_preprocessing_messages () =
  (* schedule1-style: data messages only; with P=4 block->cyclic, each pair
     exchanges at most one message *)
  let dad_b = dad1 ~name:"RB2" ~form:`Block ~n:16 ~p:4 () in
  let dad_c = dad1 ~name:"RC2" ~form:`Cyclic ~n:16 ~p:4 () in
  let r =
    run_grid [| 4 |] (fun ctx ->
        let a = Darray.init_global ctx dad_b init1 in
        ignore (Redistribute.redistribute ctx a dad_c))
  in
  checkb "at most P*(P-1) data messages" true (r.Engine.stats.Stats.messages <= 12)

let prop_redistribute_roundtrip =
  QCheck.Test.make ~name:"redistribute: random src/dst forms preserve contents" ~count:40
    QCheck.(quad (int_range 1 30) (int_range 1 4) (int_range 0 2) (int_range 0 2))
    (fun (n, p, f1, f2) ->

      let form i = List.nth [ `Block; `Cyclic; `Bc ] i in
      let mk name f =
        let grid = Grid.make [| p |] in
        let dim =
          match f with
          | `Block -> Dad.block_dim ~flb:1 ~extent:n ~pdim:0 ~p ()
          | `Cyclic -> Dad.cyclic_dim ~flb:1 ~extent:n ~pdim:0 ~p ()
          | `Bc ->
              {
                Dad.flb = 1;
                extent = n;
                align = Affine.ident;
                dist = Distrib.make (Block_cyclic 2) ~n ~p;
                pdim = Some 0;
                ghost_lo = 0;
                ghost_hi = 0;
              }
        in
        Dad.make ~name ~kind:Scalar.Kreal ~grid [| dim |]
      in
      let src = mk "PSRC" (form f1) and dst = mk "PDST" (form f2) in
      let r =
        run_grid [| p |] (fun ctx ->
            let a = Darray.init_global ctx src init1 in
            let b = Redistribute.redistribute ctx a dst in
            Darray.gather_global ctx b)
      in
      let expected = Ndarray.init Scalar.Kreal [| n |] init1 in
      Array.for_all (fun got -> Ndarray.approx_equal got expected) (results r))

let prop_cshift_inverse =
  QCheck.Test.make ~name:"cshift by s then -s is the identity" ~count:40
    QCheck.(triple (int_range 1 25) (int_range 1 4) (int_range (-30) 30))
    (fun (n, p, s) ->
      let dad = dad1 ~name:"CSH" ~n ~p () in
      let r =
        run_grid [| p |] (fun ctx ->
            let a = Darray.init_global ctx dad init1 in
            let b = Intrinsics.cshift ctx a ~dim:0 ~shift:s in
            let c = Intrinsics.cshift ctx b ~dim:0 ~shift:(-s) in
            Darray.gather_global ctx c)
      in
      let expected = Ndarray.init Scalar.Kreal [| n |] init1 in
      Array.for_all (fun got -> Ndarray.approx_equal got expected) (results r))

let prop_reduce_matches_fold =
  QCheck.Test.make ~name:"parallel reductions equal sequential folds" ~count:40
    QCheck.(triple (int_range 1 40) (int_range 1 5) (int_range 0 3))
    (fun (n, p, which) ->
      let op = List.nth [ Redop.Sum; Redop.Prod; Redop.Max; Redop.Min ] which in
      let f g = Scalar.Real (float_of_int ((g.(0) * 7 mod 5) + 1) /. 4.) in
      let dad = dad1 ~name:"RED" ~n ~p () in
      let r =
        run_grid [| p |] (fun ctx ->
            let a = Darray.init_global ctx dad f in
            Scalar.to_real (Intrinsics.reduce ctx op a))
      in
      let seq = ref (Scalar.to_real (Redop.identity op Scalar.Kreal)) in
      for g = 1 to n do
        let v = Scalar.to_real (f [| g |]) in
        seq :=
          (match op with
          | Redop.Sum -> !seq +. v
          | Redop.Prod -> !seq *. v
          | Redop.Max -> Float.max !seq v
          | Redop.Min -> Float.min !seq v
          | _ -> !seq)
      done;
      Array.for_all (fun got -> Float.abs (got -. !seq) < 1e-9) (results r))

(* Each rank's ghost-plan table after running a compiled program the way
   [Driver.run] does: (array, dim, amount) per entry, sorted, so a
   rebuilt plan shows up as a duplicate. *)
let ghost_plan_keys ~flags ~nprocs src =
  let compiled = F90d.Driver.compile ~flags src in
  let grid = Grid.make (F90d_frontend.Sema.grid_dims compiled.F90d.Driver.c_env ~nprocs) in
  let prepared = F90d_exec.Interp.prepare ~grid compiled.F90d.Driver.c_ir in
  let r =
    Engine.run (Engine.config nprocs) (fun eng ->
        let ctx = Rctx.make eng grid in
        ignore (F90d_exec.Interp.node_main ~coalesce:flags.F90d_opt.Passes.coalesce prepared ctx);
        List.filter_map
          (function Structured.Ghost g -> Some (Dad.name g.dad, g.dim, g.amount) | _ -> None)
          (Rctx.plans ctx)
        |> List.sort compare)
  in
  (compiled, results r)

let test_ghost_plans_once_per_run () =
  let keys = Alcotest.(array (list (triple string int int))) in
  let on = F90d_opt.Passes.all_on in
  (* 4 steps of 2-D jacobi: four shifts of A per step, one plan each *)
  let _, got =
    ghost_plan_keys ~flags:on ~nprocs:4 (F90d.Programs.jacobi2d ~n:8 ~iters:4 ~p:2 ~q:2)
  in
  Alcotest.check keys "jacobi2d: one plan per (rank, array, dim, amount)"
    (Array.make 4 [ ("A", 0, -1); ("A", 0, 1); ("A", 1, -1); ("A", 1, 1) ])
    got;
  (* a coalesced batch in a 4-step loop: its members look up the same
     table as the single primitive *)
  let src =
    String.concat "\n"
      [
        "      PROGRAM JB";
        "      REAL A(16), B(16), C(16), D(16)";
        "      INTEGER T";
        "C$    TEMPLATE T1(16)";
        "C$    ALIGN A(I) WITH T1(I)";
        "C$    ALIGN B(I) WITH T1(I)";
        "C$    ALIGN C(I) WITH T1(I)";
        "C$    ALIGN D(I) WITH T1(I)";
        "C$    DISTRIBUTE T1(BLOCK)";
        "      FORALL (I = 1:16) A(I) = I";
        "      FORALL (I = 1:16) C(I) = 2 * I";
        "      DO T = 1, 4";
        "        FORALL (I = 1:15) B(I) = A(I + 1)";
        "        FORALL (I = 1:15) D(I) = C(I + 1)";
        "        FORALL (I = 1:16) A(I) = B(I) + 1";
        "        FORALL (I = 1:16) C(I) = D(I) + 1";
        "      END DO";
        "      PRINT *, A, C";
        "      END";
        "";
      ]
  in
  let batched, got = ghost_plan_keys ~flags:on ~nprocs:4 src in
  let explain = F90d_report.Report.explain_text batched.F90d.Driver.c_ir in
  checkb "the shifts run as one batch" true
    (try
       ignore (Str.search_forward (Str.regexp_string "overlap_shift[batch of 2]") explain 0);
       true
     with Not_found -> false);
  let expected = Array.make 4 [ ("A", 0, 1); ("C", 0, 1) ] in
  Alcotest.check keys "batched members: one plan each" expected got;
  let _, single = ghost_plan_keys ~flags:{ on with coalesce = false } ~nprocs:4 src in
  Alcotest.check keys "the same plans without coalescing" expected single

(* overlap_shift's plan against an O(team) reference: every coordinate
   of the grid line enumerates its ghost cells, and owners are found by
   scanning every coordinate's layout.  The array is 2-D (a BLOCK dim
   with ghosts of its own, then the shifted dim), so the flat offsets
   also cover the other dimension's ghost origin. *)
let prop_ghost_plan_matches_team_scan =
  QCheck.Test.make ~name:"ghost plan equals the O(team) enumeration" ~count:200
    QCheck.(
      pair
        (quad (int_range 1 20) (int_range 1 8) (int_range 0 4) (int_range 0 6))
        (quad (int_range 0 3) (int_range 0 3) bool (int_range 1 4)))
    (fun ((n, p, k, spare), (glo, ghi, up, mag)) ->
      let ghi = if ghi = glo then glo + 1 else ghi in
      let width = if up then ghi else glo in
      let up = if width = 0 then not up else up in
      let width = if up then ghi else glo in
      let amount = (if up then 1 else -1) * (1 + ((mag - 1) mod width)) in
      let grid = Grid.make [| 2; p |] in
      let d0 = { (Dad.block_dim ~flb:1 ~extent:3 ~pdim:0 ~p:2 ()) with Dad.ghost_lo = 1 } in
      let d1 =
        Dad.block_dim ~align:(Affine.make ~a:1 ~b:k) ~tn:(n + k + spare) ~flb:1 ~extent:n
          ~pdim:1 ~p ()
      in
      let d1 = { d1 with Dad.ghost_lo = glo; ghost_hi = ghi } in
      let dad = Dad.make ~name:"G" ~kind:Scalar.Kreal ~grid [| d0; d1 |] in
      let reference me =
        let team = Grid.ranks_along grid ~rank:me ~dim:1 in
        let range c =
          match Dad.layout_at dad ~dim:1 ~rank:team.(c) with
          | Layout.Prog { first; count; _ } -> (first, count)
          | Layout.Explicit _ -> assert false
        in
        let owner g =
          let rec scan c =
            let first, count = range c in
            if g >= first && g < first + count then c else scan (c + 1)
          in
          scan 0
        in
        let w = abs amount in
        let ghosts c =
          let first, count = range c in
          if count = 0 then []
          else
            List.init w (fun i ->
                if amount > 0 then (first + count + i, count + i) else (first - w + i, i - w))
            |> List.filter (fun (g, _) -> g >= 0 && g < n)
        in
        let coord = (Grid.coords_of_rank grid me).(1) in
        let my_first, _ = range coord in
        let local = Dad.alloc_local dad ~rank:me in
        let rows = (Dad.local_counts dad ~rank:me).(0) in
        let offsets positions =
          Array.of_list
            (List.concat_map
               (fun pos -> List.init rows (fun i -> Ndarray.offset local [| i; pos |]))
               positions)
        in
        let per_peer f =
          List.concat
            (List.init (Array.length team) (fun c ->
                 if c = coord then []
                 else match f c with [] -> [] | l -> [ (team.(c), offsets l) ]))
        in
        {
          Structured.sends =
            per_peer (fun c ->
                List.filter_map
                  (fun (g, _) -> if owner g = coord then Some (g - my_first) else None)
                  (ghosts c));
          recvs =
            per_peer (fun c ->
                List.filter_map (fun (g, slot) -> if owner g = c then Some slot else None)
                  (ghosts coord));
        }
      in
      let r =
        run_grid [| 2; p |] (fun ctx ->
            let a = Darray.create ctx dad in
            Structured.ghost_plan ctx a ~dim:1 ~amount = reference (Rctx.me ctx))
      in
      Array.for_all Fun.id (results r))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_redistribute_roundtrip;
      prop_cshift_inverse;
      prop_reduce_matches_fold;
      prop_ghost_plan_matches_team_scan;
      prop_read_into;
    ]

let () =
  Alcotest.run "f90d_runtime"
    [
      ( "collectives",
        [
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "broadcast O(log P)" `Quick test_broadcast_tree_latency;
          Alcotest.test_case "reduce/allreduce" `Quick test_reduce_allreduce;
          Alcotest.test_case "allgather order" `Quick test_allgather_order;
          Alcotest.test_case "shifts" `Quick test_shift_edge_circular;
          Alcotest.test_case "transfer" `Quick test_transfer_between_columns;
          Alcotest.test_case "teams shared across ranks" `Quick test_teams_shared;
        ] );
      ( "darray",
        [
          Alcotest.test_case "gather matches init" `Quick test_darray_gather_matches_init;
          Alcotest.test_case "2d gather" `Quick test_darray_2d_gather;
          Alcotest.test_case "owned elements by flat offset" `Quick test_iter_owned_flat;
          Alcotest.test_case "get_global" `Quick test_darray_get_global;
        ] );
      ( "schedules",
        [
          Alcotest.test_case "precomp_read" `Quick test_precomp_read;
          Alcotest.test_case "gather" `Quick test_gather_schedule_equivalent;
          Alcotest.test_case "scatter" `Quick test_scatter_roundtrip;
          Alcotest.test_case "postcomp_write" `Quick test_postcomp_write_local_build;
          Alcotest.test_case "schedule cache" `Quick test_schedule_cache;
          Alcotest.test_case "charged bytes use element size" `Quick
            test_exchange_charged_bytes;
          Alcotest.test_case "warm read allocates its payloads" `Quick test_warm_read_allocation;
        ] );
      ( "structured",
        [
          Alcotest.test_case "multicast" `Quick test_multicast;
          Alcotest.test_case "transfer slab" `Quick test_transfer_slab;
          Alcotest.test_case "overlap_shift" `Quick test_overlap_shift;
          Alcotest.test_case "overlap_shift 2d" `Quick test_overlap_shift_2d;
          Alcotest.test_case "ghost plans once per run" `Quick test_ghost_plans_once_per_run;
          Alcotest.test_case "temporary_shift" `Quick test_temporary_shift;
          Alcotest.test_case "multicast_shift" `Quick test_multicast_shift;
          Alcotest.test_case "concat" `Quick test_concat;
          Alcotest.test_case "concat built once" `Quick test_concat_built_once;
        ] );
      ( "intrinsics",
        [
          Alcotest.test_case "cshift/eoshift" `Quick test_cshift_eoshift;
          Alcotest.test_case "reductions" `Quick test_reductions;
          Alcotest.test_case "replicated dims" `Quick test_reduction_replicated_dim;
          Alcotest.test_case "maxloc first" `Quick test_maxloc_first_occurrence;
          Alcotest.test_case "count/any/all" `Quick test_count_any_all;
          Alcotest.test_case "dotproduct" `Quick test_dotproduct;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "reshape" `Quick test_reshape;
          Alcotest.test_case "pack/unpack" `Quick test_pack_unpack;
          Alcotest.test_case "matmul" `Quick test_matmul;
          Alcotest.test_case "matmul summa vs replicated" `Quick test_matmul_summa_vs_replicated;
          Alcotest.test_case "spread" `Quick test_spread;
        ] );
      ( "redistribute",
        [
          Alcotest.test_case "roundtrip" `Quick test_redistribute_roundtrip;
          Alcotest.test_case "message bound" `Quick test_redistribute_no_preprocessing_messages;
        ] );
      ("properties", qsuite);
    ]
