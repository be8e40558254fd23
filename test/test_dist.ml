open F90d_base
open F90d_dist

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Distrib                                                             *)
(* ------------------------------------------------------------------ *)

let forms = [ Distrib.Block; Distrib.Cyclic; Distrib.Block_cyclic 3; Distrib.Replicated ]

let test_block_basic () =
  let d = Distrib.make Block ~n:10 ~p:4 in
  check "chunk" 3 (Distrib.chunk d);
  check "owner 0" 0 (Distrib.owner d 0);
  check "owner 9" 3 (Distrib.owner d 9);
  check "local of 4" 1 (Distrib.local_of_global d 4);
  check "count p0" 3 (Distrib.local_count d ~proc:0);
  check "count p3" 1 (Distrib.local_count d ~proc:3)

let test_cyclic_basic () =
  let d = Distrib.make Cyclic ~n:10 ~p:4 in
  check "owner 6" 2 (Distrib.owner d 6);
  check "local of 6" 1 (Distrib.local_of_global d 6);
  check "count p0" 3 (Distrib.local_count d ~proc:0);
  check "count p3" 2 (Distrib.local_count d ~proc:3)

let test_block_cyclic_basic () =
  let d = Distrib.make (Block_cyclic 2) ~n:10 ~p:2 in
  (* courses: [0,1][2,3][4,5][6,7][8,9] owned 0,1,0,1,0 *)
  check "owner 4" 0 (Distrib.owner d 4);
  check "owner 7" 1 (Distrib.owner d 7);
  check "local of 5" 3 (Distrib.local_of_global d 5);
  check "count p0" 6 (Distrib.local_count d ~proc:0)

let prop_distrib_partition =
  QCheck.Test.make ~name:"distrib: owned sets partition [0,n)" ~count:300
    QCheck.(triple (int_range 0 3) (int_range 0 40) (int_range 1 7))
    (fun (fi, n, p) ->
      let d = Distrib.make (List.nth forms fi) ~n ~p in
      if (List.nth forms fi) = Distrib.Replicated then true
      else
        let all =
          List.concat_map (fun proc -> Distrib.owned_indices d ~proc) (Util.range 0 (p - 1))
        in
        List.sort compare all = Util.range 0 (n - 1))

let prop_distrib_roundtrip =
  QCheck.Test.make ~name:"distrib: global->local->global roundtrip" ~count:300
    QCheck.(triple (int_range 0 3) (int_range 1 40) (int_range 1 7))
    (fun (fi, n, p) ->
      let d = Distrib.make (List.nth forms fi) ~n ~p in
      List.for_all
        (fun g ->
          let proc = Distrib.owner d g in
          Distrib.global_of_local d ~proc (Distrib.local_of_global d g) = g)
        (Util.range 0 (n - 1)))

let prop_distrib_counts =
  QCheck.Test.make ~name:"distrib: local_count matches owned_indices" ~count:300
    QCheck.(triple (int_range 0 3) (int_range 0 40) (int_range 1 7))
    (fun (fi, n, p) ->
      let d = Distrib.make (List.nth forms fi) ~n ~p in
      List.for_all
        (fun proc ->
          Distrib.local_count d ~proc = List.length (Distrib.owned_indices d ~proc))
        (Util.range 0 (p - 1)))

let prop_distrib_local_order =
  QCheck.Test.make ~name:"distrib: local indices are 0..count-1 in global order" ~count:300
    QCheck.(triple (int_range 0 3) (int_range 0 40) (int_range 1 7))
    (fun (fi, n, p) ->
      let d = Distrib.make (List.nth forms fi) ~n ~p in
      List.for_all
        (fun proc ->
          let owned = Distrib.owned_indices d ~proc in
          List.mapi (fun i _ -> i) owned
          = List.map (Distrib.local_of_global d) owned)
        (Util.range 0 (p - 1)))

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let brute_layout (d : Distrib.t) (al : Affine.t) extent proc =
  List.filter
    (fun i ->
      let t = Affine.eval al i in
      t >= 0 && t < d.Distrib.n && Distrib.is_owned d ~proc t)
    (Util.range 0 (extent - 1))

let layout_gen =
  QCheck.(
    Gen.(
      let* fi = int_range 0 2 in
      let* n = int_range 1 30 in
      let* p = int_range 1 5 in
      let* proc = int_range 0 (p - 1) in
      let* a = int_range 1 3 in
      let* b = int_range 0 4 in
      let* extent = int_range 0 20 in
      return (fi, n, p, proc, a, b, extent)))

let prop_layout_matches_brute =
  QCheck.Test.make ~name:"layout resolve = brute-force ownership" ~count:800
    (QCheck.make layout_gen)
    (fun (fi, n, p, proc, a, b, extent) ->
      let form = List.nth [ Distrib.Block; Distrib.Cyclic; Distrib.Block_cyclic 2 ] fi in
      let d = Distrib.make form ~n ~p in
      let al = Affine.make ~a ~b in
      let l = Layout.resolve d ~align:al ~extent ~proc in
      Layout.to_list l = brute_layout d al extent proc)

let prop_layout_local_global =
  QCheck.Test.make ~name:"layout local/global roundtrip" ~count:500 (QCheck.make layout_gen)
    (fun (fi, n, p, proc, a, b, extent) ->
      let form = List.nth [ Distrib.Block; Distrib.Cyclic; Distrib.Block_cyclic 2 ] fi in
      let d = Distrib.make form ~n ~p in
      let al = Affine.make ~a ~b in
      let l = Layout.resolve d ~align:al ~extent ~proc in
      List.for_all
        (fun g ->
          Layout.is_owned l g
          && Layout.global_of_local l (Layout.local_of_global l g) = g)
        (Layout.to_list l))

let set_bound_forms = Distrib.[ Block; Cyclic; Block_cyclic 2; Block_cyclic 3 ]

let general_gen =
  QCheck.Gen.(
    let* fi = int_range 0 3 in
    let* n = int_range 1 40 in
    let* p = int_range 1 5 in
    let* proc = int_range 0 (p - 1) in
    let* a = int_range 1 3 in
    let* glb = int_range (-2) 20 in
    let* len = int_range 0 25 in
    let* gst = int_range 1 4 in
    return (fi, n, p, proc, a, glb, glb + len, gst))

(* Draws for the unit-stride path: a BLOCK layout under the identity
   alignment, stride 1 or -1, and each bound either on or next to an edge
   of [proc]'s block or anywhere around the array, so ranges that are
   empty, touch an edge, or cover the block all occur. *)
let unit_stride_gen =
  QCheck.Gen.(
    let* n = int_range 1 40 in
    let* p = int_range 1 5 in
    let* proc = int_range 0 (p - 1) in
    let c = Util.ceil_div n p in
    let first = proc * c and last = min n ((proc + 1) * c) - 1 in
    let bound = oneof [ oneofl [ first - 1; first; first + 1; last - 1; last; last + 1 ]; int_range (-2) (n + 1) ] in
    let* glb = bound in
    let* gub = bound in
    let* gst = oneofl [ 1; -1 ] in
    return (0, n, p, proc, 1, glb, gub, gst))

(* Half the draws take the unit-stride path. *)
let set_bound_gen = QCheck.Gen.frequency [ (1, general_gen); (1, unit_stride_gen) ]

let unit_stride (fi, _, _, _, a, _, _, gst) = fi = 0 && a = 1 && abs gst = 1

let prop_set_bound_matches_brute =
  QCheck.Test.make ~name:"set_bound = brute-force range intersection" ~count:1000
    (QCheck.make set_bound_gen)
    (fun (fi, n, p, proc, a, glb, gub, gst) ->
      let d = Distrib.make (List.nth set_bound_forms fi) ~n ~p in
      let al = Affine.make ~a ~b:0 in
      let extent = n / a in
      let l = Layout.resolve d ~align:al ~extent ~proc in
      (* a negative stride visits glb down to gub *)
      let lo, hi = if gst > 0 then (glb, gub) else (gub, glb) in
      let expected =
        List.filter
          (fun g -> Layout.is_owned l g && (g - glb) mod gst = 0)
          (Util.range (max 0 lo) (min (extent - 1) hi))
      in
      Layout.to_list (Layout.set_bound l ~glb ~gub ~gst) = expected)

let test_set_bound_draw_share () =
  let rs = Random.State.make [| 28 |] in
  let hits = ref 0 in
  for _ = 1 to 1000 do
    if unit_stride (set_bound_gen rs) then incr hits
  done;
  Alcotest.(check bool) "at least 40% of 1000 draws take the unit-stride path" true (!hits >= 400)

let prop_set_bound_partitions =
  QCheck.Test.make ~name:"set_bound partitions the iteration space over procs" ~count:500
    QCheck.(
      quad (int_range 0 3) (int_range 1 40) (int_range 1 6) (pair (int_range 0 10) (int_range 1 3)))
    (fun (fi, n, p, (glb, gst)) ->
      let d = Distrib.make (List.nth set_bound_forms fi) ~n ~p in
      let gub = n - 1 in
      let owned =
        List.concat_map
          (fun proc ->
            let l = Layout.resolve d ~align:Affine.ident ~extent:n ~proc in
            Layout.to_list (Layout.set_bound l ~glb ~gub ~gst))
          (Util.range 0 (p - 1))
      in
      List.sort compare owned
      = List.filter (fun g -> (g - glb) mod gst = 0) (Util.range glb gub))

let test_set_bound_negative_stride () =
  let d = Distrib.make Block ~n:12 ~p:3 in
  let l = Layout.resolve d ~align:Affine.ident ~extent:12 ~proc:1 in
  (* global 10:2:-2 = {10,8,6,4,2}; proc 1 owns 4..7 -> {4,6}, ascending *)
  Alcotest.(check (list int))
    "owned" [ 4; 6 ]
    (Layout.to_list (Layout.set_bound l ~glb:10 ~gub:2 ~gst:(-2)))

(* ------------------------------------------------------------------ *)
(* Grid                                                                *)
(* ------------------------------------------------------------------ *)

let test_grid_roundtrip () =
  let g = Grid.make [| 3; 4 |] in
  check "size" 12 (Grid.size g);
  for r = 0 to 11 do
    check "roundtrip" r (Grid.rank_of_coords g (Grid.coords_of_rank g r))
  done

let test_grid_ranks_along () =
  let g = Grid.make [| 2; 3 |] in
  (* rank 3 = coords (1,1); along dim 1: coords (1,0),(1,1),(1,2) = ranks 1,3,5 *)
  Alcotest.(check (array int)) "row" [| 1; 3; 5 |] (Grid.ranks_along g ~rank:3 ~dim:1);
  Alcotest.(check (array int)) "col" [| 2; 3 |] (Grid.ranks_along g ~rank:3 ~dim:0)

let test_grid_neighbour () =
  let g = Grid.make [| 2; 2 |] in
  Alcotest.(check (option int)) "right" (Some 3) (Grid.neighbour g ~rank:1 ~dim:1 ~delta:1);
  Alcotest.(check (option int)) "edge" None (Grid.neighbour g ~rank:1 ~dim:0 ~delta:1)

let test_grid_embedding_validity () =
  match F90d_machine.Topology.grid_embedding Hypercube ~nprocs:16 [| 4; 4 |] with
  | None -> Alcotest.fail "expected an embedding"
  | Some phys ->
      let g = Grid.make ~phys_of_rank:phys [| 4; 4 |] in
      (* grid neighbours are at hypercube distance 1 *)
      for r = 0 to 15 do
        for dim = 0 to 1 do
          match Grid.neighbour g ~rank:r ~dim ~delta:1 with
          | None -> ()
          | Some r' ->
              check "gray neighbours" 1
                (F90d_machine.Topology.hops Hypercube ~nprocs:16 (Grid.phys_of_rank g r)
                   (Grid.phys_of_rank g r'))
        done
      done

(* ------------------------------------------------------------------ *)
(* Dad                                                                 *)
(* ------------------------------------------------------------------ *)

let mk_dad_2d ~n ~m ~p ~q forms =
  let grid = Grid.make [| p; q |] in
  let f1, f2 = forms in
  let dim1 =
    match f1 with
    | `Block -> Dad.block_dim ~flb:1 ~extent:n ~pdim:0 ~p ()
    | `Cyclic -> Dad.cyclic_dim ~flb:1 ~extent:n ~pdim:0 ~p ()
    | `Repl -> Dad.replicated_dim ~flb:1 ~extent:n
  in
  let dim2 =
    match f2 with
    | `Block -> Dad.block_dim ~flb:1 ~extent:m ~pdim:1 ~p:q ()
    | `Cyclic -> Dad.cyclic_dim ~flb:1 ~extent:m ~pdim:1 ~p:q ()
    | `Repl -> Dad.replicated_dim ~flb:1 ~extent:m
  in
  Dad.make ~name:"A" ~kind:Scalar.Kreal ~grid [| dim1; dim2 |]

let test_dad_home_partition () =
  let dad = mk_dad_2d ~n:7 ~m:5 ~p:2 ~q:3 (`Block, `Cyclic) in
  (* each element has exactly one home; local counts sum to the global size *)
  let counts = Array.make 6 0 in
  for i = 1 to 7 do
    for j = 1 to 5 do
      let r = Dad.home_rank dad [| i; j |] in
      counts.(r) <- counts.(r) + 1;
      checkb "home is local" true (Dad.is_local dad ~rank:r [| i; j |])
    done
  done;
  let total = Array.fold_left ( + ) 0 counts in
  check "partition covers all" 35 total;
  Array.iteri
    (fun r c ->
      let lc = Dad.local_counts dad ~rank:r in
      check "local count matches" c (lc.(0) * lc.(1)))
    counts

let test_dad_replicated_dim () =
  let dad = mk_dad_2d ~n:4 ~m:6 ~p:2 ~q:2 (`Block, `Repl) in
  (* dim 2 replicated: element owned by all ranks in the same grid row *)
  let owners = Dad.owning_ranks dad [| 3; 2 |] in
  check "replicated over q=2" 2 (List.length owners);
  List.iter (fun r -> checkb "is_local" true (Dad.is_local dad ~rank:r [| 3; 2 |])) owners

let test_dad_local_global_roundtrip () =
  let dad = mk_dad_2d ~n:9 ~m:8 ~p:3 ~q:2 (`Cyclic, `Block) in
  for i = 1 to 9 do
    for j = 1 to 8 do
      let r = Dad.home_rank dad [| i; j |] in
      match Dad.local_indices dad ~rank:r [| i; j |] with
      | None -> Alcotest.fail "home rank must own the element"
      | Some l ->
          Alcotest.(check (array int)) "roundtrip" [| i; j |] (Dad.global_of_local dad ~rank:r l)
    done
  done

let test_dad_alloc_ghosts () =
  let grid = Grid.make [| 2; 2 |] in
  let dim0 = Dad.block_dim ~flb:1 ~extent:8 ~pdim:0 ~p:2 () in
  let dim1 = Dad.block_dim ~flb:1 ~extent:8 ~pdim:1 ~p:2 () in
  let dad =
    Dad.make ~name:"A" ~kind:Scalar.Kreal ~grid [| { dim0 with Dad.ghost_lo = 1; ghost_hi = 2 }; dim1 |]
  in
  let local = Dad.alloc_local dad ~rank:0 in
  (* dim0: 4 owned + 3 ghost = 7, storage lb = -1 *)
  check "ghost extent" 7 (Ndarray.size local / 4);
  check "storage lb" (-1) local.Ndarray.lb.(0)

(* The table [Dad.make] builds up front must hold exactly what the
   resolver gives at each rank's own grid coordinate, for every form and
   alignment (negative strides take the [Explicit] path). *)
let dad_table_gen =
  QCheck.Gen.(
    let dim_gen =
      let* fi = int_range 0 3 in
      let* k = int_range 1 3 in
      let* ai = int_range 0 2 in
      let* extent = int_range 1 20 in
      return (fi, k, ai, extent)
    in
    let* two_d = bool in
    let* p = int_range 1 5 in
    let* q = int_range 1 4 in
    let* d0 = dim_gen in
    let* d1 = dim_gen in
    return ((if two_d then [| p; q |] else [| p |]), d0, d1))

let prop_dad_table_matches_resolve =
  QCheck.Test.make ~name:"DAD layout table = Layout.resolve at each rank's coordinate" ~count:500
    (QCheck.make dad_table_gen)
    (fun (gdims, d0, d1) ->
      let grid = Grid.make gdims in
      let mk (fi, k, ai, extent) pdim =
        let form =
          List.nth Distrib.[ Block; Cyclic; Block_cyclic k; Replicated ] fi
        in
        let align =
          List.nth [ Affine.ident; Affine.make ~a:2 ~b:0; Affine.make ~a:(-1) ~b:(extent - 1) ] ai
        in
        match pdim with
        | Some pd when form <> Distrib.Replicated ->
            let tn = max (Affine.eval align 0) (Affine.eval align (extent - 1)) + 1 in
            let dist = Distrib.make form ~n:tn ~p:gdims.(pd) in
            { Dad.flb = 1; extent; align; dist; pdim; ghost_lo = 0; ghost_hi = 0 }
        | _ -> Dad.replicated_dim ~flb:1 ~extent
      in
      let dims = [| mk d0 (Some 0); mk d1 (if Array.length gdims = 2 then Some 1 else None) |] in
      let dad = Dad.make ~name:"T" ~kind:Scalar.Kreal ~grid dims in
      List.for_all
        (fun rank ->
          let coords = Grid.coords_of_rank grid rank in
          Array.for_all Fun.id
            (Array.mapi
               (fun dim (d : Dad.dim) ->
                 let proc = match d.Dad.pdim with Some p -> coords.(p) | None -> 0 in
                 Dad.layout_at dad ~dim ~rank
                 = Layout.resolve d.Dad.dist ~align:d.Dad.align ~extent:d.Dad.extent ~proc)
               dims))
        (Util.range 0 (Grid.size grid - 1)))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_distrib_partition;
      prop_distrib_roundtrip;
      prop_distrib_counts;
      prop_distrib_local_order;
      prop_layout_matches_brute;
      prop_layout_local_global;
      prop_set_bound_matches_brute;
      prop_set_bound_partitions;
      prop_dad_table_matches_resolve;
    ]

let () =
  Alcotest.run "f90d_dist"
    [
      ( "distrib",
        [
          Alcotest.test_case "block basics" `Quick test_block_basic;
          Alcotest.test_case "cyclic basics" `Quick test_cyclic_basic;
          Alcotest.test_case "block-cyclic basics" `Quick test_block_cyclic_basic;
        ] );
      ( "layout",
        [
          Alcotest.test_case "negative stride set_bound" `Quick test_set_bound_negative_stride;
          Alcotest.test_case "set_bound draws hit the unit-stride path" `Quick
            test_set_bound_draw_share;
        ] );
      ( "grid",
        [
          Alcotest.test_case "rank/coords roundtrip" `Quick test_grid_roundtrip;
          Alcotest.test_case "ranks_along" `Quick test_grid_ranks_along;
          Alcotest.test_case "neighbour" `Quick test_grid_neighbour;
          Alcotest.test_case "hypercube gray embedding" `Quick test_grid_embedding_validity;
        ] );
      ( "dad",
        [
          Alcotest.test_case "home partition" `Quick test_dad_home_partition;
          Alcotest.test_case "replication" `Quick test_dad_replicated_dim;
          Alcotest.test_case "local/global roundtrip" `Quick test_dad_local_global_roundtrip;
          Alcotest.test_case "ghost allocation" `Quick test_dad_alloc_ghosts;
        ] );
      ("properties", qsuite);
    ]
