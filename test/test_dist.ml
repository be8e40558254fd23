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

let set_bound_gen =
  QCheck.(
    Gen.(
      let* fi = int_range 0 1 in
      let* n = int_range 1 40 in
      let* p = int_range 1 5 in
      let* proc = int_range 0 (p - 1) in
      let* a = int_range 1 3 in
      let* glb = int_range (-2) 20 in
      let* len = int_range 0 25 in
      let* gst = int_range 1 4 in
      return (fi, n, p, proc, a, glb, glb + len, gst)))

let prop_set_bound_matches_brute =
  QCheck.Test.make ~name:"set_bound = brute-force range intersection" ~count:1000
    (QCheck.make set_bound_gen)
    (fun (fi, n, p, proc, a, glb, gub, gst) ->
      let form = List.nth [ Distrib.Block; Distrib.Cyclic ] fi in
      let d = Distrib.make form ~n ~p in
      let al = Affine.make ~a ~b:0 in
      let extent = n / a in
      let l = Layout.resolve d ~align:al ~extent ~proc in
      let expected =
        List.filter
          (fun g -> Layout.is_owned l g && g <= gub && (g - glb) mod gst = 0)
          (Util.range (max 0 glb) (min (extent - 1) gub))
        |> List.map (Layout.local_of_global l)
      in
      let actual =
        match Layout.set_bound l ~glb ~gub ~gst with
        | None -> []
        | Some (llb, lub, lst) ->
            List.filter (fun x -> (x - llb) mod lst = 0) (Util.range llb lub)
      in
      actual = expected)

let prop_set_bound_partitions =
  QCheck.Test.make ~name:"set_bound partitions the iteration space over procs" ~count:500
    QCheck.(
      quad (int_range 0 1) (int_range 1 40) (int_range 1 6) (pair (int_range 0 10) (int_range 1 3)))
    (fun (fi, n, p, (glb, gst)) ->
      let form = List.nth [ Distrib.Block; Distrib.Cyclic ] fi in
      let d = Distrib.make form ~n ~p in
      let gub = n - 1 in
      let total = ref 0 in
      List.iter
        (fun proc ->
          let l = Layout.resolve d ~align:Affine.ident ~extent:n ~proc in
          match Layout.set_bound l ~glb ~gub ~gst with
          | None -> ()
          | Some (llb, lub, lst) -> if lub >= llb then total := !total + (((lub - llb) / lst) + 1))
        (Util.range 0 (p - 1));
      let expected = if gub < glb then 0 else ((gub - glb) / gst) + 1 in
      !total = expected)

let test_set_bound_negative_stride () =
  let d = Distrib.make Block ~n:12 ~p:3 in
  let l = Layout.resolve d ~align:Affine.ident ~extent:12 ~proc:1 in
  (* global 10:2:-2 = {10,8,6,4,2}; proc 1 owns 4..7 -> {6,4} -> local {2,0} *)
  match Layout.set_bound l ~glb:10 ~gub:2 ~gst:(-2) with
  | Some (llb, lub, lst) ->
      check "llb" 0 llb;
      check "lub" 2 lub;
      check "lst" 2 lst
  | None -> Alcotest.fail "expected a non-empty triplet"

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
(* Dad / Bounds                                                        *)
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

let test_bounds_set_bound () =
  let dad = mk_dad_2d ~n:12 ~m:4 ~p:3 ~q:1 (`Block, `Repl) in
  (* dim0 BLOCK over 3 procs, chunk 4; range 2:11 on grid coord 1 (owns 5..8) -> global 5..8, local 0..3 *)
  let rank1 = Grid.rank_of_coords (Dad.grid dad) [| 1; 0 |] in
  (match Bounds.set_bound dad ~dim:0 ~rank:rank1 ~glb:2 ~gub:11 ~gst:1 with
  | Some { llb; lub; lst } ->
      check "llb" 0 llb;
      check "lub" 3 lub;
      check "lst" 1 lst
  | None -> Alcotest.fail "expected non-empty bounds");
  (* inactive processor masking: range 1:4 entirely on coord 0 *)
  let rank2 = Grid.rank_of_coords (Dad.grid dad) [| 2; 0 |] in
  checkb "masked" true (Bounds.set_bound dad ~dim:0 ~rank:rank2 ~glb:1 ~gub:4 ~gst:1 = None)

let prop_bounds_partition =
  QCheck.Test.make ~name:"DAD set_bound partitions iterations across the grid" ~count:300
    QCheck.(quad (int_range 1 30) (int_range 1 5) (int_range 1 10) (int_range 1 3))
    (fun (n, p, glb, gst) ->
      let grid = Grid.make [| p |] in
      let dad =
        Dad.make ~name:"X" ~kind:Scalar.Kreal ~grid [| Dad.block_dim ~flb:1 ~extent:n ~pdim:0 ~p () |]
      in
      let gub = n in
      let total =
        List.fold_left
          (fun acc r -> acc + Bounds.iterations (Bounds.set_bound dad ~dim:0 ~rank:r ~glb ~gub ~gst))
          0
          (Util.range 0 (p - 1))
      in
      let expected = if gub < glb then 0 else ((gub - glb) / gst) + 1 in
      total = expected)

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

let test_global_of_local_index () =
  let dad = mk_dad_2d ~n:10 ~m:10 ~p:2 ~q:1 (`Cyclic, `Repl) in
  let rank1 = Grid.rank_of_coords (Dad.grid dad) [| 1; 0 |] in
  (* cyclic over 2: coord 1 owns globals 2,4,6,8,10 (Fortran 1-based) *)
  check "local 0" 2 (Bounds.global_of_local_index dad ~dim:0 ~rank:rank1 0);
  check "local 2" 6 (Bounds.global_of_local_index dad ~dim:0 ~rank:rank1 2);
  Alcotest.(check (option int)) "local of global" (Some 1)
    (Bounds.local_of_global_index dad ~dim:0 ~rank:rank1 4);
  Alcotest.(check (option int)) "not owned" None
    (Bounds.local_of_global_index dad ~dim:0 ~rank:rank1 5)

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
      prop_bounds_partition;
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
        [ Alcotest.test_case "negative stride set_bound" `Quick test_set_bound_negative_stride ] );
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
      ( "bounds",
        [
          Alcotest.test_case "set_bound block" `Quick test_bounds_set_bound;
          Alcotest.test_case "global/local index" `Quick test_global_of_local_index;
        ] );
      ("properties", qsuite);
    ]
