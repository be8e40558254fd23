(* Execution-semantics corner cases of the SPMD interpreter: processor
   masking via guards, even iteration partitioning, whole-array intrinsic
   movement through the compiler, CYCLIC(k) distributions, sequential
   control flow, and scalar coercions. *)

open F90d_base
open F90d

let checkb = Alcotest.(check bool)

let compile_run ?flags ?(nprocs = 4) src = Driver.run ~nprocs (Driver.compile ?flags src)

let check_reals r name expected =
  let got = Driver.final r name in
  let want = Ndarray.of_reals [| Array.length expected |] expected in
  if not (Ndarray.approx_equal ~eps:1e-9 got want) then
    Alcotest.failf "%s: got %s want %s" name
      (Format.asprintf "%a" Ndarray.pp got)
      (Format.asprintf "%a" Ndarray.pp want)

let test_guard_masks_processors () =
  (* writes to a single owned column: only one processor iterates, but all
     join the collective phases *)
  let r =
    compile_run
      {|
      PROGRAM G1
      REAL A(4, 8), B(4, 8)
C$    TEMPLATE T(8)
C$    ALIGN A(I, J) WITH T(J)
C$    ALIGN B(I, J) WITH T(J)
C$    DISTRIBUTE T(BLOCK)
      FORALL (I = 1:4, J = 1:8) B(I, J) = 10*I + J
      FORALL (I = 1:4) A(I, 7) = B(I, 2)
      END
      |}
  in
  let a = Driver.final r "A" in
  for i = 1 to 4 do
    for j = 1 to 8 do
      let expect = if j = 7 then float_of_int ((10 * i) + 2) else 0. in
      Alcotest.(check (float 1e-9)) "A" expect (Scalar.to_real (Ndarray.get a [| i; j |]))
    done
  done

let test_even_partition_counts () =
  (* non-canonical lhs: every processor computes a block of iterations and
     the results land via postcomp_write; total writes must cover exactly
     the image *)
  let r =
    compile_run ~nprocs:3
      {|
      PROGRAM G2
      REAL A(18), B(6)
C$    DISTRIBUTE A(BLOCK)
C$    ALIGN B(I) WITH A(*)
C$    DISTRIBUTE B(BLOCK)
      FORALL (I = 1:6) B(I) = I + 0.25
      FORALL (I = 1:6) A(3*I) = B(I)
      END
      |}
  in
  let a = Driver.final r "A" in
  for g = 1 to 18 do
    let expect = if g mod 3 = 0 then (float_of_int (g / 3)) +. 0.25 else 0. in
    Alcotest.(check (float 1e-9)) "A" expect (Scalar.to_real (Ndarray.get a [| g |]))
  done

let test_cyclic_k_distribution () =
  let r =
    compile_run
      {|
      PROGRAM G3
      REAL A(16), B(16)
C$    TEMPLATE T(16)
C$    ALIGN A(I) WITH T(I)
C$    ALIGN B(I) WITH T(I)
C$    DISTRIBUTE T(CYCLIC(2))
      FORALL (I = 1:16) B(I) = 3*I
      FORALL (I = 1:16) A(I) = B(I) + 1
      END
      |}
  in
  check_reals r "A" (Array.init 16 (fun i -> float_of_int ((3 * (i + 1)) + 1)))

let test_movers_through_compiler () =
  let r =
    compile_run
      {|
      PROGRAM G4
      REAL A(8), E(8), V(8), S2(3, 8), RS(4, 2)
      LOGICAL M(8)
      REAL F(8), U(8)
C$    TEMPLATE T(8)
C$    ALIGN A(I) WITH T(I)
C$    ALIGN E(I) WITH T(I)
C$    ALIGN V(I) WITH T(I)
C$    ALIGN M(I) WITH T(I)
C$    ALIGN F(I) WITH T(I)
C$    ALIGN U(I) WITH T(I)
C$    ALIGN S2(J, I) WITH T(I)
C$    DISTRIBUTE T(BLOCK)
      FORALL (I = 1:8) A(I) = I
      FORALL (I = 1:8) M(I) = MOD(I, 2) == 1
      FORALL (I = 1:8) F(I) = -I
      E = EOSHIFT(A, 2, -1.0)
      V = PACK(A, M)
      U = UNPACK(V, M, F)
      S2 = SPREAD(A, 1, 3)
      RS = RESHAPE(A, 8)
      END
      |}
  in
  check_reals r "E" [| 3.; 4.; 5.; 6.; 7.; 8.; -1.; -1. |];
  check_reals r "V" [| 1.; 3.; 5.; 7.; 0.; 0.; 0.; 0. |];
  check_reals r "U" [| 1.; -2.; 3.; -4.; 5.; -6.; 7.; -8. |];
  let s2 = Driver.final r "S2" in
  for j = 1 to 3 do
    for i = 1 to 8 do
      Alcotest.(check (float 1e-9)) "spread" (float_of_int i)
        (Scalar.to_real (Ndarray.get s2 [| j; i |]))
    done
  done;
  let rs = Driver.final r "RS" in
  (* column-major reshape of 1..8 into 4x2 *)
  Alcotest.(check (float 1e-9)) "reshape(1,1)" 1. (Scalar.to_real (Ndarray.get rs [| 1; 1 |]));
  Alcotest.(check (float 1e-9)) "reshape(4,2)" 8. (Scalar.to_real (Ndarray.get rs [| 4; 2 |]))

let test_negative_stride_do () =
  let r =
    compile_run
      {|
      PROGRAM G5
      INTEGER K
      REAL A(6)
      DO K = 6, 1, -1
        A(K) = 7 - K
      END DO
      END
      |}
  in
  check_reals r "A" [| 6.; 5.; 4.; 3.; 2.; 1. |]

let test_while_and_nested_if () =
  let r =
    compile_run
      {|
      PROGRAM G6
      INTEGER K
      REAL S
      S = 0.0
      K = 1
      DO WHILE (K <= 10)
        IF (MOD(K, 2) == 0) THEN
          IF (K > 5) THEN
            S = S + K
          END IF
        END IF
        K = K + 1
      END DO
      END
      |}
  in
  checkb "6+8+10" true (Scalar.equal (Driver.final_scalar r "S") (Scalar.Real 24.))

let test_integer_coercion () =
  let r =
    compile_run
      {|
      PROGRAM G7
      INTEGER K
      REAL X
      X = 7.9
      K = X / 2.0
      END
      |}
  in
  (* INTEGER = REAL truncates *)
  checkb "coerced" true (Scalar.equal (Driver.final_scalar r "K") (Scalar.Int 3))

let test_forall_descending_range () =
  let r =
    compile_run
      {|
      PROGRAM G8
      REAL A(8)
C$    DISTRIBUTE A(BLOCK)
      FORALL (I = 8:1:-1) A(I) = I*I
      END
      |}
  in
  check_reals r "A" (Array.init 8 (fun i -> float_of_int ((i + 1) * (i + 1))))

let test_empty_iteration_space () =
  (* K-dependent empty ranges must be harmless (the GE first step) *)
  let r =
    compile_run
      {|
      PROGRAM G9
      INTEGER K
      REAL A(8), B(8)
C$    DISTRIBUTE A(BLOCK)
C$    ALIGN B(I) WITH A(I)
      FORALL (I = 1:8) B(I) = I
      DO K = 1, 3
        FORALL (I = 1:K-1) A(I) = B(I) + 100
      END DO
      END
      |}
  in
  check_reals r "A" [| 101.; 102.; 0.; 0.; 0.; 0.; 0.; 0. |]

let test_subroutine_local_arrays () =
  (* callee-local distributed arrays live only for the call *)
  let r =
    compile_run
      {|
      PROGRAM G10
      REAL X(8), S
C$    DISTRIBUTE X(BLOCK)
      FORALL (I = 1:8) X(I) = I
      CALL NORM(X, S)
      END

      SUBROUTINE NORM(A, OUT)
      REAL A(8), OUT
      REAL SQ(8)
C$    DISTRIBUTE A(BLOCK)
C$    ALIGN SQ(I) WITH A(I)
      FORALL (I = 1:8) SQ(I) = A(I)*A(I)
      OUT = SQRT(SUM(SQ))
      END
      |}
  in
  let expect = sqrt (float_of_int (8 * 9 * 17 / 6)) in
  Alcotest.(check (float 1e-9)) "norm" expect (Scalar.to_real (Driver.final_scalar r "S"))

let test_print_array_and_scalars () =
  let r =
    compile_run
      {|
      PROGRAM G11
      REAL A(3)
C$    DISTRIBUTE A(BLOCK)
      FORALL (I = 1:3) A(I) = I * 1.5
      PRINT *, 'A:', A
      PRINT *, 'n=', 3, 'done'
      END
      |}
  in
  let out = r.Driver.outcome.F90d_exec.Interp.output in
  checkb "array printed" true
    (try
       ignore (Str.search_forward (Str.regexp_string "1.5; 3; 4.5") out 0);
       true
     with Not_found -> false);
  checkb "two lines" true (List.length (String.split_on_char '\n' (String.trim out)) = 2)

(* ------------------------------------------------------------------ *)
(* The one-pass inspector against a per-element reference              *)
(* ------------------------------------------------------------------ *)

module Dad = F90d_dist.Dad
module Distrib = F90d_dist.Distrib
module Grid = F90d_dist.Grid
module Inspector = F90d_exec.Inspector
module Schedule = F90d_runtime.Schedule
module Rctx = F90d_runtime.Rctx
module Engine = F90d_machine.Engine

(* A random distributed dimension: BLOCK, CYCLIC or CYCLIC(k), aligned by
   the identity, stride 2 or a negative stride (explicit layouts). *)
let random_dim rs ~flb ~extent ~pdim ~p =
  let form =
    match Random.State.int rs 3 with
    | 0 -> Distrib.Block
    | 1 -> Distrib.Cyclic
    | _ -> Distrib.Block_cyclic (1 + Random.State.int rs 3)
  in
  let align =
    match Random.State.int rs 3 with
    | 0 -> Affine.ident
    | 1 -> Affine.make ~a:2 ~b:0
    | _ -> Affine.make ~a:(-1) ~b:(extent - 1)
  in
  let ghost = if form = Distrib.Block && Affine.is_identity align then Random.State.int rs 2 else 0 in
  let tn = max (Affine.eval align 0) (Affine.eval align (extent - 1)) + 1 in
  { Dad.flb; extent; align; dist = Distrib.make form ~n:tn ~p; pdim = Some pdim; ghost_lo = ghost; ghost_hi = ghost }

(* A 1-D or 2-D array over a 1-D or 2-D grid; some dimensions are not
   distributed, and on a 2-D grid a grid dimension may be left unused so
   that elements have several owners. *)
let random_dads rs =
  let grid_dims =
    if Random.State.bool rs then [| 1 + Random.State.int rs 5 |]
    else [| 1 + Random.State.int rs 3; 1 + Random.State.int rs 3 |]
  in
  let grid = Grid.make grid_dims in
  let rank = 1 + Random.State.int rs 2 in
  let flbs = Array.init rank (fun _ -> Random.State.int rs 3) in
  let extents = Array.init rank (fun _ -> 1 + Random.State.int rs 12) in
  let pdims =
    match (Array.length grid_dims, rank) with
    | 1, 1 -> [| Some 0 |]
    | 1, _ -> if Random.State.bool rs then [| Some 0; None |] else [| None; Some 0 |]
    | _, 1 -> [| Some (Random.State.int rs 2) |]
    | _, _ -> (
        match Random.State.int rs 3 with
        | 0 -> [| Some 0; Some 1 |]
        | 1 -> [| Some 1; None |]
        | _ -> [| None; Some 0 |])
  in
  let dad name =
    Dad.make ~name ~kind:Scalar.Kreal ~grid
      (Array.init rank (fun d ->
           match pdims.(d) with
           | None -> Dad.replicated_dim ~flb:flbs.(d) ~extent:extents.(d)
           | Some p -> random_dim rs ~flb:flbs.(d) ~extent:extents.(d) ~pdim:p ~p:grid_dims.(p)))
  in
  (grid, dad "X", dad "LHS", flbs, extents)

(* The naive reference: per-element lookups with home_rank / owning_ranks,
   local_indices and storage_flat, over the space in nest order. *)
let naive_entries dad ~every_owner space subscript =
  let acc = ref [] in
  let rec go x = function
    | [] ->
        let g = subscript (Array.of_list (List.rev x)) in
        let owners = if every_owner then Dad.owning_ranks dad g else [ Dad.home_rank dad g ] in
        List.iter
          (fun o ->
            acc := (o, Dad.storage_flat dad ~rank:o (Option.get (Dad.local_indices dad ~rank:o g))) :: !acc)
          owners
    | vals :: rest -> List.iter (fun v -> go (v :: x) rest) (F90d_dist.Layout.to_list vals)
  in
  if space <> [] then go [] space;
  List.rev !acc

(* A schedule's stable encoding, built from naive per-rank entry lists
   with the list grouping the builders replaced: positions in [mine]
   grouped by owner, and every peer's entries that address me. *)
let naive_blob ~nprocs ~me ~write entries =
  let mine = List.mapi (fun i e -> (i, e)) entries.(me) in
  let grouped =
    List.filter_map
      (fun peer ->
        let pos = List.filter_map (fun (i, (o, _)) -> if o = peer then Some i else None) mine in
        if peer = me || pos = [] then None else Some (peer, pos))
      (List.init nprocs Fun.id)
  in
  let owned_by_me =
    List.filter_map
      (fun peer ->
        let fl = List.filter_map (fun (o, f) -> if o = me then Some f else None) entries.(peer) in
        if peer = me || fl = [] then None else Some (peer, fl))
      (List.init nprocs Fun.id)
  in
  let self_pos = List.filter_map (fun (i, (o, _)) -> if o = me then Some i else None) mine in
  let self_flat = List.filter_map (fun (_, (o, f)) -> if o = me then Some f else None) mine in
  let b = Buffer.create 64 in
  let int n = Buffer.add_int64_le b (Int64.of_int n) in
  let arr l =
    int (List.length l);
    List.iter int l
  in
  let segs l =
    int (List.length l);
    List.iter
      (fun (peer, l) ->
        int peer;
        arr l)
      l
  in
  if write then begin
    segs grouped;
    segs owned_by_me;
    arr self_pos;
    arr self_flat
  end
  else begin
    segs owned_by_me;
    segs grouped;
    arr self_flat;
    arr self_pos
  end;
  int (List.length mine);
  Buffer.contents b

let prop_inspector_naive =
  QCheck.Test.make ~name:"one-pass inspector = per-element reference" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let grid, dad, lhs, flbs, extents = random_dads rs in
      let nprocs = Grid.size grid in
      let rank = Array.length extents in
      let even = Random.State.bool rs in
      (* variable k runs over dimension k, possibly strided under the even
         partition; canonical spaces take the lhs's owned iterations *)
      let ranges =
        List.init rank (fun k ->
            (flbs.(k), flbs.(k) + extents.(k) - 1, if even then 1 + Random.State.int rs 2 else 1))
      in
      let space r =
        if even then Some (Inspector.even ~nprocs ~rank:r ranges)
        else
          Inspector.canonical lhs ~var_dims:(List.init rank Option.some) ~guards:[] ~ranges ~rank:r
      in
      (* identity or reversed subscript per dimension, as an affine form
         over the variables' values *)
      let lins =
        Array.init rank (fun d ->
            let coefs = Array.make rank 0 in
            if Random.State.bool rs then begin
              coefs.(d) <- 1;
              { F90d_exec.Kernel.base = 0; coefs }
            end
            else begin
              coefs.(d) <- -1;
              { F90d_exec.Kernel.base = (2 * flbs.(d)) + extents.(d) - 1; coefs }
            end)
      in
      let eval_lin (l : F90d_exec.Kernel.lin) x =
        Array.fold_left ( + ) l.F90d_exec.Kernel.base (Array.mapi (fun k c -> c * x.(k)) l.coefs)
      in
      let subscript x = Array.map (fun l -> eval_lin l x) lins in
      let forms = Array.init rank (fun _ -> Random.State.int rs 3) in
      let subs values =
        Array.mapi
          (fun d l ->
            match forms.(d) with
            | 0 -> Inspector.Lin l
            | 1 ->
                let acc = ref [] in
                let rec go x = function
                  | [] -> acc := eval_lin l (Array.of_list (List.rev x)) :: !acc
                  | vals :: rest -> List.iter (fun v -> go (v :: x) rest) (F90d_dist.Layout.to_list vals)
                in
                if values <> [] then go [] values;
                Inspector.Vals (Array.of_list (List.rev !acc))
            | _ -> Inspector.Fn (fun x _ -> eval_lin l x))
          lins
      in
      let pass every_owner =
        Inspector.run dad ~every_owner
          (Array.init nprocs (fun r -> Option.map (fun v -> (v, subs v)) (space r)))
      in
      let reads = pass false and writes = pass true in
      let naive every_owner =
        Array.init nprocs (fun r ->
            match space r with
            | None -> []
            | Some v -> naive_entries dad ~every_owner v subscript)
      in
      let naive_reads = naive false and naive_writes = naive true in
      let slice (p : Inspector.pass) r =
        List.init (p.starts.(r + 1) - p.starts.(r)) (fun i ->
            (p.owners.(p.starts.(r) + i), p.flats.(p.starts.(r) + i)))
      in
      for r = 0 to nprocs - 1 do
        if slice reads r <> naive_reads.(r) then QCheck.Test.fail_reportf "reads of rank %d differ" r;
        if slice writes r <> naive_writes.(r) then
          QCheck.Test.fail_reportf "writes of rank %d differ" r
      done;
      (* every builder's schedule equals the reference encoding; local and
         communicating builds of the same entries agree.  Each pass is
         walked and indexed by owner once, and every rank's local builds
         read that one index, as a run's ranks share it *)
      let mine (p : Inspector.pass) me =
        let lo = p.starts.(me) and n = p.starts.(me + 1) - p.starts.(me) in
        (Array.sub p.owners lo n, Array.sub p.flats lo n)
      in
      let index (p : Inspector.pass) =
        Schedule.owner_index ~nprocs ~owners:p.owners ~flats:p.flats ~starts:p.starts
      in
      let read_index = index reads and write_index = index writes in
      let cfg = Engine.config ~model:F90d_machine.Model.ideal nprocs in
      let r =
        Engine.run cfg (fun eng ->
            let ctx = Rctx.make eng grid in
            let me = Rctx.me ctx in
            let read_local = Schedule.build_read_local ctx read_index in
            let write_local = Schedule.build_write_local ctx write_index in
            let gather =
              let owners, flats = mine reads me in
              Schedule.build_gather ctx ~owners ~flats
            in
            let scatter =
              let owners, flats = mine writes me in
              Schedule.build_scatter ctx ~owners ~flats
            in
            List.map Schedule.to_string [ read_local; gather; write_local; scatter ])
      in
      Array.iteri
        (fun me blobs ->
          let want_read = naive_blob ~nprocs ~me ~write:false naive_reads in
          let want_write = naive_blob ~nprocs ~me ~write:true naive_writes in
          if blobs <> [ want_read; want_read; want_write; want_write ] then
            QCheck.Test.fail_reportf "rank %d: schedule blobs differ from the reference" me)
        r.Engine.results;
      true)

(* Local builds rebuilt at every step of a DO loop, with schedule reuse
   off so that nothing is keyed: each op's ranks share one inspector pass
   per build, numbered by build.  Every build's pass differs from the
   last — K moves B's subscript, and the loop rewrites the scatter index
   U — so a rank handed another build's pass would read the wrong
   elements. *)
let test_repeated_unkeyed_builds () =
  let src =
    {|
      PROGRAM REBUILD
      INTEGER, PARAMETER :: N = 12
      REAL A(N)
      REAL B(3 * N)
      REAL C(N)
      INTEGER U(N)
C$    DISTRIBUTE A(BLOCK)
C$    DISTRIBUTE B(CYCLIC)
C$    DISTRIBUTE C(BLOCK)
C$    DISTRIBUTE U(BLOCK)
      FORALL (I = 1:3 * N) B(I) = I
      FORALL (I = 1:N) U(I) = I
      DO K = 1, 20
        FORALL (I = 1:N) U(I) = MOD(U(I) * 5 + K, N) + 1
        FORALL (I = 1:N) C(U(I)) = B(I + K) + K
        FORALL (I = 1:N / 2) A(2 * I) = C(I) + B(2 * I + K)
      END DO
      PRINT *, A
      PRINT *, C
      END
|}
  in
  let off = { F90d_opt.Passes.all_on with schedule_reuse = false } in
  let flag_sets =
    [ ("no-reuse", off); ("no-reuse-no-kernels", { off with blocked_kernels = false }) ]
  in
  match F90d_fuzz.Diff.check_source ~ranks:[ 3; 4 ] ~flag_sets src with
  | [] -> ()
  | fails -> Alcotest.failf "%s" (String.concat "; " (List.map F90d_fuzz.Diff.pp_failure fails))

let () =
  Alcotest.run "f90d_exec"
    [
      ( "partitioning",
        [
          Alcotest.test_case "guards mask processors" `Quick test_guard_masks_processors;
          Alcotest.test_case "even partitioning" `Quick test_even_partition_counts;
          Alcotest.test_case "cyclic(k)" `Quick test_cyclic_k_distribution;
          Alcotest.test_case "descending forall" `Quick test_forall_descending_range;
          Alcotest.test_case "empty ranges" `Quick test_empty_iteration_space;
        ] );
      ( "movers",
        [ Alcotest.test_case "eoshift/pack/unpack/spread/reshape" `Quick test_movers_through_compiler ]
      );
      ( "control",
        [
          Alcotest.test_case "negative stride DO" `Quick test_negative_stride_do;
          Alcotest.test_case "while + nested if" `Quick test_while_and_nested_if;
          Alcotest.test_case "integer coercion" `Quick test_integer_coercion;
          Alcotest.test_case "subroutine locals" `Quick test_subroutine_local_arrays;
          Alcotest.test_case "print" `Quick test_print_array_and_scalars;
        ] );
      ( "inspector",
        List.map QCheck_alcotest.to_alcotest [ prop_inspector_naive ]
        @ [ Alcotest.test_case "repeated unkeyed builds" `Quick test_repeated_unkeyed_builds ] );
    ]
