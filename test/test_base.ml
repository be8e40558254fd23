open F90d_base

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Util                                                                *)
(* ------------------------------------------------------------------ *)

let test_floor_div () =
  check "7/2" 3 (Util.floor_div 7 2);
  check "-7/2" (-4) (Util.floor_div (-7) 2);
  check "7/-2" (-4) (Util.floor_div 7 (-2));
  check "-7/-2" 3 (Util.floor_div (-7) (-2));
  check "0/5" 0 (Util.floor_div 0 5)

let test_ceil_div () =
  check "7/2" 4 (Util.ceil_div 7 2);
  check "-7/2" (-3) (Util.ceil_div (-7) 2);
  check "6/2" 3 (Util.ceil_div 6 2);
  check "0/3" 0 (Util.ceil_div 0 3)

let test_modulo () =
  check "7%3" 1 (Util.modulo 7 3);
  check "-7%3" 2 (Util.modulo (-7) 3);
  check "-6%3" 0 (Util.modulo (-6) 3)

let test_gcd_egcd () =
  check "gcd" 6 (Util.gcd 12 18);
  check "gcd0" 5 (Util.gcd 0 5);
  let g, x, y = Util.egcd 240 46 in
  check "egcd g" 2 g;
  check "bezout" 2 ((240 * x) + (46 * y))

let test_crt () =
  (* x = 2 mod 3, x = 3 mod 5 -> x = 8 mod 15 *)
  (match Util.crt_first_ge ~lo:0 ~r1:2 ~m1:3 ~r2:3 ~m2:5 with
  | Some x -> check "crt 8" 8 x
  | None -> Alcotest.fail "crt: expected solution");
  (match Util.crt_first_ge ~lo:10 ~r1:2 ~m1:3 ~r2:3 ~m2:5 with
  | Some x -> check "crt 23" 23 x
  | None -> Alcotest.fail "crt: expected solution");
  (* incompatible: x = 0 mod 2, x = 1 mod 4 *)
  (match Util.crt_first_ge ~lo:0 ~r1:0 ~m1:2 ~r2:1 ~m2:4 with
  | None -> ()
  | Some x -> Alcotest.failf "crt: expected no solution, got %d" x);
  (* non-coprime compatible: x = 2 mod 4, x = 0 mod 6 -> 6 mod 12 *)
  match Util.crt_first_ge ~lo:0 ~r1:2 ~m1:4 ~r2:0 ~m2:6 with
  | Some x -> check "crt 6" 6 x
  | None -> Alcotest.fail "crt: expected solution"

let prop_crt =
  QCheck.Test.make ~name:"crt_first_ge agrees with brute force" ~count:500
    QCheck.(quad (int_range 1 12) (int_range 1 12) (int_range 0 11) (int_range 0 11))
    (fun (m1, m2, r1, r2) ->
      let r1 = r1 mod m1 and r2 = r2 mod m2 in
      let lo = 3 in
      let brute =
        List.find_opt (fun x -> x mod m1 = r1 && x mod m2 = r2) (Util.range lo (lo + (m1 * m2 * 2)))
      in
      Util.crt_first_ge ~lo ~r1 ~m1 ~r2 ~m2 = brute)

let test_pow2_log2 () =
  checkb "16 pow2" true (Util.is_pow2 16);
  checkb "12 pow2" false (Util.is_pow2 12);
  checkb "0 pow2" false (Util.is_pow2 0);
  check "ilog2 1" 0 (Util.ilog2 1);
  check "ilog2 16" 4 (Util.ilog2 16);
  check "ilog2 17" 4 (Util.ilog2 17);
  check "ceil_log2 17" 5 (Util.ceil_log2 17);
  check "ceil_log2 16" 4 (Util.ceil_log2 16)

let prop_gray =
  QCheck.Test.make ~name:"gray codes of neighbours differ in one bit" ~count:200
    QCheck.(int_range 0 1000)
    (fun n -> Util.popcount (Util.gray n lxor Util.gray (n + 1)) = 1)

let prop_gray_inv =
  QCheck.Test.make ~name:"gray_inverse inverts gray" ~count:200
    QCheck.(int_range 0 100000)
    (fun n -> Util.gray_inverse (Util.gray n) = n)

(* ------------------------------------------------------------------ *)
(* Scalar                                                              *)
(* ------------------------------------------------------------------ *)

let test_scalar_promotion () =
  checkb "int+int" true (Scalar.equal (Scalar.add (Int 2) (Int 3)) (Int 5));
  checkb "int+real" true (Scalar.equal (Scalar.add (Int 2) (Real 0.5)) (Real 2.5));
  checkb "int/int" true (Scalar.equal (Scalar.div (Int 7) (Int 2)) (Int 3));
  checkb "real/int" true (Scalar.equal (Scalar.div (Real 7.) (Int 2)) (Real 3.5));
  checkb "int**int" true (Scalar.equal (Scalar.pow (Int 2) (Int 10)) (Int 1024));
  checkb "neg" true (Scalar.equal (Scalar.neg (Int 4)) (Int (-4)))

let test_scalar_compare () =
  checkb "2<3" true (Scalar.to_bool (Scalar.cmp_lt (Int 2) (Int 3)));
  checkb "2.5>=2" true (Scalar.to_bool (Scalar.cmp_ge (Real 2.5) (Int 2)));
  checkb "min" true (Scalar.equal (Scalar.min2 (Real 1.5) (Int 2)) (Real 1.5));
  checkb "max" true (Scalar.equal (Scalar.max2 (Int 5) (Real 2.5)) (Int 5));
  checkb "and" true (Scalar.to_bool (Scalar.and_ (Log true) (Log true)));
  checkb "not" false (Scalar.to_bool (Scalar.not_ (Log true)))

let test_scalar_errors () =
  Alcotest.check_raises "to_bool of int" (Failure "F90D bug: scalar: expected logical")
    (fun () -> ignore (Scalar.to_bool (Int 1)))

(* ------------------------------------------------------------------ *)
(* Ndarray                                                             *)
(* ------------------------------------------------------------------ *)

let test_nd_column_major () =
  let a = Ndarray.create Scalar.Kint [| 3; 2 |] in
  (* column-major: (1,1) (2,1) (3,1) (1,2) (2,2) (3,2) *)
  Ndarray.set a [| 2; 1 |] (Int 42);
  check "flat offset of (2,1)" 42 (Scalar.to_int (Ndarray.get_flat a 1));
  Ndarray.set a [| 1; 2 |] (Int 7);
  check "flat offset of (1,2)" 7 (Scalar.to_int (Ndarray.get_flat a 3));
  check "strides" 3 (Ndarray.strides a).(1)

let test_nd_lbounds () =
  let a = Ndarray.create Scalar.Kreal ~lb:[| 0; -1 |] [| 2; 3 |] in
  Ndarray.set a [| 0; -1 |] (Real 1.);
  Ndarray.set a [| 1; 1 |] (Real 2.);
  check "offset first" 0 (Ndarray.offset a [| 0; -1 |]);
  check "offset last" 5 (Ndarray.offset a [| 1; 1 |]);
  checkb "get" true (Scalar.equal (Ndarray.get a [| 1; 1 |]) (Real 2.))

let test_nd_oob () =
  let a = Ndarray.create Scalar.Kint [| 2; 2 |] in
  (match Ndarray.get a [| 3; 1 |] with
  | _ -> Alcotest.fail "expected out-of-bounds failure"
  | exception Failure _ -> ())

let test_nd_iteri_order () =
  let a = Ndarray.init Scalar.Kint [| 2; 2 |] (fun idx -> Scalar.Int ((10 * idx.(0)) + idx.(1))) in
  let seen = ref [] in
  Ndarray.iteri a (fun _ v -> seen := Scalar.to_int v :: !seen);
  Alcotest.(check (list int)) "column-major order" [ 11; 21; 12; 22 ] (List.rev !seen)

let test_nd_blit () =
  let a = Ndarray.of_reals [| 4 |] [| 1.; 2.; 3.; 4. |] in
  let b = Ndarray.create Scalar.Kreal [| 4 |] in
  Ndarray.blit_flat ~src:a ~src_pos:1 ~dst:b ~dst_pos:0 ~len:2;
  checkb "blit" true (Ndarray.approx_equal (Ndarray.slice_flat b ~pos:0 ~len:2)
                        (Ndarray.of_reals [| 2 |] [| 2.; 3. |]))

let test_nd_bytes () =
  let a = Ndarray.create Scalar.Kreal [| 5 |] in
  check "real bytes" 40 (Ndarray.bytes a);
  let b = Ndarray.create Scalar.Kint [| 5 |] in
  check "int bytes" 20 (Ndarray.bytes b)

let prop_nd_roundtrip =
  QCheck.Test.make ~name:"ndarray get/set roundtrip at random index" ~count:200
    QCheck.(triple (int_range 1 5) (int_range 1 5) (int_range 0 1000))
    (fun (d1, d2, seed) ->
      let a = Ndarray.create Scalar.Kint [| d1; d2 |] in
      let i = 1 + (seed mod d1) and j = 1 + (seed / 7 mod d2) in
      Ndarray.set a [| i; j |] (Int seed);
      Scalar.to_int (Ndarray.get a [| i; j |]) = seed)

(* An [n]-element rank-1 array of kind [k] whose elements tell their
   positions and [tag] apart. *)
let flat_array k n ~tag =
  let a = Ndarray.create k [| n |] in
  for i = 0 to n - 1 do
    Ndarray.set_flat a i
      (match k with
      | Scalar.Kreal -> Scalar.Real (float_of_int ((5 * i) + tag) /. 4.)
      | Scalar.Kint -> Scalar.Int ((7 * i) + tag)
      | _ -> Scalar.Log ((i + tag) mod 3 = 0))
  done;
  a

(* The flat copies, element by element through [get_flat]/[set_flat]. *)
let ref_gather src pos =
  let g = Ndarray.create (Ndarray.kind src) [| Array.length pos |] in
  Array.iteri (fun i p -> Ndarray.set_flat g i (Ndarray.get_flat src p)) pos;
  g

let ref_copy ~src ~src_positions ~dst ~dst_positions =
  Array.iteri
    (fun i p -> Ndarray.set_flat dst dst_positions.(i) (Ndarray.get_flat src p))
    src_positions

(* Gather, scatter and copy on every kind equal their element-by-element
   references, on position lists that may be empty and usually repeat a
   position (the last write to it wins). *)
let prop_flat_copies =
  QCheck.Test.make ~name:"gather/scatter/copy_flat equal element-by-element copies" ~count:300
    QCheck.(
      quad (int_range 0 2) (int_range 0 9) (int_range 1 9) (small_list (pair small_nat small_nat)))
    (fun (ki, n, m, raw) ->
      let k = [| Scalar.Kreal; Scalar.Kint; Scalar.Klog |].(ki) in
      let raw = Array.of_list (if n = 0 then [] else raw) in
      let src_positions = Array.map (fun (a, _) -> a mod n) raw
      and dst_positions = Array.map (fun (_, b) -> b mod m) raw in
      let src = flat_array k n ~tag:1 in
      let gather =
        Ndarray.equal (Ndarray.gather_flat src src_positions) (ref_gather src src_positions)
      in
      let values = flat_array k (Array.length raw) ~tag:2 in
      let dst = flat_array k m ~tag:3 and want = flat_array k m ~tag:3 in
      Ndarray.scatter_flat dst dst_positions values;
      ref_copy ~src:values ~src_positions:(Array.init (Array.length raw) Fun.id) ~dst:want
        ~dst_positions;
      let scatter = Ndarray.equal dst want in
      let dst = flat_array k m ~tag:3 and want = flat_array k m ~tag:3 in
      Ndarray.copy_flat ~src ~src_positions ~dst ~dst_positions;
      ref_copy ~src ~src_positions ~dst:want ~dst_positions;
      gather && scatter && Ndarray.equal dst want)

let test_nd_flat_edges () =
  let src = Ndarray.of_reals [| 3 |] [| 1.; 2.; 3. |] in
  check "empty gather" 0 (Ndarray.size (Ndarray.gather_flat src [||]));
  let dst = Ndarray.of_reals [| 3 |] [| 0.; 0.; 0. |] in
  Ndarray.scatter_flat dst [| 1; 1 |] (Ndarray.of_reals [| 2 |] [| 5.; 6. |]);
  Alcotest.(check (array (float 0.))) "repeated scatter: last wins" [| 0.; 6.; 0. |]
    (Ndarray.reals dst);
  Ndarray.copy_flat ~src ~src_positions:[| 0; 2 |] ~dst ~dst_positions:[| 2; 2 |];
  Alcotest.(check (array (float 0.))) "repeated copy: last wins" [| 0.; 6.; 3. |]
    (Ndarray.reals dst)

(* Minor words per warm [gather_flat] of [n] REALs, [n] small enough for
   the result to stay in the minor heap: the unboxed payload's [n] words
   and 11 more (its header, the result record, its two shape arrays and
   the payload's constructor).  A float boxed per element, as an
   [Array.init] closure returns it, made it [3n + 16]. *)
let test_gather_flat_allocation () =
  List.iter
    (fun n ->
      let src = Ndarray.of_reals [| n |] (Array.init n float_of_int) in
      let positions = Array.init n (fun i -> (7 * i) mod n) in
      ignore (Ndarray.gather_flat src positions);
      let calls = 50 in
      let w0 = Gc.minor_words () in
      for _ = 1 to calls do
        ignore (Sys.opaque_identity (Ndarray.gather_flat src positions))
      done;
      let words = (Gc.minor_words () -. w0) /. float_of_int calls in
      if words > float_of_int (n + 12) then
        Alcotest.failf "gather_flat of %d REALs: %.1f words, bound %d" n words (n + 12))
    [ 16; 200 ]

(* ------------------------------------------------------------------ *)
(* Affine                                                              *)
(* ------------------------------------------------------------------ *)

let test_affine_basic () =
  let f = Affine.make ~a:2 ~b:1 in
  check "eval" 7 (Affine.eval f 3);
  checkb "invertible" true (Affine.invertible f);
  Alcotest.(check (option int)) "inverse exact" (Some 3) (Affine.apply_inverse f 7);
  Alcotest.(check (option int)) "inverse inexact" None (Affine.apply_inverse f 8);
  checkb "identity" true (Affine.is_identity Affine.ident);
  checkb "const" true (Affine.is_const (Affine.const 5))

let prop_affine_compose =
  QCheck.Test.make ~name:"compose is function composition" ~count:300
    QCheck.(
      quad (int_range (-5) 5) (int_range (-10) 10) (int_range (-5) 5) (int_range (-10) 10))
    (fun (a1, b1, a2, b2) ->
      let f = Affine.make ~a:a1 ~b:b1 and g = Affine.make ~a:a2 ~b:b2 in
      let i = 13 in
      Affine.eval (Affine.compose f g) i = Affine.eval f (Affine.eval g i))

let prop_affine_inverse =
  QCheck.Test.make ~name:"apply_inverse inverts eval" ~count:300
    QCheck.(triple (int_range 1 7) (int_range (-10) 10) (int_range (-20) 20))
    (fun (a, b, i) ->
      let f = Affine.make ~a ~b in
      Affine.apply_inverse f (Affine.eval f i) = Some i)

let qsuite = List.map QCheck_alcotest.to_alcotest
    [
      prop_crt;
      prop_gray;
      prop_gray_inv;
      prop_nd_roundtrip;
      prop_flat_copies;
      prop_affine_compose;
      prop_affine_inverse;
    ]

let () =
  Alcotest.run "f90d_base"
    [
      ( "util",
        [
          Alcotest.test_case "floor_div" `Quick test_floor_div;
          Alcotest.test_case "ceil_div" `Quick test_ceil_div;
          Alcotest.test_case "modulo" `Quick test_modulo;
          Alcotest.test_case "gcd/egcd" `Quick test_gcd_egcd;
          Alcotest.test_case "crt" `Quick test_crt;
          Alcotest.test_case "pow2/log2" `Quick test_pow2_log2;
        ] );
      ( "scalar",
        [
          Alcotest.test_case "promotion" `Quick test_scalar_promotion;
          Alcotest.test_case "comparisons" `Quick test_scalar_compare;
          Alcotest.test_case "kind errors" `Quick test_scalar_errors;
        ] );
      ( "ndarray",
        [
          Alcotest.test_case "column-major layout" `Quick test_nd_column_major;
          Alcotest.test_case "lower bounds" `Quick test_nd_lbounds;
          Alcotest.test_case "bounds check" `Quick test_nd_oob;
          Alcotest.test_case "iteri order" `Quick test_nd_iteri_order;
          Alcotest.test_case "blit/slice" `Quick test_nd_blit;
          Alcotest.test_case "bytes" `Quick test_nd_bytes;
          Alcotest.test_case "flat copies: empty and repeated positions" `Quick
            test_nd_flat_edges;
          Alcotest.test_case "warm gather_flat allocates its payload" `Quick
            test_gather_flat_allocation;
        ] );
      ("affine", [ Alcotest.test_case "basics" `Quick test_affine_basic ]);
      ("properties", qsuite);
    ]
