(* Diagnostic quality: the compiler must reject programs outside the
   supported subset with located, comprehensible errors rather than
   failing downstream. *)

open F90d_base
open F90d

let checkb = Alcotest.(check bool)

let expect_error ?(substring = "") src =
  match Driver.compile src with
  | _ -> Alcotest.failf "expected a compile-time diagnostic for:\n%s" src
  | exception Diag.Error (loc, msg) ->
      if substring <> "" then
        checkb
          (Printf.sprintf "message %S mentions %S" msg substring)
          true
          (try
             ignore (Str.search_forward (Str.regexp_string substring) msg 0);
             true
           with Not_found -> false);
      (* the front end should point into the source *)
      ignore loc

let expect_runtime_error ?(nprocs = 2) src =
  match Driver.run ~nprocs (Driver.compile src) with
  | _ -> Alcotest.failf "expected a runtime diagnostic for:\n%s" src
  | exception Diag.Error _ -> ()

let test_unknown_template () =
  expect_error ~substring:"unknown template"
    {|
    PROGRAM T
    REAL A(8)
C$  ALIGN A(I) WITH NOPE(I)
    END
    |}

let test_nonaffine_align () =
  expect_error ~substring:"non-affine"
    {|
    PROGRAM T
    REAL A(8)
C$  TEMPLATE TT(64)
C$  ALIGN A(I) WITH TT(I*I)
C$  DISTRIBUTE TT(BLOCK)
    END
    |}

let test_distribute_rank_mismatch () =
  expect_error ~substring:"rank"
    {|
    PROGRAM T
C$  TEMPLATE TT(8, 8)
C$  DISTRIBUTE TT(BLOCK)
    END
    |}

let test_parameter_needs_value () =
  expect_error ~substring:"PARAMETER"
    {|
    PROGRAM T
    INTEGER, PARAMETER :: N
    END
    |}

let test_where_non_assignment () =
  expect_error ~substring:"WHERE"
    {|
    PROGRAM T
    REAL A(8)
    WHERE (A > 0)
      PRINT *, 'no'
    END WHERE
    END
    |}

let test_nonconforming_section () =
  expect_error ~substring:"conform"
    {|
    PROGRAM T
    REAL A(8), B(4, 4)
    A(1:8) = B
    END
    |}

let test_undeclared_variable_runtime () =
  expect_runtime_error
    {|
    PROGRAM T
    REAL X
    X = Y + 1
    END
    |}

(* Scalar names are resolved to slots before the run, but reading one
   that nothing has assigned yet is still an error only when executed;
   and the final scalars keep the names, kinds and values of a
   name-by-name walk: implicit DO indices (a zero-trip loop's included),
   implicitly declared names and CALL copy-back. *)
let scalar_names_when_executed () =
  let src ~x =
    Printf.sprintf
      {|
      PROGRAM T
      INTEGER, PARAMETER :: M = 3
      REAL X, A(4)
      INTEGER N
C$    DISTRIBUTE A(BLOCK)
      N = M
      IF (N .GT. %s) THEN
        X = Z + 1.0
      END IF
      DO K = 1, N
        X = X + K
      END DO
      DO L = 5, 1
        X = X + 100.0
      END DO
      Z = 2.5
      Q = 7
      CALL S(X, Q, N + 1)
      END

      SUBROUTINE S(Y, J, P)
      REAL Y
      INTEGER J, P
      Y = Y * 2.0
      J = J + P
      END
      |}
      x
  in
  let r = Driver.run ~nprocs:2 (Driver.compile (src ~x:"5")) in
  Alcotest.(check (list string)) "final scalar names" [ "K"; "L"; "N"; "Q"; "X"; "Z" ]
    (List.map fst r.Driver.outcome.F90d_exec.Interp.final_scalars);
  List.iter
    (fun (name, v) ->
      checkb (name ^ " kind and value") true (Scalar.equal v (Driver.final_scalar r name)))
    [
      ("K", Scalar.Int 3);
      ("L", Scalar.Int 5);
      ("N", Scalar.Int 3);
      ("Q", Scalar.Int 11);
      ("X", Scalar.Real 12.);
      ("Z", Scalar.Real 2.5);
    ];
  match Driver.run ~nprocs:2 (Driver.compile (src ~x:"0")) with
  | _ -> Alcotest.fail "reading Z before its assignment ran without an error"
  | exception Diag.Error (loc, msg) ->
      Alcotest.(check string) "message" "undefined variable 'Z'" msg;
      Alcotest.(check int) "line" 9 loc.Loc.line

(* Reference classes are resolved before the run, but an unknown name is
   still an error only where, and when, its statement executes: a dead
   branch runs clean, a live one fails at the name's line, in the main
   program and in a subroutine. *)
let test_unknown_function_when_executed () =
  let src ~x =
    Printf.sprintf
      {|
    PROGRAM T
    REAL A(8), X
C$  DISTRIBUTE A(BLOCK)
    X = %s
    IF (X .LT. 0.0) THEN
      X = FOO(2.0)
    END IF
    FORALL (I = 1:8) A(I) = X
    CALL S(A, X)
    END

    SUBROUTINE S(B, Y)
    REAL B(8), Y
C$  DISTRIBUTE B(BLOCK)
    IF (Y .GT. 5.0) THEN
      Y = BAR(B)
    END IF
    END
    |}
      x
  in
  let line_of name src =
    let rec go i = function
      | [] -> Alcotest.failf "no %s in source" name
      | l :: tl -> (
          match Str.search_forward (Str.regexp_string name) l 0 with
          | _ -> i
          | exception Not_found -> go (i + 1) tl)
    in
    go 1 (String.split_on_char '\n' src)
  in
  let run x = Driver.run ~nprocs:2 (Driver.compile (src ~x)) in
  ignore (run "1.0");
  List.iter
    (fun (x, name) ->
      match run x with
      | _ -> Alcotest.failf "%s executed without an error" name
      | exception Diag.Error (loc, msg) ->
          checkb ("message names " ^ name) true
            (try
               ignore (Str.search_forward (Str.regexp_string ("unknown function or array '" ^ name)) msg 0);
               true
             with Not_found -> false);
          Alcotest.(check int) (name ^ " line") (line_of name (src ~x)) loc.Loc.line)
    [ ("-1.0", "FOO"); ("7.0", "BAR") ];
  scalar_names_when_executed ()

(* A scalar statement's element subscript outside the declared bounds is
   the located error a FORALL's gets, for a store into a replicated and
   into a distributed array and for a read of a replicated one: never a
   silently dropped store or an internal error. *)
let test_scalar_element_out_of_bounds () =
  List.iter
    (fun (stmt, i, arr) ->
      let src =
        String.concat "\n"
          [
            "      PROGRAM T";
            "      REAL W(8), A(8), X";
            "      INTEGER I";
            "C$    DISTRIBUTE A(BLOCK)";
            Printf.sprintf "      I = %d" i;
            stmt;
            "      PRINT *, X";
            "      END";
            "";
          ]
      in
      match Driver.run ~nprocs:4 (Driver.compile src) with
      | _ -> Alcotest.failf "%s with I = %d ran without an error" (String.trim stmt) i
      | exception Diag.Error (loc, msg) ->
          Alcotest.(check string) (stmt ^ ": message")
            (Printf.sprintf "index %d of %s dim 1 is outside the declared bounds 1:8" i arr)
            msg;
          Alcotest.(check int) (stmt ^ ": line") 6 loc.Loc.line)
    [ ("      W(I) = 1.0", 0, "W"); ("      A(I) = 1.0", 9, "A"); ("      X = W(I)", 9, "W") ]

(* A DIM argument outside 1..rank (1..rank+1 for SPREAD) is a located
   error naming the intrinsic, the value, the range and the array: not an
   unlocated index-out-of-bounds, and not a SPREAD that silently runs. *)
let test_dim_out_of_range () =
  List.iter
    (fun (stmt, intrinsic, dim, hi) ->
      let src =
        String.concat "\n"
          [
            "      PROGRAM T";
            "      REAL A(8), B(8), C(8, 8)";
            "      INTEGER K";
            "C$    DISTRIBUTE A(BLOCK)";
            "      A = 1.0";
            "      " ^ stmt;
            "      END";
            "";
          ]
      in
      match Driver.run ~nprocs:4 (Driver.compile src) with
      | _ -> Alcotest.failf "%s ran without an error" stmt
      | exception Diag.Error (loc, msg) ->
          Alcotest.(check string) (stmt ^ ": message")
            (Printf.sprintf "DIM=%d of %s is outside the range 1:%d of array A" dim intrinsic hi)
            msg;
          Alcotest.(check int) (stmt ^ ": line") 6 loc.Loc.line)
    [
      ("K = SIZE(A, 3)", "SIZE", 3, 1);
      ("K = LBOUND(A, 0)", "LBOUND", 0, 1);
      ("K = UBOUND(A, 2)", "UBOUND", 2, 1);
      ("B = CSHIFT(A, 1, 3)", "CSHIFT", 3, 1);
      ("B = CSHIFT(A, 1, 0)", "CSHIFT", 0, 1);
      ("B = EOSHIFT(A, 1, 0.0, 2)", "EOSHIFT", 2, 1);
      ("B = SUM(A, 2)", "SUM", 2, 1);
      ("B = SUM(A, 0)", "SUM", 0, 1);
      ("C = SPREAD(A, 0, 8)", "SPREAD", 0, 2);
      ("C = SPREAD(A, 3, 8)", "SPREAD", 3, 2);
    ]

let test_call_arity () =
  expect_runtime_error
    {|
    PROGRAM T
    REAL X
    CALL S(X, X)
    END
    SUBROUTINE S(A)
    REAL A
    END
    |}

let test_transformational_in_forall () =
  expect_runtime_error
    {|
    PROGRAM T
    REAL A(8), B(8)
C$  DISTRIBUTE A(BLOCK)
    FORALL (I = 1:8) A(I) = SUM(B)
    END
    |}

let test_grid_size_mismatch () =
  let compiled =
    Driver.compile
      {|
      PROGRAM T
      REAL A(8)
C$    PROCESSORS P(3)
C$    DISTRIBUTE A(BLOCK)
      END
      |}
  in
  match Driver.run ~nprocs:4 compiled with
  | _ -> Alcotest.fail "expected grid/machine mismatch"
  | exception Diag.Error (_, msg) ->
      checkb "mentions machine size" true
        (try
           ignore (Str.search_forward (Str.regexp_string "machine") msg 0);
           true
         with Not_found -> false)

(* An integer division by zero — `/`, MOD or MODULO, in a FORALL body or
   a scalar statement — is a located error on both execution paths: the
   kernel hands the nest back and the interpreter reports it. *)
let test_integer_division_by_zero () =
  let off = { F90d_opt.Passes.all_on with F90d_opt.Passes.blocked_kernels = false } in
  List.iter
    (fun stmt ->
      let src =
        Printf.sprintf
          "      PROGRAM T\n      REAL X(8)\n      INTEGER K, J\nC$    DISTRIBUTE X(BLOCK)\n      K = 0\n%s\n      END\n"
          stmt
      in
      List.iter
        (fun (mode, flags) ->
          let name = Printf.sprintf "%s (kernels %s)" (String.trim stmt) mode in
          match Driver.run ~nprocs:2 (Driver.compile ~flags src) with
          | _ -> Alcotest.failf "%s ran without an error" name
          | exception Diag.Error (loc, msg) ->
              checkb (name ^ ": message") true (msg = "integer division by zero");
              Alcotest.(check int) (name ^ ": line") 6 loc.Loc.line)
        [ ("on", F90d_opt.Passes.all_on); ("off", off) ])
    [
      "      FORALL (I = 1:8) X(I) = I / K";
      "      FORALL (I = 1:8) X(I) = MOD(I, K)";
      "      FORALL (I = 1:8) X(I) = MODULO(I, K) + 1.0";
      "      J = 7 / K";
    ]

(* An indirection subscript outside the declared bounds is a located
   error naming the array, the index and the bounds, for a scatter write
   and for a gather read, with and without the kernels: never an
   internal error out of the owner mapping. *)
let test_indirection_out_of_bounds () =
  let off = { F90d_opt.Passes.all_on with F90d_opt.Passes.blocked_kernels = false } in
  List.iter
    (fun stmt ->
      let src =
        String.concat "\n"
          [
            "      PROGRAM T";
            "      INTEGER, PARAMETER :: N = 16";
            "      REAL A(16), C(16)";
            "      INTEGER U(16)";
            "C$    TEMPLATE TP(16)";
            "C$    ALIGN A(I) WITH TP(I)";
            "C$    ALIGN C(I) WITH TP(I)";
            "C$    ALIGN U(I) WITH TP(I)";
            "C$    DISTRIBUTE TP(BLOCK)";
            "      FORALL (I = 1:N) U(I) = I + 1";
            "      FORALL (I = 1:N) A(I) = I";
            stmt;
            "      END";
            "";
          ]
      in
      List.iter
        (fun (mode, flags) ->
          let name = Printf.sprintf "%s (%s)" (String.trim stmt) mode in
          match Driver.run ~nprocs:4 (Driver.compile ~flags src) with
          | _ -> Alcotest.failf "%s ran without an error" name
          | exception Diag.Error (loc, msg) ->
              Alcotest.(check string)
                (name ^ ": message") "index 17 of C dim 1 is outside the declared bounds 1:16" msg;
              Alcotest.(check int) (name ^ ": line") 12 loc.Loc.line)
        [ ("kernels on", F90d_opt.Passes.all_on); ("kernels off", off) ])
    [ "      FORALL (I = 1:N) C(U(I)) = A(I)"; "      FORALL (I = 1:N) A(I) = C(U(I))" ]

(* An array dummy bound to anything but a whole array is a located error
   that names the subroutine and the dummy: neither a silent read of
   zero-filled storage nor an unrelated undefined-variable error. *)
let test_array_dummy_non_array_actual () =
  List.iter
    (fun actual ->
      let src =
        String.concat "\n"
          [
            "      PROGRAM T";
            "      REAL X(8), S";
            "C$    DISTRIBUTE X(BLOCK)";
            "      FORALL (I = 1:8) X(I) = I";
            "      CALL NORM(" ^ actual ^ ", S)";
            "      PRINT *, S";
            "      END";
            "      SUBROUTINE NORM(A, OUT)";
            "      REAL A(8), OUT";
            "      REAL SQ(8)";
            "C$    DISTRIBUTE A(BLOCK)";
            "C$    ALIGN SQ(I) WITH A(I)";
            "      FORALL (I = 1:8) SQ(I) = A(I)*A(I)";
            "      OUT = SQRT(SUM(SQ))";
            "      END";
          ]
      in
      match Driver.run ~nprocs:2 (Driver.compile src) with
      | _ -> Alcotest.failf "CALL NORM(%s, S) ran without an error" actual
      | exception Diag.Error (loc, msg) ->
          Alcotest.(check string) (actual ^ ": message")
            "CALL NORM: array dummy 'A' needs a whole-array actual argument" msg;
          Alcotest.(check int) (actual ^ ": line") 5 loc.Loc.line)
    [ "2.0"; "X + 1.0" ]

let test_located_syntax_error () =
  match Driver.compile "PROGRAM T\nX = (1 +\nEND" with
  | _ -> Alcotest.fail "expected syntax error"
  | exception Diag.Error (loc, _) ->
      Alcotest.(check int) "error on line 2 or 3" 0 (if loc.Loc.line >= 2 then 0 else 1)

let () =
  Alcotest.run "f90d_diagnostics"
    [
      ( "compile-time",
        [
          Alcotest.test_case "unknown template" `Quick test_unknown_template;
          Alcotest.test_case "non-affine align" `Quick test_nonaffine_align;
          Alcotest.test_case "distribute rank" `Quick test_distribute_rank_mismatch;
          Alcotest.test_case "parameter value" `Quick test_parameter_needs_value;
          Alcotest.test_case "where body" `Quick test_where_non_assignment;
          Alcotest.test_case "non-conforming section" `Quick test_nonconforming_section;
          Alcotest.test_case "located syntax error" `Quick test_located_syntax_error;
        ] );
      ( "run-time",
        [
          Alcotest.test_case "undeclared variable" `Quick test_undeclared_variable_runtime;
          Alcotest.test_case "call arity" `Quick test_call_arity;
          Alcotest.test_case "unknown function only when executed" `Quick
            test_unknown_function_when_executed;
          Alcotest.test_case "reduction in forall" `Quick test_transformational_in_forall;
          Alcotest.test_case "grid size mismatch" `Quick test_grid_size_mismatch;
          Alcotest.test_case "integer division by zero" `Quick test_integer_division_by_zero;
          Alcotest.test_case "array dummy, non-array actual" `Quick
            test_array_dummy_non_array_actual;
          Alcotest.test_case "indirection subscript out of bounds" `Quick
            test_indirection_out_of_bounds;
          Alcotest.test_case "scalar element out of bounds" `Quick
            test_scalar_element_out_of_bounds;
          Alcotest.test_case "DIM argument out of range" `Quick test_dim_out_of_range;
        ] );
    ]
