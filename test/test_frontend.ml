open F90d_base
open F90d_frontend

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let toks src = List.map fst (Lexer.tokenize ~file:"t" src)

let test_lex_basics () =
  checkb "idents upper-cased" true
    (toks "abc Def" = [ Token.Ident "ABC"; Token.Ident "DEF"; Token.Newline; Token.Eof ]);
  checkb "numbers" true
    (toks "42 3.5 1e3 2.5e-2 7."
    = [ Token.Int 42; Token.Float 3.5; Token.Float 1000.; Token.Float 0.025; Token.Float 7.;
        Token.Newline; Token.Eof ]);
  checkb "double-precision exponent" true (toks "1.5d2" = [ Token.Float 150.; Token.Newline; Token.Eof ]);
  checkb "operators" true
    (toks "a**b == c /= d"
    = [ Token.Ident "A"; Token.Power; Token.Ident "B"; Token.Eq; Token.Ident "C"; Token.Ne;
        Token.Ident "D"; Token.Newline; Token.Eof ])

let test_lex_dotted () =
  checkb "dotted ops" true
    (toks "a .AND. b .or. .not. c"
    = [ Token.Ident "A"; Token.And; Token.Ident "B"; Token.Or; Token.Not; Token.Ident "C";
        Token.Newline; Token.Eof ]);
  checkb "dotted comparisons" true
    (toks "x .LT. y .ge. z"
    = [ Token.Ident "X"; Token.Lt; Token.Ident "Y"; Token.Ge; Token.Ident "Z"; Token.Newline;
        Token.Eof ]);
  checkb "logical literals" true
    (toks ".TRUE. .false." = [ Token.True; Token.False; Token.Newline; Token.Eof ]);
  (* "1.AND." must not eat the dot into the number *)
  checkb "number then dotted" true
    (toks "1.AND.x" = [ Token.Int 1; Token.And; Token.Ident "X"; Token.Newline; Token.Eof ])

let test_lex_comments_continuation () =
  checkb "bang comment" true (toks "a ! rest\nb" =
    [ Token.Ident "A"; Token.Newline; Token.Ident "B"; Token.Newline; Token.Eof ]);
  checkb "fixed-form C comment" true
    (toks "C whole line comment\nx = 1"
    = [ Token.Ident "X"; Token.Assign; Token.Int 1; Token.Newline; Token.Eof ]);
  checkb "trailing & joins lines" true
    (toks "a + &\n  b" = [ Token.Ident "A"; Token.Plus; Token.Ident "B"; Token.Newline; Token.Eof ]);
  checkb "leading & joins lines" true
    (toks "a +\n     &  b"
    = [ Token.Ident "A"; Token.Plus; Token.Ident "B"; Token.Newline; Token.Eof ])

let test_lex_directive () =
  (match toks "C$ DISTRIBUTE A(BLOCK)" with
  | Token.Directive :: Token.Ident "DISTRIBUTE" :: Token.Ident "A" :: _ -> ()
  | _ -> Alcotest.fail "directive prefix not recognised");
  match toks "!HPF$ ALIGN X WITH T" with
  | Token.Directive :: Token.Ident "ALIGN" :: _ -> ()
  | _ -> Alcotest.fail "!HPF$ prefix not recognised"

let test_lex_strings () =
  checkb "single quotes" true (toks "'hi there'" = [ Token.String "hi there"; Token.Newline; Token.Eof ]);
  checkb "escaped quote" true (toks "'it''s'" = [ Token.String "it's"; Token.Newline; Token.Eof ])

let test_lex_errors () =
  (match toks "'unterminated" with
  | _ -> Alcotest.fail "expected lexer error"
  | exception Diag.Error _ -> ());
  match toks "a # b" with
  | _ -> Alcotest.fail "expected lexer error"
  | exception Diag.Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let expr s = Parser.parse_expr_string s
let expr_str s = Format.asprintf "%a" Ast.pp_expr (expr s)

let test_parse_precedence () =
  checks "mul binds tighter" "(1 + (2 * 3))" (expr_str "1 + 2*3");
  checks "power right assoc" "(2 ** (3 ** 2))" (expr_str "2 ** 3 ** 2");
  checks "unary minus" "((-1) + 2)" (expr_str "-1 + 2");
  checks "comparison" "((A + 1) .LT. (B * 2))" (expr_str "a + 1 < b*2");
  checks "and over or" "(A .OR. (B .AND. C))" (expr_str "a .or. b .and. c");
  checks "not" "((.NOT. A) .AND. B)" (expr_str ".not. a .and. b")

let test_parse_sections () =
  (match (expr "A(2:5, K)").Ast.e with
  | Ast.Ref { args = [ Ast.Range (Some _, Some _, None); Ast.Elem _ ]; _ } -> ()
  | _ -> Alcotest.fail "section shape");
  (match (expr "A(:, 1:10:2)").Ast.e with
  | Ast.Ref { args = [ Ast.Range (None, None, None); Ast.Range (Some _, Some _, Some _) ]; _ } ->
      ()
  | _ -> Alcotest.fail "full + strided section");
  match (expr "A(:5)").Ast.e with
  | Ast.Ref { args = [ Ast.Range (None, Some _, None) ]; _ } -> ()
  | _ -> Alcotest.fail "upper-bounded section"

let parse_main src = (Parser.parse ~file:"t" src).Ast.main

let test_parse_program_units () =
  let p =
    Parser.parse ~file:"t"
      {|
      PROGRAM MAIN
      REAL X
      X = 1
      CALL S(X)
      END

      SUBROUTINE S(Y)
      REAL Y
      Y = Y + 1
      END SUBROUTINE
      |}
  in
  checks "main name" "MAIN" p.Ast.main.Ast.pname;
  check "one subroutine" 1 (List.length p.Ast.subs);
  Alcotest.(check (list string)) "args" [ "Y" ] (List.hd p.Ast.subs).Ast.args

let test_parse_decls () =
  let u =
    parse_main
      {|
      PROGRAM T
      INTEGER, PARAMETER :: N = 8
      REAL A(N, N+1), B(0:N)
      REAL, DIMENSION(3) :: U, V
      LOGICAL FLAG
      END
      |}
  in
  check "decl count" 6 (List.length u.Ast.decls);
  let a = List.find (fun d -> d.Ast.dname = "A") u.Ast.decls in
  check "A rank" 2 (List.length a.Ast.ddims);
  let u' = List.find (fun d -> d.Ast.dname = "U") u.Ast.decls in
  check "shared DIMENSION" 1 (List.length u'.Ast.ddims);
  let f = List.find (fun d -> d.Ast.dname = "FLAG") u.Ast.decls in
  checkb "logical kind" true (f.Ast.dkind = Ast.Logical)

let test_parse_directives () =
  let u =
    parse_main
      {|
      PROGRAM T
      REAL A(8, 8)
C$    PROCESSORS P(2, 2)
C$    TEMPLATE TT(8, 8)
C$    ALIGN A(I, J) WITH TT(J, I)
C$    DISTRIBUTE TT(BLOCK, CYCLIC) ONTO P
      END
      |}
  in
  check "directive count" 4 (List.length u.Ast.directives);
  (match List.map fst u.Ast.directives with
  | [ Ast.Processors { pdims; _ }; Ast.Template { tdims; _ }; Ast.Align { dummies; _ };
      Ast.Distribute { forms; onto; _ } ] ->
      check "grid rank" 2 (List.length pdims);
      check "template rank" 2 (List.length tdims);
      Alcotest.(check (list string)) "dummies" [ "I"; "J" ] dummies;
      checkb "forms" true (forms = [ Ast.Dblock; Ast.Dcyclic ]);
      checkb "onto" true (onto = Some "P")
  | _ -> Alcotest.fail "directive shapes")

let test_parse_statements () =
  let u =
    parse_main
      {|
      PROGRAM T
      INTEGER I, K
      REAL A(10)
      DO K = 1, 10, 2
        IF (K > 5) THEN
          A(K) = 1
        ELSE IF (K > 2) THEN
          A(K) = 2
        ELSE
          A(K) = 3
        END IF
      END DO
      WHERE (A > 0)
        A = A + 1
      ELSEWHERE
        A = 0
      END WHERE
      FORALL (I = 1:10, A(I) > 0) A(I) = -A(I)
      DO WHILE (A(1) < 10)
        A(1) = A(1) + 1
      END DO
      PRINT *, 'done', A(1)
      RETURN
      END
      |}
  in
  check "statement count" 6 (List.length u.Ast.body);
  match List.map (fun s -> s.Ast.s) u.Ast.body with
  | [ Ast.Do (_, _, [ { Ast.s = Ast.If (arms, els); _ } ]); Ast.Where (_, _, elsw);
      Ast.Forall (_, Some _, _); Ast.While _; Ast.Print [ _; _ ]; Ast.Return ] ->
      check "if arms" 2 (List.length arms);
      check "else body" 1 (List.length els);
      check "elsewhere body" 1 (List.length elsw)
  | _ -> Alcotest.fail "statement shapes"

let test_parse_errors () =
  let bad src =
    match Parser.parse ~file:"t" src with
    | _ -> Alcotest.failf "expected syntax error for %s" src
    | exception Diag.Error _ -> ()
  in
  bad "PROGRAM T\nDO K = 1, 10\nEND";
  bad "PROGRAM T\nIF (X THEN\nEND";
  bad "PROGRAM T\nX = \nEND";
  bad "PROGRAM T\nFORALL (I) X(I) = 1\nEND"

(* ------------------------------------------------------------------ *)
(* Sema                                                                *)
(* ------------------------------------------------------------------ *)

let analyze src = Sema.analyze (Parser.parse ~file:"t" src)

let test_sema_params_and_dims () =
  let env =
    Sema.main_env
      (analyze
         {|
         PROGRAM T
         INTEGER, PARAMETER :: N = 6
         INTEGER, PARAMETER :: M = 2*N + 1
         REAL A(M, 0:N)
         END
         |})
  in
  checkb "param N" true (List.assoc "N" env.Sema.uparams = Scalar.Int 6);
  checkb "param M" true (List.assoc "M" env.Sema.uparams = Scalar.Int 13);
  match Sema.array_spec env "A" with
  | Some spec ->
      check "extent 1" 13 spec.Sema.sdims.(0).Sema.sext;
      check "flb 2" 0 spec.Sema.sdims.(1).Sema.sflb;
      check "extent 2" 7 spec.Sema.sdims.(1).Sema.sext
  | None -> Alcotest.fail "A not found"

let test_sema_alignment () =
  let env =
    Sema.main_env
      (analyze
         {|
         PROGRAM T
         REAL A(10), B(10)
C$       TEMPLATE TT(21)
C$       ALIGN A(I) WITH TT(2*I + 1)
C$       ALIGN B(I) WITH TT(*)
C$       DISTRIBUTE TT(BLOCK)
         END
         |})
  in
  (match Sema.array_spec env "A" with
  | Some spec ->
      let d = spec.Sema.sdims.(0) in
      (* Fortran A(1) -> TT(3); 0-based: align(0) = 3 - 1 = 2 *)
      check "align a" 2 d.Sema.salign.Affine.a;
      check "align b" 2 d.Sema.salign.Affine.b;
      checkb "distributed" true (d.Sema.spdim = Some 0);
      check "template extent" 21 d.Sema.stn
  | None -> Alcotest.fail "A not found");
  match Sema.array_spec env "B" with
  | Some spec -> checkb "star align replicates" true (spec.Sema.sdims.(0).Sema.spdim = None)
  | None -> Alcotest.fail "B not found"

let test_sema_grid_and_instantiate () =
  let penv =
    analyze
      {|
      PROGRAM T
      REAL A(8, 12)
C$    PROCESSORS P(2, 3)
C$    TEMPLATE TT(8, 12)
C$    ALIGN A(I, J) WITH TT(I, J)
C$    DISTRIBUTE TT(BLOCK, CYCLIC)
      END
      |}
  in
  Alcotest.(check (array int)) "grid dims" [| 2; 3 |] (Sema.grid_dims penv ~nprocs:6);
  (match Sema.grid_dims penv ~nprocs:4 with
  | _ -> Alcotest.fail "expected grid size mismatch error"
  | exception Diag.Error _ -> ());
  let grid = F90d_dist.Grid.make [| 2; 3 |] in
  (* each dimension takes the widest overlap asked of it *)
  let ghosts = [ ("A", 0, 1, 2); ("A", 0, 2, 0) ] in
  let dads = Sema.instantiate ~ghosts (Sema.main_env penv) ~grid in
  let dad = List.assoc "A" dads in
  let dims = F90d_dist.Dad.dims dad in
  checkb "ghost widths" true
    (dims.(0).F90d_dist.Dad.ghost_lo = 2 && dims.(0).F90d_dist.Dad.ghost_hi = 2
    && dims.(1).F90d_dist.Dad.ghost_lo = 0 && dims.(1).F90d_dist.Dad.ghost_hi = 0);
  checkb "dim1 block" true (dims.(0).F90d_dist.Dad.dist.F90d_dist.Distrib.form = F90d_dist.Distrib.Block);
  checkb "dim2 cyclic" true (dims.(1).F90d_dist.Dad.dist.F90d_dist.Distrib.form = F90d_dist.Distrib.Cyclic);
  checkb "pdims" true (dims.(0).F90d_dist.Dad.pdim = Some 0 && dims.(1).F90d_dist.Dad.pdim = Some 1)

let test_sema_errors () =
  let bad src =
    match analyze src with
    | _ -> Alcotest.fail "expected semantic error"
    | exception Diag.Error _ -> ()
  in
  bad {|
      PROGRAM T
      REAL A(10)
C$    ALIGN A(I) WITH NOWHERE(I)
      END
      |};
  bad {|
      PROGRAM T
      REAL A(10)
C$    TEMPLATE TT(10)
C$    ALIGN A(I) WITH TT(I*I)
C$    DISTRIBUTE TT(BLOCK)
      END
      |};
  bad {|
      PROGRAM T
C$    TEMPLATE TT(4, 4)
C$    DISTRIBUTE TT(BLOCK)
      END
      |}

let test_affine_of () =
  let lookup = function "C" -> Some (Scalar.Int 4) | _ -> None in
  let aff s =
    match Sema.affine_of ~var:"I" ~lookup (Parser.parse_expr_string s) with
    | Some f -> (f.Affine.a, f.Affine.b)
    | None -> (min_int, min_int)
  in
  checkb "i" true (aff "I" = (1, 0));
  checkb "i+3" true (aff "I + 3" = (1, 3));
  checkb "2*i-1" true (aff "2*I - 1" = (2, -1));
  (* leading blank: a column-1 'C' would be a fixed-form comment *)
  checkb "c*i+c" true (aff " C*I + C" = (4, 4));
  checkb "(i+1)*2" true (aff "(I+1)*2" = (2, 2));
  checkb "-i" true (aff "-I" = (-1, 0));
  checkb "i*i rejected" true (aff "I*I" = (min_int, min_int));
  checkb "unknown var rejected" true (aff "I + Z" = (min_int, min_int))

(* ------------------------------------------------------------------ *)
(* Normalizer                                                          *)
(* ------------------------------------------------------------------ *)

let normalized src =
  let penv = analyze src in
  let env = Sema.main_env penv in
  Normalize.normalize_unit env env.Sema.usub.Ast.body

let count_foralls stmts =
  List.length (List.filter (fun s -> match s.Ast.s with Ast.Forall _ -> true | _ -> false) stmts)

let test_normalize_whole_array () =
  let body =
    normalized
      {|
      PROGRAM T
      REAL A(4, 5), B(4, 5)
C$    DISTRIBUTE A(BLOCK, *)
      A = 2*B + 1
      END
      |}
  in
  check "one forall" 1 (count_foralls body);
  match (List.hd body).Ast.s with
  | Ast.Forall (vars, None, [ { Ast.s = Ast.Assign (lhs, _); _ } ]) ->
      check "two vars" 2 (List.length vars);
      (match lhs.Ast.e with
      | Ast.Ref { args = [ Ast.Elem _; Ast.Elem _ ]; _ } -> ()
      | _ -> Alcotest.fail "lhs not fully indexed")
  | _ -> Alcotest.fail "expected a forall"

let test_normalize_section_offsets () =
  let body =
    normalized
      {|
      PROGRAM T
      REAL A(10), B(12)
      A(2:9) = B(4:11)
      END
      |}
  in
  match (List.hd body).Ast.s with
  | Ast.Forall ([ (v, r) ], None, [ { Ast.s = Ast.Assign (_, rhs); _ } ]) ->
      checks "range lo" "2" (Format.asprintf "%a" Ast.pp_expr r.Ast.lo);
      checks "range hi" "9" (Format.asprintf "%a" Ast.pp_expr r.Ast.hi);
      (* B's index must be v + 2 *)
      let s = Format.asprintf "%a" Ast.pp_expr rhs in
      checkb "shifted subscript" true (s = Printf.sprintf "B((%s + 2))" v)
  | _ -> Alcotest.fail "expected single-var forall"

let test_normalize_where () =
  let body =
    normalized
      {|
      PROGRAM T
      REAL A(8), B(8)
C$    DISTRIBUTE A(BLOCK)
      WHERE (A > 1.0)
        B = A
      ELSEWHERE
        B = 0.0
      END WHERE
      END
      |}
  in
  check "two masked foralls" 2 (count_foralls body);
  List.iter
    (fun st ->
      match st.Ast.s with
      | Ast.Forall (_, Some _, _) -> ()
      | _ -> Alcotest.fail "expected masked forall")
    body

let test_normalize_forall_split () =
  let body =
    normalized
      {|
      PROGRAM T
      REAL A(8), B(8)
      FORALL (I = 1:8)
        A(I) = I
        B(I) = 2*I
      END FORALL
      END
      |}
  in
  check "split into two" 2 (count_foralls body)

let test_normalize_movers_untouched () =
  let body =
    normalized
      {|
      PROGRAM T
      REAL A(8), B(8)
      B = CSHIFT(A, 1)
      END
      |}
  in
  check "no forall for mover" 0 (count_foralls body)

let test_normalize_transformational_arg_kept () =
  let body =
    normalized
      {|
      PROGRAM T
      REAL A(8), S
      S = SUM(A) + 1.0
      END
      |}
  in
  match (List.hd body).Ast.s with
  | Ast.Assign (_, rhs) ->
      let s = Format.asprintf "%a" Ast.pp_expr rhs in
      checkb "SUM arg stays whole" true (s = "(SUM(A) + 1)")
  | _ -> Alcotest.fail "expected scalar assignment"

let () =
  Alcotest.run "f90d_frontend"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lex_basics;
          Alcotest.test_case "dotted operators" `Quick test_lex_dotted;
          Alcotest.test_case "comments/continuation" `Quick test_lex_comments_continuation;
          Alcotest.test_case "directives" `Quick test_lex_directive;
          Alcotest.test_case "strings" `Quick test_lex_strings;
          Alcotest.test_case "errors" `Quick test_lex_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "sections" `Quick test_parse_sections;
          Alcotest.test_case "program units" `Quick test_parse_program_units;
          Alcotest.test_case "declarations" `Quick test_parse_decls;
          Alcotest.test_case "directives" `Quick test_parse_directives;
          Alcotest.test_case "statements" `Quick test_parse_statements;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "sema",
        [
          Alcotest.test_case "parameters/dims" `Quick test_sema_params_and_dims;
          Alcotest.test_case "alignment" `Quick test_sema_alignment;
          Alcotest.test_case "grid/instantiate" `Quick test_sema_grid_and_instantiate;
          Alcotest.test_case "errors" `Quick test_sema_errors;
          Alcotest.test_case "affine recognition" `Quick test_affine_of;
        ] );
      ( "normalize",
        [
          Alcotest.test_case "whole array" `Quick test_normalize_whole_array;
          Alcotest.test_case "section offsets" `Quick test_normalize_section_offsets;
          Alcotest.test_case "where" `Quick test_normalize_where;
          Alcotest.test_case "forall split" `Quick test_normalize_forall_split;
          Alcotest.test_case "movers untouched" `Quick test_normalize_movers_untouched;
          Alcotest.test_case "transformational args" `Quick test_normalize_transformational_arg_kept;
        ] );
    ]
