open F90d_base

type state = { toks : (Token.t * Loc.t) array; mutable cur : int }

let peek st = fst st.toks.(st.cur)
let peek_loc st = snd st.toks.(st.cur)
let peek2 st = if st.cur + 1 < Array.length st.toks then fst st.toks.(st.cur + 1) else Token.Eof

let advance st = if st.cur < Array.length st.toks - 1 then st.cur <- st.cur + 1

let next st =
  let t = peek st and l = peek_loc st in
  advance st;
  (t, l)

let error st fmt = Diag.error ~loc:(peek_loc st) fmt

let expect st tok =
  if peek st = tok then advance st
  else error st "expected '%s' but found '%s'" (Token.to_string tok) (Token.to_string (peek st))

let expect_ident st =
  match next st with
  | Token.Ident name, _ -> name
  | t, l -> Diag.error ~loc:l "expected an identifier, found '%s'" (Token.to_string t)

let at_keyword st kw = match peek st with Token.Ident name -> name = kw | _ -> false

let eat_keyword st kw =
  if at_keyword st kw then begin
    advance st;
    true
  end
  else false

let skip_newlines st =
  while peek st = Token.Newline do
    advance st
  done

let end_of_stmt st =
  match peek st with
  | Token.Newline ->
      advance st;
      skip_newlines st
  | Token.Eof -> ()
  | t -> error st "unexpected '%s' at end of statement" (Token.to_string t)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* precedence: .OR. < .AND. < .NOT. < comparisons < +,- < *,/ < unary < ** *)
let rec parse_expr st = parse_or st

and parse_or st =
  let a = parse_and st in
  if peek st = Token.Or then begin
    let loc = peek_loc st in
    advance st;
    Ast.bin ~loc Ast.Or a (parse_or st)
  end
  else a

and parse_and st =
  let a = parse_not st in
  if peek st = Token.And then begin
    let loc = peek_loc st in
    advance st;
    Ast.bin ~loc Ast.And a (parse_and st)
  end
  else a

and parse_not st =
  if peek st = Token.Not then begin
    let loc = peek_loc st in
    advance st;
    Ast.mk ~loc (Ast.Un (Ast.Not, parse_not st))
  end
  else parse_cmp st

and parse_cmp st =
  let a = parse_additive st in
  let op =
    match peek st with
    | Token.Eq -> Some Ast.Eq
    | Token.Ne -> Some Ast.Ne
    | Token.Lt -> Some Ast.Lt
    | Token.Le -> Some Ast.Le
    | Token.Gt -> Some Ast.Gt
    | Token.Ge -> Some Ast.Ge
    | _ -> None
  in
  match op with
  | None -> a
  | Some op ->
      let loc = peek_loc st in
      advance st;
      Ast.bin ~loc op a (parse_additive st)

and parse_additive st =
  let rec go a =
    match peek st with
    | Token.Plus ->
        let loc = peek_loc st in
        advance st;
        go (Ast.bin ~loc Ast.Add a (parse_multiplicative st))
    | Token.Minus ->
        let loc = peek_loc st in
        advance st;
        go (Ast.bin ~loc Ast.Sub a (parse_multiplicative st))
    | _ -> a
  in
  go (parse_multiplicative st)

and parse_multiplicative st =
  let rec go a =
    match peek st with
    | Token.Star ->
        let loc = peek_loc st in
        advance st;
        go (Ast.bin ~loc Ast.Mul a (parse_unary st))
    | Token.Slash ->
        let loc = peek_loc st in
        advance st;
        go (Ast.bin ~loc Ast.Div a (parse_unary st))
    | _ -> a
  in
  go (parse_unary st)

and parse_unary st =
  match peek st with
  | Token.Minus ->
      let loc = peek_loc st in
      advance st;
      Ast.mk ~loc (Ast.Un (Ast.Neg, parse_unary st))
  | Token.Plus ->
      advance st;
      parse_unary st
  | _ -> parse_power st

and parse_power st =
  let a = parse_primary st in
  if peek st = Token.Power then begin
    let loc = peek_loc st in
    advance st;
    (* right-associative *)
    Ast.bin ~loc Ast.Pow a (parse_unary st)
  end
  else a

and parse_primary st =
  match next st with
  | Token.Int n, loc -> Ast.int_lit ~loc n
  | Token.Float f, loc -> Ast.mk ~loc (Ast.Real_lit f)
  | Token.True, loc -> Ast.mk ~loc (Ast.Log_lit true)
  | Token.False, loc -> Ast.mk ~loc (Ast.Log_lit false)
  | Token.String s, loc -> Ast.mk ~loc (Ast.Str_lit s)
  | Token.Lparen, _ ->
      let e = parse_expr st in
      expect st Token.Rparen;
      e
  | Token.Ident name, loc ->
      if peek st = Token.Lparen then begin
        advance st;
        let args = parse_sections st in
        expect st Token.Rparen;
        Ast.ref_ ~loc name args
      end
      else Ast.var ~loc name
  | t, l -> Diag.error ~loc:l "expected an expression, found '%s'" (Token.to_string t)

and parse_sections st =
  let rec go acc =
    let s = parse_section st in
    if peek st = Token.Comma then begin
      advance st;
      go (s :: acc)
    end
    else List.rev (s :: acc)
  in
  go []

and parse_section st =
  (* ':'-led, or expr possibly followed by ':' *)
  if peek st = Token.Colon then begin
    advance st;
    parse_section_tail st None
  end
  else begin
    let e = parse_expr st in
    if peek st = Token.Colon then begin
      advance st;
      parse_section_tail st (Some e)
    end
    else Ast.Elem e
  end

and parse_section_tail st lo =
  let hi =
    match peek st with
    | Token.Comma | Token.Rparen | Token.Colon -> None
    | _ -> Some (parse_expr st)
  in
  let stp =
    if peek st = Token.Colon then begin
      advance st;
      Some (parse_expr st)
    end
    else None
  in
  Ast.Range (lo, hi, stp)

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let kind_of_keyword = function
  | "INTEGER" -> Some Ast.Integer
  | "REAL" | "DOUBLEPRECISION" -> Some Ast.Real
  | "LOGICAL" -> Some Ast.Logical
  | _ -> None

let parse_dim_decl st =
  (* e or e:e *)
  let parse_one () =
    let a = parse_expr st in
    if peek st = Token.Colon then begin
      advance st;
      let b = parse_expr st in
      (a, b)
    end
    else (Ast.int_lit 1, a)
  in
  let rec go acc =
    let d = parse_one () in
    if peek st = Token.Comma then begin
      advance st;
      go (d :: acc)
    end
    else List.rev (d :: acc)
  in
  go []

let parse_decl_line st kind =
  let loc = peek_loc st in
  let is_param = ref false in
  let shared_dims = ref [] in
  (* attribute list: , PARAMETER / , DIMENSION(...) *)
  while peek st = Token.Comma do
    advance st;
    match next st with
    | Token.Ident "PARAMETER", _ -> is_param := true
    | Token.Ident "DIMENSION", _ ->
        expect st Token.Lparen;
        shared_dims := parse_dim_decl st;
        expect st Token.Rparen
    | t, l -> Diag.error ~loc:l "unknown declaration attribute '%s'" (Token.to_string t)
  done;
  if peek st = Token.Dcolon then advance st;
  let rec items acc =
    let dname = expect_ident st in
    let ddims =
      if peek st = Token.Lparen then begin
        advance st;
        let d = parse_dim_decl st in
        expect st Token.Rparen;
        d
      end
      else !shared_dims
    in
    let dparam =
      if peek st = Token.Assign then begin
        advance st;
        Some (parse_expr st)
      end
      else None
    in
    if !is_param && dparam = None then
      Diag.error ~loc "PARAMETER '%s' needs an initial value" dname;
    let decl = { Ast.dname; dkind = kind; ddims; dparam; dloc = loc } in
    if peek st = Token.Comma then begin
      advance st;
      items (decl :: acc)
    end
    else List.rev (decl :: acc)
  in
  let ds = items [] in
  end_of_stmt st;
  ds

(* ------------------------------------------------------------------ *)
(* Directives                                                          *)
(* ------------------------------------------------------------------ *)

let parse_distform st =
  match next st with
  | Token.Ident "BLOCK", _ -> Ast.Dblock
  | Token.Ident "CYCLIC", _ ->
      if peek st = Token.Lparen then begin
        advance st;
        let k =
          match next st with
          | Token.Int k, _ -> k
          | t, l -> Diag.error ~loc:l "CYCLIC(k) expects an integer, found '%s'" (Token.to_string t)
        in
        expect st Token.Rparen;
        Ast.Dcyclic_k k
      end
      else Ast.Dcyclic
  | Token.Star, _ -> Ast.Dstar
  | t, l -> Diag.error ~loc:l "unknown distribution '%s'" (Token.to_string t)

let parse_directive st =
  let loc = peek_loc st in
  let d =
    match next st with
    | Token.Ident "PROCESSORS", _ ->
        let pname, _ =
          if peek st = Token.Lparen then ("PROCS", ())
          else (expect_ident st, ())
        in
        expect st Token.Lparen;
        let rec dims acc =
          let e = parse_expr st in
          if peek st = Token.Comma then begin
            advance st;
            dims (e :: acc)
          end
          else List.rev (e :: acc)
        in
        let pdims = dims [] in
        expect st Token.Rparen;
        Ast.Processors { pname; pdims }
    | Token.Ident ("TEMPLATE" | "DECOMPOSITION"), _ ->
        let tname = expect_ident st in
        expect st Token.Lparen;
        let tdims = parse_dim_decl st in
        expect st Token.Rparen;
        Ast.Template { tname; tdims }
    | Token.Ident "ALIGN", _ ->
        let array = expect_ident st in
        let dummies =
          if peek st = Token.Lparen then begin
            advance st;
            let rec go acc =
              let v = expect_ident st in
              if peek st = Token.Comma then begin
                advance st;
                go (v :: acc)
              end
              else List.rev (v :: acc)
            in
            let ds = go [] in
            expect st Token.Rparen;
            ds
          end
          else []
        in
        if not (eat_keyword st "WITH") then error st "expected WITH in ALIGN directive";
        let target = expect_ident st in
        let subscripts =
          if peek st = Token.Lparen then begin
            advance st;
            let rec go acc =
              let e =
                if peek st = Token.Star then begin
                  advance st;
                  Ast.mk (Ast.Var "*")
                end
                else parse_expr st
              in
              if peek st = Token.Comma then begin
                advance st;
                go (e :: acc)
              end
              else List.rev (e :: acc)
            in
            let es = go [] in
            expect st Token.Rparen;
            es
          end
          else []
        in
        Ast.Align { array; dummies; target; subscripts }
    | Token.Ident "DISTRIBUTE", _ ->
        let template = expect_ident st in
        expect st Token.Lparen;
        let rec go acc =
          let f = parse_distform st in
          if peek st = Token.Comma then begin
            advance st;
            go (f :: acc)
          end
          else List.rev (f :: acc)
        in
        let forms = go [] in
        expect st Token.Rparen;
        let onto = if eat_keyword st "ONTO" then Some (expect_ident st) else None in
        Ast.Distribute { template; forms; onto }
    | t, l -> Diag.error ~loc:l "unknown directive '%s'" (Token.to_string t)
  in
  end_of_stmt st;
  (d, loc)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let parse_range_after_assign st =
  let lo = parse_expr st in
  expect st Token.Comma;
  let hi = parse_expr st in
  let stp =
    if peek st = Token.Comma then begin
      advance st;
      Some (parse_expr st)
    end
    else None
  in
  { Ast.lo; hi; st = stp }

let parse_forall_triplet st =
  let name = expect_ident st in
  expect st Token.Assign;
  let lo = parse_expr st in
  expect st Token.Colon;
  let hi = parse_expr st in
  let stp =
    if peek st = Token.Colon then begin
      advance st;
      Some (parse_expr st)
    end
    else None
  in
  (name, { Ast.lo; hi; st = stp })

let is_end_keyword st kws =
  (* END <kw> | END<kw> *)
  (at_keyword st "END" && match peek2 st with Token.Ident k -> List.mem k kws | _ -> false)
  || List.exists (fun k -> at_keyword st ("END" ^ k)) kws

let eat_end st kws =
  (if at_keyword st "END" then begin
     advance st;
     match peek st with Token.Ident k when List.mem k kws -> advance st | _ -> ()
   end
   else
     match peek st with
     | Token.Ident k when List.exists (fun kw -> k = "END" ^ kw) kws -> advance st
     | _ -> error st "expected END %s" (String.concat "/" kws));
  end_of_stmt st

let rec parse_stmt st =
  let loc = peek_loc st in
  match peek st with
  | Token.Ident "DO" -> parse_do st loc
  | Token.Ident "IF" -> parse_if st loc
  | Token.Ident "FORALL" -> parse_forall st loc
  | Token.Ident "WHERE" -> parse_where st loc
  | Token.Ident "CALL" ->
      advance st;
      let name = expect_ident st in
      let args =
        if peek st = Token.Lparen then begin
          advance st;
          if peek st = Token.Rparen then begin
            advance st;
            []
          end
          else begin
            let rec go acc =
              let e = parse_expr st in
              if peek st = Token.Comma then begin
                advance st;
                go (e :: acc)
              end
              else List.rev (e :: acc)
            in
            let es = go [] in
            expect st Token.Rparen;
            es
          end
        end
        else []
      in
      end_of_stmt st;
      { Ast.s = Ast.Call (name, args); sloc = loc }
  | Token.Ident "PRINT" ->
      advance st;
      expect st Token.Star;
      let args =
        if peek st = Token.Comma then begin
          advance st;
          let rec go acc =
            let e = parse_expr st in
            if peek st = Token.Comma then begin
              advance st;
              go (e :: acc)
            end
            else List.rev (e :: acc)
          in
          go []
        end
        else []
      in
      end_of_stmt st;
      { Ast.s = Ast.Print args; sloc = loc }
  | Token.Ident "RETURN" ->
      advance st;
      end_of_stmt st;
      { Ast.s = Ast.Return; sloc = loc }
  | _ -> parse_assignment st loc

and parse_assignment st loc =
  let lhs = parse_primary st in
  (match lhs.Ast.e with
  | Ast.Var _ | Ast.Ref _ -> ()
  | _ -> Diag.error ~loc "assignment target must be a variable or array reference");
  expect st Token.Assign;
  let rhs = parse_expr st in
  end_of_stmt st;
  { Ast.s = Ast.Assign (lhs, rhs); sloc = loc }

and parse_body st ~stop =
  let rec go acc =
    skip_newlines st;
    if stop () || peek st = Token.Eof then List.rev acc else go (parse_stmt st :: acc)
  in
  go []

and parse_do st loc =
  advance st;
  if at_keyword st "WHILE" then begin
    advance st;
    expect st Token.Lparen;
    let cond = parse_expr st in
    expect st Token.Rparen;
    end_of_stmt st;
    let body = parse_body st ~stop:(fun () -> is_end_keyword st [ "DO" ]) in
    eat_end st [ "DO" ];
    { Ast.s = Ast.While (cond, body); sloc = loc }
  end
  else begin
    let v = expect_ident st in
    expect st Token.Assign;
    let range = parse_range_after_assign st in
    end_of_stmt st;
    let body = parse_body st ~stop:(fun () -> is_end_keyword st [ "DO" ]) in
    eat_end st [ "DO" ];
    { Ast.s = Ast.Do (v, range, body); sloc = loc }
  end

and parse_if st loc =
  advance st;
  expect st Token.Lparen;
  let cond = parse_expr st in
  expect st Token.Rparen;
  if at_keyword st "THEN" then begin
    advance st;
    end_of_stmt st;
    let arms = ref [] in
    let cur_cond = ref cond in
    let els = ref [] in
    let finished = ref false in
    while not !finished do
      let stop () =
        is_end_keyword st [ "IF" ] || at_keyword st "ELSE" || at_keyword st "ELSEIF"
      in
      let body = parse_body st ~stop in
      arms := (!cur_cond, body) :: !arms;
      if at_keyword st "ELSEIF" || (at_keyword st "ELSE" && peek2 st = Token.Ident "IF") then begin
        if at_keyword st "ELSEIF" then advance st
        else begin
          advance st;
          advance st
        end;
        expect st Token.Lparen;
        cur_cond := parse_expr st;
        expect st Token.Rparen;
        if not (eat_keyword st "THEN") then error st "expected THEN";
        end_of_stmt st
      end
      else if at_keyword st "ELSE" then begin
        advance st;
        end_of_stmt st;
        els := parse_body st ~stop:(fun () -> is_end_keyword st [ "IF" ]);
        eat_end st [ "IF" ];
        finished := true
      end
      else begin
        eat_end st [ "IF" ];
        finished := true
      end
    done;
    { Ast.s = Ast.If (List.rev !arms, !els); sloc = loc }
  end
  else begin
    (* one-line IF *)
    let body = parse_stmt st in
    { Ast.s = Ast.If ([ (cond, [ body ]) ], []); sloc = loc }
  end

and parse_forall st loc =
  advance st;
  expect st Token.Lparen;
  let rec go triplets =
    let t = parse_forall_triplet st in
    if peek st = Token.Comma then begin
      advance st;
      (* next element: triplet (ident '=') or mask expression *)
      match (peek st, peek2 st) with
      | Token.Ident _, Token.Assign -> go (t :: triplets)
      | _ ->
          let mask = parse_expr st in
          (List.rev (t :: triplets), Some mask)
    end
    else (List.rev (t :: triplets), None)
  in
  let triplets, mask = go [] in
  expect st Token.Rparen;
  if peek st = Token.Newline then begin
    end_of_stmt st;
    let body = parse_body st ~stop:(fun () -> is_end_keyword st [ "FORALL" ]) in
    eat_end st [ "FORALL" ];
    { Ast.s = Ast.Forall (triplets, mask, body); sloc = loc }
  end
  else begin
    let body = parse_stmt st in
    { Ast.s = Ast.Forall (triplets, mask, [ body ]); sloc = loc }
  end

and parse_where st loc =
  advance st;
  expect st Token.Lparen;
  let mask = parse_expr st in
  expect st Token.Rparen;
  if peek st = Token.Newline then begin
    end_of_stmt st;
    let body =
      parse_body st ~stop:(fun () ->
          is_end_keyword st [ "WHERE" ] || at_keyword st "ELSEWHERE")
    in
    let els =
      if at_keyword st "ELSEWHERE" then begin
        advance st;
        end_of_stmt st;
        parse_body st ~stop:(fun () -> is_end_keyword st [ "WHERE" ])
      end
      else []
    in
    eat_end st [ "WHERE" ];
    { Ast.s = Ast.Where (mask, body, els); sloc = loc }
  end
  else begin
    let body = parse_stmt st in
    { Ast.s = Ast.Where (mask, [ body ], []); sloc = loc }
  end

(* ------------------------------------------------------------------ *)
(* Program units                                                       *)
(* ------------------------------------------------------------------ *)

let parse_unit st ~implicit_main =
  skip_newlines st;
  let loc = peek_loc st in
  let pname, args =
    if at_keyword st "PROGRAM" then begin
      advance st;
      let n = expect_ident st in
      end_of_stmt st;
      (n, [])
    end
    else if at_keyword st "SUBROUTINE" then begin
      advance st;
      let n = expect_ident st in
      let args =
        if peek st = Token.Lparen then begin
          advance st;
          if peek st = Token.Rparen then begin
            advance st;
            []
          end
          else begin
            let rec go acc =
              let a = expect_ident st in
              if peek st = Token.Comma then begin
                advance st;
                go (a :: acc)
              end
              else List.rev (a :: acc)
            in
            let l = go [] in
            expect st Token.Rparen;
            l
          end
        end
        else []
      in
      end_of_stmt st;
      (n, args)
    end
    else if implicit_main then ("MAIN", [])
    else Diag.error ~loc "expected PROGRAM or SUBROUTINE"
  in
  let decls = ref [] and directives = ref [] in
  (* header section: declarations and directives *)
  let rec header () =
    skip_newlines st;
    match peek st with
    | Token.Directive ->
        advance st;
        directives := parse_directive st :: !directives;
        header ()
    | Token.Ident kw when kind_of_keyword kw <> None && peek2 st <> Token.Assign -> (
        (* a type keyword starts a declaration unless it is an assignment
           to a variable that happens to shadow the keyword *)
        match kind_of_keyword kw with
        | Some k ->
            advance st;
            decls := !decls @ parse_decl_line st k;
            header ()
        | None -> ())
    | _ -> ()
  in
  header ();
  let stop () =
    is_end_keyword st [ "PROGRAM"; "SUBROUTINE" ]
    || (at_keyword st "END" && (peek2 st = Token.Newline || peek2 st = Token.Eof))
  in
  let body = parse_body st ~stop in
  (* consume END [PROGRAM|SUBROUTINE] [name] *)
  if at_keyword st "END" then begin
    advance st;
    (match peek st with Token.Ident _ -> advance st | _ -> ());
    (match peek st with Token.Ident _ -> advance st | _ -> ());
    end_of_stmt st
  end
  else if at_keyword st "ENDPROGRAM" || at_keyword st "ENDSUBROUTINE" then begin
    advance st;
    (match peek st with Token.Ident _ -> advance st | _ -> ());
    end_of_stmt st
  end
  else error st "expected END";
  { Ast.pname; args; decls = !decls; directives = List.rev !directives; body; ploc = loc }

(* [Array.of_list] would build the array from its first token: a young
   block as the initial value of an array too long for the minor heap,
   for which the runtime forces a minor collection on every parse *)
let no_token = (Token.Eof, Loc.none)

let token_array toks =
  let a = Array.make (List.length toks) no_token in
  List.iteri (fun i t -> a.(i) <- t) toks;
  a

let parse ~file src =
  let toks = token_array (Lexer.tokenize ~file src) in
  let st = { toks; cur = 0 } in
  skip_newlines st;
  let first = parse_unit st ~implicit_main:true in
  let rec more acc =
    skip_newlines st;
    if peek st = Token.Eof then List.rev acc else more (parse_unit st ~implicit_main:false :: acc)
  in
  let rest = more [] in
  { Ast.main = first; subs = rest }

let parse_expr_string s =
  let toks = token_array (Lexer.tokenize ~file:"<expr>" s) in
  let st = { toks; cur = 0 } in
  let e = parse_expr st in
  e
