open F90d_base

(* [vars] counts the FORALL variables made so far in one unit: the count
   is per call, so names never depend on what else the process compiled,
   or is compiling concurrently. *)
let fresh_var vars =
  incr vars;
  Printf.sprintf "I__%d" !vars

let is_array env name = Sema.array_spec env name <> None

(* Default bounds of dimension [d] of array [name]. *)
let dim_bounds env name d =
  match Sema.array_spec env name with
  | Some spec when d < Array.length spec.Sema.sdims ->
      let sd = spec.Sema.sdims.(d) in
      (sd.Sema.sflb, sd.Sema.sflb + sd.Sema.sext - 1)
  | _ -> Diag.error "'%s' has no dimension %d" name (d + 1)

(* The index expression substituted for the k-th Range of an rhs reference:
   position p of the lhs section (var iterating lo..hi:st) maps to
   rlo + (var - lo)/st * rst.  With unit strides this folds to var + (rlo-lo). *)
let mapped_index ~var ~(lhs : Ast.expr * Ast.expr option) ~(rhs : Ast.expr option * Ast.expr option)
    =
  let llo, lst = lhs in
  let rlo, rst = rhs in
  let one = Ast.int_lit 1 in
  let lst = Option.value lst ~default:one in
  let rst = Option.value rst ~default:one in
  let rlo = Option.value rlo ~default:one in
  let v = Ast.var var in
  let is_one (e : Ast.expr) = match e.Ast.e with Ast.Int_lit 1 -> true | _ -> false in
  if is_one lst && is_one rst then
    (* var + (rlo - llo) *)
    match (rlo.Ast.e, llo.Ast.e) with
    | Ast.Int_lit a, Ast.Int_lit b when a = b -> v
    | Ast.Int_lit a, Ast.Int_lit b -> Ast.bin Ast.Add v (Ast.int_lit (a - b))
    | _ -> Ast.bin Ast.Add v (Ast.bin Ast.Sub rlo llo)
  else
    Ast.bin Ast.Add rlo
      (Ast.bin Ast.Mul (Ast.bin Ast.Div (Ast.bin Ast.Sub v llo) lst) rst)

(* Rewrite an expression elementwise: every Range in a reference to a known
   array is replaced positionally using the lhs section descriptors; bare
   Vars naming arrays become fully-indexed references.  Transformational
   intrinsic calls are left whole. *)
let rec rewrite_elementwise env ~vars ~lhs_secs (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Int_lit _ | Ast.Real_lit _ | Ast.Log_lit _ | Ast.Str_lit _ -> e
  | Ast.Var v when is_array env v ->
      (* whole array: conforming rank required *)
      let spec = Option.get (Sema.array_spec env v) in
      if Array.length spec.Sema.sdims <> List.length vars then
        Diag.error ~loc:e.Ast.loc "array '%s' does not conform to the assignment target" v;
      Ast.ref_ ~loc:e.Ast.loc v (List.map (fun var -> Ast.Elem (Ast.var var)) vars)
  | Ast.Var _ -> e
  | Ast.Un (op, a) -> { e with Ast.e = Ast.Un (op, rewrite_elementwise env ~vars ~lhs_secs a) }
  | Ast.Bin (op, a, b) ->
      {
        e with
        Ast.e =
          Ast.Bin
            ( op,
              rewrite_elementwise env ~vars ~lhs_secs a,
              rewrite_elementwise env ~vars ~lhs_secs b );
      }
  | Ast.Ref r when is_array env r.Ast.base ->
      let next = ref 0 in
      let args =
        List.map
          (fun (sec : Ast.section) ->
            match sec with
            | Ast.Elem x -> Ast.Elem (rewrite_elementwise env ~vars ~lhs_secs x)
            | Ast.Range (rlo, _rhi, rst) ->
                let k = !next in
                incr next;
                if k >= List.length vars then
                  Diag.error ~loc:e.Ast.loc
                    "section of '%s' has more dimensions than the assignment target" r.Ast.base;
                let var = List.nth vars k in
                let llo, lst = List.nth lhs_secs k in
                let dim_idx =
                  (* position of this section in the reference *)
                  let rec count i = function
                    | [] -> i
                    | s :: _ when s == sec -> i
                    | _ :: tl -> count (i + 1) tl
                  in
                  count 0 r.Ast.args
                in
                let dlb, _ = dim_bounds env r.Ast.base dim_idx in
                let rlo = match rlo with Some x -> Some x | None -> Some (Ast.int_lit dlb) in
                Ast.Elem (mapped_index ~var ~lhs:(llo, lst) ~rhs:(rlo, rst)))
          r.Ast.args
      in
      if !next <> 0 && !next <> List.length vars then
        Diag.error ~loc:e.Ast.loc "section of '%s' does not conform to the assignment target"
          r.Ast.base;
      { e with Ast.e = Ast.Ref { r with Ast.args = args } }
  | Ast.Ref r when Intrinsic_names.is_transformational r.Ast.base -> e
  | Ast.Ref r when Intrinsic_names.is_elemental r.Ast.base ->
      let args =
        List.map
          (function
            | Ast.Elem x -> Ast.Elem (rewrite_elementwise env ~vars ~lhs_secs x)
            | Ast.Range _ ->
                Diag.error ~loc:e.Ast.loc "array section as elemental intrinsic argument")
          r.Ast.args
      in
      { e with Ast.e = Ast.Ref { r with Ast.args } }
  | Ast.Ref _ -> e

(* Does an expression mention a whole known array or an array section
   (i.e. does the assignment need forall-ization)? *)
let rec has_array_context env (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Int_lit _ | Ast.Real_lit _ | Ast.Log_lit _ | Ast.Str_lit _ -> false
  | Ast.Var v -> is_array env v
  | Ast.Un (_, a) -> has_array_context env a
  | Ast.Bin (_, a, b) -> has_array_context env a || has_array_context env b
  | Ast.Ref r when Intrinsic_names.is_transformational r.Ast.base -> false
  | Ast.Ref r ->
      List.exists
        (function Ast.Range _ -> true | Ast.Elem x -> has_array_context env x)
        r.Ast.args

let mover_call (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Ref r when Intrinsic_names.returns_array ~nargs:(List.length r.Ast.args) r.Ast.base ->
      Some r
  | _ -> None

(* Build the FORALL for an array assignment.  Returns None when the
   statement is already elemental/scalar. *)
let forallize env ~vars:counter ?(mask = None) ~loc lhs rhs =
  (* normalise the lhs to a reference with explicit sections *)
  let base, secs =
    match lhs.Ast.e with
    | Ast.Var v when is_array env v ->
        let spec = Option.get (Sema.array_spec env v) in
        (v, List.init (Array.length spec.Sema.sdims) (fun _ -> Ast.Range (None, None, None)))
    | Ast.Ref r when is_array env r.Ast.base -> (r.Ast.base, r.Ast.args)
    | _ -> ("", [])
  in
  if base = "" then None
  else begin
    let has_range = List.exists (function Ast.Range _ -> true | _ -> false) secs in
    if (not has_range) && not (has_array_context env rhs || Option.is_some mask) then None
    else begin
      (* one forall variable per lhs Range *)
      let triplets = ref [] and lhs_secs = ref [] and vars = ref [] in
      let new_args =
        List.mapi
          (fun d sec ->
            match sec with
            | Ast.Elem x -> Ast.Elem x
            | Ast.Range (lo, hi, stp) ->
                let dlb, dub = dim_bounds env base d in
                let lo = Option.value lo ~default:(Ast.int_lit dlb) in
                let hi = Option.value hi ~default:(Ast.int_lit dub) in
                let v = fresh_var counter in
                triplets := (v, { Ast.lo; hi; st = stp }) :: !triplets;
                lhs_secs := (lo, stp) :: !lhs_secs;
                vars := v :: !vars;
                Ast.Elem (Ast.var v))
          secs
      in
      let vars = List.rev !vars
      and lhs_secs = List.rev !lhs_secs
      and triplets = List.rev !triplets in
      if vars = [] then None
      else begin
        let rhs' = rewrite_elementwise env ~vars ~lhs_secs rhs in
        let mask' = Option.map (rewrite_elementwise env ~vars ~lhs_secs) mask in
        let lhs' = Ast.ref_ ~loc base new_args in
        Some
          {
            Ast.s =
              Ast.Forall (triplets, mask', [ { Ast.s = Ast.Assign (lhs', rhs'); sloc = loc } ]);
            sloc = loc;
          }
      end
    end
  end

let rec normalize_stmt env vars (st : Ast.stmt) : Ast.stmt list =
  match st.Ast.s with
  | Ast.Assign (lhs, rhs) ->
      (* whole-array intrinsic movement stays a single statement *)
      if Option.is_some (mover_call rhs) then [ st ]
      else (
        match forallize env ~vars ~loc:st.Ast.sloc lhs rhs with
        | Some f -> [ f ]
        | None -> [ st ])
  | Ast.Where (mask, body, els) ->
      let assigns_of stmts which_mask =
        List.concat_map
          (fun (s : Ast.stmt) ->
            match s.Ast.s with
            | Ast.Assign (lhs, rhs) -> (
                match forallize env ~vars ~mask:(Some which_mask) ~loc:s.Ast.sloc lhs rhs with
                | Some f -> [ f ]
                | None ->
                    Diag.error ~loc:s.Ast.sloc "WHERE body assignment is not an array assignment")
            | _ -> Diag.error ~loc:s.Ast.sloc "only assignments are allowed in WHERE")
          stmts
      in
      let neg = Ast.mk (Ast.Un (Ast.Not, mask)) in
      assigns_of body mask @ assigns_of els neg
  | Ast.Forall (triplets, mask, body) ->
      (* statement-at-a-time semantics: split multi-statement constructs *)
      List.map
        (fun (s : Ast.stmt) ->
          match s.Ast.s with
          | Ast.Assign _ -> { Ast.s = Ast.Forall (triplets, mask, [ s ]); sloc = st.Ast.sloc }
          | _ -> Diag.error ~loc:s.Ast.sloc "only assignments are allowed in FORALL")
        body
  | Ast.Do (v, r, body) -> [ { st with Ast.s = Ast.Do (v, r, normalize_body env vars body) } ]
  | Ast.While (c, body) -> [ { st with Ast.s = Ast.While (c, normalize_body env vars body) } ]
  | Ast.If (arms, els) ->
      [
        {
          st with
          Ast.s =
            Ast.If
              ( List.map (fun (c, b) -> (c, normalize_body env vars b)) arms,
                normalize_body env vars els );
        };
      ]
  | Ast.Call _ | Ast.Print _ | Ast.Return -> [ st ]

and normalize_body env vars body = List.concat_map (normalize_stmt env vars) body

let normalize_unit env body = normalize_body env (ref 0) body
