open F90d_frontend

let buf_add = Buffer.add_string

(* Substitute communicated references by their temporaries so loop bodies
   read the way the paper's generated code does. *)
let substitute_temps (f : Ir.forall) (e : Ast.expr) =
  Ast.map_expr
    (fun x ->
      match x.Ast.e with
      | Ast.Ref r -> (
          match List.assoc_opt r.Ast.rid f.Ir.f_access with
          | Some (Ir.Acc_box { temp; dims }) ->
              let args =
                Array.to_list dims
                |> List.map (function
                     | Ir.Collapsed -> Ast.Elem (Ast.int_lit 1)
                     | Ir.By_sub s -> Ast.Elem s)
              in
              Ast.ref_ (Printf.sprintf "TMP%d" temp) args
          | Some (Ir.Acc_flat { temp }) ->
              Ast.ref_ (Printf.sprintf "TMP%d" temp) [ Ast.Elem (Ast.var "COUNT") ]
          | Some (Ir.Acc_global_temp { temp }) ->
              Ast.ref_ (Printf.sprintf "TMP%d" temp) r.Ast.args
          | Some Ir.Acc_direct | None -> x)
      | _ -> x)
    e

let rec emit_comm b ind (c : Ir.comm) =
  let line s = buf_add b (ind ^ s ^ "\n") in
  match c with
  | Ir.Multicast { arr; dim; g; temp } ->
      line (Printf.sprintf "call set_DAD(%s_DAD, ...)" arr);
      line
        (Printf.sprintf "call multicast(%s, %s_DAD, TMP%d, source_proc=global_to_proc(%s), dim=%d)"
           arr arr temp (Ast.expr_str g) (dim + 1))
  | Ir.Transfer { arr; dim; src; dest; temp } ->
      line (Printf.sprintf "call set_DAD(%s_DAD, ...)" arr);
      line
        (Printf.sprintf
           "call transfer(%s, %s_DAD, TMP%d, source=global_to_proc(%s), dest=global_to_proc(%s), dim=%d)"
           arr arr temp (Ast.expr_str src) (Ast.expr_str dest) (dim + 1))
  | Ir.Overlap_shift { arr; dim; amount } ->
      line (Printf.sprintf "call overlap_shift(%s, %s_DAD, width=%d, dim=%d)" arr arr amount (dim + 1))
  | Ir.Temp_shift { arr; dim; amount; temp } ->
      line
        (Printf.sprintf "call temporary_shift(%s, %s_DAD, TMP%d, shift=%s, dim=%d)" arr arr temp
           (Ast.expr_str amount) (dim + 1))
  | Ir.Multicast_shift { ms_arr; mdim; ms_g; sdim; ms_amount; ms_temp; fused } ->
      if fused then
        line
          (Printf.sprintf
             "call multicast_shift(%s, %s_DAD, TMP%d, source=global_to_proc(%s), shift=%s, multicast_dim=%d, shift_dim=%d)"
             ms_arr ms_arr ms_temp (Ast.expr_str ms_g) (Ast.expr_str ms_amount) (mdim + 1)
             (sdim + 1))
      else begin
        line
          (Printf.sprintf "call temporary_shift(%s, %s_DAD, TMPS, shift=%s, dim=%d)" ms_arr ms_arr
             (Ast.expr_str ms_amount) (sdim + 1));
        line
          (Printf.sprintf "call multicast(TMPS, %s_DAD, TMP%d, source_proc=global_to_proc(%s), dim=%d)"
             ms_arr ms_temp (Ast.expr_str ms_g) (mdim + 1))
      end
  | Ir.Concat { arr; temp } ->
      line (Printf.sprintf "call concatenation(%s, %s_DAD, TMP%d)" arr arr temp)
  | Ir.Precomp_read { r; itemp; key } ->
      let sched = match key with Some k -> Printf.sprintf "isch('%s')" k | None -> "isch" in
      line "C     inspector (schedule1: local preprocessing only)";
      List.iteri
        (fun i s ->
          match s with
          | Ast.Elem e ->
              line
                (Printf.sprintf "C       dim %d subscript: %s (invertible)" (i + 1)
                   (Ast.expr_str e))
          | Ast.Range _ -> ())
        r.Ast.args;
      (match key with
      | Some _ -> line (Printf.sprintf "if (.not. cached(%s)) %s = schedule1(...)" sched sched)
      | None -> line (Printf.sprintf "%s = schedule1(receive_list, send_list, local_list, count)" sched));
      line (Printf.sprintf "call precomp_read(%s, TMP%d, %s)" sched itemp r.Ast.base)
  | Ir.Gather_read { r; itemp; key } ->
      let sched = match key with Some k -> Printf.sprintf "isch('%s')" k | None -> "isch" in
      line "C     inspector (schedule2: preprocessing communicates)";
      (match key with
      | Some _ -> line (Printf.sprintf "if (.not. cached(%s)) %s = schedule2(...)" sched sched)
      | None -> line (Printf.sprintf "%s = schedule2(receive_list, local_list, count)" sched));
      line (Printf.sprintf "call gather(%s, TMP%d, %s)" sched itemp r.Ast.base)
  | Ir.Comm_batch members ->
      line
        (Printf.sprintf "C     coalesced: %d messages packed into one per processor pair"
           (List.length members));
      List.iter (fun (m : Ir.hoisted) -> emit_comm b (ind ^ "  ") m.Ir.hc) members

(* continuation labels for processor-masking gotos, unique per statement:
   [labels] counts the FORALLs emitted so far in the unit *)
let emit_forall b labels ind (f : Ir.forall) =
  let line s = buf_add b (ind ^ s ^ "\n") in
  incr labels;
  let label = 100 + (10 * !labels) in
  let vars = f.Ir.f_vars in
  line
    (Printf.sprintf "C --- FORALL (%s) %s = ... ---"
       (String.concat ", "
          (List.map
             (fun (v, (r : Ast.range)) ->
               Printf.sprintf "%s=%s:%s%s" v (Ast.expr_str r.Ast.lo) (Ast.expr_str r.Ast.hi)
                 (match r.Ast.st with Some s -> ":" ^ Ast.expr_str s | None -> ""))
             vars))
       f.Ir.f_lhs.Ast.base);
  (* communication phase *)
  List.iter (emit_comm b ind) f.Ir.f_pre;
  (* set_BOUND per variable *)
  List.iteri
    (fun k (v, (r : Ast.range)) ->
      let dist =
        match f.Ir.f_iter with
        | Ir.It_canonical { var_dims; _ } -> (
            match List.assoc_opt v var_dims with
            | Some (Some d) -> Printf.sprintf "DIST(%s,dim=%d)" f.Ir.f_lhs.Ast.base (d + 1)
            | _ -> "REPLICATED")
        | Ir.It_even -> if k = 0 then "EVEN" else "REPLICATED"
        | Ir.It_replicated -> "REPLICATED"
      in
      line
        (Printf.sprintf "call set_BOUND(lb%d, ub%d, st%d, %s, %s, %s, %s)" (k + 1) (k + 1) (k + 1)
           (Ast.expr_str r.Ast.lo) (Ast.expr_str r.Ast.hi)
           (match r.Ast.st with Some s -> Ast.expr_str s | None -> "1")
           dist))
    vars;
  (match f.Ir.f_iter with
  | Ir.It_canonical { guards; _ } ->
      List.iter
        (fun (d, e) ->
          line
            (Printf.sprintf "if (.not. my_proc_owns(%s, dim=%d, %s)) goto %d" f.Ir.f_lhs.Ast.base
               (d + 1) (Ast.expr_str e) label))
        guards
  | _ -> ());
  (if f.Ir.f_post <> None then line "COUNT = 1");
  let uses_count =
    List.exists (fun (_, a) -> match a with Ir.Acc_flat _ -> true | _ -> false) f.Ir.f_access
  in
  if uses_count && f.Ir.f_post = None then line "COUNT = 1";
  (* loop nest *)
  List.iteri
    (fun k (v, _) -> line (Printf.sprintf "%sDO %s = lb%d, ub%d, st%d" (String.make (2 * k) ' ') v (k + 1) (k + 1) (k + 1)))
    vars;
  let inner = String.make (2 * List.length vars) ' ' in
  let body_line s = line (inner ^ s) in
  let rhs = substitute_temps f f.Ir.f_rhs in
  (match f.Ir.f_mask with
  | Some m -> body_line (Printf.sprintf "if (%s) then" (Ast.expr_str (substitute_temps f m)))
  | None -> ());
  (match f.Ir.f_post with
  | None ->
      body_line
        (Printf.sprintf "%s(%s) = %s" f.Ir.f_lhs.Ast.base
           (String.concat ","
              (List.map
                 (function Ast.Elem e -> Ast.expr_str e | Ast.Range _ -> ":")
                 f.Ir.f_lhs.Ast.args))
           (Ast.expr_str rhs))
  | Some _ ->
      body_line (Printf.sprintf "values(COUNT) = %s" (Ast.expr_str rhs));
      body_line
        (Printf.sprintf "send_list(COUNT) = global_to_proc(%s)"
           (String.concat ","
              (List.map
                 (function Ast.Elem e -> Ast.expr_str e | Ast.Range _ -> ":")
                 f.Ir.f_lhs.Ast.args))));
  if uses_count || f.Ir.f_post <> None then body_line "COUNT = COUNT + 1";
  (match f.Ir.f_mask with Some _ -> body_line "end if" | None -> ());
  List.iteri
    (fun k _ ->
      let k' = List.length vars - 1 - k in
      line (Printf.sprintf "%sEND DO" (String.make (2 * k') ' ')))
    vars;
  (match f.Ir.f_post with
  | Some (Ir.Postcomp_write _) ->
      line "isch3 = schedule1(send_list, local_list, count)";
      line (Printf.sprintf "call postcomp_write(isch3, %s, values)" f.Ir.f_lhs.Ast.base)
  | Some (Ir.Scatter_write _) ->
      line "isch3 = schedule3(send_list, local_list, count)";
      line (Printf.sprintf "call scatter(isch3, %s, values)" f.Ir.f_lhs.Ast.base)
  | None -> ());
  line (Printf.sprintf "%d   continue" label)

let rec emit_stmt b labels ind (s : Ir.stmt) =
  let line str = buf_add b (ind ^ str ^ "\n") in
  match s.Ir.s with
  | Ir.Forall f -> emit_forall b labels ind f
  | Ir.Scalar_assign { name; rhs } -> line (Printf.sprintf "%s = %s" name (Ast.expr_str rhs))
  | Ir.Element_assign { lhs; rhs } ->
      line
        (Printf.sprintf "if (my_proc_owns(%s)) %s(%s) = %s" lhs.Ast.base lhs.Ast.base
           (String.concat ","
              (List.map (function Ast.Elem e -> Ast.expr_str e | Ast.Range _ -> ":") lhs.Ast.args))
           (Ast.expr_str rhs))
  | Ir.Mover { target; call } ->
      line
        (Printf.sprintf "call rt_%s(%s, %s)" (String.lowercase_ascii call.Ast.base) target
           (String.concat ","
              (List.map
                 (function Ast.Elem e -> Ast.expr_str e | Ast.Range _ -> ":")
                 call.Ast.args)))
  | Ir.Do_loop { var; range; body } ->
      line
        (Printf.sprintf "DO %s = %s, %s%s" var (Ast.expr_str range.Ast.lo)
           (Ast.expr_str range.Ast.hi)
           (match range.Ast.st with Some s -> ", " ^ Ast.expr_str s | None -> ""));
      List.iter (emit_stmt b labels (ind ^ "  ")) body;
      line "END DO"
  | Ir.While_loop { cond; body } ->
      line (Printf.sprintf "DO WHILE (%s)" (Ast.expr_str cond));
      List.iter (emit_stmt b labels (ind ^ "  ")) body;
      line "END DO"
  | Ir.If_block { arms; els } ->
      List.iteri
        (fun i (c, body) ->
          line (Printf.sprintf "%sIF (%s) THEN" (if i = 0 then "" else "ELSE ") (Ast.expr_str c));
          List.iter (emit_stmt b labels (ind ^ "  ")) body)
        arms;
      if els <> [] then begin
        line "ELSE";
        List.iter (emit_stmt b labels (ind ^ "  ")) els
      end;
      line "END IF"
  | Ir.Call_sub { sub; args } ->
      line "C     dummy/actual distributions may differ: redistribute on entry/exit";
      line
        (Printf.sprintf "call %s(%s)" sub (String.concat ", " (List.map Ast.expr_str args)))
  | Ir.Print_stmt args ->
      line (Printf.sprintf "print *, %s" (String.concat ", " (List.map Ast.expr_str args)))
  | Ir.Return_stmt -> line "return"
  | Ir.Comm_block { cb_members; cb_guard; cb_loop } ->
      line (Printf.sprintf "C --- loop-invariant communication hoisted out of %s ---" cb_loop);
      let guard =
        match cb_guard with
        | Ir.Guard_do (r : Ast.range) ->
            Printf.sprintf "trip_count(%s, %s, %s) .gt. 0" (Ast.expr_str r.Ast.lo)
              (Ast.expr_str r.Ast.hi)
              (match r.Ast.st with Some s -> Ast.expr_str s | None -> "1")
        | Ir.Guard_while cond -> Ast.expr_str cond
      in
      line (Printf.sprintf "if (%s) then" guard);
      List.iter (fun { Ir.hc; _ } -> emit_comm b (ind ^ "  ") hc) cb_members;
      line "end if"
  | Ir.Comm_issue { sp_hid; sp_comm; sp_guard } ->
      line "C --- split-phase: issue (nonblocking) half ---";
      emit_split_guarded b ind sp_guard (fun ind ->
          let line str = buf_add b (ind ^ str ^ "\n") in
          (match sp_comm.Ir.hc with
          | Ir.Multicast { arr; dim; g; temp } ->
              line
                (Printf.sprintf
                   "call multicast_issue(H%d, %s, %s_DAD, TMP%d, source_proc=global_to_proc(%s), dim=%d)"
                   sp_hid arr arr temp (Ast.expr_str g) (dim + 1))
          | c -> emit_comm b ind c))
  | Ir.Comm_wait { sp_hid; sp_comm = _; sp_guard } ->
      line "C --- split-phase: wait (completion) half ---";
      emit_split_guarded b ind sp_guard (fun ind ->
          let line str = buf_add b (ind ^ str ^ "\n") in
          line (Printf.sprintf "call comm_wait(H%d)" sp_hid))

and emit_split_guarded b ind guard body =
  let line str = buf_add b (ind ^ str ^ "\n") in
  match guard with
  | Ir.Sg_always -> body ind
  | Ir.Sg_trip (r : Ast.range) ->
      line
        (Printf.sprintf "if (trip_count(%s, %s, %s) .gt. 0) then" (Ast.expr_str r.Ast.lo)
           (Ast.expr_str r.Ast.hi)
           (match r.Ast.st with Some s -> Ast.expr_str s | None -> "1"));
      body (ind ^ "  ");
      line "end if"
  | Ir.Sg_next { var; range = (r : Ast.range) } ->
      let st = match r.Ast.st with Some s -> Ast.expr_str s | None -> "1" in
      line (Printf.sprintf "if (has_next(%s, %s, %s)) then" var (Ast.expr_str r.Ast.hi) st);
      body (ind ^ "  ");
      line "end if"

let emit_unit (u : Ir.unit_ir) =
  let b = Buffer.create 1024 and labels = ref 0 in
  buf_add b (Printf.sprintf "C === SPMD node program for unit %s ===\n" u.Ir.u_name);
  buf_add b "C     generated Fortran 77 + message passing (paper-style)\n";
  List.iter
    (fun (arr, dim, lo, hi) ->
      buf_add b
        (Printf.sprintf "C     overlap area: %s dim %d  ghost_lo=%d ghost_hi=%d\n" arr (dim + 1) lo hi))
    u.Ir.u_ghosts;
  List.iter (emit_stmt b labels "      ") u.Ir.u_body;
  buf_add b "      END\n";
  Buffer.contents b

let emit_program (p : Ir.program_ir) =
  String.concat "\n" (List.map (fun (_, u) -> emit_unit u) p.Ir.p_units)
