open F90d_base
open F90d_frontend
open F90d_commdet
open F90d_ir

(* Counters are per call, never process-global, so concurrent compiles
   cannot interleave on them. *)
let next counter =
  incr counter;
  !counter

(* Per-unit lowering state.  Temporary ids are unique within the unit.
   Statement ids are program-unique, allocated in emission order (outer
   statement before its body): [sids] is shared by every unit of one
   program.  sid 0 is reserved for "<runtime>" — code executing outside
   any statement. *)
type acc = {
  uname : string;
  temps : int ref;
  sids : int ref;
  mutable prov : Ir.prov list;  (* reversed *)
  mutable explain : Ir.explain list;  (* reversed *)
}

let new_sid acc ~loc ~desc =
  let sid = next acc.sids in
  acc.prov <- { Ir.pv_sid = sid; pv_loc = loc; pv_unit = acc.uname; pv_desc = desc } :: acc.prov;
  sid

let render_ref (r : Ast.ref_) = Ast.expr_str (Ast.mk (Ast.Ref r))

let truncate n s = if String.length s <= n then s else String.sub s 0 (n - 3) ^ "..."

let form_name = function
  | Ast.Dblock -> "BLOCK"
  | Ast.Dcyclic -> "CYCLIC"
  | Ast.Dcyclic_k k -> Printf.sprintf "CYCLIC(%d)" k
  | Ast.Dstar -> "*"

(* One distribution-facts line per array: the DAD contents the explain
   report shows next to each decision. *)
let dist_fact env name =
  match Sema.array_spec env name with
  | None -> Printf.sprintf "%s: not an array" name
  | Some spec ->
      let exts =
        spec.Sema.sdims |> Array.to_list
        |> List.map (fun (sd : Sema.sdim) -> string_of_int sd.Sema.sext)
        |> String.concat "x"
      in
      if not (Sema.is_distributed spec) then
        Printf.sprintf "%s(%s): replicated (no DISTRIBUTE)" name exts
      else
        let dims =
          spec.Sema.sdims |> Array.to_list
          |> List.map (fun (sd : Sema.sdim) ->
                 match sd.Sema.spdim with
                 | None -> "*"
                 | Some p ->
                     let align =
                       if Affine.is_identity sd.Sema.salign then ""
                       else Format.asprintf " align %a" Affine.pp sd.Sema.salign
                     in
                     Printf.sprintf "%s on grid dim %d%s" (form_name sd.Sema.sform) (p + 1)
                       align)
          |> String.concat ", "
        in
        Printf.sprintf "%s(%s): (%s)" name exts dims

(* Accesses for the dimensions of a structured temporary: broadcast and
   transferred dimensions collapse to extent 1; shifted dimensions keep the
   owned extent and are indexed by the local position of their FORALL
   variable (the shift is baked into the slab); untouched dimensions carry
   their own subscript expression, re-evaluated per iteration point. *)
let box_dims subs classes tags =
  Array.mapi
    (fun d tag ->
      match (tag, classes.(d)) with
      | (Pattern.Multicast _ | Pattern.Transfer _), _ -> Ir.Collapsed
      | Pattern.Temp_shift _, (Subscript.Var_const (v, _) | Subscript.Var_scalar (v, _)) ->
          Ir.By_sub (Ast.var v)
      | _, _ -> Ir.By_sub subs.(d))
    tags

let lower_ref env ~temps ~vars (r : Ast.ref_) (plan : Pattern.ref_plan) =
  let var_names = List.map fst vars in
  let lookup v = List.assoc_opt v env.Sema.uparams in
  let is_int_array n =
    match Sema.array_spec env n with Some s -> s.Sema.skind = Ast.Integer | None -> false
  in
  let classes =
    List.map
      (fun (s : Ast.section) ->
        match s with
        | Ast.Elem e -> Subscript.classify ~vars:var_names ~is_const:lookup ~is_int_array e
        | Ast.Range _ -> Diag.bug "lower: section survived normalization")
      r.Ast.args
    |> Array.of_list
  in
  let subs =
    List.map
      (function
        | Ast.Elem e -> e
        | Ast.Range _ -> Diag.bug "lower: section survived normalization")
      r.Ast.args
    |> Array.of_list
  in
  let box_dims classes tags = box_dims subs classes tags in
  match plan with
  | Pattern.Direct -> ([], [ (r.Ast.rid, Ir.Acc_direct) ], [])
  | Pattern.Precomp_read ->
      let t = next temps in
      ([ Ir.Precomp_read { r; itemp = t; key = None } ], [ (r.Ast.rid, Ir.Acc_flat { temp = t }) ], [])
  | Pattern.Gather ->
      let t = next temps in
      ([ Ir.Gather_read { r; itemp = t; key = None } ], [ (r.Ast.rid, Ir.Acc_flat { temp = t }) ], [])
  | Pattern.Concat ->
      let t = next temps in
      ([ Ir.Concat { arr = r.Ast.base; temp = t } ], [ (r.Ast.rid, Ir.Acc_global_temp { temp = t }) ], [])
  | Pattern.Structured tags ->
      let comm_dims =
        Array.to_list (Array.mapi (fun d t -> (d, t)) tags)
        |> List.filter_map (fun (d, tag) ->
               match tag with
               | Pattern.Multicast _ | Pattern.Transfer _ | Pattern.Overlap _
               | Pattern.Temp_shift _ ->
                   Some d
               | Pattern.No_comm | Pattern.Local_dim -> None)
      in
      (match comm_dims with
      | [] -> ([], [ (r.Ast.rid, Ir.Acc_direct) ], [])
      | [ d ] -> (
          match tags.(d) with
          | Pattern.Overlap c ->
              let ghost = if c > 0 then (r.Ast.base, d, 0, c) else (r.Ast.base, d, -c, 0) in
              ( [ Ir.Overlap_shift { arr = r.Ast.base; dim = d; amount = c } ],
                [ (r.Ast.rid, Ir.Acc_direct) ],
                [ ghost ] )
          | Pattern.Multicast g ->
              let t = next temps in
              ( [ Ir.Multicast { arr = r.Ast.base; dim = d; g; temp = t } ],
                [ (r.Ast.rid, Ir.Acc_box { temp = t; dims = box_dims classes tags }) ],
                [] )
          | Pattern.Transfer { src; dest } ->
              let t = next temps in
              ( [ Ir.Transfer { arr = r.Ast.base; dim = d; src; dest; temp = t } ],
                [ (r.Ast.rid, Ir.Acc_box { temp = t; dims = box_dims classes tags }) ],
                [] )
          | Pattern.Temp_shift s ->
              let t = next temps in
              ( [ Ir.Temp_shift { arr = r.Ast.base; dim = d; amount = s; temp = t } ],
                [ (r.Ast.rid, Ir.Acc_box { temp = t; dims = box_dims classes tags }) ],
                [] )
          | Pattern.No_comm | Pattern.Local_dim -> Diag.bug "lower: no-comm dim counted as comm")
      | [ d1; d2 ] -> (
          (* the fusable pair: one multicast + one shift *)
          match (tags.(d1), tags.(d2)) with
          | Pattern.Multicast g, Pattern.Temp_shift s ->
              let t = next temps in
              ( [ Ir.Multicast_shift
                    { ms_arr = r.Ast.base; mdim = d1; ms_g = g; sdim = d2; ms_amount = s; ms_temp = t; fused = true } ],
                [ (r.Ast.rid, Ir.Acc_box { temp = t; dims = box_dims classes tags }) ],
                [] )
          | Pattern.Temp_shift s, Pattern.Multicast g ->
              let t = next temps in
              ( [ Ir.Multicast_shift
                    { ms_arr = r.Ast.base; mdim = d2; ms_g = g; sdim = d1; ms_amount = s; ms_temp = t; fused = true } ],
                [ (r.Ast.rid, Ir.Acc_box { temp = t; dims = box_dims classes tags }) ],
                [] )
          | _ ->
              (* other double-communication patterns: inspector fallback *)
              let t = next temps in
              ( [ Ir.Precomp_read { r; itemp = t; key = None } ],
                [ (r.Ast.rid, Ir.Acc_flat { temp = t }) ],
                [] ))
      | _ ->
          let t = next temps in
          ( [ Ir.Precomp_read { r; itemp = t; key = None } ],
            [ (r.Ast.rid, Ir.Acc_flat { temp = t }) ],
            [] ))

(* Structural equality of subscript expressions, ignoring locations and
   reference ids: decides whether an rhs read of the lhs array touches
   exactly the element being written. *)
let rec same_expr (a : Ast.expr) (b : Ast.expr) =
  match (a.Ast.e, b.Ast.e) with
  | Ast.Int_lit x, Ast.Int_lit y -> x = y
  | Ast.Real_lit x, Ast.Real_lit y -> x = y
  | Ast.Log_lit x, Ast.Log_lit y -> x = y
  | Ast.Str_lit x, Ast.Str_lit y -> x = y
  | Ast.Var x, Ast.Var y -> x = y
  | Ast.Un (o1, x), Ast.Un (o2, y) -> o1 = o2 && same_expr x y
  | Ast.Bin (o1, x1, y1), Ast.Bin (o2, x2, y2) -> o1 = o2 && same_expr x1 x2 && same_expr y1 y2
  | Ast.Ref r1, Ast.Ref r2 ->
      r1.Ast.base = r2.Ast.base
      && List.length r1.Ast.args = List.length r2.Ast.args
      && List.for_all2 same_section r1.Ast.args r2.Ast.args
  | _ -> false

and same_section (a : Ast.section) (b : Ast.section) =
  match (a, b) with
  | Ast.Elem x, Ast.Elem y -> same_expr x y
  | Ast.Range (a1, b1, c1), Ast.Range (a2, b2, c2) ->
      let opt x y = match (x, y) with
        | None, None -> true
        | Some x, Some y -> same_expr x y
        | _ -> false
      in
      opt a1 a2 && opt b1 b2 && opt c1 c2
  | _ -> false

let same_subscripts (a : Ast.ref_) (b : Ast.ref_) =
  List.length a.Ast.args = List.length b.Ast.args
  && List.for_all2 same_section a.Ast.args b.Ast.args

(* Does the loop need a pre-loop snapshot of the lhs local section?  Only
   Acc_direct reads are hazardous: every other access path reads a
   temporary filled during pre-communication, i.e. before any store.
   Reads with the exact lhs subscript are safe — each iteration reads its
   own element strictly before writing it.  A read with a different
   subscript is still safe when one dimension provably separates every
   write from every read: the lhs subscript there is a bare loop
   variable (so it takes exactly the iterated values, all within
   [lo, hi]), the read's subscript is loop-invariant, and the invariant
   value lies strictly outside the variable's bounds (gauss's update
   writes A(I,J), I = K+1..N while reading A(K,J)). *)
let needs_snapshot (f : Ir.forall) =
  let direct (r : Ast.ref_) =
    match List.assoc_opt r.Ast.rid f.Ir.f_access with
    | None | Some Ir.Acc_direct -> true
    | Some _ -> false
  in
  let var_names = List.map fst f.Ir.f_vars in
  let invariant e = List.for_all (fun v -> not (List.mem v var_names)) (Ast.vars_of e) in
  let never_equal (ri : Ast.range) e =
    (* with an ascending range the iterated values satisfy
       lo <= v <= hi, so either bound strictly beyond [e] separates;
       mirrored for a descending literal step *)
    let ascending =
      match ri.Ast.st with
      | None -> true
      | Some { Ast.e = Ast.Int_lit n; _ } -> n > 0
      | Some _ -> false
    in
    let descending =
      match ri.Ast.st with Some { Ast.e = Ast.Int_lit n; _ } -> n < 0 | _ -> false
    in
    let lo = Linear.const_diff ri.Ast.lo e and hi = Linear.const_diff ri.Ast.hi e in
    let gt = function Some d -> d > 0 | None -> false in
    let lt = function Some d -> d < 0 | None -> false in
    (ascending && (gt lo || lt hi)) || (descending && (lt lo || gt hi))
  in
  let separated_dim (la : Ast.section) (ra : Ast.section) =
    match (la, ra) with
    | Ast.Elem { Ast.e = Ast.Var i; _ }, Ast.Elem e -> (
        match List.assoc_opt i f.Ir.f_vars with
        | Some ri -> invariant e && never_equal ri e
        | None -> false)
    | _ -> false
  in
  let provably_disjoint (r : Ast.ref_) =
    List.length r.Ast.args = List.length f.Ir.f_lhs.Ast.args
    && List.exists2 separated_dim f.Ir.f_lhs.Ast.args r.Ast.args
  in
  let hazardous (r : Ast.ref_) =
    r.Ast.base = f.Ir.f_lhs.Ast.base && direct r
    && not (same_subscripts r f.Ir.f_lhs)
    && not (provably_disjoint r)
  in
  let refs =
    Ast.refs_of f.Ir.f_rhs
    @ (match f.Ir.f_mask with Some m -> Ast.refs_of m | None -> [])
    @ List.concat_map
        (function Ast.Elem e -> Ast.refs_of e | Ast.Range _ -> [])
        f.Ir.f_lhs.Ast.args
  in
  List.exists hazardous refs

let lower_forall_plan env ~temps ~vars ~mask ~lhs ~rhs =
  let plan = Pattern.analyze_forall env ~vars ~mask ~lhs ~rhs in
  let iter, post =
    match plan.Pattern.lhs with
    | Pattern.Lhs_canonical { var_dims; guards } ->
        (Ir.It_canonical { var_dims; guards }, None)
    | Pattern.Lhs_replicated -> (Ir.It_replicated, None)
    | Pattern.Lhs_postcomp -> (Ir.It_even, Some (Ir.Postcomp_write { key = None }))
    | Pattern.Lhs_scatter -> (Ir.It_even, Some (Ir.Scatter_write { key = None }))
  in
  (* inspector ops (Precomp/Gather) evaluate their ref's subscripts, which
     may read indirection arrays through comm temporaries of their own
     (e.g. V in A(V(I))) — order the refs innermost-first so every
     subscript's temporary is populated before an op depends on it *)
  let rec ref_depth (r : Ast.ref_) =
    1
    + List.fold_left
        (fun acc s ->
          match s with
          | Ast.Elem e ->
              List.fold_left (fun a ri -> max a (ref_depth ri)) acc (Ast.refs_of e)
          | Ast.Range _ -> acc)
        0 r.Ast.args
  in
  let refs =
    List.stable_sort
      (fun ((a : Ast.ref_), _) ((b : Ast.ref_), _) -> compare (ref_depth a) (ref_depth b))
      plan.Pattern.refs
  in
  let pre, accesses, ghosts =
    List.fold_left
      (fun (pre, accs, ghosts) (r, rplan) ->
        let p, a, g = lower_ref env ~temps ~vars r rplan in
        (pre @ p, accs @ a, ghosts @ g))
      ([], [], []) refs
  in
  let f =
    {
      Ir.f_vars = vars;
      f_mask = mask;
      f_lhs = plan.Pattern.lhs_ref;
      f_rhs = rhs;
      f_iter = iter;
      f_pre = pre;
      f_access = accesses;
      f_post = post;
      f_snapshot = false;
    }
  in
  ({ f with Ir.f_snapshot = needs_snapshot f }, ghosts, plan)

let iter_name = function
  | Ir.It_canonical _ -> "canonical (owner computes)"
  | Ir.It_even -> "even iteration partition"
  | Ir.It_replicated -> "replicated"

let post_name = function
  | Ir.Postcomp_write _ -> "postcomp_write"
  | Ir.Scatter_write _ -> "scatter_write"

(* Explain record for a lowered FORALL: the Pattern decision trail plus
   the DAD facts of every array it touches. *)
let explain_forall acc env ~sid ~loc ~vars (f : Ir.forall) (plan : Pattern.plan) =
  let arrays =
    (f.Ir.f_lhs.Ast.base :: List.map (fun ((r : Ast.ref_), _) -> r.Ast.base) plan.Pattern.refs)
    |> List.sort_uniq compare
  in
  let x =
    {
      Ir.x_sid = sid;
      x_loc = loc;
      x_unit = acc.uname;
      x_stmt =
        Printf.sprintf "FORALL (%s) %s = %s"
          (String.concat "," (List.map fst vars))
          (render_ref f.Ir.f_lhs)
          (truncate 60 (Ast.expr_str f.Ir.f_rhs));
      x_lhs = f.Ir.f_lhs.Ast.base;
      x_iter = iter_name f.Ir.f_iter;
      x_iter_why = plan.Pattern.lhs_why;
      x_dist = List.map (dist_fact env) arrays;
      x_refs =
        List.map
          (fun ((r : Ast.ref_), rplan) ->
            {
              Ir.xr_ref = render_ref r;
              xr_plan = Pattern.plan_name rplan;
              xr_why =
                Option.value (List.assoc_opt r.Ast.rid plan.Pattern.ref_whys) ~default:[];
            })
          plan.Pattern.refs;
      x_comms = List.map Ir.comm_name f.Ir.f_pre;
      x_post = Option.map post_name f.Ir.f_post;
    }
  in
  acc.explain <- x :: acc.explain

let explain_mover acc env ~sid ~loc ~target (call : Ast.ref_) =
  let arg_arrays =
    List.filter_map
      (function
        | Ast.Elem { Ast.e = Ast.Ref r; _ } when Sema.array_spec env r.Ast.base <> None ->
            Some r.Ast.base
        | _ -> None)
      call.Ast.args
  in
  let x =
    {
      Ir.x_sid = sid;
      x_loc = loc;
      x_unit = acc.uname;
      x_stmt = Printf.sprintf "%s = %s" target (truncate 60 (render_ref call));
      x_lhs = target;
      x_iter = "intrinsic mover";
      x_iter_why =
        Printf.sprintf
          "whole-array movement intrinsic %s: the run-time mover picks the transfer \
           pattern from the argument DADs"
          (String.uppercase_ascii call.Ast.base);
      x_dist = List.map (dist_fact env) (List.sort_uniq compare (target :: arg_arrays));
      x_refs = [];
      x_comms = [ "mover " ^ String.lowercase_ascii call.Ast.base ];
      x_post = None;
    }
  in
  acc.explain <- x :: acc.explain

let rec lower_stmt env acc ghosts (st : Ast.stmt) : Ir.stmt list =
  let loc = st.Ast.sloc in
  (* Allocate the statement's sid before lowering any nested body so sids
     read in source order: outer statement, then its body. *)
  let stmt ~desc node = { Ir.sid = new_sid acc ~loc ~desc; sloc = loc; s = node } in
  match st.Ast.s with
  | Ast.Assign (({ Ast.e = Ast.Var v; _ } as _lhs), rhs) -> (
      match Normalize.mover_call rhs with
      | Some call ->
          if Sema.array_spec env v = None then
            Diag.error ~loc:st.Ast.sloc "intrinsic '%s' must be assigned to an array"
              call.Ast.base;
          let sid = new_sid acc ~loc ~desc:(Printf.sprintf "%s = %s(...)" v call.Ast.base) in
          explain_mover acc env ~sid ~loc ~target:v call;
          [ { Ir.sid; sloc = loc; s = Ir.Mover { target = v; call } } ]
      | None ->
          if Sema.array_spec env v <> None then
            Diag.error ~loc:st.Ast.sloc "unexpected whole-array assignment after normalization";
          [ stmt ~desc:(v ^ " = ...") (Ir.Scalar_assign { name = v; rhs }) ])
  | Ast.Assign (({ Ast.e = Ast.Ref r; _ } as _lhs), rhs) ->
      if Sema.array_spec env r.Ast.base = None then
        Diag.error ~loc:st.Ast.sloc "assignment to undeclared array '%s'" r.Ast.base;
      if Option.is_some (Normalize.mover_call rhs) then
        Diag.error ~loc:st.Ast.sloc "movement intrinsics must target a whole array";
      [ stmt ~desc:(render_ref r ^ " = ...") (Ir.Element_assign { lhs = r; rhs }) ]
  | Ast.Assign _ -> Diag.error ~loc:st.Ast.sloc "invalid assignment target"
  | Ast.Forall (vars, mask, [ { Ast.s = Ast.Assign (lhs, rhs); _ } ]) ->
      let f, g, plan = lower_forall_plan env ~temps:acc.temps ~vars ~mask ~lhs ~rhs in
      ghosts := g @ !ghosts;
      let sid = new_sid acc ~loc ~desc:("forall " ^ f.Ir.f_lhs.Ast.base) in
      explain_forall acc env ~sid ~loc ~vars f plan;
      [ { Ir.sid; sloc = loc; s = Ir.Forall f } ]
  | Ast.Forall _ -> Diag.error ~loc:st.Ast.sloc "FORALL bodies must be single assignments here"
  | Ast.Where _ -> Diag.bug "lower: WHERE survived normalization"
  | Ast.Do (var, range, body) ->
      let sid = new_sid acc ~loc ~desc:("do " ^ var) in
      [ { Ir.sid; sloc = loc; s = Ir.Do_loop { var; range; body = lower_body env acc ghosts body } } ]
  | Ast.While (cond, body) ->
      let sid = new_sid acc ~loc ~desc:"do while" in
      [ { Ir.sid; sloc = loc; s = Ir.While_loop { cond; body = lower_body env acc ghosts body } } ]
  | Ast.If (arms, els) ->
      let sid = new_sid acc ~loc ~desc:"if" in
      [
        {
          Ir.sid;
          sloc = loc;
          s =
            Ir.If_block
              {
                arms = List.map (fun (c, b) -> (c, lower_body env acc ghosts b)) arms;
                els = lower_body env acc ghosts els;
              };
        };
      ]
  | Ast.Call (sub, args) -> [ stmt ~desc:("call " ^ sub) (Ir.Call_sub { sub; args }) ]
  | Ast.Print args -> [ stmt ~desc:"print" (Ir.Print_stmt args) ]
  | Ast.Return -> [ stmt ~desc:"return" Ir.Return_stmt ]

and lower_body env acc ghosts body = List.concat_map (lower_stmt env acc ghosts) body

let lower_unit env ~sids =
  let uname = env.Sema.usub.Ast.pname in
  let acc = { uname; temps = ref 0; sids; prov = []; explain = [] } in
  let normalized = Normalize.normalize_unit env env.Sema.usub.Ast.body in
  let ghosts = ref [] in
  let body = lower_body env acc ghosts normalized in
  (* consolidate ghost requirements: widest wins per (array, dim) *)
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (arr, dim, lo, hi) ->
      let k = (arr, dim) in
      let lo0, hi0 = Option.value (Hashtbl.find_opt tbl k) ~default:(0, 0) in
      Hashtbl.replace tbl k (max lo lo0, max hi hi0))
    !ghosts;
  let u_ghosts = Hashtbl.fold (fun (arr, dim) (lo, hi) acc -> (arr, dim, lo, hi) :: acc) tbl [] in
  (* The epilogue sid attributes end-of-unit communication (final-value
     gather, argument copy-back) to the unit header's source line. *)
  let u_epilogue =
    {
      Ir.pv_sid = next sids;
      pv_loc = env.Sema.usub.Ast.ploc;
      pv_unit = uname;
      pv_desc = "epilogue (finals gather / copy-back)";
    }
  in
  {
    Ir.u_name = uname;
    u_env = env;
    u_body = body;
    u_ghosts;
    u_ntemps = !(acc.temps) + 1;
    u_prov = List.rev acc.prov;
    u_explain = List.rev acc.explain;
    u_epilogue;
  }

let lower_program (penv : Sema.program_env) =
  let sids = ref 0 in
  let units = List.map (fun (name, uenv) -> (name, lower_unit uenv ~sids)) penv.Sema.uunits in
  { Ir.p_env = penv; p_units = units }
