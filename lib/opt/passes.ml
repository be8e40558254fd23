open F90d_frontend
open F90d_ir

type flags = {
  shift_union : bool;
  fuse_mshift : bool;
  schedule_reuse : bool;
  hoist_comm : bool;
  coalesce : bool;
  split_comm : bool;
  lookahead : bool;  (* only effective when split_comm is on *)
  blocked_kernels : bool;
      (* execution strategy, not an IR pass: [apply] ignores it, the
         runtime reads it to enable the blocked node-kernel layer *)
}

let all_on =
  {
    shift_union = true;
    fuse_mshift = true;
    schedule_reuse = true;
    hoist_comm = true;
    coalesce = true;
    split_comm = true;
    lookahead = true;
    blocked_kernels = true;
  }

let all_off =
  {
    shift_union = false;
    fuse_mshift = false;
    schedule_reuse = false;
    hoist_comm = false;
    coalesce = false;
    split_comm = false;
    lookahead = false;
    (* [all_off] disables the communication passes; the kernel layer is a
       node-local execution strategy with its own toggle, so ablations
       over comm passes keep tractable wall time at bench problem sizes *)
    blocked_kernels = true;
  }

type pass = {
  name : string;
  tag : string;
  doc : string;
  get : flags -> bool;
  set : bool -> flags -> flags;
}

let passes =
  let pass name tag doc get set = { name; tag; doc; get; set } in
  [
    pass "shift-union" "su" "shift-union (merge opposite-direction overlap shifts)"
      (fun f -> f.shift_union) (fun v f -> { f with shift_union = v });
    pass "fuse-mshift" "fm" "multicast-shift fusion"
      (fun f -> f.fuse_mshift) (fun v f -> { f with fuse_mshift = v });
    pass "schedule-reuse" "sr" "inspector schedule reuse"
      (fun f -> f.schedule_reuse) (fun v f -> { f with schedule_reuse = v });
    pass "hoist-comm" "hc" "loop-invariant communication hoisting"
      (fun f -> f.hoist_comm) (fun v f -> { f with hoist_comm = v });
    pass "coalesce" "co" "cross-statement message coalescing (and its replica cache)"
      (fun f -> f.coalesce) (fun v f -> { f with coalesce = v });
    pass "split-comm" "sp" "split-phase communication (issue/wait overlap)"
      (fun f -> f.split_comm) (fun v f -> { f with split_comm = v });
    pass "lookahead" "la" "loop-carried multicast lookahead pipelining"
      (fun f -> f.lookahead) (fun v f -> { f with lookahead = v });
    pass "blocked-kernels" "bk" "blocked node-kernel execution layer (plan cache, fused updates)"
      (fun f -> f.blocked_kernels) (fun v f -> { f with blocked_kernels = v });
  ]

module S = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Shift union                                                         *)
(* ------------------------------------------------------------------ *)

(* Keep only the widest overlap shift per (array, dim, direction); the
   wider ghost transfer carries the narrower one's data.  A zero-amount
   shift moves nothing — it is dropped outright (it would otherwise never
   receive a [widest] binding and crash the filter below). *)
let union_shifts pre =
  let widest = Hashtbl.create 8 in
  List.iter
    (fun c ->
      match c with
      | Ir.Overlap_shift { amount = 0; _ } -> ()
      | Ir.Overlap_shift { arr; dim; amount } ->
          let key = (arr, dim, amount > 0) in
          let cur = Option.value (Hashtbl.find_opt widest key) ~default:0 in
          if abs amount > abs cur then Hashtbl.replace widest key amount
      | _ -> ())
    pre;
  let emitted = Hashtbl.create 8 in
  List.filter
    (fun c ->
      match c with
      | Ir.Overlap_shift { amount = 0; _ } -> false
      | Ir.Overlap_shift { arr; dim; amount } ->
          let key = (arr, dim, amount > 0) in
          if Hashtbl.find widest key = amount && not (Hashtbl.mem emitted key) then begin
            Hashtbl.replace emitted key ();
            true
          end
          else false
      | _ -> true)
    pre

(* ------------------------------------------------------------------ *)
(* Multicast/shift fusion control                                      *)
(* ------------------------------------------------------------------ *)

let set_fusion fused pre =
  List.map
    (function
      | Ir.Multicast_shift m -> Ir.Multicast_shift { m with Ir.fused }
      | c -> c)
    pre

(* ------------------------------------------------------------------ *)
(* Schedule reuse                                                      *)
(* ------------------------------------------------------------------ *)

(* A schedule's index sets are invariant when every input is a named
   constant: range bounds and reference subscripts may mention only
   parameters and the FORALL variables themselves. *)
let invariant_forall env (f : Ir.forall) (r : Ast.ref_) =
  let params = List.map fst env.Sema.uparams in
  let forall_vars = List.map fst f.Ir.f_vars in
  let ok_expr e =
    List.for_all (fun v -> List.mem v params || List.mem v forall_vars) (Ast.vars_of e)
  in
  let ok_range (rg : Ast.range) =
    ok_expr rg.Ast.lo && ok_expr rg.Ast.hi
    && (match rg.Ast.st with Some e -> ok_expr e | None -> true)
  in
  List.for_all (fun (_, rg) -> ok_range rg) f.Ir.f_vars
  && List.for_all
       (function Ast.Elem e -> ok_expr e | Ast.Range _ -> false)
       r.Ast.args

let key_schedules env ~unit_name counter (f : Ir.forall) =
  let mk_key arr =
    incr counter;
    Some (Printf.sprintf "%s:s%d:%s" unit_name !counter arr)
  in
  let pre =
    List.map
      (fun c ->
        match c with
        | Ir.Precomp_read p when invariant_forall env f p.Ir.r ->
            Ir.Precomp_read { p with Ir.key = mk_key p.Ir.r.Ast.base }
        | Ir.Gather_read p when invariant_forall env f p.Ir.r ->
            Ir.Gather_read { p with Ir.key = mk_key p.Ir.r.Ast.base }
        | c -> c)
      f.Ir.f_pre
  in
  let post =
    match f.Ir.f_post with
    | Some (Ir.Postcomp_write _) when invariant_forall env f f.Ir.f_lhs && f.Ir.f_mask = None ->
        Some (Ir.Postcomp_write { key = mk_key f.Ir.f_lhs.Ast.base })
    | Some (Ir.Scatter_write _) when invariant_forall env f f.Ir.f_lhs && f.Ir.f_mask = None ->
        Some (Ir.Scatter_write { key = mk_key f.Ir.f_lhs.Ast.base })
    | p -> p
  in
  { f with Ir.f_pre = pre; f_post = post }

(* ------------------------------------------------------------------ *)
(* Loop-invariant communication hoisting                               *)
(* ------------------------------------------------------------------ *)

(* Everything a statement list may write: array and scalar names in one
   set (they share the front-end namespace).  [unsafe] is raised by
   constructs whose effects we don't model precisely enough to hoist
   across: CALL (the callee may write any actual argument) and RETURN
   (the loop may exit before a later statement's comm would have run). *)
let rec written_of stmts =
  List.fold_left
    (fun (w, unsafe) st ->
      match st.Ir.s with
      | Ir.Forall f -> (S.add f.Ir.f_lhs.Ast.base w, unsafe)
      | Ir.Scalar_assign { name; _ } -> (S.add name w, unsafe)
      | Ir.Element_assign { lhs; _ } -> (S.add lhs.Ast.base w, unsafe)
      | Ir.Mover { target; _ } -> (S.add target w, unsafe)
      | Ir.Do_loop { var; body; _ } ->
          let w', u' = written_of body in
          (S.add var (S.union w w'), unsafe || u')
      | Ir.While_loop { body; _ } ->
          let w', u' = written_of body in
          (S.union w w', unsafe || u')
      | Ir.If_block { arms; els } ->
          List.fold_left
            (fun (w, unsafe) ss ->
              let w', u' = written_of ss in
              (S.union w w', unsafe || u'))
            (w, unsafe)
            (els :: List.map snd arms)
      | Ir.Call_sub _ | Ir.Return_stmt -> (w, true)
      | Ir.Print_stmt _ | Ir.Comm_block _ | Ir.Comm_issue _ | Ir.Comm_wait _ -> (w, unsafe))
    (S.empty, false) stmts

(* An expression is loop-invariant when it mentions no scalar or array
   the loop writes (Ast.vars_of covers scalars, refs_of covers array
   reads inside subscripts). *)
let invariant_expr forbidden e =
  List.for_all (fun v -> not (S.mem v forbidden)) (Ast.vars_of e)
  && List.for_all (fun (r : Ast.ref_) -> not (S.mem r.Ast.base forbidden)) (Ast.refs_of e)

(* A comm may leave the loop when its source array is never written in
   the body and every expression it evaluates is loop-invariant.  The
   inspector-executor pair stays put (schedule reuse already amortizes
   it), as do fused multicast-shifts and already-formed batches. *)
let hoistable forbidden c =
  match c with
  | Ir.Overlap_shift { arr; _ } | Ir.Concat { arr; _ } -> not (S.mem arr forbidden)
  | Ir.Multicast { arr; g; _ } -> (not (S.mem arr forbidden)) && invariant_expr forbidden g
  | Ir.Transfer { arr; src; dest; _ } ->
      (not (S.mem arr forbidden))
      && invariant_expr forbidden src && invariant_expr forbidden dest
  | Ir.Temp_shift { arr; amount; _ } ->
      (not (S.mem arr forbidden)) && invariant_expr forbidden amount
  | Ir.Multicast_shift _ | Ir.Precomp_read _ | Ir.Gather_read _ | Ir.Comm_batch _ -> false

(* Pull hoistable pre-comms out of the foralls at the top level of a
   loop body.  Foralls nested under IF arms stay untouched: their comms
   run only when the (replicated) condition holds, and their subscripts
   may not even be evaluable otherwise. *)
let split_hoistable forbidden body =
  let members = ref [] in
  let body =
    List.map
      (fun bst ->
        match bst.Ir.s with
        | Ir.Forall f ->
            let go, stay = List.partition (hoistable forbidden) f.Ir.f_pre in
            members :=
              !members
              @ List.map (fun c -> { Ir.hc = c; hc_sid = bst.Ir.sid; hc_loc = bst.Ir.sloc }) go;
            { bst with Ir.s = Ir.Forall { f with Ir.f_pre = stay } }
        | _ -> bst)
      body
  in
  (!members, body)

let rec hoist_stmts stmts = List.concat_map hoist_stmt stmts

and hoist_loop st ~guard ~loop_desc ~extra_forbidden body =
  let body = hoist_stmts body in
  let written, unsafe = written_of body in
  let forbidden = S.union extra_forbidden written in
  let members, body = if unsafe then ([], body) else split_hoistable forbidden body in
  (members, body, guard, loop_desc, st)

and hoist_stmt st =
  let emit (members, body, guard, loop_desc, st) rebuild =
    let loop = { st with Ir.s = rebuild body } in
    if members = [] then [ loop ]
    else
      [
        {
          st with
          Ir.s = Ir.Comm_block { cb_members = members; cb_guard = guard; cb_loop = loop_desc };
        };
        loop;
      ]
  in
  match st.Ir.s with
  | Ir.Do_loop { var; range; body } ->
      emit
        (hoist_loop st ~guard:(Ir.Guard_do range) ~loop_desc:("DO " ^ var)
           ~extra_forbidden:(S.singleton var) body)
        (fun body -> Ir.Do_loop { var; range; body })
  | Ir.While_loop { cond; body } ->
      emit
        (hoist_loop st ~guard:(Ir.Guard_while cond) ~loop_desc:"DO WHILE"
           ~extra_forbidden:S.empty body)
        (fun body -> Ir.While_loop { cond; body })
  | Ir.If_block { arms; els } ->
      [
        {
          st with
          Ir.s =
            Ir.If_block
              {
                arms = List.map (fun (c, ss) -> (c, hoist_stmts ss)) arms;
                els = hoist_stmts els;
              };
        };
      ]
  | _ -> [ st ]

(* ------------------------------------------------------------------ *)
(* Cross-statement message coalescing                                  *)
(* ------------------------------------------------------------------ *)

(* Comms that may join a batch, keyed so members of one batch target the
   same communicating rank pairs: overlap shifts by (dim, direction),
   transfers by (dim, src, dest).  With the key come the names whose
   write would stop the comm moving up: its source array, and every
   array or scalar its subscript expressions read. *)
let batch_key = function
  | Ir.Overlap_shift { arr; dim; amount } when amount <> 0 ->
      Some (`Shift (dim, amount > 0), [ arr ])
  | Ir.Transfer { arr; dim; src; dest; _ } ->
      let reads e = Ast.vars_of e @ List.map (fun (r : Ast.ref_) -> r.Ast.base) (Ast.refs_of e) in
      Some (`Transfer (dim, Ast.expr_str src, Ast.expr_str dest), (arr :: reads src) @ reads dest)
  | _ -> None

(* Batch compatible comms within one maximal run of consecutive FORALLs,
   in one forward sweep.  The first comm of each key anchors its batch; a
   later one joins when no statement from the anchor on (the anchor
   included — its store phase runs after its pre-comms) writes a name it
   reads.  Scalars cannot change inside a FORALL run, so lhs arrays are
   the only hazard: [last_write] maps each array to its latest writer
   before the current statement. *)
let batch_run (run : Ir.stmt list) =
  let stmts = Array.of_list run in
  let foralls =
    Array.map (fun st -> match st.Ir.s with Ir.Forall f -> f | _ -> assert false) stmts
  in
  let pres = Array.map (fun f -> Array.map Option.some (Array.of_list f.Ir.f_pre)) foralls in
  let last_write = Hashtbl.create 16 in
  let anchors = Hashtbl.create 8 (* key -> anchor (i, j), later members reversed *) in
  Array.iteri
    (fun i pre ->
      Array.iteri
        (fun j c ->
          match batch_key (Option.get c) with
          | None -> ()
          | Some (key, reads) -> (
              match Hashtbl.find_opt anchors key with
              | None -> Hashtbl.replace anchors key ((i, j), ref [])
              | Some ((i0, _), members) ->
                  let written a =
                    match Hashtbl.find_opt last_write a with Some w -> w >= i0 | None -> false
                  in
                  if not (List.exists written reads) then members := (i, j) :: !members))
        pre;
      Hashtbl.replace last_write foralls.(i).Ir.f_lhs.Ast.base i)
    pres;
  Hashtbl.iter
    (fun _ (((i0, j0) as anchor), members) ->
      if !members <> [] then begin
        let all = anchor :: List.rev !members in
        let batch =
          List.map
            (fun (i, j) ->
              { Ir.hc = Option.get pres.(i).(j); hc_sid = stmts.(i).Ir.sid;
                hc_loc = stmts.(i).Ir.sloc })
            all
        in
        List.iter (fun (i, j) -> pres.(i).(j) <- None) all;
        pres.(i0).(j0) <- Some (Ir.Comm_batch batch)
      end)
    anchors;
  List.mapi
    (fun i st ->
      let pre = Array.to_list pres.(i) |> List.filter_map Fun.id in
      { st with Ir.s = Ir.Forall { (foralls.(i)) with Ir.f_pre = pre } })
    run

let rec coalesce_stmts stmts =
  let stmts = List.map coalesce_stmt stmts in
  let out = ref [] in
  let run = ref [] in
  let flush () =
    if !run <> [] then begin
      out := List.rev_append (batch_run (List.rev !run)) !out;
      run := []
    end
  in
  List.iter
    (fun st ->
      match st.Ir.s with
      | Ir.Forall _ -> run := st :: !run
      | _ ->
          flush ();
          out := st :: !out)
    stmts;
  flush ();
  List.rev !out

and coalesce_stmt st =
  match st.Ir.s with
  | Ir.Do_loop { var; range; body } ->
      { st with Ir.s = Ir.Do_loop { var; range; body = coalesce_stmts body } }
  | Ir.While_loop { cond; body } ->
      { st with Ir.s = Ir.While_loop { cond; body = coalesce_stmts body } }
  | Ir.If_block { arms; els } ->
      {
        st with
        Ir.s =
          Ir.If_block
            {
              arms = List.map (fun (c, ss) -> (c, coalesce_stmts ss)) arms;
              els = coalesce_stmts els;
            };
      }
  | _ -> st

(* ------------------------------------------------------------------ *)
(* Split-phase communication                                           *)
(* ------------------------------------------------------------------ *)

let subst_var v repl =
  Ast.map_expr (fun x -> match x.Ast.e with Ast.Var n when n = v -> repl | _ -> x)

let range_pure (r : Ast.range) =
  Ast.refs_of r.Ast.lo = [] && Ast.refs_of r.Ast.hi = []
  && (match r.Ast.st with Some e -> Ast.refs_of e = [] | None -> true)

(* A statement that provably performs no communication of its own, so a
   split-phase message may stay in flight across it without disturbing
   per-channel FIFO order or collective call order.  Conservative:
   ref-free scalar assignments and owner-computes FORALLs whose every
   read is already local (no pre-comms, no mask, no write-back; a
   snapshot is a local copy and is fine). *)
let comm_free st =
  match st.Ir.s with
  | Ir.Scalar_assign { rhs; _ } -> Ast.refs_of rhs = []
  | Ir.Forall f ->
      f.Ir.f_pre = [] && f.Ir.f_post = None && f.Ir.f_mask = None
      && (match f.Ir.f_iter with Ir.It_canonical _ -> true | _ -> false)
      && List.for_all (fun (_, r) -> range_pure r) f.Ir.f_vars
      && List.for_all
           (function Ast.Elem e -> Ast.refs_of e = [] | Ast.Range _ -> false)
           f.Ir.f_lhs.Ast.args
  | _ -> false

(* May the issue half move up across [st]?  [arr] is the multicast
   source and [gvars] the free variables of its slice subscript: the
   data in flight is the source {e as of the issue}, so a crossed
   statement must not communicate, not write [arr], and not change the
   subscript's value. *)
let issue_crossable ~arr ~gvars st =
  comm_free st
  && (match st.Ir.s with
     | Ir.Scalar_assign { name; _ } -> name <> arr && not (S.mem name gvars)
     | Ir.Forall f -> f.Ir.f_lhs.Ast.base <> arr && not (S.mem f.Ir.f_lhs.Ast.base gvars)
     | _ -> false)

(* Only plain multicasts split: they are the latency that dominates the
   solver kernels (gauss's pivot column), the issue half is cheap on
   every non-root (post one receive), and the slice subscript pins down
   exactly which intervening writes are hazards.  A subscript that
   itself reads an array stays blocking — evaluating it early would add
   an array-element fetch whose safety we cannot see locally. *)
let splittable = function
  | Ir.Multicast { g; _ } -> Ast.refs_of g = []
  | _ -> false

(* Split eligible FORALL pre-comms in a statement list into an issue
   and a wait.  The wait sits immediately before the reading FORALL
   (sinking it further serves nothing: the next statement reads the
   data); the issue then moves up across preceding crossable
   statements, opening the window in which the message travels while
   the processor still computes.  A pair whose issue cannot move stays
   blocking — splitting it in place is pure IR noise — with one
   exception: when the issue would come to rest at the very top of a DO
   body it is kept split even with nothing to cross, because that is
   exactly the shape the lookahead pass turns into cross-iteration
   overlap. *)
let rec split_stmts fresh ~do_body stmts =
  let out = ref [] (* reversed *) in
  List.iter
    (fun st ->
      let st = split_stmt fresh st in
      match st.Ir.s with
      | Ir.Forall f ->
          let stay = ref [] in
          let waits = ref [] in
          List.iter
            (fun c ->
              let crossing () =
                match c with
                | Ir.Multicast { arr; g; _ } ->
                    let gvars = S.of_list (Ast.vars_of g) in
                    let rec count k = function
                      | p :: rest when issue_crossable ~arr ~gvars p -> count (k + 1) rest
                      | rest -> (k, rest = [])
                    in
                    let crossed, at_top = count 0 !out in
                    (arr, gvars, crossed, at_top)
                | _ -> assert false
              in
              if not (splittable c) then stay := c :: !stay
              else begin
                let arr, gvars, crossed, at_top = crossing () in
                if crossed = 0 && not (do_body && at_top) then stay := c :: !stay
                else begin
                  incr fresh;
                  let sp =
                    {
                      Ir.sp_hid = !fresh;
                      sp_comm = { Ir.hc = c; hc_sid = st.Ir.sid; hc_loc = st.Ir.sloc };
                      sp_guard = Ir.Sg_always;
                    }
                  in
                  let issue = { st with Ir.s = Ir.Comm_issue sp } in
                  let rec insert_rev = function
                    | p :: rest when issue_crossable ~arr ~gvars p -> p :: insert_rev rest
                    | rest -> issue :: rest
                  in
                  out := insert_rev !out;
                  waits := { st with Ir.s = Ir.Comm_wait sp } :: !waits
                end
              end)
            f.Ir.f_pre;
          out :=
            { st with Ir.s = Ir.Forall { f with Ir.f_pre = List.rev !stay } }
            :: (!waits @ !out)
      | _ -> out := st :: !out)
    stmts;
  List.rev !out

and split_stmt fresh st =
  let node =
    match st.Ir.s with
    | Ir.Do_loop { var; range; body } ->
        Ir.Do_loop { var; range; body = split_stmts fresh ~do_body:true body }
    | Ir.While_loop { cond; body } ->
        Ir.While_loop { cond; body = split_stmts fresh ~do_body:false body }
    | Ir.If_block { arms; els } ->
        Ir.If_block
          {
            arms = List.map (fun (c, ss) -> (c, split_stmts fresh ~do_body:false ss)) arms;
            els = split_stmts fresh ~do_body:false els;
          }
    | s -> s
  in
  { st with Ir.s = node }

(* Fold back the split pairs lookahead could not use: an issue still
   directly in front of its wait (both unconditional) gained nothing,
   so the comm returns to the reading FORALL's blocking pre list. *)
let rec refuse_stmts stmts =
  let rec go = function
    | { Ir.s = Ir.Comm_issue sp; _ }
      :: { Ir.s = Ir.Comm_wait spw; _ }
      :: ({ Ir.s = Ir.Forall f; _ } as fs)
      :: rest
      when sp.Ir.sp_hid = spw.Ir.sp_hid && sp.Ir.sp_guard = Ir.Sg_always ->
        go
          ({ fs with Ir.s = Ir.Forall { f with Ir.f_pre = sp.Ir.sp_comm.Ir.hc :: f.Ir.f_pre } }
          :: rest)
    | st :: rest -> refuse_stmt st :: go rest
    | [] -> []
  in
  go stmts

and refuse_stmt st =
  let node =
    match st.Ir.s with
    | Ir.Do_loop { var; range; body } -> Ir.Do_loop { var; range; body = refuse_stmts body }
    | Ir.While_loop { cond; body } -> Ir.While_loop { cond; body = refuse_stmts body }
    | Ir.If_block { arms; els } ->
        Ir.If_block
          {
            arms = List.map (fun (c, ss) -> (c, refuse_stmts ss)) arms;
            els = refuse_stmts els;
          }
    | s -> s
  in
  { st with Ir.s = node }

(* ------------------------------------------------------------------ *)
(* Lookahead pipelining                                                *)
(* ------------------------------------------------------------------ *)

(* How subscript [e] moves with the FORALL variables [fvars], read off
   its affine form: [`Fixed] when it names none of them, [`Unit (j, r)]
   when it is one variable [j] with coefficient 1 over a step-1 range
   [r], and [`Other] for any other shape or a non-affine subscript. *)
let forall_motion ~fvars e =
  match Linear.of_expr e with
  | None -> `Other
  | Some ae -> (
      match List.filter (fun v -> List.mem_assoc v fvars) (Linear.vars ae) with
      | [] -> `Fixed
      | [ j ] when Linear.coeff j ae = 1 -> (
          let rj : Ast.range = List.assoc j fvars in
          match rj.Ast.st with
          | None | Some { Ast.e = Ast.Int_lit 1; _ } -> `Unit (j, rj)
          | Some _ -> `Other)
      | _ -> `Other)

(* Is the value set of subscript [e] — with the FORALL variables
   [fvars] ranging over their bounds — provably disjoint from the
   single index [gn]?  Handles a subscript with no FORALL variable
   (constant distance test) and a unit-coefficient, step-1 variable
   (compare [gn] against the substituted range ends). *)
let subscript_disjoint ~fvars e gn =
  let diff e = Linear.const_diff e gn in
  match forall_motion ~fvars e with
  | `Fixed -> ( match diff e with Some d -> d <> 0 | None -> false)
  | `Unit (j, rj) -> (
      (match diff (subst_var j rj.Ast.hi e) with Some d -> d < 0 | None -> false)
      || match diff (subst_var j rj.Ast.lo e) with Some d -> d > 0 | None -> false)
  | `Other -> false

(* Does [st] possibly write the slice [dim = gn] of [arr]?  [false]
   means provably not: either [arr] is untouched or every write lands
   at a provably different [dim]-subscript. *)
let rec writes_slice ~arr ~dim ~gn st =
  match st.Ir.s with
  | Ir.Forall f ->
      f.Ir.f_lhs.Ast.base = arr
      && not
           (match List.nth_opt f.Ir.f_lhs.Ast.args dim with
           | Some (Ast.Elem e) -> subscript_disjoint ~fvars:f.Ir.f_vars e gn
           | _ -> false)
  | Ir.Element_assign { lhs; _ } ->
      lhs.Ast.base = arr
      && not
           (match List.nth_opt lhs.Ast.args dim with
           | Some (Ast.Elem e) -> subscript_disjoint ~fvars:[] e gn
           | _ -> false)
  | Ir.Mover { target; _ } -> target = arr
  | Ir.Call_sub _ -> true
  | Ir.Do_loop { body; _ } | Ir.While_loop { body; _ } ->
      List.exists (writes_slice ~arr ~dim ~gn) body
  | Ir.If_block { arms; els } ->
      List.exists
        (fun ss -> List.exists (writes_slice ~arr ~dim ~gn) ss)
        (els :: List.map snd arms)
  | Ir.Scalar_assign _ | Ir.Print_stmt _ | Ir.Return_stmt | Ir.Comm_block _ | Ir.Comm_issue _
  | Ir.Comm_wait _ ->
      false

(* Fission the last blocker — a FORALL writing the slice — into a head
   iteration [b1] that performs the slice write and a provably disjoint
   bulk [b2], so the next step's issue can slot between them (the
   classic lookahead fission: peel the column the pipeline needs next
   out of the bulk update).  Requires the [dim]-subscript to be a
   step-1 FORALL variable (plus a constant) whose {e first} iteration
   is exactly [gn], and every rhs read of [arr] to use that same
   [dim]-subscript — then each [dim]-index is self-contained and the
   halves touch disjoint slices outright, snapshot or not. *)
let try_fission ~arr ~dim ~gn st =
  match st.Ir.s with
  | Ir.Forall f
    when f.Ir.f_lhs.Ast.base = arr && f.Ir.f_pre = [] && f.Ir.f_post = None
         && f.Ir.f_mask = None
         && (match f.Ir.f_iter with Ir.It_canonical _ -> true | _ -> false)
         && List.for_all (fun (_, r) -> range_pure r) f.Ir.f_vars -> (
      match List.nth_opt f.Ir.f_lhs.Ast.args dim with
      | Some (Ast.Elem e) -> (
          match forall_motion ~fvars:f.Ir.f_vars e with
          | `Unit (j, rj) -> (
              let same_dim_sub (r : Ast.ref_) =
                r.Ast.base <> arr
                || (match List.nth_opt r.Ast.args dim with
                   | Some (Ast.Elem e') -> Linear.const_diff e' e = Some 0
                   | _ -> false)
              in
              match Linear.const_diff (subst_var j rj.Ast.lo e) gn with
              | Some 0 when List.for_all same_dim_sub (Ast.refs_of f.Ir.f_rhs) ->
                  let with_range r =
                    {
                      st with
                      Ir.s =
                        Ir.Forall
                          {
                            f with
                            Ir.f_vars =
                              List.map
                                (fun (v, r0) -> if v = j then (v, r) else (v, r0))
                                f.Ir.f_vars;
                          };
                    }
                  in
                  Some
                    ( with_range { rj with Ast.hi = rj.Ast.lo; st = None },
                      with_range
                        { rj with Ast.lo = Ast.bin Ast.Add rj.Ast.lo (Ast.int_lit 1); st = None } )
              | _ -> None)
          | `Fixed | `Other -> None)
      | _ -> None)
  | _ -> None

(* One-step lookahead on a DO loop whose body begins with a split
   multicast of a slice that moves with the loop variable (gauss's
   pivot column): issue step k+1's multicast during step k's update, so
   its latency overlaps the bulk computation.  The issue for the first
   step moves in front of the loop (guarded on the loop tripping at
   all); the in-body issue for [v + step] is guarded on a next
   iteration existing; the wait stays at the top of the body.  The
   in-body issue goes after the {e last} statement that may write the
   next slice — fissioned, when possible, so only the slice-writing
   head iteration precedes it — and everything left between the issue
   and the loop's back edge must be provably communication-free. *)
let rec lookahead_stmts stmts = List.concat_map lookahead_stmt stmts

and lookahead_stmt st =
  match st.Ir.s with
  | Ir.Do_loop { var; range; body } -> (
      let body = lookahead_stmts body in
      let keep = [ { st with Ir.s = Ir.Do_loop { var; range; body } } ] in
      match try_lookahead st ~var ~range body with
      | Some (prologue, body) ->
          [ prologue; { st with Ir.s = Ir.Do_loop { var; range; body } } ]
      | None -> keep)
  | Ir.While_loop { cond; body } ->
      [ { st with Ir.s = Ir.While_loop { cond; body = lookahead_stmts body } } ]
  | Ir.If_block { arms; els } ->
      [
        {
          st with
          Ir.s =
            Ir.If_block
              {
                arms = List.map (fun (c, ss) -> (c, lookahead_stmts ss)) arms;
                els = lookahead_stmts els;
              };
        };
      ]
  | _ -> [ st ]

and try_lookahead loop_st ~var ~range body =
  match body with
  | { Ir.s = Ir.Comm_issue sp; _ } :: ({ Ir.s = Ir.Comm_wait spw; _ } as wait_st) :: rest
    when sp.Ir.sp_hid = spw.Ir.sp_hid
         && sp.Ir.sp_guard = Ir.Sg_always
         && spw.Ir.sp_guard = Ir.Sg_always -> (
      match sp.Ir.sp_comm.Ir.hc with
      | Ir.Multicast { arr; dim; g; temp } -> (
          let step =
            match range.Ast.st with
            | None -> Some 1
            | Some s -> ( match s.Ast.e with Ast.Int_lit n when n <> 0 -> Some n | _ -> None)
          in
          match step with
          | Some stp when List.mem var (Ast.vars_of g) ->
              let written, unsafe = written_of rest in
              let forbidden =
                S.add var
                  (S.union (S.of_list (Ast.vars_of g))
                     (S.union
                        (S.of_list (Ast.vars_of range.Ast.hi))
                        (match range.Ast.st with
                        | Some s -> S.of_list (Ast.vars_of s)
                        | None -> S.empty)))
              in
              if unsafe || not (S.is_empty (S.inter written forbidden)) then None
              else begin
                let gn = subst_var var (Ast.bin Ast.Add (Ast.var var) (Ast.int_lit stp)) g in
                let stmts = Array.of_list rest in
                let n = Array.length stmts in
                let lb = ref (-1) in
                Array.iteri (fun i s -> if writes_slice ~arr ~dim ~gn s then lb := i) stmts;
                (* first index from which everything to the loop's end is
                   provably communication-free *)
                let cf = ref n in
                (let i = ref (n - 1) in
                 while !i >= 0 && comm_free stmts.(!i) do
                   cf := !i;
                   decr i
                 done);
                let issue guard g' =
                  {
                    loop_st with
                    Ir.s =
                      Ir.Comm_issue
                        {
                          sp with
                          Ir.sp_comm =
                            { sp.Ir.sp_comm with Ir.hc = Ir.Multicast { arr; dim; g = g'; temp } };
                          sp_guard = guard;
                        };
                  }
                in
                let issue_next = issue (Ir.Sg_next { var; range }) gn in
                let seg a b = Array.to_list (Array.sub stmts a (b - a)) in
                let rebuilt =
                  if !lb >= 0 && !cf <= !lb + 1 then
                    (* the last blocker is followed only by comm-free
                       statements: fission it if we can, else slot the
                       issue right after it *)
                    match try_fission ~arr ~dim ~gn stmts.(!lb) with
                    | Some (b1, b2) ->
                        Some (seg 0 !lb @ [ b1; issue_next; b2 ] @ seg (!lb + 1) n)
                    | None -> Some (seg 0 (!lb + 1) @ [ issue_next ] @ seg (!lb + 1) n)
                  else if !lb < 0 && !cf = 0 then
                    (* nothing in the body writes the next slice and the
                       whole body is comm-free: issue immediately *)
                    Some (issue_next :: Array.to_list stmts)
                  else None
                in
                match rebuilt with
                | Some tail ->
                    let prologue =
                      issue (Ir.Sg_trip range) (subst_var var range.Ast.lo g)
                    in
                    Some (prologue, wait_st :: tail)
                | None -> None
              end
          | _ -> None)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Pass driver                                                         *)
(* ------------------------------------------------------------------ *)

(* Statement provenance (sid, sloc) is preserved: passes rewrite the
   node, never the identity. *)
let rec map_stmt f (st : Ir.stmt) =
  let node =
    match st.Ir.s with
    | Ir.Forall fo -> Ir.Forall (f fo)
    | Ir.Do_loop { var; range; body } ->
        Ir.Do_loop { var; range; body = List.map (map_stmt f) body }
    | Ir.While_loop { cond; body } ->
        Ir.While_loop { cond; body = List.map (map_stmt f) body }
    | Ir.If_block { arms; els } ->
        Ir.If_block
          {
            arms = List.map (fun (c, ss) -> (c, List.map (map_stmt f) ss)) arms;
            els = List.map (map_stmt f) els;
          }
    | s -> s
  in
  { st with Ir.s = node }

let apply flags (ir : Ir.program_ir) =
  let units =
    List.map
      (fun (name, u) ->
        let counter = ref 0 in
        let on_forall fo =
          let fo =
            if flags.shift_union then { fo with Ir.f_pre = union_shifts fo.Ir.f_pre } else fo
          in
          let fo = { fo with Ir.f_pre = set_fusion flags.fuse_mshift fo.Ir.f_pre } in
          if flags.schedule_reuse then key_schedules u.Ir.u_env ~unit_name:name counter fo
          else fo
        in
        let body = List.map (map_stmt on_forall) u.Ir.u_body in
        let body = if flags.hoist_comm then hoist_stmts body else body in
        let body = if flags.coalesce then coalesce_stmts body else body in
        let body =
          if flags.split_comm then begin
            let hid = ref 0 in
            let body = split_stmts hid ~do_body:false body in
            let body = if flags.lookahead then lookahead_stmts body else body in
            refuse_stmts body
          end
          else body
        in
        (name, { u with Ir.u_body = body }))
      ir.Ir.p_units
  in
  { ir with Ir.p_units = units }
