open F90d_base
open F90d_dist

type sdim = {
  sflb : int;
  sext : int;
  salign : Affine.t;
  sform : Ast.distform;
  stn : int;
  spdim : int option;
}

type array_spec = { skind : Ast.kind; sdims : sdim array }

type unit_env = {
  usub : Ast.subprogram;
  uparams : (string * Scalar.t) list;
  uscalars : (string * Ast.kind) list;
  uarrays : (string * array_spec) list;
  ugrid : (int array * Loc.t) option;
}

type program_env = { uprog : Ast.program; uunits : (string * unit_env) list }

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)
(* ------------------------------------------------------------------ *)

let rec eval_const lookup (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Int_lit n -> Scalar.Int n
  | Ast.Real_lit r -> Scalar.Real r
  | Ast.Log_lit b -> Scalar.Log b
  | Ast.Str_lit s -> Scalar.Str s
  | Ast.Var v -> (
      match lookup v with
      | Some s -> s
      | None -> Diag.error ~loc:e.Ast.loc "'%s' is not a named constant" v)
  | Ast.Un (Ast.Neg, a) -> Scalar.neg (eval_const lookup a)
  | Ast.Un (Ast.Not, a) -> Scalar.not_ (eval_const lookup a)
  | Ast.Bin (op, a, b) ->
      let x = eval_const lookup a and y = eval_const lookup b in
      let f =
        match op with
        | Ast.Add -> Scalar.add
        | Ast.Sub -> Scalar.sub
        | Ast.Mul -> Scalar.mul
        | Ast.Div -> Scalar.div ~loc:e.Ast.loc
        | Ast.Pow -> Scalar.pow
        | Ast.Eq -> Scalar.cmp_eq
        | Ast.Ne -> Scalar.cmp_ne
        | Ast.Lt -> Scalar.cmp_lt
        | Ast.Le -> Scalar.cmp_le
        | Ast.Gt -> Scalar.cmp_gt
        | Ast.Ge -> Scalar.cmp_ge
        | Ast.And -> Scalar.and_
        | Ast.Or -> Scalar.or_
      in
      f x y
  | Ast.Ref _ -> Diag.error ~loc:e.Ast.loc "array reference in a constant expression"

let eval_int lookup e = Scalar.to_int (eval_const lookup e)

(* ------------------------------------------------------------------ *)
(* Affine recognition: a*var + b                                       *)
(* ------------------------------------------------------------------ *)

(* [var] stays symbolic and every other name must be an INTEGER
   PARAMETER: any other scalar makes the subscript non-affine, even where
   it would cancel out. *)
let affine_of ~var ~lookup e =
  let fold v =
    if v = var then None
    else match lookup v with Some (Scalar.Int n) -> Some n | _ -> raise_notrace Exit
  in
  match Linear.of_expr ~lookup:fold e with
  | Some l -> Some (Affine.make ~a:(Linear.coeff var l) ~b:(Linear.const l))
  | None | (exception Exit) -> None

(* ------------------------------------------------------------------ *)
(* Unit analysis                                                       *)
(* ------------------------------------------------------------------ *)

type template = { text : int array; tflb : int array; tforms : Ast.distform array; tpdims : int option array }

(* A FORALL or DO stride that constant-folds to zero describes an empty
   progression that the runtime can only fault on; reject it here with the
   statement's location.  Non-constant strides are left to the runtime
   check (their value is unknowable at compile time). *)
let check_strides lookup (body : Ast.stmt list) =
  let folds_to_zero e =
    match eval_const lookup e with
    | Scalar.Int 0 -> true
    | _ -> false
    | exception Diag.Error _ -> false
  in
  let check_range what loc (r : Ast.range) =
    match r.Ast.st with
    | Some e when folds_to_zero e -> Diag.error ~loc "zero stride in %s triplet" what
    | _ -> ()
  in
  let rec stmt (s : Ast.stmt) =
    match s.Ast.s with
    | Ast.Forall (triplets, _, body) ->
        List.iter (fun (_, r) -> check_range "FORALL" s.Ast.sloc r) triplets;
        List.iter stmt body
    | Ast.Do (_, r, body) ->
        check_range "DO" s.Ast.sloc r;
        List.iter stmt body
    | Ast.While (_, body) | Ast.Where (_, body, []) -> List.iter stmt body
    | Ast.Where (_, body, els) ->
        List.iter stmt body;
        List.iter stmt els
    | Ast.If (arms, els) ->
        List.iter (fun (_, b) -> List.iter stmt b) arms;
        List.iter stmt els
    | Ast.Assign _ | Ast.Call _ | Ast.Print _ | Ast.Return -> ()
  in
  List.iter stmt body

(* Constant bounds of a declared shape.  An upper bound below the lower
   bound minus one would give a negative extent. *)
let extents_checked lookup ~loc ~what name dims =
  List.mapi
    (fun d (lo, hi) ->
      let lo = eval_int lookup lo and hi = eval_int lookup hi in
      if hi < lo - 1 then
        Diag.error ~loc "%s '%s' dimension %d has bounds %d:%d, a negative extent" what name
          (d + 1) lo hi;
      (lo, hi))
    dims

let analyze_unit ?main (sub : Ast.subprogram) =
  let params = Hashtbl.create 8 in
  let lookup v = Hashtbl.find_opt params v in
  (* declarations: parameters first (they appear before use in source order) *)
  let scalars = ref [] and array_decls = ref [] in
  List.iter
    (fun (d : Ast.decl) ->
      match (d.Ast.dparam, d.Ast.ddims) with
      | Some v, [] -> Hashtbl.replace params d.Ast.dname (eval_const lookup v)
      | Some _, _ -> Diag.error ~loc:d.Ast.dloc "PARAMETER arrays are not supported"
      | None, [] -> scalars := (d.Ast.dname, d.Ast.dkind) :: !scalars
      | None, dims ->
          let bounds = extents_checked lookup ~loc:d.Ast.dloc ~what:"array" d.Ast.dname dims in
          array_decls := (d.Ast.dname, d.Ast.dkind, bounds, d.Ast.dloc) :: !array_decls)
    sub.Ast.decls;
  let array_decls = List.rev !array_decls in
  (* directives *)
  let grid = ref None in
  let templates : (string, template) Hashtbl.t = Hashtbl.create 4 in
  let aligns : (string, Ast.directive * Loc.t) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (dir, loc) ->
      match dir with
      | Ast.Processors { pdims; _ } ->
          if !grid <> None then Diag.error ~loc "duplicate PROCESSORS directive";
          grid := Some (Array.of_list (List.map (eval_int lookup) pdims), loc)
      | Ast.Template { tname; tdims } ->
          let bounds = extents_checked lookup ~loc ~what:"template" tname tdims in
          let flbs = Array.of_list (List.map fst bounds) in
          let ext = Array.of_list (List.map (fun (lo, hi) -> hi - lo + 1) bounds) in
          Hashtbl.replace templates tname
            {
              text = ext;
              tflb = flbs;
              tforms = Array.make (Array.length ext) Ast.Dstar;
              tpdims = Array.make (Array.length ext) None;
            }
      | Ast.Align { array; _ } -> Hashtbl.replace aligns array (dir, loc)
      | Ast.Distribute _ -> ())
    sub.Ast.directives;
  (* arrays named directly in DISTRIBUTE act as their own template *)
  List.iter
    (fun (dir, _loc) ->
      match dir with
      | Ast.Distribute { template; _ } when not (Hashtbl.mem templates template) -> (
          match List.find_opt (fun (n, _, _, _) -> n = template) array_decls with
          | Some (name, _, bounds, _) ->
              Hashtbl.replace templates name
                {
                  text = Array.of_list (List.map (fun (lo, hi) -> hi - lo + 1) bounds);
                  tflb = Array.of_list (List.map fst bounds);
                  tforms = Array.make (List.length bounds) Ast.Dstar;
                  tpdims = Array.make (List.length bounds) None;
                }
          | None -> ())
      | _ -> ())
    sub.Ast.directives;
  (* resolve DISTRIBUTE onto grid dimensions, in directive order.  Every
     unit runs on the main unit's grid: its PROCESSORS, or a 1-D grid of
     the whole machine. *)
  let on_grid = match main with Some m -> m.ugrid | None -> !grid in
  let rank = match on_grid with Some (dims, _) -> Array.length dims | None -> 1 in
  let next_pdim = ref 0 in
  List.iter
    (fun (dir, loc) ->
      match dir with
      | Ast.Distribute { template; forms; _ } -> (
          match Hashtbl.find_opt templates template with
          | None -> Diag.error ~loc "DISTRIBUTE names unknown template '%s'" template
          | Some t ->
              if List.length forms <> Array.length t.text then
                Diag.error ~loc "DISTRIBUTE rank mismatch for '%s'" template;
              next_pdim := 0;
              List.iteri
                (fun d form ->
                  t.tforms.(d) <- form;
                  match form with
                  | Ast.Dstar -> ()
                  | Ast.Dblock | Ast.Dcyclic | Ast.Dcyclic_k _ ->
                      if !next_pdim >= rank then
                        Diag.error ~loc
                          "DISTRIBUTE %s: dimension %d needs processor-grid dimension %d, but \
                           the grid has rank %d%s"
                          template (d + 1) (!next_pdim + 1) rank
                          (if Option.is_none on_grid then " (no PROCESSORS directive)" else "");
                      t.tpdims.(d) <- Some !next_pdim;
                      incr next_pdim)
                forms)
      | _ -> ())
    sub.Ast.directives;
  (* build array specs *)
  let arrays =
    List.map
      (fun (name, kind, bounds, _loc) ->
        let nb = List.length bounds in
        let default_dim (lo, hi) =
          {
            sflb = lo;
            sext = hi - lo + 1;
            salign = Affine.ident;
            sform = Ast.Dstar;
            stn = max 1 (hi - lo + 1);
            spdim = None;
          }
        in
        match Hashtbl.find_opt aligns name with
        | None -> (
            (* no ALIGN: the array may itself be distributed as a template *)
            match Hashtbl.find_opt templates name with
            | None -> (name, { skind = kind; sdims = Array.of_list (List.map default_dim bounds) })
            | Some t ->
                let sdims =
                  List.mapi
                    (fun d (lo, hi) ->
                      {
                        sflb = lo;
                        sext = hi - lo + 1;
                        salign = Affine.ident;
                        sform = t.tforms.(d);
                        stn = t.text.(d);
                        spdim = t.tpdims.(d);
                      })
                    bounds
                in
                (name, { skind = kind; sdims = Array.of_list sdims }))
        | Some (Ast.Align { dummies; target; subscripts; _ }, aloc) ->
            let t =
              match Hashtbl.find_opt templates target with
              | Some t -> t
              | None -> Diag.error ~loc:aloc "ALIGN names unknown template '%s'" target
            in
            if dummies <> [] && List.length dummies <> nb then
              Diag.error ~loc:aloc "ALIGN dummy count differs from rank of '%s'" name;
            let dummies = if dummies = [] then List.init nb (fun d -> Printf.sprintf "$%d" d) else dummies in
            let subscripts =
              if subscripts = [] then List.map (fun d -> Ast.var d) dummies else subscripts
            in
            if List.length subscripts <> Array.length t.text then
              Diag.error ~loc:aloc "ALIGN subscript count differs from rank of '%s'" target;
            (* for each array dimension (dummy), find the template dimension
               whose subscript mentions it *)
            let sdims =
              List.mapi
                (fun d (lo, hi) ->
                  let dummy = List.nth dummies d in
                  let tdim = ref None in
                  List.iteri
                    (fun td se ->
                      match se.Ast.e with
                      | Ast.Var "*" -> ()
                      | _ ->
                          if List.mem dummy (Ast.vars_of se) then begin
                            if !tdim <> None then
                              Diag.error ~loc:aloc "dummy '%s' appears in two template dimensions" dummy;
                            tdim := Some (td, se)
                          end)
                    subscripts;
                  match !tdim with
                  | None ->
                      (* not aligned anywhere: replicated dimension *)
                      default_dim (lo, hi)
                  | Some (td, se) -> (
                      match affine_of ~var:dummy ~lookup se with
                      | None ->
                          Diag.error ~loc:aloc "non-affine ALIGN subscript for '%s'" name
                      | Some f ->
                          (* Fortran-level: tpos = f(i); 0-based template
                             index = f(i) - template_flb; with i = flb + i0 *)
                          let f0 =
                            Affine.make ~a:f.Affine.a
                              ~b:(Affine.eval f lo - t.tflb.(td))
                          in
                          (* an affine map sends the array's ends to
                             the ends of its image *)
                          let t0 = Affine.eval f lo and t1 = Affine.eval f hi in
                          let tlo = t.tflb.(td) and thi = t.tflb.(td) + t.text.(td) - 1 in
                          if hi >= lo && (min t0 t1 < tlo || max t0 t1 > thi) then
                            Diag.error ~loc:aloc
                              "ALIGN maps %s(%d:%d) to %s(%d:%d), outside the template's \
                               bounds %d:%d in dimension %d"
                              name lo hi target (min t0 t1) (max t0 t1) tlo thi (td + 1);
                          {
                            sflb = lo;
                            sext = hi - lo + 1;
                            salign = f0;
                            sform = t.tforms.(td);
                            stn = t.text.(td);
                            spdim = t.tpdims.(td);
                          }))
                bounds
            in
            (name, { skind = kind; sdims = Array.of_list sdims })
        | Some _ -> Diag.bug "sema: non-align directive in align table")
      array_decls
  in
  check_strides lookup sub.Ast.body;
  {
    usub = sub;
    uparams = Hashtbl.fold (fun k v acc -> (k, v) :: acc) params [];
    uscalars = List.rev !scalars;
    uarrays = arrays;
    ugrid = !grid;
  }

let analyze (prog : Ast.program) =
  let main = analyze_unit prog.Ast.main in
  let subs = List.map (fun u -> (u.Ast.pname, analyze_unit ~main u)) prog.Ast.subs in
  { uprog = prog; uunits = (prog.Ast.main.Ast.pname, main) :: subs }

let main_env env =
  match env.uunits with
  | (_, u) :: _ -> u
  | [] -> Diag.bug "sema: empty program"

let grid_dims env ~nprocs =
  match (main_env env).ugrid with
  | None -> [| nprocs |]
  | Some (dims, loc) ->
      let total = Array.fold_left ( * ) 1 dims in
      if total <> nprocs then
        Diag.error ~loc "PROCESSORS grid (%d) does not match the machine size (%d)" total nprocs;
      dims

let instantiate ~ghosts uenv ~grid =
  List.map
    (fun (name, spec) ->
      let widest dim =
        List.fold_left
          (fun (wl, wh) (a, d, lo, hi) ->
            if a = name && d = dim then (max wl lo, max wh hi) else (wl, wh))
          (0, 0) ghosts
      in
      let dims =
        Array.mapi
          (fun dim sd ->
            let p =
              match sd.spdim with Some pd -> (Grid.dims grid).(pd) | None -> 1
            in
            let form =
              match sd.sform with
              | Ast.Dblock -> Distrib.Block
              | Ast.Dcyclic -> Distrib.Cyclic
              | Ast.Dcyclic_k k -> Distrib.Block_cyclic k
              | Ast.Dstar -> Distrib.Replicated
            in
            let ghost_lo, ghost_hi = widest dim in
            {
              Dad.flb = sd.sflb;
              extent = sd.sext;
              align = sd.salign;
              dist = Distrib.make form ~n:sd.stn ~p;
              pdim = sd.spdim;
              ghost_lo;
              ghost_hi;
            })
          spec.sdims
      in
      let kind =
        match spec.skind with
        | Ast.Integer -> Scalar.Kint
        | Ast.Real -> Scalar.Kreal
        | Ast.Logical -> Scalar.Klog
      in
      (name, Dad.make ~name ~kind ~grid dims))
    uenv.uarrays

let array_spec uenv name = List.assoc_opt name uenv.uarrays
let scalar_kind uenv name = List.assoc_opt name uenv.uscalars
let is_distributed spec = Array.exists (fun d -> d.spdim <> None) spec.sdims
