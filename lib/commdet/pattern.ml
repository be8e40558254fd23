open F90d_base
open F90d_frontend

type dim_tag =
  | No_comm
  | Local_dim
  | Multicast of Ast.expr
  | Transfer of { src : Ast.expr; dest : Ast.expr }
  | Overlap of int
  | Temp_shift of Ast.expr

type ref_plan = Direct | Structured of dim_tag array | Precomp_read | Gather | Concat

type lhs_kind =
  | Lhs_canonical of {
      var_dims : (string * int option) list;
      guards : (int * Ast.expr) list;
    }
  | Lhs_replicated
  | Lhs_postcomp
  | Lhs_scatter

type plan = {
  lhs_ref : Ast.ref_;
  lhs : lhs_kind;
  refs : (Ast.ref_ * ref_plan) list;
  lhs_why : string;
  ref_whys : (int * string list) list;
}

let subscript_exprs (r : Ast.ref_) =
  List.map
    (function
      | Ast.Elem e -> e
      | Ast.Range _ -> Diag.bug "commdet: array section survived normalization")
    r.Ast.args

let classify_ref env ~vars (r : Ast.ref_) =
  let lookup v = List.assoc_opt v env.Sema.uparams in
  let is_int_array n =
    match Sema.array_spec env n with Some s -> s.Sema.skind = Ast.Integer | None -> false
  in
  List.map (Subscript.classify ~vars ~is_const:lookup ~is_int_array) (subscript_exprs r)
  |> Array.of_list

(* Whether a subscript of [r] reads a distributed array.  Under an even
   iteration partition such a read goes through this rank's inspector
   temporary, which covers no other rank's iterations: the reference's
   needs (or writes) are then not locally computable for a peer. *)
let reads_distributed env (r : Ast.ref_) =
  List.exists
    (fun (ri : Ast.ref_) ->
      match Sema.array_spec env ri.Ast.base with
      | Some spec -> Sema.is_distributed spec
      | None -> false)
    (List.concat_map Ast.refs_of (subscript_exprs r))

(* Can structured/local access share local indices between two dimensions?
   Requires the same template extent, alignment and distribution. *)
let layouts_match (a : Sema.sdim) (b : Sema.sdim) =
  a.Sema.stn = b.Sema.stn && a.Sema.sform = b.Sema.sform
  && Affine.equal a.Sema.salign b.Sema.salign
  && a.Sema.sext = b.Sema.sext && a.Sema.sflb = b.Sema.sflb

(* Conservative bound for using ghost cells instead of a temporary: the
   shift must fit in the smallest block. *)
let overlap_ok (d : Sema.sdim) c =
  d.Sema.sform = Ast.Dblock && Affine.is_identity d.Sema.salign && c <> 0 && abs c <= 3

(* Table 1 / Table 2 row names for an aligned block-distributed pair. *)
let classify_pair lhs_cls rhs_cls =
  match (lhs_cls, rhs_cls) with
  | Subscript.Canonical v, Subscript.Canonical v' when v = v' -> "no communication"
  | Subscript.Canonical _, Subscript.Const _ -> "multicast"
  | Subscript.Canonical v, Subscript.Var_const (v', c) when v = v' ->
      if abs c <= 3 then "overlap_shift" else "temporary_shift"
  | Subscript.Canonical v, Subscript.Var_scalar (v', _) when v = v' -> "temporary_shift"
  | Subscript.Const _, Subscript.Const _ -> "transfer"
  | _, Subscript.Affine _ -> "precomp_read / postcomp_write"
  | _, Subscript.Vector _ -> "gather / scatter"
  | _, _ -> "gather / scatter (unknown)"

let analyze_forall env ~vars ~mask ~lhs ~rhs =
  let var_names = List.map fst vars in
  let lhs_ref =
    match lhs.Ast.e with
    | Ast.Ref r -> r
    | _ -> Diag.error ~loc:lhs.Ast.loc "FORALL assignment target must be an array element"
  in
  let lhs_spec =
    match Sema.array_spec env lhs_ref.Ast.base with
    | Some s -> s
    | None -> Diag.error ~loc:lhs.Ast.loc "'%s' is not an array" lhs_ref.Ast.base
  in
  let lhs_classes = classify_ref env ~vars:var_names lhs_ref in
  (* ----- left-hand side ----- *)
  let lhs_distributed = Sema.is_distributed lhs_spec in
  let postcomp_demoted = ref false in
  let lhs_kind =
    if not lhs_distributed then Lhs_replicated
    else begin
      (* distributed dims must be canonical or constant for owner computes *)
      let bad_structured = ref false and vector_write = ref false in
      Array.iteri
        (fun d cls ->
          if lhs_spec.Sema.sdims.(d).Sema.spdim <> None then
            match cls with
            | Subscript.Canonical _ | Subscript.Const _ -> ()
            | Subscript.Var_const _ | Subscript.Var_scalar _ | Subscript.Affine _ ->
                bad_structured := true
            | Subscript.Vector _ | Subscript.Unknown -> vector_write := true)
        lhs_classes;
      if !vector_write then Lhs_scatter
      else if !bad_structured then
        if reads_distributed env lhs_ref then begin
          postcomp_demoted := true;
          Lhs_scatter
        end
        else Lhs_postcomp
      else begin
        let guards = ref [] in
        let var_dims =
          List.map
            (fun v ->
              let dim = ref None in
              Array.iteri
                (fun d cls ->
                  match cls with
                  | Subscript.Canonical v' when v' = v && !dim = None -> dim := Some d
                  | _ -> ())
                lhs_classes;
              (v, !dim))
            var_names
        in
        Array.iteri
          (fun d cls ->
            match cls with
            | Subscript.Const e when lhs_spec.Sema.sdims.(d).Sema.spdim <> None ->
                guards := (d, e) :: !guards
            | _ -> ())
          lhs_classes;
        Lhs_canonical { var_dims; guards = List.rev !guards }
      end
    end
  in
  let lhs_why =
    match lhs_kind with
    | Lhs_replicated ->
        Printf.sprintf "'%s' is not distributed: computation replicated on every processor"
          lhs_ref.Ast.base
    | Lhs_scatter when !postcomp_demoted ->
        "non-canonical subscript reading a distributed array: its writes are not locally \
         computable, scatter write (Table 2, §4 case 4)"
    | Lhs_scatter ->
        "vector-valued subscript on a distributed lhs dimension: scatter write \
         (Table 2, §4 case 4)"
    | Lhs_postcomp ->
        "non-canonical but invertible subscript on a distributed lhs dimension: \
         compute on even iteration partition, postcomp write-back (Table 2, §4 case 3)"
    | Lhs_canonical { guards; _ } ->
        if guards = [] then
          "owner computes: canonical subscripts, iterations follow the lhs distribution"
        else
          Printf.sprintf
            "owner computes with %d constant-subscript guard(s): only owning processors \
             are active in the guarded dimension(s)"
            (List.length guards)
  in
  (* ----- right-hand side and mask references ----- *)
  let cls_str c = Format.asprintf "%a" Subscript.pp c in
  let lhs_dim_on_grid p =
    let found = ref None in
    Array.iteri
      (fun d sd -> if sd.Sema.spdim = Some p && !found = None then found := Some d)
      lhs_spec.Sema.sdims;
    !found
  in
  (* under even iteration partitioning (non-canonical lhs, §4 cases 3/4)
     nothing aligns with the iterations: every distributed reference reads
     through an inspector *)
  let even_iteration =
    match lhs_kind with
    | Lhs_postcomp | Lhs_scatter -> true
    | Lhs_canonical _ | Lhs_replicated -> false
  in
  let ref_whys = ref [] in
  let plan_of_ref (r : Ast.ref_) =
    let why = ref [] in
    let say fmt = Printf.ksprintf (fun s -> why := s :: !why) fmt in
    let record plan =
      ref_whys := (r.Ast.rid, List.rev !why) :: !ref_whys;
      Some (r, plan)
    in
    match Sema.array_spec env r.Ast.base with
    | None -> None (* intrinsic call or scalar function: not a data reference *)
    | Some spec ->
        if not (Sema.is_distributed spec) then begin
          say "'%s' is not distributed: local access" r.Ast.base;
          record Direct
        end
        else if even_iteration then begin
          let classes = classify_ref env ~vars:var_names r in
          let vector =
            Array.exists
              (function Subscript.Vector _ | Subscript.Unknown -> true | _ -> false)
              classes
          in
          let vectorish = vector || reads_distributed env r in
          if vector then
            say
              "iterations evenly partitioned (non-canonical lhs) and subscript is \
               vector-valued: gather (Table 2)"
          else if vectorish then
            say
              "iterations evenly partitioned (non-canonical lhs) and a subscript reads a \
               distributed array: gather (Table 2)"
          else
            say
              "iterations evenly partitioned (non-canonical lhs): nothing aligns with the \
               iterations, read through precomp inspector (Table 2)";
          record (if vectorish then Gather else Precomp_read)
        end
        else begin
          let classes = classify_ref env ~vars:var_names r in
          let tags = Array.make (Array.length spec.Sema.sdims) Local_dim in
          let needs_precomp = ref false
          and needs_gather = ref false
          and needs_concat = ref false in
          Array.iteri
            (fun d sd ->
              match sd.Sema.spdim with
              | None -> tags.(d) <- Local_dim
              | Some p -> (
                  let cls = classes.(d) in
                  match (lhs_distributed, lhs_dim_on_grid p) with
                  | true, Some dl -> (
                      let sdl = lhs_spec.Sema.sdims.(dl) in
                      let aligned = layouts_match sd sdl in
                      let row = classify_pair lhs_classes.(dl) cls in
                      let pair_str =
                        Printf.sprintf "dim %d: lhs%s vs rhs%s%s" (d + 1)
                          (cls_str lhs_classes.(dl)) (cls_str cls)
                          (if aligned then "" else ", layouts differ")
                      in
                      match (lhs_classes.(dl), cls) with
                      | Subscript.Canonical v, Subscript.Canonical v' when v = v' && aligned ->
                          say "%s -> %s (Table 1)" pair_str row;
                          tags.(d) <- No_comm
                      | Subscript.Canonical v, Subscript.Var_const (v', c)
                        when v = v' && aligned && overlap_ok sd c ->
                          say
                            "%s -> overlap_shift(%+d) into ghost cells (Table 1; |%d| <= 3, \
                             BLOCK, identity align)"
                            pair_str c c;
                          tags.(d) <- Overlap c
                      | Subscript.Canonical v, Subscript.Var_const (v', c) when v = v' && aligned
                        ->
                          say "%s -> temporary_shift(%+d) (Table 1; too wide or uneven for \
                               ghost cells)"
                            pair_str c;
                          tags.(d) <- Temp_shift (Ast.int_lit c)
                      | Subscript.Canonical v, Subscript.Var_scalar (v', s) when v = v' && aligned
                        ->
                          say "%s -> temporary_shift by run-time scalar (Table 1)" pair_str;
                          tags.(d) <- Temp_shift s
                      | _, Subscript.Const s -> (
                          match lhs_classes.(dl) with
                          | Subscript.Const dsub when aligned ->
                              say "%s -> transfer between owners (Table 1)" pair_str;
                              tags.(d) <- Transfer { src = s; dest = dsub }
                          | Subscript.Const _ ->
                              (* the transfer destination is named by a lhs
                                 subscript: only meaningful when both sides
                                 share a layout, otherwise the slab would be
                                 delivered to the wrong owner *)
                              say
                                "%s -> transfer impossible (layouts differ): precomp \
                                 inspector (Table 2)"
                                pair_str;
                              needs_precomp := true
                          | _ ->
                              say "%s -> multicast of the owning slab (Table 1)" pair_str;
                              tags.(d) <- Multicast s)
                      | Subscript.Canonical v, Subscript.Affine (v', _) when v = v' && aligned ->
                          say "%s -> no Table 1 row (affine stride): precomp inspector \
                               (Table 2)"
                            pair_str;
                          needs_precomp := true
                      | _, (Subscript.Vector _ | Subscript.Unknown) ->
                          say "%s -> vector-valued/unknown subscript: gather (Table 2)" pair_str;
                          needs_gather := true
                      | _, _ ->
                          say "%s -> no Table 1 row (cross-variable or misaligned): precomp \
                               inspector (Table 2)"
                            pair_str;
                          needs_precomp := true)
                  | _, _ -> (
                      (* lhs is not distributed over this grid dimension *)
                      match cls with
                      | Subscript.Const s ->
                          say
                            "dim %d: rhs%s constant, lhs not on grid dim %d -> multicast of \
                             the slice (Table 1)"
                            (d + 1) (cls_str cls) (p + 1);
                          tags.(d) <- Multicast s
                      | Subscript.Vector _ | Subscript.Unknown ->
                          say "dim %d: rhs%s vector-valued/unknown -> gather (Table 2)" (d + 1)
                            (cls_str cls);
                          needs_gather := true
                      | _ ->
                          if lhs_distributed then begin
                            say
                              "dim %d: rhs%s varies but lhs has no dimension on grid dim %d \
                               -> precomp inspector (Table 2)"
                              (d + 1) (cls_str cls) (p + 1);
                            needs_precomp := true
                          end
                          else begin
                            say
                              "dim %d: rhs%s varies and lhs is replicated -> concatenation \
                               (Table 2)"
                              (d + 1) (cls_str cls);
                            needs_concat := true
                          end)))
            spec.Sema.sdims;
          let plan =
            if !needs_gather then Gather
            else if !needs_concat then Concat
            else if !needs_precomp then Precomp_read
            else if Array.for_all (fun t -> t = No_comm || t = Local_dim) tags then Direct
            else Structured tags
          in
          record plan
        end
  in
  let all_refs =
    Ast.refs_of rhs
    @ (match mask with Some m -> Ast.refs_of m | None -> [])
    @ List.concat_map Ast.refs_of (subscript_exprs lhs_ref)
  in
  let refs = List.filter_map plan_of_ref all_refs in
  { lhs_ref; lhs = lhs_kind; refs; lhs_why; ref_whys = List.rev !ref_whys }

let tag_name = function
  | No_comm -> "no_comm"
  | Local_dim -> "local"
  | Multicast _ -> "multicast"
  | Transfer _ -> "transfer"
  | Overlap c -> Printf.sprintf "overlap_shift(%+d)" c
  | Temp_shift _ -> "temporary_shift"

let plan_name = function
  | Direct -> "direct"
  | Structured tags ->
      Printf.sprintf "structured[%s]"
        (String.concat "," (Array.to_list (Array.map tag_name tags)))
  | Precomp_read -> "precomp_read"
  | Gather -> "gather"
  | Concat -> "concatenation"

