(* Differential driver: one program, one reference answer, a matrix of
   compiled configurations that must all reproduce it bit for bit. *)

open F90d_base

type cfg = { nprocs : int; passes : string * F90d_opt.Passes.flags }

type failure =
  | Ref_error of string  (* the reference evaluator itself failed: generator bug *)
  | Config_error of cfg * string  (* compile or run crashed under this config *)
  | Mismatch of cfg * string  (* first bit-level difference found *)

let pp_cfg { nprocs; passes = pname, _ } = Printf.sprintf "nprocs=%d passes=%s" nprocs pname

let pp_failure = function
  | Ref_error m -> "reference evaluator failed: " ^ m
  | Config_error (c, m) -> Printf.sprintf "[%s] crashed: %s" (pp_cfg c) m
  | Mismatch (c, m) -> Printf.sprintf "[%s] diverged: %s" (pp_cfg c) m

let default_ranks = [ 1; 2; 4 ]

(* Named pass-flag sets for the matrix: "on"/"off" exercise everything
   against nothing (the default axis); the single-pass and all-but-one
   sets isolate one optimization when hunting a divergence. *)
let named_flag_sets =
  let open F90d_opt.Passes in
  [
    ("on", all_on);
    ("off", all_off);
    ("hoist", { all_off with hoist_comm = true });
    ("coalesce", { all_off with coalesce = true });
    ("no-hoist", { all_on with hoist_comm = false });
    ("no-coalesce", { all_on with coalesce = false });
    ("split", { all_off with split_comm = true });
    ("lookahead", { all_off with split_comm = true; lookahead = true });
    ("no-split", { all_on with split_comm = false; lookahead = false });
    ("no-lookahead", { all_on with lookahead = false });
    ("no-kernels", { all_on with blocked_kernels = false });
  ]

let flag_set name =
  Option.map (fun f -> (name, f)) (List.assoc_opt name named_flag_sets)

let default_flag_sets =
  [ ("on", F90d_opt.Passes.all_on); ("off", F90d_opt.Passes.all_off) ]

let matrix ?(ranks = default_ranks) ?(flag_sets = default_flag_sets) () =
  List.concat_map
    (fun nprocs -> List.map (fun passes -> { nprocs; passes }) flag_sets)
    ranks

let scalar_str s = Format.asprintf "%a" Scalar.pp s
let nd_str nd = Format.asprintf "%a" Ndarray.pp nd

(* first difference between the reference answer and one run, or None *)
let compare_outcomes (r : Refeval.result) (o : F90d_exec.Interp.outcome) =
  let diff = ref None in
  let note msg = if !diff = None then diff := Some msg in
  List.iter
    (fun (name, ref_nd) ->
      match List.assoc_opt name o.F90d_exec.Interp.finals with
      | None -> note (Printf.sprintf "array %s missing from SPMD finals" name)
      | Some got ->
          if not (Ndarray.equal ref_nd got) then
            note
              (Printf.sprintf "array %s differs\n  reference: %s\n  spmd:      %s" name
                 (nd_str ref_nd) (nd_str got)))
    r.Refeval.r_finals;
  List.iter
    (fun (name, ref_s) ->
      match List.assoc_opt name o.F90d_exec.Interp.final_scalars with
      | None -> note (Printf.sprintf "scalar %s missing from SPMD finals" name)
      | Some got ->
          if not (Scalar.equal ref_s got) then
            note
              (Printf.sprintf "scalar %s differs: reference %s, spmd %s" name
                 (scalar_str ref_s) (scalar_str got)))
    r.Refeval.r_scalars;
  if List.length o.F90d_exec.Interp.final_scalars <> List.length r.Refeval.r_scalars then
    note "scalar sets differ";
  if o.F90d_exec.Interp.output <> r.Refeval.r_output then
    note
      (Printf.sprintf "output differs\n  reference: %S\n  spmd:      %S" r.Refeval.r_output
         o.F90d_exec.Interp.output);
  !diff

let describe_exn = function
  | Diag.Error (loc, msg) when loc.Loc.line > 0 ->
      Printf.sprintf "%s:%d: %s" loc.Loc.file loc.Loc.line msg
  | Diag.Error (_, msg) -> msg
  | e -> Printexc.to_string e

(* [print ~nprocs] yields the source for a machine size: the PROCESSORS
   directive, when present, must name the machine it runs on *)
let check ?ranks ?flag_sets (print : nprocs:int -> string) : failure list =
  match
    (try Ok (Refeval.run (print ~nprocs:1)) with e -> Error (describe_exn e))
  with
  | Error m -> [ Ref_error m ]
  | Ok reference ->
      List.filter_map
        (fun cfg ->
          let _, flags = cfg.passes in
          match
            let compiled = F90d.Driver.compile ~flags (print ~nprocs:cfg.nprocs) in
            F90d.Driver.run ~nprocs:cfg.nprocs compiled
          with
          | result -> (
              match compare_outcomes reference result.F90d.Driver.outcome with
              | None -> None
              | Some msg -> Some (Mismatch (cfg, msg)))
          | exception e -> Some (Config_error (cfg, describe_exn e)))
        (matrix ?ranks ?flag_sets ())

let check_prog ?ranks ?flag_sets (p : Gen.prog) =
  check ?ranks ?flag_sets (fun ~nprocs -> Gen.print ~nprocs p)

(* fixed source text (corpus replay): the PROCESSORS directive, if any,
   pins the machine size, so restrict the rank axis to its grid product *)
let processors_product source =
  let re = Str.regexp "PROCESSORS +[A-Z0-9_]+(\\([0-9, ]+\\))" in
  try
    ignore (Str.search_forward re source 0);
    let dims = String.split_on_char ',' (Str.matched_group 1 source) in
    Some (List.fold_left (fun acc d -> acc * int_of_string (String.trim d)) 1 dims)
  with Not_found -> None

let check_source ?ranks ?flag_sets source =
  let ranks =
    match processors_product source with
    | Some p -> [ p ]
    | None -> ( match ranks with Some r -> r | None -> default_ranks)
  in
  check ~ranks ?flag_sets (fun ~nprocs:_ -> source)
