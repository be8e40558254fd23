(* Plain sequential reference evaluator.

   Executes the *normalized* AST (the same statement stream the compiler
   lowers) over global arrays with no distribution, no communication and
   no processors.  Semantics deliberately mirror the SPMD interpreter
   element for element — same elemental intrinsics ([Interp.apply_elemental]),
   same scalar coercions ([Ndarray.set_flat] truncation), same reduction
   operators ([Redop.scalar]) — so a generated program has exactly one
   bit-exact answer and any difference against [Driver.run] is a compiler
   or runtime bug, not numeric noise.

   FORALL is executed with true evaluate-all-then-store semantics: every
   (mask, index, value) triple is computed against the pre-statement
   state before any element is written. *)

open F90d_base
open F90d_frontend
open F90d_runtime

type result = {
  r_output : string;
  r_finals : (string * Ndarray.t) list;
  r_scalars : (string * Scalar.t) list;
}

exception Return_unwind

type st = {
  env : Sema.unit_env;
  arrays : (string, Ndarray.t) Hashtbl.t;
  scalars : (string, Scalar.t ref) Hashtbl.t;
  out : Buffer.t;
}

let kind_of_decl = function
  | Ast.Integer -> Scalar.Kint
  | Ast.Real -> Scalar.Kreal
  | Ast.Logical -> Scalar.Klog

(* global array matching an array_spec: Fortran lower bounds, full extents *)
let alloc_array (spec : Sema.array_spec) =
  let lb = Array.map (fun d -> d.Sema.sflb) spec.Sema.sdims in
  let extents = Array.map (fun d -> d.Sema.sext) spec.Sema.sdims in
  Ndarray.create (kind_of_decl spec.Sema.skind) ~lb extents

let is_array st name = Hashtbl.mem st.arrays name
let array_of st name = Hashtbl.find st.arrays name

let coerce kind v =
  match kind with
  | Scalar.Kint -> Scalar.Int (Scalar.to_int v)
  | Scalar.Kreal -> Scalar.Real (Scalar.to_real v)
  | Scalar.Klog -> Scalar.Log (Scalar.to_bool v)
  | Scalar.Kstr -> v

(* fvals: FORALL loop variables in scope, as in the interpreter's frame *)
let rec eval st (fvals : (string * int) list) (e : Ast.expr) : Scalar.t =
  match e.Ast.e with
  | Ast.Int_lit n -> Scalar.Int n
  | Ast.Real_lit r -> Scalar.Real r
  | Ast.Log_lit b -> Scalar.Log b
  | Ast.Str_lit s -> Scalar.Str s
  | Ast.Var v -> (
      match List.assoc_opt v fvals with
      | Some g -> Scalar.Int g
      | None -> (
          match Hashtbl.find_opt st.scalars v with
          | Some r -> !r
          | None -> (
              match List.assoc_opt v st.env.Sema.uparams with
              | Some s -> s
              | None -> Diag.error ~loc:e.Ast.loc "undefined variable '%s'" v)))
  | Ast.Un (Ast.Neg, a) -> Scalar.neg (eval st fvals a)
  | Ast.Un (Ast.Not, a) -> Scalar.not_ (eval st fvals a)
  | Ast.Bin (op, a, b) -> (
      let x = eval st fvals a in
      (* same short-circuit as the interpreter *)
      match (op, x) with
      | Ast.And, Scalar.Log false -> Scalar.Log false
      | Ast.Or, Scalar.Log true -> Scalar.Log true
      | _ ->
          let y = eval st fvals b in
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
          f x y)
  | Ast.Ref r -> eval_ref st fvals e.Ast.loc r

and eval_ref st fvals loc (r : Ast.ref_) =
  let elem_args () =
    List.map
      (function
        | Ast.Elem x -> x
        | Ast.Range _ -> Diag.error ~loc "unexpected array section")
      r.Ast.args
  in
  if Intrinsic_names.is_elemental r.Ast.base && not (is_array st r.Ast.base) then
    F90d_exec.Interp.apply_elemental r.Ast.base loc
      (List.map (eval st fvals) (elem_args ()))
  else if Intrinsic_names.is_transformational r.Ast.base && not (is_array st r.Ast.base) then
    eval_transformational st fvals loc r
  else if is_array st r.Ast.base then
    let g =
      Array.of_list (List.map (fun e -> Scalar.to_int (eval st fvals e)) (elem_args ()))
    in
    Ndarray.get (array_of st r.Ast.base) g
  else Diag.error ~loc "unknown function or array '%s'" r.Ast.base

and eval_transformational st fvals loc (r : Ast.ref_) =
  let args =
    List.map
      (function
        | Ast.Elem x -> x
        | Ast.Range _ -> Diag.error ~loc "array section argument for %s" r.Ast.base)
      r.Ast.args
  in
  let whole_array (e : Ast.expr) =
    match e.Ast.e with
    | Ast.Var v when is_array st v -> array_of st v
    | _ -> Diag.error ~loc "%s expects a whole array argument" r.Ast.base
  in
  let fold op nd =
    let acc = ref (Redop.identity op (Ndarray.kind nd)) in
    for i = 0 to Ndarray.size nd - 1 do
      acc := Redop.scalar op !acc (Ndarray.get_flat nd i)
    done;
    !acc
  in
  let spec_of v =
    match Sema.array_spec st.env v with
    | Some s -> s
    | None -> Diag.error ~loc "'%s' is not an array" v
  in
  match (r.Ast.base, args) with
  | ("SUM" | "PRODUCT" | "MAXVAL" | "MINVAL" | "ALL" | "ANY"), [ a ] ->
      let op =
        match r.Ast.base with
        | "SUM" -> Redop.Sum
        | "PRODUCT" -> Redop.Prod
        | "MAXVAL" -> Redop.Max
        | "MINVAL" -> Redop.Min
        | "ALL" -> Redop.And
        | _ -> Redop.Or
      in
      fold op (whole_array a)
  | "COUNT", [ a ] ->
      let nd = whole_array a in
      let n = ref 0 in
      for i = 0 to Ndarray.size nd - 1 do
        if Scalar.to_bool (Ndarray.get_flat nd i) then incr n
      done;
      Scalar.Int !n
  | ("DOT_PRODUCT" | "DOTPRODUCT"), [ a; b ] ->
      (* the runtime accumulates in a float, whatever the element kinds *)
      let x = whole_array a and y = whole_array b in
      let acc = ref 0. in
      for i = 0 to Ndarray.size x - 1 do
        acc := !acc +. (Scalar.to_real (Ndarray.get_flat x i) *. Scalar.to_real (Ndarray.get_flat y i))
      done;
      Scalar.Real !acc
  | ("MAXLOC" | "MINLOC"), [ a ] ->
      let nd = whole_array a in
      if Ndarray.rank nd <> 1 then
        Diag.error ~loc "%s is supported for rank-1 arrays (assign to a scalar)" r.Ast.base;
      let better = if r.Ast.base = "MAXLOC" then Scalar.cmp_gt else Scalar.cmp_lt in
      let name = match args with [ { Ast.e = Ast.Var v; _ } ] -> v | _ -> assert false in
      let flb = (spec_of name).Sema.sdims.(0).Sema.sflb in
      let best = ref (Ndarray.get_flat nd 0) and at = ref 0 in
      for i = 1 to Ndarray.size nd - 1 do
        let v = Ndarray.get_flat nd i in
        (* strict improvement only: ties keep the first occurrence, the
           runtime's global_flat tie-break *)
        if Scalar.to_bool (better v !best) then begin
          best := v;
          at := i
        end
      done;
      Scalar.Int (flb + !at)
  | "SIZE", [ a ] -> Scalar.Int (Ndarray.size (whole_array a))
  | "SIZE", [ a; d ] ->
      let name = match a.Ast.e with Ast.Var v -> v | _ -> Diag.error ~loc "SIZE argument" in
      let dim = Scalar.to_int (eval st fvals d) in
      Scalar.Int (spec_of name).Sema.sdims.(dim - 1).Sema.sext
  | "LBOUND", [ a; d ] ->
      let name = match a.Ast.e with Ast.Var v -> v | _ -> Diag.error ~loc "LBOUND argument" in
      let dim = Scalar.to_int (eval st fvals d) in
      Scalar.Int (spec_of name).Sema.sdims.(dim - 1).Sema.sflb
  | "UBOUND", [ a; d ] ->
      let name = match a.Ast.e with Ast.Var v -> v | _ -> Diag.error ~loc "UBOUND argument" in
      let dim = Scalar.to_int (eval st fvals d) in
      let sd = (spec_of name).Sema.sdims.(dim - 1) in
      Scalar.Int (sd.Sema.sflb + sd.Sema.sext - 1)
  | _ -> Diag.error ~loc "unsupported use of intrinsic %s" r.Ast.base

(* ------------------------------------------------------------------ *)
(* Movers (whole-array intrinsic assignments)                          *)
(* ------------------------------------------------------------------ *)

(* Fortran metadata of a global array: per-dim (flb, extent) *)
let dims_of nd spec =
  ignore nd;
  Array.map (fun d -> (d.Sema.sflb, d.Sema.sext)) spec.Sema.sdims

let iter_indices dims f =
  let rank = Array.length dims in
  let idx = Array.map fst dims in
  let n = Array.fold_left (fun acc (_, e) -> acc * e) 1 dims in
  for _ = 1 to n do
    f (Array.copy idx);
    let rec bump d =
      if d < rank then begin
        let flb, e = dims.(d) in
        if idx.(d) < flb + e - 1 then idx.(d) <- idx.(d) + 1
        else begin
          idx.(d) <- flb;
          bump (d + 1)
        end
      end
    in
    bump 0
  done

let exec_mover st ~target ~(call : Ast.ref_) loc =
  let args =
    List.map
      (function
        | Ast.Elem x -> x
        | Ast.Range _ -> Diag.error ~loc "array section argument for %s" call.Ast.base)
      call.Ast.args
  in
  let arr_name (e : Ast.expr) =
    match e.Ast.e with
    | Ast.Var v when is_array st v -> v
    | _ -> Diag.error ~loc "%s expects whole-array arguments" call.Ast.base
  in
  let int_arg e = Scalar.to_int (eval st [] e) in
  let tspec =
    match Sema.array_spec st.env target with
    | Some s -> s
    | None -> Diag.error ~loc "'%s' is not an array" target
  in
  let fresh_target () = alloc_array tspec in
  let shifted src_name ~dim ~shift ~circular ~boundary =
    let src = array_of st src_name in
    let spec = Option.get (Sema.array_spec st.env src_name) in
    let dims = dims_of src spec in
    let out = fresh_target () in
    let flb, e = dims.(dim) in
    iter_indices dims (fun g ->
        let p = g.(dim) - flb + shift in
        let v =
          if circular then begin
            let sg = Array.copy g in
            sg.(dim) <- flb + F90d_base.Util.modulo p e;
            Ndarray.get src sg
          end
          else if p >= 0 && p < e then begin
            let sg = Array.copy g in
            sg.(dim) <- flb + p;
            Ndarray.get src sg
          end
          else boundary
        in
        Ndarray.set out g v);
    out
  in
  let result =
    match (call.Ast.base, args) with
    | "CSHIFT", [ a; s ] ->
        shifted (arr_name a) ~dim:0 ~shift:(int_arg s) ~circular:true ~boundary:(Scalar.Int 0)
    | "CSHIFT", [ a; s; d ] ->
        shifted (arr_name a) ~dim:(int_arg d - 1) ~shift:(int_arg s) ~circular:true
          ~boundary:(Scalar.Int 0)
    | "EOSHIFT", [ a; s ] ->
        let src = array_of st (arr_name a) in
        shifted (arr_name a) ~dim:0 ~shift:(int_arg s) ~circular:false
          ~boundary:(Scalar.zero (Ndarray.kind src))
    | "EOSHIFT", [ a; s; b ] ->
        shifted (arr_name a) ~dim:0 ~shift:(int_arg s) ~circular:false ~boundary:(eval st [] b)
    | "EOSHIFT", [ a; s; b; d ] ->
        shifted (arr_name a) ~dim:(int_arg d - 1) ~shift:(int_arg s) ~circular:false
          ~boundary:(eval st [] b)
    | "TRANSPOSE", [ a ] ->
        let src = array_of st (arr_name a) in
        let spec = Option.get (Sema.array_spec st.env (arr_name a)) in
        let dims = dims_of src spec in
        let out = fresh_target () in
        iter_indices dims (fun g -> Ndarray.set out [| g.(1); g.(0) |] (Ndarray.get src g));
        out
    | _ -> Diag.error ~loc "intrinsic %s is not supported by the reference evaluator" call.Ast.base
  in
  Hashtbl.replace st.arrays target result

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec exec_stmt st (s : Ast.stmt) =
  match s.Ast.s with
  | Ast.Assign ({ Ast.e = Ast.Var v; _ }, rhs) when is_array st v -> (
      match rhs.Ast.e with
      | Ast.Ref call when Intrinsic_names.is_transformational call.Ast.base ->
          exec_mover st ~target:v ~call s.Ast.sloc
      | _ ->
          Diag.error ~loc:s.Ast.sloc
            "whole-array assignment to '%s' survived normalization" v)
  | Ast.Assign ({ Ast.e = Ast.Var v; _ }, rhs) -> (
      let value = eval st [] rhs in
      match Hashtbl.find_opt st.scalars v with
      | Some r ->
          let kind =
            match Sema.scalar_kind st.env v with
            | Some k -> kind_of_decl k
            | None -> Scalar.kind value
          in
          r := coerce kind value
      | None -> Hashtbl.replace st.scalars v (ref value))
  | Ast.Assign ({ Ast.e = Ast.Ref lhs; _ }, rhs) ->
      let value = eval st [] rhs in
      let g =
        List.map
          (function
            | Ast.Elem e -> Scalar.to_int (eval st [] e)
            | Ast.Range _ ->
                Diag.error ~loc:s.Ast.sloc "array section survived normalization")
          lhs.Ast.args
        |> Array.of_list
      in
      Ndarray.set (array_of st lhs.Ast.base) g value
  | Ast.Assign _ -> Diag.error ~loc:s.Ast.sloc "malformed assignment"
  | Ast.Forall (triplets, mask, body) -> List.iter (exec_forall st triplets mask) body
  | Ast.Where _ -> Diag.error ~loc:s.Ast.sloc "WHERE survived normalization"
  | Ast.Do (var, range, body) ->
      let lo = Scalar.to_int (eval st [] range.Ast.lo) in
      let hi = Scalar.to_int (eval st [] range.Ast.hi) in
      let stp =
        match range.Ast.st with Some e -> Scalar.to_int (eval st [] e) | None -> 1
      in
      if stp = 0 then Diag.error ~loc:s.Ast.sloc "zero DO stride";
      let cell =
        match Hashtbl.find_opt st.scalars var with
        | Some r -> r
        | None ->
            let r = ref (Scalar.Int lo) in
            Hashtbl.replace st.scalars var r;
            r
      in
      let i = ref lo in
      while (stp > 0 && !i <= hi) || (stp < 0 && !i >= hi) do
        cell := Scalar.Int !i;
        List.iter (exec_stmt st) body;
        i := !i + stp
      done
  | Ast.While (cond, body) ->
      while Scalar.to_bool (eval st [] cond) do
        List.iter (exec_stmt st) body
      done
  | Ast.If (arms, els) ->
      let rec go = function
        | [] -> List.iter (exec_stmt st) els
        | (c, body) :: rest ->
            if Scalar.to_bool (eval st [] c) then List.iter (exec_stmt st) body else go rest
      in
      go arms
  | Ast.Print args ->
      let line = Buffer.create 64 in
      List.iter
        (fun (e : Ast.expr) ->
          if Buffer.length line > 0 then Buffer.add_char line ' ';
          match e.Ast.e with
          | Ast.Var v when is_array st v ->
              Buffer.add_string line (Format.asprintf "%a" Ndarray.pp (array_of st v))
          | _ -> Buffer.add_string line (Format.asprintf "%a" Scalar.pp (eval st [] e)))
        args;
      Buffer.add_buffer st.out line;
      Buffer.add_char st.out '\n'
  | Ast.Return -> raise Return_unwind
  | Ast.Call _ -> Diag.error ~loc:s.Ast.sloc "CALL is not supported by the reference evaluator"

(* evaluate-all-then-store FORALL over the global arrays *)
and exec_forall st triplets mask (body_stmt : Ast.stmt) =
  let lhs, rhs =
    match body_stmt.Ast.s with
    | Ast.Assign ({ Ast.e = Ast.Ref r; _ }, rhs) -> (r, rhs)
    | _ -> Diag.error ~loc:body_stmt.Ast.sloc "FORALL body must be an assignment"
  in
  let ranges =
    List.map
      (fun (v, (rg : Ast.range)) ->
        let lo = Scalar.to_int (eval st [] rg.Ast.lo) in
        let hi = Scalar.to_int (eval st [] rg.Ast.hi) in
        let stp =
          match rg.Ast.st with Some e -> Scalar.to_int (eval st [] e) | None -> 1
        in
        if stp = 0 then Diag.error ~loc:body_stmt.Ast.sloc "zero FORALL stride";
        let n =
          if stp > 0 then max 0 (((hi - lo) / stp) + 1) else max 0 (((lo - hi) / -stp) + 1)
        in
        (v, Array.init n (fun k -> lo + (k * stp))))
      triplets
  in
  let target = array_of st lhs.Ast.base in
  let stores = ref [] in
  let rec iterate fvals = function
    | [] ->
        let fvals = List.rev fvals in
        let masked =
          match mask with
          | None -> false
          | Some m -> not (Scalar.to_bool (eval st fvals m))
        in
        if not masked then begin
          let v = eval st fvals rhs in
          let g =
            List.map
              (function
                | Ast.Elem e -> Scalar.to_int (eval st fvals e)
                | Ast.Range _ ->
                    Diag.error ~loc:body_stmt.Ast.sloc "lhs section survived normalization")
              lhs.Ast.args
            |> Array.of_list
          in
          stores := (g, v) :: !stores
        end
    | (v, values) :: rest ->
        Array.iter (fun gval -> iterate ((v, gval) :: fvals) rest) values
  in
  iterate [] ranges;
  List.iter (fun (g, v) -> Ndarray.set target g v) (List.rev !stores)

(* ------------------------------------------------------------------ *)
(* Entry                                                               *)
(* ------------------------------------------------------------------ *)

let run ?(file = "<fuzz>") source =
  let ast = Parser.parse ~file source in
  let env = Sema.analyze ast in
  let unit_env = Sema.main_env env in
  let body = Normalize.normalize_unit unit_env ast.Ast.main.Ast.body in
  let st =
    {
      env = unit_env;
      arrays = Hashtbl.create 8;
      scalars = Hashtbl.create 8;
      out = Buffer.create 256;
    }
  in
  List.iter
    (fun (n, spec) -> Hashtbl.replace st.arrays n (alloc_array spec))
    unit_env.Sema.uarrays;
  List.iter
    (fun (n, k) -> Hashtbl.replace st.scalars n (ref (Scalar.zero (kind_of_decl k))))
    unit_env.Sema.uscalars;
  (try List.iter (exec_stmt st) body with Return_unwind -> ());
  let finals = List.map (fun (n, _) -> (n, array_of st n)) unit_env.Sema.uarrays in
  let scalars =
    Hashtbl.fold (fun n r acc -> (n, !r) :: acc) st.scalars []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { r_output = Buffer.contents st.out; r_finals = finals; r_scalars = scalars }
