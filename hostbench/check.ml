(* Output checks.  A generated program ends by printing three checksums
   (SUM, a weighted SUM and MAXVAL of its result); a job is correct when
   every printed value is within the printed precision (6 significant
   digits, so a relative 1e-5) of an independent reference. *)

let numbers text =
  String.split_on_char '\n' text
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (fun s -> s <> "")
  |> List.map float_of_string_opt

let close ~reference got = Float.abs (got -. reference) <= 1e-5 *. Float.max 1. (Float.abs reference)

let output_ok ~reference output =
  let got = numbers output in
  List.length got = List.length reference
  && List.for_all2
       (fun g r -> match g with Some g -> close ~reference:r g | None -> false)
       got reference

(* References, computed before any measured run: the hand-written
   elimination for gauss, the fuzzer's sequential evaluator otherwise. *)
let reference (w : Catalog.workload) ~seed =
  match w.Catalog.w_name with
  | "gauss-16" | "gauss-256" -> Gauss_ref.checksums (Inputs.gauss_params ~seed ~n:(Inputs.size w))
  | _ ->
      let out = (F90d_fuzz.Refeval.run (Inputs.source w ~seed)).F90d_fuzz.Refeval.r_output in
      List.map (function Some x -> x | None -> nan) (numbers out)

(* A located diagnostic, as the service renders [Diag.Error]:
   "<file>:<line>:<col>: message". *)
let located msg =
  match String.index_opt msg ':' with
  | None -> false
  | Some i -> (
      match String.split_on_char ':' (String.sub msg (i + 1) (String.length msg - i - 1)) with
      | line :: col :: _ :: _ ->
          int_of_string_opt line <> None && int_of_string_opt col <> None
      | _ -> false)
