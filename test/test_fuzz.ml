(* Differential-fuzzing regression suite: replay the shrunk corpus
   repros against the full rank/passes matrix, pin the generator's
   determinism, and unit-test the compiler fixes the fuzzer flushed out
   (zero-amount shift union, zero strides, stale gather
   schedules). *)

open F90d_base
open F90d_fuzz

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Corpus replay                                                       *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let corpus_files () =
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".f90d")
  |> List.sort compare

let test_corpus_present () =
  checkb "corpus holds the shrunk repros" true (List.length (corpus_files ()) >= 10)

let test_corpus_replay () =
  List.iter
    (fun f ->
      match Diff.check_source (read_file (Filename.concat "corpus" f)) with
      | [] -> ()
      | fails ->
          Alcotest.failf "%s: %s" f (String.concat "; " (List.map Diff.pp_failure fails)))
    (corpus_files ())

(* ------------------------------------------------------------------ *)
(* Generator determinism and smoke                                     *)
(* ------------------------------------------------------------------ *)

let test_gen_deterministic () =
  let text seed = Gen.print ~nprocs:4 (Gen.program ~seed) in
  checks "same seed, same program" (text 7) (text 7);
  checkb "different seeds differ" true (text 7 <> text 8)

let test_fuzz_smoke () =
  for seed = 0 to 9 do
    match Diff.check_prog (Gen.program ~seed) with
    | [] -> ()
    | fails ->
        Alcotest.failf "seed %d: %s" seed
          (String.concat "; " (List.map Diff.pp_failure fails))
  done

(* ------------------------------------------------------------------ *)
(* Fixes flushed out by the fuzzer                                     *)
(* ------------------------------------------------------------------ *)

let shift arr amount = F90d_ir.Ir.Overlap_shift { arr; dim = 0; amount }

let test_union_shifts_zero () =
  (* a zero-amount shift moves nothing: it must be dropped, not crash
     the widest-shift filter *)
  checki "zero shift dropped" 0 (List.length (F90d_opt.Passes.union_shifts [ shift "A" 0 ]));
  match F90d_opt.Passes.union_shifts [ shift "A" 0; shift "A" 2; shift "A" 1 ] with
  | [ F90d_ir.Ir.Overlap_shift { amount; _ } ] -> checki "widest survives" 2 amount
  | l -> Alcotest.failf "expected one shift, got %d comms" (List.length l)

let test_sema_zero_stride () =
  let source =
    "      PROGRAM Z\n      REAL A(5)\n      FORALL (I = 1:5:0) A(I) = 1\n      END\n"
  in
  checkb "zero FORALL stride is a compile-time error" true
    (match F90d.Driver.compile source with
    | exception Diag.Error (_, msg) ->
        (try ignore (Str.search_forward (Str.regexp_string "zero stride") msg 0); true
         with Not_found -> false)
    | _ -> false)

let () =
  Alcotest.run "fuzz"
    [
      ( "corpus",
        [
          Alcotest.test_case "corpus present" `Quick test_corpus_present;
          Alcotest.test_case "corpus replays clean" `Slow test_corpus_replay;
        ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "seeds 0-9 smoke" `Slow test_fuzz_smoke;
        ] );
      ( "fixes",
        [
          Alcotest.test_case "union_shifts zero amount" `Quick test_union_shifts_zero;
          Alcotest.test_case "zero stride diagnostic" `Quick test_sema_zero_stride;
        ] );
    ]
