(* Differential fuzzing driver.

   Generates seeded random programs, runs each through the full compiler
   at every (nprocs, passes) configuration, and diffs final array
   and scalar state bit-for-bit against the sequential reference
   evaluator.  On divergence the failing program is (optionally) shrunk
   and written out as a standalone .f90d repro. *)

open F90d_fuzz

let seeds = ref 100
let start = ref 0
let one_seed = ref (-1)
let do_shrink = ref false
let out_dir = ref "fuzz-repros"
let emit = ref (-1)
let ranks = ref Diff.default_ranks
let flag_sets = ref Diff.default_flag_sets
let quiet = ref false
let replay = ref ""
let daemon_seeds = ref 0

let parse_csv s = List.map int_of_string (String.split_on_char ',' s)

let parse_flag_sets s =
  List.map
    (fun name ->
      let name = String.trim name in
      match Diff.flag_set name with
      | Some fs -> fs
      | None ->
          raise
            (Arg.Bad
               (Printf.sprintf "unknown flag set '%s' (known: %s)" name
                  (String.concat ", " (List.map fst Diff.named_flag_sets)))))
    (String.split_on_char ',' s)

let spec =
  [
    ("--seeds", Arg.Set_int seeds, "N  number of seeds to fuzz (default 100)");
    ("--start", Arg.Set_int start, "S  first seed (default 0)");
    ("--seed", Arg.Set_int one_seed, "K  fuzz exactly one seed");
    ("--shrink", Arg.Set do_shrink, "   shrink failing programs before emitting repros");
    ("--out", Arg.Set_string out_dir, "DIR  directory for shrunk repros (default fuzz-repros)");
    ("--emit", Arg.Set_int emit, "K  print the program for seed K and exit");
    ("--ranks", Arg.String (fun s -> ranks := parse_csv s), "CSV  rank axis (default 1,2,4)");
    ( "--flags",
      Arg.String (fun s -> flag_sets := parse_flag_sets s),
      "CSV  pass-flag axis: on, off, hoist, coalesce, split, lookahead, no-hoist, \
       no-coalesce, no-split, no-lookahead (default on,off)" );
    ("--quiet", Arg.Set quiet, "   only report failures");
    ("--replay", Arg.Set_string replay, "FILE  differentially check one .f90d source file");
    ( "--daemon",
      Arg.Set_int daemon_seeds,
      "N  replay N seeds through a --serve daemon (cold + warm) and diff each response \
       bit-for-bit against the in-process service" );
  ]

let usage = "fuzz/main.exe [--seeds N] [--start S] [--shrink] ..."

let check p = Diff.check_prog ~ranks:!ranks ~flag_sets:!flag_sets p

let report_failure seed (p : Gen.prog) (failures : Diff.failure list) =
  Printf.printf "seed %d: FAILED\n" seed;
  List.iter (fun f -> Printf.printf "  %s\n" (Diff.pp_failure f)) failures;
  let p =
    if !do_shrink then begin
      (* a variant that breaks the reference evaluator (e.g. out-of-bounds
         after an extent shrink) is invalid, not still-failing *)
      let still_fails c =
        List.exists
          (function Diff.Ref_error _ -> false | Diff.Config_error _ | Diff.Mismatch _ -> true)
          (check c)
      in
      let shrunk = Shrink.shrink ~still_fails p in
      Printf.printf "  shrunk: %d -> %d statements\n" (List.length p.Gen.body)
        (List.length shrunk.Gen.body);
      shrunk
    end
    else p
  in
  let failures = match check p with [] -> failures | fs -> fs in
  let failing_nprocs =
    List.fold_left
      (fun acc f ->
        match f with
        | Diff.Config_error (c, _) | Diff.Mismatch (c, _) -> max acc c.Diff.nprocs
        | Diff.Ref_error _ -> acc)
      1 failures
  in
  (try Sys.mkdir !out_dir 0o755 with _ -> ());
  let path = Filename.concat !out_dir (Printf.sprintf "seed_%d.f90d" seed) in
  let oc = open_out path in
  Printf.fprintf oc "* fuzz repro: seed %d\n" seed;
  List.iter (fun f -> Printf.fprintf oc "* %s\n" (Diff.pp_failure f)) failures;
  output_string oc (Gen.print ~nprocs:failing_nprocs p);
  close_out oc;
  Printf.printf "  repro written to %s\n%!" path

(* Daemon axis: the same generated programs, but routed through a real
   [--serve] daemon over its Unix socket.  Each seed is requested twice
   (cold, then warm — the second hits every cache level) and every
   response must be byte-identical to an in-process service following
   the identical request sequence against its own store, which pins the
   whole transport + worker-pool + persistence path to the reference. *)
let run_daemon_axis n =
  let module S = F90d_serve in
  let dir = Filename.temp_dir "f90d-fuzz-daemon" "" in
  let sock = Filename.concat dir "fuzz.sock" in
  let service =
    S.Service.create ~store:(S.Store.create ~dir:(Filename.concat dir "store-daemon")) ()
  in
  let srv = S.Server.start ~workers:2 ~service ~sock_path:sock () in
  let solo =
    S.Service.create ~store:(S.Store.create ~dir:(Filename.concat dir "store-solo")) ()
  in
  let nprocs = List.fold_left max 1 !ranks in
  let strip r = S.Json.to_string (S.Service.strip_volatile r) in
  let diverged = ref 0 in
  let done_ = ref 0 in
  S.Client.with_conn sock (fun c ->
      for seed = !start to !start + n - 1 do
        let source = Gen.print ~nprocs (Gen.program ~seed) in
        let req =
          S.Json.Obj
            [
              ("op", S.Json.Str "run");
              ("source", S.Json.Str source);
              ("nprocs", S.Json.Int nprocs);
              ("finals", S.Json.Bool true);
            ]
        in
        List.iter
          (fun phase ->
            let via_daemon = S.Client.request c req in
            let in_process = S.Service.handle solo req in
            if strip via_daemon <> strip in_process then begin
              incr diverged;
              Printf.printf "seed %d (%s): daemon response DIVERGED from in-process\n%!" seed
                phase
            end)
          [ "cold"; "warm" ];
        incr done_;
        if (not !quiet) && !done_ mod 25 = 0 then
          Printf.printf "... %d/%d daemon seeds, %d divergence(s)\n%!" !done_ n !diverged
      done);
  S.Client.with_conn sock (fun c ->
      ignore (S.Client.request c (S.Json.Obj [ ("op", S.Json.Str "shutdown") ])));
  S.Server.wait srv;
  if !diverged = 0 then begin
    if not !quiet then
      Printf.printf "OK: %d seeds bit-identical through the daemon (cold and warm)\n" n;
    exit 0
  end
  else begin
    Printf.printf "FAILED: %d divergence(s) across %d seeds through the daemon\n" !diverged n;
    exit 1
  end

let () =
  Arg.parse spec (fun s -> raise (Arg.Bad ("unexpected argument " ^ s))) usage;
  if !daemon_seeds > 0 then run_daemon_axis !daemon_seeds;
  if !replay <> "" then begin
    let ic = open_in !replay in
    let n = in_channel_length ic in
    let source = really_input_string ic n in
    close_in ic;
    (match Refeval.run ~file:!replay source with
    | r ->
        Printf.printf "reference output:\n%s" r.Refeval.r_output;
        List.iter
          (fun (name, nd) ->
            Format.printf "  %s = %a@." name F90d_base.Ndarray.pp nd)
          r.Refeval.r_finals
    | exception e -> Printf.printf "reference evaluator failed: %s\n" (Printexc.to_string e));
    match Diff.check_source ~ranks:!ranks ~flag_sets:!flag_sets source with
    | [] ->
        Printf.printf "OK: no divergence\n";
        exit 0
    | failures ->
        List.iter (fun f -> Printf.printf "%s\n" (Diff.pp_failure f)) failures;
        exit 1
  end;
  if !emit >= 0 then begin
    let p = Gen.program ~seed:!emit in
    print_string (Gen.print ~nprocs:(List.fold_left max 1 !ranks) p);
    exit 0
  end;
  let todo = if !one_seed >= 0 then [ !one_seed ] else List.init !seeds (fun i -> !start + i) in
  let failed = ref 0 in
  let done_ = ref 0 in
  List.iter
    (fun seed ->
      let p = Gen.program ~seed in
      (match check p with
      | [] -> ()
      | failures ->
          incr failed;
          report_failure seed p failures);
      incr done_;
      if (not !quiet) && !done_ mod 50 = 0 then
        Printf.printf "... %d/%d seeds, %d failure(s)\n%!" !done_ (List.length todo) !failed)
    todo;
  if !failed = 0 then begin
    if not !quiet then
      Printf.printf "OK: %d seeds, zero divergences across %d configurations each\n"
        (List.length todo)
        (List.length (Diff.matrix ~ranks:!ranks ~flag_sets:!flag_sets ()));
    exit 0
  end
  else begin
    Printf.printf "FAILED: %d of %d seeds diverged\n" !failed (List.length todo);
    exit 1
  end
