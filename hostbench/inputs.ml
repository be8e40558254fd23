(* Seeded inputs.  Every program text and every request of a workload is
   a function of (workload, seed) alone; the program under test receives
   only this generated text. *)

module Rng = F90d_fuzz.Rng
module Json = F90d_serve.Json

(* One independent stream per purpose, so a new draw in one place never
   shifts the values drawn in another. *)
let rng ~seed salt = Rng.make ((seed * 7919) + salt)

(* ------------------------------------------------------------------ *)
(* One-shot programs                                                   *)
(* ------------------------------------------------------------------ *)

(* Gaussian elimination with partial pivoting (the paper's Table 4 /
   Figure 6 program) on a seeded matrix; [d] strengthens the diagonal. *)
type gauss = { n : int; a : int; b : int; m : int; c : int; d : int; e : int; f : int; w : int }

let gauss_params ~seed ~n =
  let r = rng ~seed 1 in
  let m = Rng.range r 11 23 in
  let a = Rng.range r 3 29 in
  let b = Rng.range r 3 29 in
  let d = Rng.range r 25 40 in
  let e = Rng.range r 2 9 in
  let f = Rng.range r 5 13 in
  let w = Rng.range r 3 9 in
  { n; a; b; m; c = m / 2; d; e; f; w }

let gauss_source p =
  Printf.sprintf
    {|      PROGRAM GAUSS
      INTEGER, PARAMETER :: N = %d
      REAL A(%d, %d)
      REAL W(%d), F(%d), TMPR(%d), X(%d), Y(%d)
      REAL PIVOT, PIVMAX, T1, S1, S2, S3
      INTEGER K, I, INDXR
C$    TEMPLATE T(%d)
C$    ALIGN A(I, J) WITH T(J)
C$    ALIGN TMPR(J) WITH T(J)
C$    DISTRIBUTE T(BLOCK)
      FORALL (I = 1:N, J = 1:N)
        A(I, J) = MOD(%d*I + %d*J, %d) - %d + MERGE(%d.0, 0.0, I == J)
      END FORALL
      FORALL (I = 1:N) A(I, N+1) = MOD(%d*I, %d) + 1
      DO K = 1, N
        FORALL (I = 1:N) W(I) = A(I, K)
        PIVMAX = -1.0
        INDXR = K
        DO I = K, N
          IF (ABS(W(I)) > PIVMAX) THEN
            PIVMAX = ABS(W(I))
            INDXR = I
          END IF
        END DO
        IF (INDXR /= K) THEN
          FORALL (J = K:N+1) TMPR(J) = A(K, J)
          FORALL (J = K:N+1) A(K, J) = A(INDXR, J)
          FORALL (J = K:N+1) A(INDXR, J) = TMPR(J)
          T1 = W(K)
          W(K) = W(INDXR)
          W(INDXR) = T1
        END IF
        PIVOT = A(K, K)
        FORALL (J = K:N+1) A(K, J) = A(K, J) / PIVOT
        FORALL (I = 1:N) F(I) = A(I, K)
        FORALL (I = 1:K-1, J = K+1:N+1) A(I, J) = A(I, J) - F(I)*A(K, J)
        FORALL (I = K+1:N, J = K+1:N+1) A(I, J) = A(I, J) - F(I)*A(K, J)
        FORALL (I = 1:K-1) A(I, K) = 0.0
        FORALL (I = K+1:N) A(I, K) = 0.0
      END DO
      FORALL (I = 1:N) X(I) = A(I, N+1)
      FORALL (I = 1:N) Y(I) = X(I) * MOD(I, %d)
      S1 = SUM(X)
      S2 = SUM(Y)
      S3 = MAXVAL(X)
      PRINT *, S1, S2, S3
      END
|}
    p.n p.n (p.n + 1) p.n p.n (p.n + 1) p.n p.n (p.n + 1) p.a p.b p.m p.c p.d p.e p.f p.w

(* 5-point Jacobi relaxation on an (n+2)^2 grid over a square grid of
   [nprocs] processors, BLOCK in both dimensions. *)
let jacobi_source ~seed ~n ~steps ~nprocs =
  let r = rng ~seed 2 in
  let a = Rng.range r 2 9 and b = Rng.range r 2 9 and m = Rng.range r 7 19 in
  let w = Rng.range r 3 9 in
  let side = int_of_float (Float.round (sqrt (float_of_int nprocs))) in
  let e = n + 2 in
  Printf.sprintf
    {|      PROGRAM JACOBI2
      INTEGER, PARAMETER :: N = %d
      INTEGER, PARAMETER :: STEPS = %d
      REAL A(%d, %d), B(%d, %d)
      REAL S1, S2, S3
      INTEGER T
C$    PROCESSORS P(%d, %d)
C$    TEMPLATE TP(%d, %d)
C$    ALIGN A(I, J) WITH TP(I, J)
C$    ALIGN B(I, J) WITH TP(I, J)
C$    DISTRIBUTE TP(BLOCK, BLOCK)
      FORALL (I = 1:N+2, J = 1:N+2) A(I, J) = MOD(I*%d + J*%d, %d)
      DO T = 1, STEPS
        FORALL (I = 2:N+1, J = 2:N+1)
          B(I, J) = 0.25*(A(I-1, J) + A(I+1, J) + A(I, J-1) + A(I, J+1))
        END FORALL
        FORALL (I = 2:N+1, J = 2:N+1) A(I, J) = B(I, J)
      END DO
      FORALL (I = 1:N+2, J = 1:N+2) B(I, J) = A(I, J) * MOD(I + J, %d)
      S1 = SUM(A)
      S2 = SUM(B)
      S3 = MAXVAL(A)
      PRINT *, S1, S2, S3
      END
|}
    n steps e e e e side side e e a b m w

(* Gather A(I) = B(V(I)) and scatter C(U(I)) = A(I) through seeded
   permutations (odd multipliers are invertible mod the power-of-two N),
   inside a time loop that reuses the PARTI schedules. *)
let irregular_source ~seed ~n ~steps =
  let r = rng ~seed 3 in
  let odd () = (2 * Rng.range r 1 (n / 4)) + 1 in
  let a = odd () and b = Rng.range r 0 (n - 1) in
  let c = odd () and d = Rng.range r 0 (n - 1) in
  let e = Rng.range r 2 9 and f = Rng.range r 7 29 and w = Rng.range r 3 9 in
  Printf.sprintf
    {|      PROGRAM IRREG
      INTEGER, PARAMETER :: N = %d
      REAL A(%d), B(%d), C(%d), W(%d)
      INTEGER V(%d), U(%d)
      REAL S1, S2, S3
      INTEGER T
C$    TEMPLATE TP(%d)
C$    ALIGN A(I) WITH TP(I)
C$    ALIGN B(I) WITH TP(I)
C$    ALIGN C(I) WITH TP(I)
C$    ALIGN W(I) WITH TP(I)
C$    ALIGN V(I) WITH TP(I)
C$    ALIGN U(I) WITH TP(I)
C$    DISTRIBUTE TP(BLOCK)
      FORALL (I = 1:N) V(I) = MOD(%d*I + %d, N) + 1
      FORALL (I = 1:N) U(I) = MOD(%d*I + %d, N) + 1
      FORALL (I = 1:N) B(I) = MOD(%d*I, %d)
      DO T = 1, %d
        FORALL (I = 1:N) A(I) = B(V(I)) + T
        FORALL (I = 1:N) C(U(I)) = A(I)
      END DO
      FORALL (I = 1:N) W(I) = C(I) * MOD(I, %d)
      S1 = SUM(C)
      S2 = SUM(W)
      S3 = MAXVAL(C)
      PRINT *, S1, S2, S3
      END
|}
    n n n n n n n n a b c d e f steps w

(* Problem size N of each one-shot workload. *)
let size (w : Catalog.workload) =
  match w.Catalog.w_name with
  | "gauss-16" -> 255
  | "gauss-256" -> 64
  | "jacobi-4096" -> 128
  | "irregular-16" -> 32768
  | other -> invalid_arg ("not a one-shot workload: " ^ other)

let source (w : Catalog.workload) ~seed =
  let n = size w in
  match w.Catalog.w_name with
  | "gauss-16" | "gauss-256" -> gauss_source (gauss_params ~seed ~n)
  | "jacobi-4096" -> jacobi_source ~seed ~n ~steps:4 ~nprocs:w.Catalog.w_nprocs
  | _ -> irregular_source ~seed ~n ~steps:8

(* The same program with its executable statements removed: running it
   measures what the machine and the interpreter cost per rank before
   any statement executes. *)
let declarations_only src =
  let lines = String.split_on_char '\n' src in
  let is_decl l =
    let t = String.trim l in
    let starts p = String.length t >= String.length p && String.sub t 0 (String.length p) = p in
    List.exists starts [ "PROGRAM"; "INTEGER"; "REAL"; "LOGICAL"; "C$" ] || t = "END"
  in
  String.concat "\n" (List.filter is_decl lines)

(* ------------------------------------------------------------------ *)
(* serve-mix: the request stream                                       *)
(* ------------------------------------------------------------------ *)

let pool_size = 1000
let bad_pool = 32

(* The demo runs (program, demo_n, nprocs), drawn uniformly: a fixed
   set, so every seed asks for the same simulation work on average. *)
let run_configs =
  [|
    ("gauss", 12, 4); ("gauss", 16, 8); ("gauss", 20, 4); ("gauss", 24, 8);
    ("jacobi", 64, 4); ("jacobi", 128, 8); ("jacobi2d", 30, 4); ("jacobi2d", 30, 8);
    ("irregular", 64, 4); ("irregular", 128, 8); ("fft", 32, 4); ("fft", 64, 8);
  |]

type request = {
  index : int;
  op : string;
  payload : string;  (* the JSON frame sent to the daemon *)
  bad : bool;  (* must come back as a located diagnostic *)
  sample : bool;  (* cache bypassed; compared with an in-process replay *)
}

let demo_fields (d, n, p) = [ ("demo", Json.Str d); ("demo_n", Json.Int n); ("nprocs", Json.Int p) ]

(* Every demo run configuration once: the requests a serve-mix set-up
   sample sends to a fresh daemon.  They are the same for every seed, so
   the set-up time does not depend on the draw. *)
let warmup =
  List.mapi
    (fun index config ->
      { index; op = "run"; payload = Json.to_string (Json.Obj (("op", Json.Str "run") :: demo_fields config));
        bad = false; sample = false })
    (Array.to_list run_configs)

type stream = {
  pool : string array;  (* generated programs, most popular first *)
  bads : string array;
  pick_pool : Rng.t -> int;
  seed : int;
}

(* Zipf (s = 1) rank sampler over [n] items. *)
let zipf n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (r + 1));
    cdf.(r) <- !acc
  done;
  fun rng ->
    let u = float_of_int (Rng.int rng 1_000_000_000) /. 1e9 *. !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(* A seeded syntax error in a generated program: a stray token after a
   FORALL, or a FORALL replaced by a statement cut off mid-expression. *)
let corrupt rng src =
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let foralls =
    List.filter
      (fun i ->
        let t = String.trim lines.(i) in
        String.length t > 6 && String.sub t 0 6 = "FORALL")
      (List.init (Array.length lines) Fun.id)
  in
  let i = match foralls with [] -> Array.length lines - 2 | l -> Rng.pickl rng l in
  lines.(i) <- (if Rng.bool rng then lines.(i) ^ " )" else "      ZQ = (1 + ");
  String.concat "\n" (Array.to_list lines)

let stream ~seed =
  let pool =
    Array.init pool_size (fun i ->
        F90d_fuzz.Gen.print ~nprocs:4 (F90d_fuzz.Gen.generate ~seed:((seed * 100_003) + i)))
  in
  let r = rng ~seed 4 in
  let bads = Array.init bad_pool (fun i -> corrupt r pool.(i)) in
  { pool; bads; pick_pool = zipf pool_size; seed }

(* Requests come in blocks of 20 with fixed proportions — 10 compile,
   7 run, 1 explain, 1 profile, 1 bad source — in a seeded order, so
   every seed has the same mix and the latency median does not drift
   with the draw. *)
let block_ops =
  [| "compile"; "compile"; "compile"; "compile"; "compile"; "compile"; "compile"; "compile";
     "compile"; "compile"; "run"; "run"; "run"; "run"; "run"; "run"; "run"; "explain";
     "profile"; "bad" |]

let block st b =
  let r = rng ~seed:st.seed (1000 + b) in
  let ops = Array.copy block_ops in
  for i = Array.length ops - 1 downto 1 do
    let j = Rng.int r (i + 1) in
    let t = ops.(i) in
    ops.(i) <- ops.(j);
    ops.(j) <- t
  done;
  Array.mapi
    (fun k op ->
      let index = (b * Array.length block_ops) + k in
      let sample = Rng.chance r 5 in
      let source s = [ ("source", Json.Str s); ("nprocs", Json.Int 4) ] in
      let demo () = demo_fields (Rng.pick r run_configs) in
      let op', fields =
        match op with
        | "compile" | "explain" -> (op, source st.pool.(st.pick_pool r))
        | "run" -> ("run", demo () @ if Rng.chance r 10 then [ ("finals", Json.Bool true) ] else [])
        | "profile" -> ("profile", demo ())
        | _ -> ("compile", source (Rng.pick r st.bads))
      in
      let fields =
        (("op", Json.Str op') :: fields) @ if sample then [ ("cache", Json.Bool false) ] else []
      in
      { index; op = op'; payload = Json.to_string (Json.Obj fields); bad = op = "bad"; sample })
    ops

(* The stream's requests in order, generated a block at a time (the
   stream is unbounded, and no more than one block of request text is
   held in memory). *)
let cursor st =
  let cur = ref [||] and next = ref 0 in
  fun () ->
    let per = Array.length block_ops in
    if !next mod per = 0 then cur := block st (!next / per);
    let r = !cur.(!next mod per) in
    incr next;
    r

(* The first [n] requests of the stream. *)
let prefix st n =
  let next = cursor st in
  List.init n (fun _ -> next ())

(* A one-shot workload's program as service requests: eight compiles
   (one cold, then cache hits) and two runs (a store miss, then a hit). *)
let program_requests ~source ~nprocs =
  List.init 10 (fun index ->
      let op = if index < 8 then "compile" else "run" in
      let payload =
        Json.to_string
          (Json.Obj [ ("op", Json.Str op); ("source", Json.Str source); ("nprocs", Json.Int nprocs) ])
      in
      { index; op; payload; bad = false; sample = false })
