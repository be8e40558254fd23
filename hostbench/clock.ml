(* The suite's one clock (CLOCK_MONOTONIC, nanoseconds) and the order
   statistics every metric is reported with. *)

let now () = Monotonic_clock.now ()
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9
let since t0 = seconds_between t0 (now ())

let time f =
  let t0 = now () in
  let r = f () in
  (r, since t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile by Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), so the suite's spreads are the ones
   a reader recomputes from the raw values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

(* Host-speed correction.  On a shared host, other tenants can change the
   speed of a core by a third within seconds — more than the regressions
   the suite must catch.  Every time the suite reports is therefore
   scaled to a nominal host: a fixed reference loop is timed around (and,
   for jobs, during) each sample, and the sample is multiplied by
   [nominal_ref] over the mean loop time.  Where the loop takes
   [nominal_ref] seconds the correction is 1. *)
let nominal_ref = 0.005

(* Allocated once, so that sampling the speed inside a job adds nothing
   to the job's heap. *)
let loop_data = Array.make 200_000 0

let ref_loop () =
  let t0 = now () in
  let a = loop_data in
  let s = ref 0 in
  for r = 1 to 10 do
    for i = 0 to Array.length a - 1 do
      a.(i) <- a.(i) + ((i * r) land 1023);
      s := !s + a.(i)
    done
  done;
  ignore (Sys.opaque_identity !s);
  since t0

(* One speed sample between two measurements: the median of three loops,
   so a single descheduling does not skew it. *)
let speed () = median [ ref_loop (); ref_loop (); ref_loop () ]

let corrected_by loops raw =
  raw *. nominal_ref /. (List.fold_left ( +. ) 0. loops /. float_of_int (List.length loops))

let corrected ~before ~after raw = corrected_by [ before; after ] raw
