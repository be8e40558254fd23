(* Hand-written reference for the gauss workloads: the program's
   Gauss-Jordan elimination with partial pivoting, performed on a plain
   OCaml matrix with the same per-element operations in the same order.
   It returns the three checksums the program prints. *)

let checksums (p : Inputs.gauss) =
  let n = p.Inputs.n in
  let a = Array.make_matrix (n + 2) (n + 2) 0. in
  for i = 1 to n do
    for j = 1 to n do
      a.(i).(j) <-
        float_of_int ((((p.Inputs.a * i) + (p.Inputs.b * j)) mod p.Inputs.m) - p.Inputs.c)
        +. if i = j then float_of_int p.Inputs.d else 0.
    done;
    a.(i).(n + 1) <- float_of_int (((p.Inputs.e * i) mod p.Inputs.f) + 1)
  done;
  for k = 1 to n do
    let piv = ref k and pmax = ref (-1.) in
    for i = k to n do
      if Float.abs a.(i).(k) > !pmax then begin
        pmax := Float.abs a.(i).(k);
        piv := i
      end
    done;
    if !piv <> k then begin
      let t = a.(k) in
      a.(k) <- a.(!piv);
      a.(!piv) <- t
    end;
    let pivot = a.(k).(k) in
    for j = k to n + 1 do
      a.(k).(j) <- a.(k).(j) /. pivot
    done;
    for i = 1 to n do
      if i <> k then begin
        let f = a.(i).(k) in
        for j = k + 1 to n + 1 do
          a.(i).(j) <- a.(i).(j) -. (f *. a.(k).(j))
        done;
        a.(i).(k) <- 0.
      end
    done
  done;
  let s1 = ref 0. and s2 = ref 0. and s3 = ref neg_infinity in
  for i = 1 to n do
    let x = a.(i).(n + 1) in
    s1 := !s1 +. x;
    s2 := !s2 +. (x *. float_of_int (i mod p.Inputs.w));
    s3 := Float.max !s3 x
  done;
  [ !s1; !s2; !s3 ]
