type t = {
  fronts : (string, F90d.Driver.front) Hashtbl.t;  (* source digest -> front *)
  compiled : (string, F90d.Driver.compiled) Hashtbl.t;  (* digest ^ flags fp -> optimized *)
  m : Mutex.t;
  h1 : int Atomic.t;
  m1 : int Atomic.t;
  h2 : int Atomic.t;
  m2 : int Atomic.t;
}

let create () =
  {
    fronts = Hashtbl.create 16;
    compiled = Hashtbl.create 16;
    m = Mutex.create ();
    h1 = Atomic.make 0;
    m1 = Atomic.make 0;
    h2 = Atomic.make 0;
    m2 = Atomic.make 0;
  }

let source_digest source = Digest.to_hex (Digest.string source)

let flags_fp flags =
  String.concat ""
    (List.map
       (fun (p : F90d_opt.Passes.pass) ->
         Printf.sprintf "%s%d" p.tag (if p.get flags then 1 else 0))
       F90d_opt.Passes.passes)

type temp = Hit | Miss

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let compile t ~use ~flags source =
  if not use then (F90d.Driver.compile ~flags source, Miss, Miss)
  else begin
    let d = source_digest source in
    let key2 = d ^ ":" ^ flags_fp flags in
    match locked t (fun () -> Hashtbl.find_opt t.compiled key2) with
    | Some c ->
        Atomic.incr t.h1;
        (* a level-2 hit implies the front was available too *)
        Atomic.incr t.h2;
        (c, Hit, Hit)
    | None ->
        Atomic.incr t.m2;
        let front, t1 =
          match locked t (fun () -> Hashtbl.find_opt t.fronts d) with
          | Some f ->
              Atomic.incr t.h1;
              (f, Hit)
          | None ->
              Atomic.incr t.m1;
              let f = F90d.Driver.front source in
              locked t (fun () -> Hashtbl.replace t.fronts d f);
              (f, Miss)
        in
        let c = F90d.Driver.optimize ~flags front in
        locked t (fun () -> Hashtbl.replace t.compiled key2 c);
        (c, t1, Miss)
  end

let l1_hits t = Atomic.get t.h1
let l1_misses t = Atomic.get t.m1
let l2_hits t = Atomic.get t.h2
let l2_misses t = Atomic.get t.m2

let entries t =
  locked t (fun () -> (Hashtbl.length t.fronts, Hashtbl.length t.compiled))
