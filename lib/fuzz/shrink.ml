(* Greedy structural shrinker.

   Transformations propose smaller variants of a failing program; a
   variant is accepted when the caller's predicate says it still fails.
   The predicate runs the reference evaluator first, so a transformation
   that breaks program validity (out-of-bounds subscript after an extent
   shrink, an index array read before its initialisation survived, ...)
   is simply rejected — no transformation needs its own bounds proof. *)

open Gen

(* every array name a statement mentions *)
let rec sub_arrays = function
  | Sind (v, _, _) -> [ v ]
  | Splus _ | Sminus _ | Stwo _ | Sconst _ | Sscal _ -> []

and expr_arrays = function
  | L _ | F _ | V _ -> []
  | A (a, subs) -> a :: List.concat_map sub_arrays subs
  | B (_, x, y) -> expr_arrays x @ expr_arrays y
  | C (_, args) -> List.concat_map expr_arrays args

let rec aexpr_arrays = function
  | AA a -> [ a ]
  | ACst e -> expr_arrays e
  | AB (_, x, y) -> aexpr_arrays x @ aexpr_arrays y
  | AC (_, args) -> List.concat_map aexpr_arrays args

let rec stm_arrays = function
  | Forall { mask; lhs; lsubs; rhs; _ } ->
      lhs :: List.concat_map sub_arrays lsubs @ expr_arrays rhs
      @ (match mask with Some m -> expr_arrays m | None -> [])
  | Arr { lhs; rhs } -> lhs :: aexpr_arrays rhs
  | Sec { lhs; rhs; _ } -> [ lhs; rhs ]
  | Where { mask; lhs; rhs; els } ->
      (lhs :: aexpr_arrays mask) @ aexpr_arrays rhs
      @ (match els with Some e -> aexpr_arrays e | None -> [])
  | Mover { lhs; src; boundary; _ } ->
      [ lhs; src ] @ (match boundary with Some e -> expr_arrays e | None -> [])
  | Reduce { src; _ } -> [ src ]
  | SAssign (_, e) -> expr_arrays e
  | Elem { lhs; subs; rhs } -> lhs :: List.concat_map sub_arrays subs @ expr_arrays rhs
  | Do { body; _ } -> List.concat_map stm_arrays body
  | If { cond; then_; els } ->
      expr_arrays cond @ List.concat_map stm_arrays then_ @ List.concat_map stm_arrays els

(* immediate subterms: candidates for replacing an expression wholesale *)
let expr_children = function
  | B (_, x, y) -> [ x; y ]
  | C (_, args) -> args
  | _ -> []

let simpler_exprs e =
  expr_children e @ (match e with L 1 -> [] | _ -> [ L 1 ])

let simpler_sub = function
  | Splus (_, 0) -> []
  | Splus (v, _) -> [ Splus (v, 0) ]
  | Sminus (v, _) | Stwo (v, _) | Sind (_, v, _) | Sscal (v, _) -> [ Splus (v, 0) ]
  | Sconst 1 -> []
  | Sconst _ -> [ Sconst 1 ]

(* all one-step reductions of a statement (empty list = drop is the only move) *)
let rec stm_variants s =
  let at_pos l i f = List.mapi (fun j x -> if i = j then f x else [ x ]) l in
  let subs_variants subs rebuild =
    List.concat
      (List.mapi
         (fun i su ->
           List.map
             (fun su' -> rebuild (List.concat (at_pos subs i (fun _ -> [ su' ]))))
             (simpler_sub su))
         subs)
  in
  match s with
  | Forall f ->
      (match f.mask with Some _ -> [ Forall { f with mask = None } ] | None -> [])
      @ List.map (fun r -> Forall { f with rhs = r }) (simpler_exprs f.rhs)
      @ subs_variants f.lsubs (fun lsubs -> Forall { f with lsubs })
  | Arr a ->
      List.filter_map
        (function AA n -> Some (Arr { a with rhs = AA n }) | _ -> None)
        (match a.rhs with AB (_, x, y) -> [ x; y ] | AC (_, l) -> l | _ -> [])
  | Sec sec -> if sec.count > 2 then [ Sec { sec with count = 2 } ] else []
  | Where w -> (
      match w.els with
      | Some _ -> [ Where { w with els = None } ]
      | None -> [ Arr { lhs = w.lhs; rhs = w.rhs } ])
  | Mover m ->
      (if m.boundary <> None then [ Mover { m with boundary = None } ] else [])
      @ (if m.amount <> 1 && m.call <> "TRANSPOSE" then [ Mover { m with amount = 1 } ] else [])
  | Reduce _ | SAssign _ -> []
  | Elem e ->
      List.map (fun r -> Elem { e with rhs = r }) (simpler_exprs e.rhs)
      @ subs_variants e.subs (fun subs -> Elem { e with subs })
  | Do d ->
      (* fewer iterations, then unwrapped body, then inner shrinks *)
      (if d.lo <> d.hi then [ Do { d with hi = d.lo } ] else [])
      @ [ Do { d with body = [] } ]
      @ List.concat
          (List.mapi
             (fun i inner ->
               List.map
                 (fun inner' ->
                   Do { d with body = List.concat (at_pos d.body i (fun _ -> [ inner' ])) })
                 (stm_variants inner)
               @ [ Do { d with body = List.concat (at_pos d.body i (fun _ -> [])) } ])
             d.body)
  | If i ->
      (if i.els <> [] then [ If { i with els = [] } ] else [])
      @ List.map (fun s -> s) i.then_ (* hoist the guarded statements *)

(* one-step reductions of the whole program, most aggressive first *)
let candidates (p : prog) : prog list =
  let n = List.length p.body in
  let drop_stmt =
    List.init n (fun i -> { p with body = List.filteri (fun j _ -> j <> i) p.body })
  in
  let shrink_stmt =
    List.concat
      (List.mapi
         (fun i s ->
           List.map
             (fun s' -> { p with body = List.mapi (fun j x -> if i = j then s' else x) p.body })
             (stm_variants s))
         p.body)
  in
  let drop_arrays =
    List.filter_map
      (fun (a : arr) ->
        let keeps (s : stm) = not (List.mem a.aname (stm_arrays s)) in
        let body = List.filter keeps p.body in
        if List.length p.arrays > 1 then
          Some { p with arrays = List.filter (fun x -> x.aname <> a.aname) p.arrays; body }
        else None)
      p.arrays
  in
  let degrid =
    match p.grid with
    | Some 2 -> [ { p with grid = Some 1 }; { p with grid = None } ]
    | Some _ -> [ { p with grid = None } ]
    | None -> []
  in
  let deblock =
    let all_block =
      List.map
        (fun a -> { a with adist = List.map (fun d -> if d = Dstar then Dstar else Dblock) a.adist })
        p.arrays
    in
    if all_block <> p.arrays then [ { p with arrays = all_block } ] else []
  in
  let resize =
    (if p.n1 > 4 then [ { p with n1 = max 4 (p.n1 / 2) } ] else [])
    @ if p.n2 > 4 then [ { p with n2 = max 4 (p.n2 / 2) } ] else []
  in
  drop_stmt @ drop_arrays @ shrink_stmt @ degrid @ deblock @ resize

let shrink ~(still_fails : prog -> bool) (p : prog) : prog =
  let budget = ref 500 in
  let rec go p =
    if !budget <= 0 then p
    else
      match
        List.find_opt
          (fun c ->
            decr budget;
            !budget >= 0 && still_fails c)
          (candidates p)
      with
      | Some c -> go c
      | None -> p
  in
  go p
