(* Compiler explain reports and the compile-time/runtime join.

   The explain side renders what Lower recorded per comm-bearing
   statement (Pattern's Table 1/2 decision trail plus distribution
   facts); the profile side joins Analyze's per-statement trace rows
   back to source lines through the program's provenance table, so a
   "hot statements" table shows the predicted pattern next to its
   measured traffic. *)

open F90d_base
open F90d_ir

(* ------------------------------------------------------------------ *)
(* Post-optimization communication per sid                             *)
(* ------------------------------------------------------------------ *)

(* u_explain records the primitives as detected; optimization passes may
   have fused or unioned them afterwards.  The statements themselves are
   the ground truth, so collect the final comm names per sid. *)
(* Append-merge: the hoisting/coalescing passes move comms away from
   their statement, so one sid's comms may be contributed from several
   syntactic places (its own f_pre, a loop pre-header, another
   statement's batch). *)
let add_comms acc sid names =
  let cur = match Hashtbl.find_opt acc sid with Some l -> l | None -> [] in
  Hashtbl.replace acc sid (cur @ names)

let stmt_comms acc (st : Ir.stmt) =
  match st.Ir.s with
  | Ir.Forall f ->
      let pre = List.map Ir.comm_name f.Ir.f_pre in
      let post =
        match f.Ir.f_post with
        | Some (Ir.Postcomp_write _) -> [ "postcomp_write" ]
        | Some (Ir.Scatter_write _) -> [ "scatter_write" ]
        | None -> []
      in
      add_comms acc st.Ir.sid (pre @ post);
      (* batch members lifted from *other* statements still belong to
         those statements in the report *)
      List.iter
        (function
          | Ir.Comm_batch members ->
              List.iter
                (fun { Ir.hc; hc_sid; _ } ->
                  if hc_sid <> st.Ir.sid then
                    add_comms acc hc_sid
                      [ Printf.sprintf "%s (coalesced into stmt %d)" (Ir.comm_name hc) st.Ir.sid ])
                members
          | _ -> ())
        f.Ir.f_pre
  | Ir.Comm_block { cb_members; cb_loop; _ } ->
      List.iter
        (fun { Ir.hc; hc_sid; _ } ->
          add_comms acc hc_sid
            [
              Printf.sprintf "%s (hoisted out of %s, line %d)" (Ir.comm_name hc) cb_loop
                st.Ir.sloc.Loc.line;
            ])
        cb_members
  | Ir.Comm_issue { Ir.sp_comm = { Ir.hc; hc_sid; _ }; _ } ->
      (* the wait half carries the same handle; report the pair once,
         on the statement that originally owned the communication *)
      add_comms acc hc_sid
        [ Printf.sprintf "%s (split-phase, issued at line %d)" (Ir.comm_name hc)
            st.Ir.sloc.Loc.line ]
  | _ -> ()

let comm_map (ir : Ir.program_ir) =
  let acc = Hashtbl.create 32 in
  List.iter (fun (_, u) -> Ir.iter_stmts (stmt_comms acc) u.Ir.u_body) ir.Ir.p_units;
  acc

(* Emitted comms for an explain record: the final IR's when the sid still
   exists there (forall), the lower-time record otherwise (mover). *)
let final_comms comms (x : Ir.explain) =
  match Hashtbl.find_opt comms x.Ir.x_sid with Some l -> l | None -> x.Ir.x_comms

(* ------------------------------------------------------------------ *)
(* Explain: text                                                       *)
(* ------------------------------------------------------------------ *)

let explain_text (ir : Ir.program_ir) =
  let comms = comm_map ir in
  let b = Buffer.create 4096 in
  List.iter
    (fun (_, u) ->
      Printf.bprintf b "=== unit %s: %d comm-bearing statement(s) ===\n" u.Ir.u_name
        (List.length u.Ir.u_explain);
      List.iter
        (fun (x : Ir.explain) ->
          Printf.bprintf b "\nstmt %d at %s\n" x.Ir.x_sid (Loc.file_line x.Ir.x_loc);
          Printf.bprintf b "  %s\n" x.Ir.x_stmt;
          Printf.bprintf b "  partitioning : %s\n" x.Ir.x_iter;
          Printf.bprintf b "      because  : %s\n" x.Ir.x_iter_why;
          List.iter (fun d -> Printf.bprintf b "  distribution : %s\n" d) x.Ir.x_dist;
          List.iter
            (fun (r : Ir.explain_ref) ->
              Printf.bprintf b "  ref %-12s -> %s\n" r.Ir.xr_ref r.Ir.xr_plan;
              List.iter (fun w -> Printf.bprintf b "      %s\n" w) r.Ir.xr_why)
            x.Ir.x_refs;
          let detected = x.Ir.x_comms and emitted = final_comms comms x in
          let render = function [] -> "(none)" | l -> String.concat " + " l in
          if emitted = detected then
            Printf.bprintf b "  communication: %s\n" (render emitted)
          else
            Printf.bprintf b "  communication: %s (detected: %s)\n" (render emitted)
              (render detected);
          match x.Ir.x_post with
          | Some p -> Printf.bprintf b "  write-back   : %s\n" p
          | None -> ())
        u.Ir.u_explain;
      Buffer.add_char b '\n')
    ir.Ir.p_units;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON helpers (no external dependency; same escaping as Trace)       *)
(* ------------------------------------------------------------------ *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let jstr s = "\"" ^ escape s ^ "\""
let jlist l = "[" ^ String.concat "," l ^ "]"
let jobj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields) ^ "}"
let jfloat v = Printf.sprintf "%.9g" v

(* ------------------------------------------------------------------ *)
(* Explain: JSON                                                       *)
(* ------------------------------------------------------------------ *)

let explain_json (ir : Ir.program_ir) =
  let comms = comm_map ir in
  let stmt_obj (x : Ir.explain) =
    jobj
      [
        ("sid", string_of_int x.Ir.x_sid);
        ("file", jstr x.Ir.x_loc.Loc.file);
        ("line", string_of_int x.Ir.x_loc.Loc.line);
        ("unit", jstr x.Ir.x_unit);
        ("stmt", jstr x.Ir.x_stmt);
        ("lhs", jstr x.Ir.x_lhs);
        ("partitioning", jstr x.Ir.x_iter);
        ("partitioning_why", jstr x.Ir.x_iter_why);
        ("distribution", jlist (List.map jstr x.Ir.x_dist));
        ( "refs",
          jlist
            (List.map
               (fun (r : Ir.explain_ref) ->
                 jobj
                   [
                     ("ref", jstr r.Ir.xr_ref);
                     ("plan", jstr r.Ir.xr_plan);
                     ("why", jlist (List.map jstr r.Ir.xr_why));
                   ])
               x.Ir.x_refs) );
        ("comms_detected", jlist (List.map jstr x.Ir.x_comms));
        ("comms_emitted", jlist (List.map jstr (final_comms comms x)));
        ( "post",
          match x.Ir.x_post with Some p -> jstr p | None -> "null" );
      ]
  in
  let units =
    List.map
      (fun (_, u) ->
        jobj
          [
            ("unit", jstr u.Ir.u_name);
            ("statements", jlist (List.map stmt_obj u.Ir.u_explain));
          ])
      ir.Ir.p_units
  in
  jobj [ ("explain", jlist units) ] ^ "\n"

(* ------------------------------------------------------------------ *)
(* Runtime join: hot statements                                        *)
(* ------------------------------------------------------------------ *)

type hot = {
  h_sid : int;
  h_loc : Loc.t;
  h_unit : string;
  h_desc : string;  (** statement description from provenance *)
  h_decision : string;  (** comm primitives the compiler chose, "+"-joined *)
  h_msgs : int;
  h_bytes : int;
  h_send_s : float;
  h_wait_s : float;
  h_hidden_s : float;
  h_cp_s : float;
}

let hot_statements (ir : Ir.program_ir) tr =
  let prov = Ir.prov_table ir in
  let comms = comm_map ir in
  let decisions = Hashtbl.create 32 in
  List.iter
    (fun (_, u) ->
      List.iter
        (fun (x : Ir.explain) ->
          Hashtbl.replace decisions x.Ir.x_sid (String.concat "+" (final_comms comms x)))
        u.Ir.u_explain)
    ir.Ir.p_units;
  F90d_trace.Analyze.per_stmt_profile tr
  |> List.map (fun (r : F90d_trace.Analyze.srow) ->
         let loc, unit_, desc =
           match Hashtbl.find_opt prov r.F90d_trace.Analyze.s_sid with
           | Some p -> (p.Ir.pv_loc, p.Ir.pv_unit, p.Ir.pv_desc)
           | None -> (Loc.none, "", "<runtime>")
         in
         {
           h_sid = r.F90d_trace.Analyze.s_sid;
           h_loc = loc;
           h_unit = unit_;
           h_desc = desc;
           h_decision =
             Option.value
               (Hashtbl.find_opt decisions r.F90d_trace.Analyze.s_sid)
               ~default:"-";
           h_msgs = r.F90d_trace.Analyze.s_msgs;
           h_bytes = r.F90d_trace.Analyze.s_bytes;
           h_send_s = r.F90d_trace.Analyze.s_send_s;
           h_wait_s = r.F90d_trace.Analyze.s_wait_s;
           h_hidden_s = r.F90d_trace.Analyze.s_hidden_s;
           h_cp_s = r.F90d_trace.Analyze.s_cp_s;
         })
  |> List.sort (fun a b ->
         compare
           (b.h_send_s +. b.h_wait_s, b.h_bytes, a.h_sid)
           (a.h_send_s +. a.h_wait_s, a.h_bytes, b.h_sid))

let hot_text ?top hots =
  let hots = match top with Some k -> List.filteri (fun i _ -> i < k) hots | None -> hots in
  let b = Buffer.create 2048 in
  Printf.bprintf b "hot statements (compile-time decision vs measured cost)\n";
  Printf.bprintf b "%-24s %-22s %-24s %8s %12s %12s %12s %12s %10s\n" "source" "statement"
    "decision" "msgs" "bytes" "send busy(s)" "recv wait(s)" "hidden(s)" "cp wire(s)";
  List.iter
    (fun h ->
      Printf.bprintf b "%-24s %-22s %-24s %8d %12d %12.6f %12.6f %12.6f %10.6f\n"
        (Printf.sprintf "%s (stmt %d)" (Loc.file_line h.h_loc) h.h_sid)
        h.h_desc h.h_decision h.h_msgs h.h_bytes h.h_send_s h.h_wait_s h.h_hidden_s h.h_cp_s)
    hots;
  Buffer.contents b

let hot_obj h =
  jobj
    [
      ("sid", string_of_int h.h_sid);
      ("file", jstr h.h_loc.Loc.file);
      ("line", string_of_int h.h_loc.Loc.line);
      ("unit", jstr h.h_unit);
      ("stmt", jstr h.h_desc);
      ("decision", jstr h.h_decision);
      ("messages", string_of_int h.h_msgs);
      ("bytes", string_of_int h.h_bytes);
      ("send_busy_s", jfloat h.h_send_s);
      ("recv_wait_s", jfloat h.h_wait_s);
      ("recv_wait_hidden_s", jfloat h.h_hidden_s);
      ("critical_path_wire_s", jfloat h.h_cp_s);
    ]

let profile_json (ir : Ir.program_ir) tr =
  let hots = hot_statements ir tr in
  let msgs = List.fold_left (fun a h -> a + h.h_msgs) 0 hots in
  let bytes = List.fold_left (fun a h -> a + h.h_bytes) 0 hots in
  let hidden = List.fold_left (fun a h -> a +. h.h_hidden_s) 0. hots in
  jobj
    [
      ("statements", jlist (List.map hot_obj hots));
      ( "totals",
        jobj
          [
            ("messages", string_of_int msgs);
            ("bytes", string_of_int bytes);
            ("recv_wait_hidden_s", jfloat hidden);
          ] );
    ]
  ^ "\n"
