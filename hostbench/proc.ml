(* Child processes and the files a run leaves under hostbench/out/. *)

let out_dir = Filename.concat "hostbench" "out"

let ensure_out () =
  if not (Sys.file_exists "hostbench") then Sys.mkdir "hostbench" 0o755;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let rec remove path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A directory under hostbench/out/ unique to this process. *)
let scratch name =
  ensure_out ();
  let d = Filename.concat out_dir (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  remove d;
  Sys.mkdir d 0o755;
  d

(* A field of /proc/<pid>/status in kB (VmHWM is the peak resident set). *)
let status_kb ?(pid = "self") key =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line -> (
            match String.split_on_char ':' line with
            | [ k; v ] when k = key -> Scanf.sscanf v " %d" Fun.id
            | _ -> scan ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

type child = { pid : int; out : in_channel }

(* Start [argv] with its standard output on a pipe we read. *)
let spawn argv =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin w Unix.stderr in
  Unix.close w;
  { pid; out = Unix.in_channel_of_descr r }

let read_line c = try Some (input_line c.out) with End_of_file -> None

(* Drain the child's output and reap it; a failed child fails the run. *)
let finish c =
  let rec drain () = match read_line c with Some _ -> drain () | None -> () in
  drain ();
  close_in_noerr c.out;
  match snd (Unix.waitpid [] c.pid) with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> failwith (Printf.sprintf "child process %d exited with status %d" c.pid n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      failwith (Printf.sprintf "child process %d stopped by signal %d" c.pid n)

(* Kill the child and reap it. *)
let kill c =
  Unix.kill c.pid Sys.sigkill;
  close_in_noerr c.out;
  ignore (Unix.waitpid [] c.pid)

(* Run this executable again with [args]. *)
let self args = spawn (Array.of_list (Sys.executable_name :: args))
