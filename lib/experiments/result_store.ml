module Runner = Regmutex.Runner

type stats = {
  entries : int;
  bytes : int;
  version : string;
}

(* Results are versioned by a schema tag plus the simulator's git-describe:
   a rebuilt simulator writes into a fresh directory, so stale results are
   never replayed and need no explicit invalidation scan. The schema tag
   changes whenever the marshalled [Runner.run] layout does (2: the
   [Stats.issue_checks] counter). *)
let schema_version = 2

let simulator_version =
  lazy
    (try
       let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
       let line = try String.trim (input_line ic) with End_of_file -> "" in
       ignore (Unix.close_process_in ic);
       if line = "" then "unversioned" else line
     with _ -> "unversioned")

let version_tag () =
  Printf.sprintf "v%d-%s" schema_version (Lazy.force simulator_version)

let lock = Mutex.create ()
let root_ref = ref None

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let version_dir root = Filename.concat root (version_tag ())

let file_of_key root k =
  Filename.concat (version_dir root) (Digest.to_hex (Digest.string k) ^ ".run")

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let set_root dir = locked (fun () -> root_ref := dir)

let root () = locked (fun () -> !root_ref)

let load k =
  locked (fun () ->
      match !root_ref with
      | None -> None
      | Some root -> (
          (* A missing, truncated or foreign file is a cache miss. *)
          try
            In_channel.with_open_bin (file_of_key root k) (fun ic ->
                let stored_key, run =
                  (Marshal.from_channel ic : string * Runner.run)
                in
                (* The file name is a digest; storing the key guards
                   against the (unlikely) digest collision. *)
                if String.equal stored_key k then Some run else None)
          with _ -> None))

let store k run =
  locked (fun () ->
      match !root_ref with
      | None -> ()
      | Some root -> (
          let path = file_of_key root k in
          try
            mkdir_p (Filename.dirname path);
            let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
            Out_channel.with_open_bin tmp (fun oc -> Marshal.to_channel oc (k, run) []);
            Sys.rename tmp path
          with Sys_error _ | Unix.Unix_error _ -> ()))

let stats () =
  locked (fun () ->
      let entries, bytes =
        match !root_ref with
        | None -> (0, 0)
        | Some root ->
            let dir = version_dir root in
            Array.fold_left
              (fun (n, b) name ->
                if Filename.check_suffix name ".run" then
                  match Unix.stat (Filename.concat dir name) with
                  | st -> (n + 1, b + st.Unix.st_size)
                  | exception Unix.Unix_error _ -> (n, b)
                else (n, b))
              (0, 0)
              (try Sys.readdir dir with Sys_error _ -> [||])
      in
      { entries; bytes; version = version_tag () })
