let default_dir = "_fuzz"

let ensure_dir dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let corpus_file dir = Filename.concat dir "corpus.txt"

let load_seeds ~dir =
  let path = corpus_file dir in
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let seeds = ref [] in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if line <> "" && line.[0] <> '#' then
           match int_of_string_opt (List.hd (String.split_on_char ' ' line)) with
           | Some s -> seeds := s :: !seeds
           | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !seeds
  end

let add_seed ~dir ~seed ~kind =
  ensure_dir dir;
  if not (List.mem seed (load_seeds ~dir)) then begin
    let oc =
      open_out_gen [ Open_append; Open_creat ] 0o644 (corpus_file dir)
    in
    Printf.fprintf oc "%d  # %s\n" seed (Oracle.kind_name kind);
    close_out oc
  end

(* Newlines inside failure details (deadlock dumps, trace diffs) must stay
   inside the comment header. *)
let comment_lines prefix text =
  String.split_on_char '\n' text
  |> List.map (fun l -> Printf.sprintf "// %s%s" prefix l)
  |> String.concat "\n"

let write_counterexample ~dir (case : Gen.t) failures =
  ensure_dir dir;
  let path = Filename.concat dir (Printf.sprintf "seed%d.kern" case.Gen.seed) in
  let params =
    String.concat ","
      (Array.to_list (Array.map string_of_int case.Gen.params))
  in
  let oc = open_out path in
  Printf.fprintf oc "// fuzz counterexample: seed %d (%s family)\n"
    case.Gen.seed (Gen.family_name case.Gen.family);
  Printf.fprintf oc "// launch: grid=%d threads=%d params=%s\n" case.Gen.grid
    case.Gen.threads params;
  List.iter
    (fun f ->
      output_string oc
        (comment_lines "" (Format.asprintf "%a" Oracle.pp_failure f));
      output_char oc '\n')
    failures;
  Printf.fprintf oc
    "// replay: dune exec bin/regmutex_cli.exe -- run-file %s --grid %d \
     --threads %d --params %s%s\n\n"
    path case.Gen.grid case.Gen.threads params
    (if List.exists (fun f -> f.Oracle.simt) failures then " --simt" else "");
  Format.fprintf
    (Format.formatter_of_out_channel oc)
    "%a@." Gpu_isa.Program.pp case.Gen.program;
  close_out oc;
  path
