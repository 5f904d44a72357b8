module J = Telemetry.Json_check
module Spec = Workloads.Spec
module Runner = Regmutex.Runner
module Technique = Regmutex.Technique
module Stats = Gpu_sim.Stats

type metric = { key : string; value : float }

type invariant = { inv_key : string; failing : string list }

type snapshot = { metrics : metric list; invariants : invariant list }

type cells = {
  uniform : Spec.t list;
  simt : Spec.t list;
  divergent : Spec.t list;
}

let default_cells =
  {
    uniform = Workloads.Registry.all @ Workloads.Registry.latency_bound;
    simt = Workloads.Registry.figure1;
    divergent = Workloads.Registry.divergent;
  }

(* --- the measuring pass ---------------------------------------------- *)

(* One cell: a workload under one technique on its evaluation
   architecture. [run] simulates it in the requested mode. *)
type cell = {
  name : string;
  technique : Technique.t;
  arch : Gpu_uarch.Arch_config.t;
  run :
    ?options:Technique.options ->
    ?telemetry:Telemetry.Sink.t ->
    bool ->
    Runner.run;
}

let cells_of cfg specs =
  List.concat_map
    (fun spec ->
      let arch = Exp_config.eval_arch cfg spec in
      let kernel = Exp_config.kernel_of cfg spec in
      List.map
        (fun technique ->
          {
            name = spec.Spec.name ^ "/" ^ Technique.name technique;
            technique;
            arch;
            run =
              (fun ?options ?telemetry fast_forward ->
                Runner.execute ?options ?telemetry ~fast_forward arch technique
                  kernel);
          })
        Technique.all)
    specs

let same a b = String.equal (Runner.fingerprint a) (Runner.fingerprint b)

let failing_cells results ok =
  List.filter_map (fun (c, r) -> if ok r then None else Some c.name) results

let total f runs =
  float_of_int
    (List.fold_left (fun a (r : Runner.run) -> a + f r.Runner.stats) 0 runs)

let mean f l =
  List.fold_left (fun a x -> a +. f x) 0. l /. float_of_int (List.length l)

let measure ?(cells = default_cells) cfg =
  let simt = { Technique.default_options with Technique.simt = true } in
  (* Uniform cells: fast-forward and brute force, each with the sink off
     and on. All four runs must share one fingerprint. *)
  let uniform =
    List.map
      (fun c ->
        let ff = c.run true and bf = c.run false in
        let sink () = Telemetry.Sink.create () in
        let ff_on = c.run ~telemetry:(sink ()) true
        and bf_on = c.run ~telemetry:(sink ()) false in
        (c, (ff, same ff bf, same ff ff_on && same bf bf_on)))
      (cells_of cfg cells.uniform)
  in
  (* --simt on warp-uniform kernels: both stepping modes must reproduce
     the uniform fingerprint, so with ff = bf above all four agree. *)
  let four_way =
    List.map
      (fun c ->
        let uniform_ff =
          List.find_map
            (fun (u, (ff, _, _)) -> if u.name = c.name then Some ff else None)
            uniform
          |> Option.get
        in
        ( c,
          same uniform_ff (c.run ~options:simt true)
          && same uniform_ff (c.run ~options:simt false) ))
      (cells_of cfg cells.simt)
  in
  (* Divergent kernels: the execution models differ by design, so only
     ff = bf under --simt is an identity. *)
  let divergent =
    List.map
      (fun c ->
        let ff = c.run ~options:simt true in
        (c, (ff, same ff (c.run ~options:simt false))))
      (cells_of cfg cells.divergent)
  in
  let ff_run (_, (ff, _, _)) = ff in
  let technique_runs t =
    List.filter_map
      (fun ((c, _) as r) ->
        if c.technique = t then Some (c, ff_run r) else None)
      uniform
  in
  (* Per workload: RegDem against the baseline on the same architecture
     (both lists follow [cells.uniform]'s order). *)
  let regdem_pairs =
    List.combine
      (technique_runs Technique.Baseline)
      (technique_runs Technique.Regdem)
  in
  let energy (c, r) =
    let e = Technique.energy c.arch c.technique r.Runner.stats in
    e.Gpu_uarch.Energy_model.total_nj
  in
  let demoted (_, r) =
    match r.Runner.prepared.Technique.policy with
    | Gpu_sim.Policy.Regdem { spill_words; _ } -> spill_words > 0
    | _ -> false
  in
  let divergent_runs = List.map (fun (_, (ff, _)) -> ff) divergent in
  let all_runs = List.map ff_run uniform @ divergent_runs in
  let metrics =
    [
      ( "regdem.mean_occupancy_gain",
        mean
          (fun ((_, b), (_, d)) ->
            float_of_int d.Runner.theoretical_warps
            /. float_of_int b.Runner.theoretical_warps)
          regdem_pairs );
      ( "regdem.mean_energy_factor",
        mean (fun (b, d) -> energy d /. energy b) regdem_pairs );
      ("total.cycles", total (fun s -> s.Stats.cycles) all_runs);
      ("total.instructions", total (fun s -> s.Stats.instructions) all_runs);
      ("total.issue_checks", total (fun s -> s.Stats.issue_checks) all_runs);
      ( "total.divergent_branches",
        total (fun s -> s.Stats.divergent_branches) divergent_runs );
    ]
  in
  let exists_or why ok = if ok then [] else [ why ] in
  let invariants =
    [
      ("ff_bf.identical", failing_cells uniform (fun (_, ok, _) -> ok));
      ("telemetry.identical", failing_cells uniform (fun (_, _, ok) -> ok));
      ("simt.four_way_identical", failing_cells four_way Fun.id);
      ("simt.divergent_ff_bf_identical", failing_cells divergent snd);
      ( "simt.divergence_exercised",
        exists_or "no baseline cell diverges"
          (List.exists
             (fun (c, (ff, _)) ->
               c.technique = Technique.Baseline
               && ff.Runner.stats.Stats.divergent_branches > 0)
             divergent) );
      ( "regdem.demotion_applied",
        exists_or "no workload is demoted"
          (List.exists demoted (technique_runs Technique.Regdem)) );
    ]
  in
  {
    metrics = List.map (fun (key, value) -> { key; value }) metrics;
    invariants =
      List.map (fun (inv_key, failing) -> { inv_key; failing }) invariants;
  }

(* --- baseline persistence -------------------------------------------- *)

let find_repo_root ?start () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else up parent
  in
  let start = match start with Some d -> d | None -> Sys.getcwd () in
  (* Relative starts would stop at "." before reaching any ancestor. *)
  let start =
    if Filename.is_relative start then Filename.concat (Sys.getcwd ()) start
    else start
  in
  up start

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let show v = J.to_string (J.Num v)

let load_baseline path =
  let row = function
    | J.Obj kvs -> (
        match
          ( List.sort compare (List.map fst kvs),
            List.assoc_opt "key" kvs,
            List.assoc_opt "value" kvs )
        with
        | [ "key"; "value" ], Some (J.Str key), Some (J.Num value) ->
            Some { key; value }
        | _ -> None)
    | _ -> None
  in
  let rec rows i acc = function
    | [] -> Ok (List.rev acc)
    | r :: rest -> (
        match row r with
        | None ->
            Error
              (Printf.sprintf
                 "%s: metrics row %d is not {\"key\": string, \"value\": \
                  number}"
                 path i)
        | Some m when List.exists (fun b -> String.equal b.key m.key) acc ->
            Error (Printf.sprintf "%s: duplicate key %s" path m.key)
        | Some m -> rows (i + 1) (m :: acc) rest)
  in
  match J.parse_opt (read_file path) with
  | exception Sys_error e -> Error e
  | Error e -> Error (path ^ ": " ^ e)
  | Ok (J.Obj kvs) -> (
      match List.assoc_opt "metrics" kvs with
      | Some (J.List l) -> rows 0 [] l
      | _ -> Error (path ^ ": missing \"metrics\" array"))
  | Ok _ -> Error (path ^ ": not a JSON object")

let write_baseline path snapshot =
  let row m =
    J.to_string (J.Obj [ ("key", J.Str m.key); ("value", J.Num m.value) ])
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        "{\n\
        \  \"comment\": \"exact report baseline; refresh with: regmutex \
         report --write-baseline\",\n\
        \  \"metrics\": [\n";
      output_string oc
        (String.concat ",\n"
           (List.map (fun m -> "    " ^ row m) snapshot.metrics));
      output_string oc "\n  ]\n}\n")

(* --- the gate -------------------------------------------------------- *)

let check snapshot baseline =
  let find l key = List.find_opt (fun m -> String.equal m.key key) l in
  let changed =
    List.filter_map
      (fun m ->
        match find baseline m.key with
        | None ->
            Some
              (Printf.sprintf "%s: measured %s, not in baseline" m.key
                 (show m.value))
        | Some b when Float.equal b.value m.value -> None
        | Some b ->
            Some
              (Printf.sprintf "%s: baseline %s, measured %s" m.key
                 (show b.value) (show m.value)))
      snapshot.metrics
  in
  let stale =
    List.filter_map
      (fun b ->
        match find snapshot.metrics b.key with
        | None -> Some (b.key ^ ": in baseline but not measured")
        | Some _ -> None)
      baseline
  in
  let broken =
    List.filter_map
      (fun i ->
        match i.failing with
        | [] -> None
        | l ->
            let shown = List.filteri (fun k _ -> k < 3) l in
            Some
              (Printf.sprintf "invariant %s broken (%d): %s%s" i.inv_key
                 (List.length l) (String.concat ", " shown)
                 (if List.length l > 3 then ", ..." else "")))
      snapshot.invariants
  in
  changed @ stale @ broken

(* --- rendering ------------------------------------------------------- *)

let pp_snapshot ppf s =
  List.iter
    (fun m -> Format.fprintf ppf "%-32s %s@." m.key (show m.value))
    s.metrics;
  Format.fprintf ppf "@.";
  List.iter
    (fun i ->
      Format.fprintf ppf "%-32s %s@." i.inv_key
        (if i.failing = [] then "ok" else "BROKEN"))
    s.invariants

let pp_failures ppf = function
  | [] -> Format.fprintf ppf "report check: PASS@."
  | fs ->
      Format.fprintf ppf "report check: FAIL@.";
      List.iter (fun f -> Format.fprintf ppf "  - %s@." f) fs
