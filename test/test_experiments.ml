module E = Experiments

let tiny =
  (* Very small grids keep these integration tests quick. *)
  { E.Exp_config.default with E.Exp_config.grid_scale = 0.1 }

let test_table_render () =
  let out =
    E.Table.render
      ~columns:[ ("a", E.Table.Left); ("bb", E.Table.Right) ]
      [ [ "x"; "1" ]; [ "longer"; "22" ] ]
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "header + rule + rows" 4 (List.length lines);
  (* Right-aligned column pads on the left. *)
  Alcotest.(check bool) "right aligned" true
    (String.length (List.nth lines 2) = String.length (List.nth lines 3));
  Alcotest.check_raises "arity checked"
    (Invalid_argument "Table.render: row 0 has wrong arity") (fun () ->
      ignore (E.Table.render ~columns:[ ("a", E.Table.Left) ] [ [ "x"; "y" ] ]))

let test_table_cells () =
  Alcotest.(check string) "pct" "12.3%" (E.Table.pct 12.34);
  Alcotest.(check string) "occ" "67%" (E.Table.occ 0.667);
  Alcotest.(check (float 1e-9)) "mean" 2. (E.Table.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0. (E.Table.mean [])

let test_exp_config () =
  let cfg = E.Exp_config.default in
  Alcotest.(check int) "4-SM slice" 4 cfg.E.Exp_config.arch.Gpu_uarch.Arch_config.n_sms;
  Alcotest.(check int) "half register file"
    (cfg.E.Exp_config.arch.Gpu_uarch.Arch_config.regfile_regs / 2)
    cfg.E.Exp_config.half_arch.Gpu_uarch.Arch_config.regfile_regs;
  let bfs = Workloads.Registry.find "BFS" in
  let k = E.Exp_config.kernel_of E.Exp_config.quick bfs in
  Alcotest.(check bool) "quick grids smaller" true
    (k.Gpu_sim.Kernel.grid_ctas < bfs.Workloads.Spec.kernel.Gpu_sim.Kernel.grid_ctas);
  Alcotest.(check bool) "fig7 set on full RF" true
    (E.Exp_config.eval_arch cfg bfs == cfg.E.Exp_config.arch);
  Alcotest.(check bool) "fig8 set on half RF" true
    (E.Exp_config.eval_arch cfg (Workloads.Registry.find "SPMV")
    == cfg.E.Exp_config.half_arch)

let test_engine_caching () =
  E.Engine.clear ();
  let bfs = Workloads.Registry.find "Gaussian" in
  let misses0 = E.Engine.simulations () in
  let r1 = E.Engine.run tiny ~arch:tiny.E.Exp_config.arch Regmutex.Technique.Baseline bfs in
  let misses1 = E.Engine.simulations () in
  let r2 = E.Engine.run tiny ~arch:tiny.E.Exp_config.arch Regmutex.Technique.Baseline bfs in
  let misses2 = E.Engine.simulations () in
  Alcotest.(check int) "first run simulates" (misses0 + 1) misses1;
  Alcotest.(check int) "second run cached" misses1 misses2;
  Alcotest.(check int) "same result" r1.Regmutex.Runner.cycles r2.Regmutex.Runner.cycles;
  (* Different es_override is a different key. *)
  let _ =
    E.Engine.run ~es_override:4 tiny ~arch:tiny.E.Exp_config.arch
      Regmutex.Technique.Regmutex bfs
  in
  Alcotest.(check int) "override misses" (misses2 + 1) (E.Engine.simulations ())

let test_engine_key_precision () =
  let bfs = Workloads.Registry.find "BFS" in
  let arch = tiny.E.Exp_config.arch in
  let key_at scale =
    E.Engine.key
      { tiny with E.Exp_config.grid_scale = scale }
      ~arch Regmutex.Technique.Baseline bfs
  in
  (* Scales that a "%.3f" rendering would conflate must stay distinct. *)
  Alcotest.(check bool) "1e-5 apart" true (key_at 1.0 <> key_at 1.00001);
  Alcotest.(check bool) "sub-milli scales" true (key_at 1e-4 <> key_at 2e-4);
  Alcotest.(check string) "equal scales agree" (key_at 0.25) (key_at 0.25);
  (* Variant labels and compile options are part of the key. *)
  Alcotest.(check bool) "variant distinguishes" true
    (E.Engine.key tiny ~arch Regmutex.Technique.Regmutex bfs
    <> E.Engine.key ~variant:"lrr" tiny ~arch Regmutex.Technique.Regmutex bfs);
  let no_widen =
    { Regmutex.Technique.default_options with
      transform = { Regmutex.Transform.default_options with widen = false } }
  in
  Alcotest.(check bool) "options distinguish" true
    (E.Engine.key tiny ~arch Regmutex.Technique.Regmutex bfs
    <> E.Engine.key ~options:no_widen tiny ~arch Regmutex.Technique.Regmutex bfs)

let with_engine_defaults f =
  Fun.protect
    ~finally:(fun () ->
      E.Engine.set_jobs 1;
      E.Engine.set_cache_dir None;
      E.Engine.clear ())
    f

let test_parallel_determinism () =
  with_engine_defaults @@ fun () ->
  let fingerprints () =
    E.Engine.clear ();
    let sims0 = E.Engine.simulations () in
    let rows = E.Fig7.rows tiny in
    (E.Engine.simulations () - sims0, rows)
  in
  E.Engine.set_jobs 1;
  let serial_sims, serial = fingerprints () in
  E.Engine.set_jobs 4;
  let parallel_sims, parallel = fingerprints () in
  Alcotest.(check bool) "rows simulate" true (serial_sims > 0);
  Alcotest.(check int) "same simulation count" serial_sims parallel_sims;
  Alcotest.(check bool) "identical rows" true (serial = parallel)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_cache_round_trip () =
  with_engine_defaults @@ fun () ->
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "regmutex-store-%d" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
  @@ fun () ->
  E.Engine.set_cache_dir (Some dir);
  let gaussian = Workloads.Registry.find "Gaussian" in
  let run () =
    E.Engine.run tiny ~arch:tiny.E.Exp_config.arch Regmutex.Technique.Regmutex
      gaussian
  in
  E.Engine.clear ();
  let sims0 = E.Engine.simulations () in
  let r1 = run () in
  Alcotest.(check int) "cold store simulates" (sims0 + 1) (E.Engine.simulations ());
  (* A fresh in-memory cache must be rebuilt entirely from disk. *)
  E.Engine.clear ();
  let r2 = run () in
  Alcotest.(check int) "warm store does not simulate" (sims0 + 1)
    (E.Engine.simulations ());
  Alcotest.(check string) "identical result" (Regmutex.Runner.fingerprint r1)
    (Regmutex.Runner.fingerprint r2);
  (* Prefetch also hits the store: still no simulation. *)
  E.Engine.clear ();
  E.Engine.prefetch tiny
    [ E.Engine.cell ~arch:tiny.E.Exp_config.arch Regmutex.Technique.Regmutex
        gaussian ];
  Alcotest.(check int) "prefetch hits the store" (sims0 + 1)
    (E.Engine.simulations ())

(* A damaged store entry must cost a re-simulation, never a crash or a
   wrong result: [damage path key run] spoils the entry for [key]. *)
let check_store_recovers damage =
  with_engine_defaults @@ fun () ->
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "regmutex-store-damage-%d" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
  @@ fun () ->
  E.Engine.set_cache_dir (Some dir);
  let arch = tiny.E.Exp_config.arch in
  let gaussian = Workloads.Registry.find "Gaussian" in
  let run () = E.Engine.run tiny ~arch Regmutex.Technique.Regmutex gaussian in
  let key = E.Engine.key tiny ~arch Regmutex.Technique.Regmutex gaussian in
  let vdir = Filename.concat dir (E.Result_store.version_tag ()) in
  let path =
    Filename.concat vdir (Digest.to_hex (Digest.string key) ^ ".run")
  in
  E.Engine.clear ();
  let r1 = run () in
  Alcotest.(check bool) "entry written" true (Sys.file_exists path);
  damage path key r1;
  Alcotest.(check bool) "damaged entry loads as a miss" true
    (E.Result_store.load key = None);
  E.Engine.clear ();
  let sims0 = E.Engine.simulations () in
  let r2 = run () in
  Alcotest.(check int) "engine re-simulates" (sims0 + 1) (E.Engine.simulations ());
  let fp = Regmutex.Runner.fingerprint r1 in
  Alcotest.(check string) "same result" fp (Regmutex.Runner.fingerprint r2);
  (match E.Result_store.load key with
  | Some r3 ->
      Alcotest.(check string) "rewritten entry loads back" fp
        (Regmutex.Runner.fingerprint r3)
  | None -> Alcotest.fail "rewritten entry does not load");
  (* Leftover temporaries are not entries. *)
  Out_channel.with_open_bin (path ^ ".4242.tmp") (fun oc ->
      output_string oc "partial");
  Out_channel.with_open_bin (Filename.concat vdir "stray.tmp") (fun oc ->
      output_string oc "x");
  let st = E.Result_store.stats () in
  Alcotest.(check int) "stats counts .run files only" 1 st.E.Result_store.entries;
  Alcotest.(check int) "stats bytes are the .run file's"
    (Unix.stat path).Unix.st_size st.E.Result_store.bytes

let test_store_truncated_entry () =
  check_store_recovers (fun path _ _ ->
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (String.sub bytes 0 (String.length bytes / 2))))

let test_store_foreign_key () =
  check_store_recovers (fun path key run ->
      Out_channel.with_open_bin path (fun oc ->
          Marshal.to_channel oc (key ^ "/other", run) []))

(* --- worker pool ------------------------------------------------------- *)

module Pool = E.Engine.Pool

let test_pool_map_order () =
  let pool = Pool.create ~workers:2 in
  Alcotest.(check int) "workers" 2 (Pool.workers pool);
  let tasks = Array.init 32 Fun.id in
  let out =
    Pool.map pool tasks (fun i ->
        (* Uneven task durations shuffle completion order; results must
           still come back in submission order. *)
        if i mod 5 = 0 then Unix.sleepf 0.002;
        i * i)
  in
  Alcotest.(check (array int)) "submission order"
    (Array.init 32 (fun i -> i * i))
    out;
  (* The pool is persistent: a second batch reuses the same workers. *)
  let out2 = Pool.map pool [| 7; 8 |] (fun i -> i + 1) in
  Alcotest.(check (array int)) "second batch" [| 8; 9 |] out2;
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *)

let test_pool_zero_workers () =
  (* A 0-worker pool runs every task on the participating caller. *)
  let pool = Pool.create ~workers:0 in
  let out = Pool.map pool [| 1; 2; 3 |] (fun i -> 10 * i) in
  Alcotest.(check (array int)) "serial map" [| 10; 20; 30 |] out;
  Pool.shutdown pool

let test_pool_exception () =
  let pool = Pool.create ~workers:1 in
  Alcotest.check_raises "task exception reaches the caller"
    (Failure "task 3 failed") (fun () ->
      ignore
        (Pool.map pool [| 0; 1; 2; 3; 4 |] (fun i ->
             if i = 3 then failwith "task 3 failed" else i)));
  (* The pool survives a failed batch. *)
  let out = Pool.map pool [| 1 |] (fun i -> -i) in
  Alcotest.(check (array int)) "pool survives" [| -1 |] out;
  Pool.shutdown pool

let test_table1_rows () =
  let rows = E.Table1.rows tiny in
  Alcotest.(check int) "16 rows" 16 (List.length rows);
  let bfs = List.find (fun r -> r.E.Table1.app = "BFS") rows in
  Alcotest.(check int) "BFS regs" 21 bfs.E.Table1.regs;
  Alcotest.(check int) "BFS rounded" 24 bfs.E.Table1.rounded;
  Alcotest.(check (option int)) "BFS |Bs| matches paper" (Some 18) bfs.E.Table1.heuristic_bs;
  Alcotest.(check int) "paper column" 18 bfs.E.Table1.paper_bs

let test_fig2 () =
  let r = E.Fig2.run () in
  Alcotest.(check bool) "baseline serializes" true
    (r.E.Fig2.baseline_cycles > r.E.Fig2.regmutex_cycles);
  Alcotest.(check int) "timeline buckets" 64 (Array.length r.E.Fig2.baseline_timeline);
  (* Baseline allocation never exceeds one warp's worth (31). *)
  Array.iter
    (fun v -> Alcotest.(check bool) "baseline <= 31" true (v <= 31))
    r.E.Fig2.baseline_timeline;
  (* RegMutex overlaps: some bucket must exceed a single warp's 31. *)
  Alcotest.(check bool) "regmutex overlaps" true
    (Array.exists (fun v -> v > 31) r.E.Fig2.regmutex_timeline)

let test_fig1_rows () =
  let rows = E.Fig1.rows tiny in
  Alcotest.(check int) "6 kernels" 6 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.E.Fig1.app ^ " has profile") true
        (r.E.Fig1.dynamic_instructions > 0);
      Alcotest.(check bool)
        (r.E.Fig1.app ^ " underutilised most of the time")
        true
        (r.E.Fig1.mean_ratio < 0.8))
    rows

let test_fig7_rows () =
  let rows = E.Fig7.rows tiny in
  Alcotest.(check int) "8 rows" 8 (List.length rows);
  List.iter
    (fun (r : E.Fig7.row) ->
      Alcotest.(check bool) (r.E.Fig7.app ^ " occupancy never drops") true
        (r.E.Fig7.occ_after >= r.E.Fig7.occ_before);
      Alcotest.(check bool) (r.E.Fig7.app ^ " cycles measured") true
        (r.E.Fig7.baseline_cycles > 0 && r.E.Fig7.regmutex_cycles > 0))
    rows

let test_fig13_rows () =
  let rows = E.Fig13.rows tiny in
  Alcotest.(check int) "16 rows" 16 (List.length rows);
  List.iter
    (fun (r : E.Fig13.row) ->
      Alcotest.(check bool) (r.E.Fig13.app ^ " ratios in [0,1]") true
        (r.E.Fig13.default_ratio >= 0. && r.E.Fig13.default_ratio <= 1.
        && r.E.Fig13.paired_ratio >= 0. && r.E.Fig13.paired_ratio <= 1.))
    rows

let test_fig10_marks_heuristic () =
  let rows = E.Fig10.rows tiny in
  List.iter
    (fun (r : E.Fig10.row) ->
      match r.E.Fig10.heuristic_es with
      | None -> Alcotest.failf "%s: no heuristic pick" r.E.Fig10.app
      | Some es ->
          Alcotest.(check bool) (r.E.Fig10.app ^ " pick is in the sweep") true
            (List.mem es E.Fig10.es_values))
    rows

(* --- simulation memo ----------------------------------------------------- *)

(* Figure 10's cells for BFS plus its OWF and baseline cells: OWF falls
   back to the stock allocation and one |Es| override equals the
   heuristic's pick, so some cells share a simulator input. *)
let memo_cells () =
  let spec = Workloads.Registry.find "BFS" in
  let arch = tiny.E.Exp_config.arch in
  (None, Regmutex.Technique.Baseline) :: (None, Regmutex.Technique.Owf)
  :: (None, Regmutex.Technique.Regmutex)
  :: List.map (fun es -> (Some es, Regmutex.Technique.Regmutex)) E.Fig10.es_values
  |> List.map (fun (es_override, technique) ->
         let options = { Regmutex.Technique.default_options with es_override } in
         ( E.Engine.cell ?es_override ~arch technique spec,
           fun () ->
             Regmutex.Runner.execute ~options arch technique
               (E.Exp_config.kernel_of tiny spec) ))

let test_memo_exact () =
  with_engine_defaults @@ fun () ->
  E.Engine.clear ();
  let cells = memo_cells () in
  let sims0 = E.Engine.simulator_runs () and cells0 = E.Engine.simulations () in
  let runs = E.Engine.run_batch tiny (List.map fst cells) in
  let sims = E.Engine.simulator_runs () - sims0 in
  Alcotest.(check int) "every cell computed" (List.length cells)
    (E.Engine.simulations () - cells0);
  Alcotest.(check bool) "fewer simulations than cells" true
    (sims > 0 && sims < List.length cells);
  List.iteri
    (fun i ((run : Regmutex.Runner.run), (_, execute)) ->
      let fresh = execute () in
      Alcotest.(check string)
        (Printf.sprintf "cell %d: fingerprint of a fresh run" i)
        (Regmutex.Runner.fingerprint fresh) (Regmutex.Runner.fingerprint run);
      Alcotest.(check bool)
        (Printf.sprintf "cell %d: the cell's own compile-side record" i)
        true
        (run.Regmutex.Runner.prepared = fresh.Regmutex.Runner.prepared))
    (List.combine runs cells)

let test_memo_clear () =
  with_engine_defaults @@ fun () ->
  let cells = List.map fst (memo_cells ()) in
  let simulated () =
    let sims0 = E.Engine.simulator_runs () in
    ignore (E.Engine.run_batch tiny cells);
    E.Engine.simulator_runs () - sims0
  in
  E.Engine.clear ();
  let first = simulated () in
  Alcotest.(check int) "a cached batch simulates nothing" 0 (simulated ());
  E.Engine.clear ();
  Alcotest.(check int) "after clear the batch simulates again" first (simulated ())

let test_memo_key_inputs () =
  let spec = Workloads.Registry.find "BFS" in
  let cfg = tiny in
  let arch = cfg.E.Exp_config.arch in
  let key ?simt ?fast_forward ?(cfg = cfg) arch =
    let kernel = E.Exp_config.kernel_of cfg spec in
    Regmutex.Runner.key ?simt ?fast_forward arch
      (Regmutex.Runner.prepare arch Regmutex.Technique.Baseline kernel)
  in
  let base = key arch in
  Alcotest.(check string) "equal inputs, equal keys" base (key arch);
  List.iter
    (fun (label, k) -> Alcotest.(check bool) label true (k <> base))
    [ ("half register file", key cfg.E.Exp_config.half_arch);
      ("simt", key ~simt:true arch);
      ("fast-forward off", key ~fast_forward:false arch);
      ("grid scale", key ~cfg:{ cfg with E.Exp_config.grid_scale = 0.2 } arch);
      ( "scheduler ablation arch",
        key { arch with Gpu_uarch.Arch_config.scheduler = Gpu_uarch.Arch_config.Lrr } ) ]

let test_ablation_variants () =
  Alcotest.(check int) "five variants" 5 (List.length E.Ablation.variants);
  Alcotest.(check bool) "labels distinct" true
    (let labels =
       List.map (fun (v : E.Ablation.variant) -> v.E.Ablation.label) E.Ablation.variants
     in
     List.length (List.sort_uniq compare labels) = List.length labels)

let suite =
  [ Alcotest.test_case "table rendering" `Quick test_table_render;
    Alcotest.test_case "table cells" `Quick test_table_cells;
    Alcotest.test_case "experiment config" `Quick test_exp_config;
    Alcotest.test_case "engine caching" `Slow test_engine_caching;
    Alcotest.test_case "engine key precision" `Quick test_engine_key_precision;
    Alcotest.test_case "parallel determinism" `Slow test_parallel_determinism;
    Alcotest.test_case "cache round trip" `Slow test_cache_round_trip;
    Alcotest.test_case "Table 1 rows" `Quick test_table1_rows;
    Alcotest.test_case "Figure 2 story" `Slow test_fig2;
    Alcotest.test_case "Figure 1 rows" `Slow test_fig1_rows;
    Alcotest.test_case "Figure 7 rows" `Slow test_fig7_rows;
    Alcotest.test_case "Figure 13 rows" `Slow test_fig13_rows;
    Alcotest.test_case "Figure 10 heuristic marks" `Slow test_fig10_marks_heuristic;
    Alcotest.test_case "ablation variants" `Quick test_ablation_variants;
    Alcotest.test_case "memo: shared runs equal fresh runs" `Slow test_memo_exact;
    Alcotest.test_case "memo: clear empties it" `Slow test_memo_clear;
    Alcotest.test_case "memo: every input is in the key" `Quick
      test_memo_key_inputs;
    Alcotest.test_case "store: truncated entry is a miss" `Slow
      test_store_truncated_entry;
    Alcotest.test_case "store: foreign key is a miss" `Slow
      test_store_foreign_key;
    Alcotest.test_case "pool map order" `Quick test_pool_map_order;
    Alcotest.test_case "pool zero workers" `Quick test_pool_zero_workers;
    Alcotest.test_case "pool exception" `Quick test_pool_exception ]
