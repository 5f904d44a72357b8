(* The repository's benchmark: one named workload per process, on one OCaml
   domain, driven from the outside through the libraries' entry points
   (Experiments.Suite / Engine / Result_store, Fuzz.Gen / Fuzz.Oracle).

     sh perfbench/run.sh --workload sweep-cold --seed 1 --seconds 30 --trace 0

   A run repeats whole passes of its workload until [--seconds] have gone
   by. With [--trace 0] every pass is untraced and the run reports the
   end-to-end metrics. With [--trace 1] untraced and traced passes
   alternate: traced passes record a span around every call this file
   makes into a layer, enable the Telemetry.Profile slots and sample Gc
   counters around each call; they give the per-layer metrics, and the
   untraced passes give the tracing overhead. Spans are kept in memory and
   written to _perfbench/trace-<workload>-<seed>.jsonl when the run ends.

   Every metric is printed as "# name value unit" and the last line of
   standard output is one JSON object with the keys correct, attempted,
   failed and metrics. METRICS.md defines each metric. *)

module Suite = Experiments.Suite
module Engine = Experiments.Engine
module Store = Experiments.Result_store
module Runner = Regmutex.Runner
module Stats = Gpu_sim.Stats
module Profile = Telemetry.Profile

type workload = Sweep_cold | Sweep_warm | Fuzz_campaign

let workloads =
  [ ("sweep-cold", Sweep_cold); ("sweep-warm", Sweep_warm); ("fuzz", Fuzz_campaign) ]

(* CI's pinned campaign size: a fuzz pass tests seeds [seed, seed + 200). *)
let fuzz_seeds = 200

(* Set-up probes run before the first operation; more follow during the
   run (see [between_ops]). *)
let setup_probes = 11

let cfg = Experiments.Exp_config.quick
let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- helpers ------------------------------------------------------------ *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

(* Linear interpolation between closest ranks. *)
let quantile q = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let pos = q *. float (n - 1) in
      let i = int_of_float pos in
      if i + 1 >= n then a.(n - 1) else a.(i) +. ((pos -. float i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let ratio a b = if b = 0. then 0. else a /. b
let sum = List.fold_left ( +. ) 0.
let complain fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Largest major heap seen after an operation (words). *)
let peak_heap_words = ref 0
let sample_heap () = peak_heap_words := max !peak_heap_words (Gc.quick_stat ()).Gc.heap_words

(* Suite entries print their figure to stdout. The rendering is captured
   through [file] so a warm figure can be compared byte for byte with the
   cold one, and so the benchmark's own stdout stays machine-readable. *)
let capture file f =
  let flush_all () =
    Format.pp_print_flush Format.std_formatter ();
    flush stdout
  in
  flush_all ();
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush_all ();
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  In_channel.with_open_bin file In_channel.input_all

(* --- host speed ----------------------------------------------------------- *)

(* On a machine shared with other tenants, host speed swings by up to 1.5x
   within seconds, and the program's speed follows it: on a 2-core shared
   VM, 5 s windows of a fuzz campaign ran at 0.73-1.37x their median speed
   while the ratio of a seed's time to the kernel below stayed within
   1.01-1.09. So every time the benchmark reports is normalised: the CPU
   time (user + system) of an interval is scaled by [reference_s] over the
   median duration of the kernel runs around it, i.e. it is given in
   seconds at the host speed at which the kernel takes [reference_s]. The
   kernel is fixed code in this file, so no change to the program can move
   it; it allocates and hashes like the program does, which is what makes
   it track the program. CPU time rather than wall time, because time
   blocked on the shared disk tracks no kernel: a warm sweep rewrites the
   store's INDEX on every load, and its passes swung between 0.10 and
   0.34 s of wall time in minutes-long episodes of disk contention.

   The kernel runs between operations and, in untraced passes, also from a
   Gc alarm at the end of major cycles, so that a figure lasting seconds
   is sampled while it runs; kernel time inside an operation is taken out
   of its latency. Traced passes run no alarm, so the Gc counters of their
   spans hold the program's allocation only. *)
let reference_s = 0.0025
let calibration_interval = 0.2

let kernel_array = Array.make 65536 0

let calibration_kernel () =
  let a = kernel_array and h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 200_000 do
    let k = (i * 7919) land 65535 in
    a.(k) <- a.(k) + i;
    if i land 7 = 0 then Hashtbl.replace h (k land 4095) [ i; k ];
    acc := !acc + a.((k * 31) land 65535)
  done;
  !acc

(* (start, stop) of every kernel run and of every [calibrate] call, newest
   first. *)
let kernel_runs : (float * float) list ref = ref []
let calibration_calls : (float * float) list ref = ref []
let last_calibration = ref neg_infinity

(* Three kernel runs, starting on an empty minor heap so that they never
   pay for promoting the program's young objects. The whole call,
   collection included, is what an operation's latency loses. *)
let calibrate () =
  let start = now () in
  Gc.minor ();
  for _ = 1 to 3 do
    let t0 = now () in
    ignore (Sys.opaque_identity (calibration_kernel ()));
    kernel_runs := (t0, now ()) :: !kernel_runs
  done;
  let stop = now () in
  calibration_calls := (start, stop) :: !calibration_calls;
  last_calibration := stop

let maybe_calibrate () = if now () -. !last_calibration >= calibration_interval then calibrate ()

(* Host speed around [t0, t1], as reference seconds per wall second: from
   the median of the kernel runs within 1 s of the interval, widened until
   there are five. *)
let speed t0 t1 =
  let rec around w =
    let near = List.filter (fun (a, b) -> b >= t0 -. w && a <= t1 +. w) !kernel_runs in
    if List.length near >= 5 || w > 1e4 then near else around (2. *. w)
  in
  ratio reference_s (median (List.map (fun (a, b) -> b -. a) (around 1.)))

(* What an operation or a probe took: its wall interval and the CPU time
   spent in it. *)
type interval = { t0 : float; t1 : float; cpu_s : float }

let timed f =
  let c0 = cpu () in
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  (v, { t0; t1; cpu_s = cpu () -. c0 })

(* Seconds at reference speed for an interval: its CPU time, less the
   calibration calls inside it, scaled by the host speed around it. *)
let normalised i =
  let inside = List.filter (fun (a, b) -> a >= i.t0 && b <= i.t1) !calibration_calls in
  (i.cpu_s -. sum (List.map (fun (a, b) -> b -. a) inside)) *. speed i.t0 i.t1

(* --- set-up probes ------------------------------------------------------ *)

(* setup_s is the median, over fresh processes, of the time from spawning
   this program until it has set up for its first operation and exited
   (see [setup]). Process start-up cost drifts with the host's state, so
   besides a first batch the probes are spread over the whole run, at most
   one every [probe_interval] between operations. *)
let probe_command = ref [||]
let probe_interval = 0.5
let probes : interval list ref = ref []
let last_probe = ref neg_infinity

let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* The probe's CPU time is that of the child and its own children. *)
let probe () =
  let c0 = children_cpu () in
  let t0 = now () in
  let pid = Unix.create_process Sys.executable_name !probe_command Unix.stdin Unix.stdout Unix.stderr in
  let _, status = Unix.waitpid [] pid in
  let t1 = now () in
  if status <> Unix.WEXITED 0 then failwith "set-up probe failed";
  probes := { t0; t1; cpu_s = children_cpu () -. c0 } :: !probes;
  last_probe := t1

(* Called between operations, never inside one. *)
let between_ops () =
  maybe_calibrate ();
  if now () -. !last_probe >= probe_interval then probe ()

(* --- tracing ------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  detail : string;  (** figure or seed the span is about, or "" *)
  op : int;  (** operation the span belongs to; 0 for a pass of many *)
  parent : int;  (** 0 at the top level *)
  start : float;
  stop : float;
  deltas : (string * float) list;  (** counters: after - before *)
}

let tracing = ref false
let spans : span list ref = ref []
let last_id = ref 0

(* Minor words allocated by [span]'s own bookkeeping. A span's Gc count
   excludes it: the list of Profile slots grows as slots see their first
   call, which would otherwise make the count depend on history. *)
let bookkeeping_words = ref 0.

(* Counters sampled around each traced call: Gc, the engine's simulation
   count, and every Telemetry.Profile slot (total ns and calls). *)
let counters () =
  ("gc.major_collections", float (Gc.quick_stat ()).Gc.major_collections)
  :: ("engine.simulations", float (Engine.simulations ()))
  :: List.concat_map
       (fun (name, ns, calls) -> [ (name ^ ".ns", float ns); (name ^ ".calls", float calls) ])
       (Profile.report ())

let delta key s = Option.value ~default:0. (List.assoc_opt key s.deltas)
let duration s = s.stop -. s.start

(* [span ~op name f] runs [f id]; when tracing, it records a span with the
   counter deltas over the call, and the minor words the call allocated
   as "gc.minor_words". *)
let span ?(parent = 0) ?(detail = "") ~op name f =
  if not !tracing then f 0
  else begin
    incr last_id;
    let id = !last_id in
    let bookkeeping g =
      let w = Gc.minor_words () in
      let v = g () in
      bookkeeping_words := !bookkeeping_words +. (Gc.minor_words () -. w);
      v
    in
    let program_words () = Gc.minor_words () -. !bookkeeping_words in
    let before = bookkeeping counters in
    let start = now () in
    let w0 = program_words () in
    let finish () =
      let w1 = program_words () in
      let stop = now () in
      bookkeeping (fun () ->
          let deltas =
            ("gc.minor_words", w1 -. w0)
            :: List.map
                 (fun (k, v) -> (k, v -. Option.value ~default:0. (List.assoc_opt k before)))
                 (counters ())
          in
          spans := { id; name; detail; op; parent; start; stop; deltas } :: !spans)
    in
    Fun.protect ~finally:finish (fun () -> f id)
  end

let write_trace path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"detail\":%S,\"op\":%d,\"parent\":%d,\"start\":%.6f,\"end\":%.6f,\"deltas\":{%s}}\n"
        s.id s.name s.detail s.op s.parent s.start s.stop
        (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%.17g" k v) s.deltas)))
    (List.rev !spans);
  Printf.fprintf oc "{\"profile\":[%s]}\n"
    (String.concat ","
       (List.map
          (fun (n, ns, calls) -> Printf.sprintf "{\"name\":%S,\"ns\":%d,\"calls\":%d}" n ns calls)
          (Profile.report ())));
  Printf.fprintf oc "{\"calibration\":{\"reference_s\":%g,\"runs\":[%s]}}\n" reference_s
    (String.concat ","
       (List.rev_map (fun (a, b) -> Printf.sprintf "[%.6f,%.6f]" a b) !kernel_runs));
  close_out oc

(* --- passes ------------------------------------------------------------- *)

type pass = {
  traced : bool;
  start : float;
  stop : float;
  ops : (string * interval) list;
  attempted : int;
  failed : int;
  span_id : int;  (** the pass span when traced *)
}

let next_op =
  let n = ref 0 in
  fun () ->
    incr n;
    !n

type state = {
  workload : workload;
  seed : int;
  dir : string;  (** scratch directory of this run, removed at exit *)
  reference : (string, string) Hashtbl.t;  (** figure -> rendering of the first cold run *)
  verdicts : (int, string) Hashtbl.t;  (** fuzz seed -> first pass's verdict *)
  mutable checks_ok : bool;  (** benchmark-level checks (see METRICS.md) *)
  mutable totals : int array option;  (** exact gpu_sim counters of a cold pass *)
  mutable store : int * int;  (** store entries, bytes after the last pass *)
}

(* Run each Suite entry once. A figure fails when it raises (a
   Gpu_sim.Gpu.Deadlock included) or renders differently from the first
   cold rendering of the same figure. With [figure_ops] every figure is an
   operation of its own. Returns (name, interval, ok) per figure. *)
let run_figures st ~parent ~figure_ops order =
  let scratch = Filename.concat st.dir "figure.out" in
  List.map
    (fun (e : Suite.entry) ->
      let op = if figure_ops then next_op () else 0 in
      if figure_ops then between_ops ();
      let result, interval =
        timed (fun () ->
            span ~parent ~op ~detail:e.name ("experiments." ^ e.name) (fun _ ->
                match capture scratch (fun () -> e.print cfg) with
                | out -> Ok out
                | exception exn -> Error (Printexc.to_string exn)))
      in
      sample_heap ();
      let ok =
        match result with
        | Error msg ->
            complain "%s raised %s" e.name msg;
            false
        | Ok out -> (
            match Hashtbl.find_opt st.reference e.name with
            | None ->
                Hashtbl.replace st.reference e.name out;
                true
            | Some first ->
                let same = String.equal first out in
                if not same then complain "%s rendered differently from its cold run" e.name;
                same)
      in
      (e.name, interval, ok))
    order

(* Σ of the exact gpu_sim counters over every simulation of a cold pass,
   read back from its store: Result_store keeps one marshalled
   (key, Runner.run) per distinct simulation under <root>/<version>/. Each
   entry must also load back through Result_store.load with the same
   fingerprint. Layout: instructions, cycles, divergent branches,
   predicated lane cycles, then one stall count per Stats.all_reasons. *)
let store_totals st root =
  let vdir = Filename.concat root (Store.version_tag ()) in
  let files = List.filter (fun f -> Filename.check_suffix f ".run") (Array.to_list (Sys.readdir vdir)) in
  let totals = Array.make (4 + List.length Stats.all_reasons) 0 in
  List.iter
    (fun f ->
      let key, (r : Runner.run) =
        In_channel.with_open_bin (Filename.concat vdir f) (fun ic ->
            (Marshal.from_channel ic : string * Runner.run))
      in
      (match Store.load key with
      | Some r' when Runner.fingerprint r' = Runner.fingerprint r -> ()
      | _ ->
          complain "store entry %s does not round-trip" key;
          st.checks_ok <- false);
      let s = r.Runner.stats in
      let add i v = totals.(i) <- totals.(i) + v in
      add 0 s.Stats.instructions;
      add 1 s.Stats.cycles;
      add 2 s.Stats.divergent_branches;
      add 3 s.Stats.predicated_lane_cycles;
      List.iteri (fun i reason -> add (4 + i) (Stats.stall_count s reason)) Stats.all_reasons)
    files;
  (List.length files, totals)

let store_stats () =
  let s = span ~op:0 "experiments.store_stats" (fun _ -> Store.stats ()) in
  (s.Store.entries, s.Store.bytes)

let pass_of_ops ~start ~span_id results =
  {
    traced = !tracing;
    start;
    stop = now ();
    ops = List.map (fun (op, i, _) -> (op, i)) results;
    attempted = List.length results;
    failed = List.length (List.filter (fun (_, _, ok) -> not ok) results);
    span_id;
  }

(* sweep-cold: every Suite entry, in presentation order, against a fresh
   empty store; an operation is one figure. *)
let cold_pass st ~index =
  let root = Filename.concat st.dir (Printf.sprintf "store-%d" index) in
  Engine.set_cache_dir (Some root);
  Engine.clear ();
  let sims0 = Engine.simulations () in
  let start = now () in
  let span_id, figs =
    span ~op:0 "pass" (fun id -> (id, run_figures st ~parent:id ~figure_ops:true Suite.all))
  in
  let pass = pass_of_ops ~start ~span_id figs in
  (* Outside the operations: the pass's exact counters must equal the
     first pass's, and the store must hold one entry per simulation. *)
  let entries, totals = store_totals st root in
  if entries <> Engine.simulations () - sims0 then begin
    complain "store holds %d entries for %d simulations" entries (Engine.simulations () - sims0);
    st.checks_ok <- false
  end;
  (match st.totals with
  | None -> st.totals <- Some totals
  | Some first when first = totals -> ()
  | Some _ ->
      complain "exact gpu_sim counters differ between passes";
      st.checks_ok <- false);
  st.store <- store_stats ();
  rm_rf root;
  pass

(* sweep-warm: every Suite entry, in a seed-shuffled order, against the
   store the fill filled, after Engine.clear (); an operation is a pass,
   and it fails if it simulates anything or renders any figure
   differently from the fill. *)
let warm_pass st ~index =
  Engine.clear ();
  let rng = Random.State.make [| st.seed; index |] in
  let order = Array.of_list Suite.all in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  between_ops ();
  let sims0 = Engine.simulations () in
  let start = now () in
  let (span_id, figs), interval =
    timed (fun () ->
        span ~op:(next_op ()) "pass" (fun id ->
            (id, run_figures st ~parent:id ~figure_ops:false (Array.to_list order))))
  in
  let sims = Engine.simulations () - sims0 in
  if sims > 0 then complain "warm pass %d ran %d simulation(s)" index sims;
  st.store <- store_stats ();
  let ok = sims = 0 && List.for_all (fun (_, _, ok) -> ok) figs in
  pass_of_ops ~start ~span_id [ (Printf.sprintf "pass-%d" index, interval, ok) ]

(* fuzz: Gen.generate then Oracle.test_case (no shrinking) for each seed
   of [seed, seed + fuzz_seeds); an operation is a seed, and it fails when
   the oracle reports any failure or a verdict different from the first
   pass's. *)
let fuzz_pass st ~index:_ =
  let start = now () in
  let span_id, results =
    span ~op:0 "pass" (fun parent ->
        ( parent,
          List.init fuzz_seeds (fun i ->
              let seed = st.seed + i in
              let detail = string_of_int seed in
              let op = next_op () in
              between_ops ();
              let report, interval =
                timed (fun () ->
                    span ~parent ~op ~detail "fuzz.seed" (fun sp ->
                        let case =
                          span ~parent:sp ~op ~detail "fuzz.gen" (fun _ -> Fuzz.Gen.generate ~seed)
                        in
                        span ~parent:sp ~op ~detail "fuzz.oracle" (fun _ -> Fuzz.Oracle.test_case case)))
              in
              sample_heap ();
              let failures = report.Fuzz.Oracle.failures in
              let verdict =
                String.concat "\n" (List.map (Format.asprintf "%a" Fuzz.Oracle.pp_failure) failures)
              in
              let ok =
                match Hashtbl.find_opt st.verdicts seed with
                | None ->
                    Hashtbl.replace st.verdicts seed verdict;
                    if failures <> [] then
                      complain "seed %d: %d failure(s)\n%s" seed (List.length failures) verdict;
                    failures = []
                | Some first ->
                    if first <> verdict then complain "seed %d: verdict changed between passes" seed;
                    failures = [] && first = verdict
              in
              (detail, interval, ok)) ))
  in
  pass_of_ops ~start ~span_id results

(* --- set-up --------------------------------------------------------------- *)

(* Everything between process start and the first operation, bar the
   sweep-warm store fill (a cold sweep, which sweep-cold measures). *)
let setup workload ~dir ~store =
  Engine.set_jobs 1;
  mkdir_p dir;
  match workload with
  | Sweep_cold ->
      Engine.set_cache_dir (Some (Filename.concat dir "store"));
      ignore (Store.stats ())
  | Sweep_warm ->
      Engine.set_cache_dir (Some store);
      ignore (Store.stats ())
  | Fuzz_campaign -> Engine.set_cache_dir None

(* --- metrics ------------------------------------------------------------ *)

let mib_of_words w = float w *. float (Sys.word_size / 8) /. 1048576.

(* Latencies are normalised, then made robust: an operation that every pass
   repeats (a figure, a fuzz seed) counts once, at its median over the
   passes, and a pass takes the sum of those medians over its operations.
   A warm pass is an operation of its own, so sweep-warm's run_s is the
   median pass. *)
let op_medians passes =
  let by_op = Hashtbl.create 256 in
  List.iter
    (fun p ->
      List.iter
        (fun (op, i) ->
          Hashtbl.replace by_op op (normalised i :: Option.value ~default:[] (Hashtbl.find_opt by_op op)))
        p.ops)
    passes;
  Hashtbl.fold (fun op ls acc -> (op, median ls) :: acc) by_op []

let pass_time passes =
  let med = op_medians passes in
  median (List.map (fun p -> sum (List.map (fun (op, _) -> List.assoc op med) p.ops)) passes)

let end_to_end ~setup_s untraced =
  let lat = List.map snd (op_medians untraced) in
  let ops = List.concat_map (fun p -> p.ops) untraced in
  let busy = sum (List.map (fun (_, i) -> normalised i) ops) in
  [ ("setup_s", setup_s, "s");
    ("run_s", pass_time untraced, "s");
    ("ops_per_s", ratio (float (List.length ops)) busy, "1/s");
    ("op_ms_p50", 1e3 *. quantile 0.5 lat, "ms");
    ("op_ms_p90", 1e3 *. quantile 0.9 lat, "ms");
    ("peak_heap_mb", mib_of_words !peak_heap_words, "MB") ]

let oracle_stages =
  [ ("baseline", "oracle.baseline"); ("techniques", "oracle.techniques");
    ("forced_split", "oracle.forced-split"); ("forced_regdem", "oracle.forced-regdem");
    ("simt", "oracle.simt") ]

(* Per-layer metrics: each is computed per traced pass from the spans of
   its operations (so kernel runs between operations never count) and
   reported as the median over traced passes; times are normalised by the
   pass's host speed. Exact gpu_sim counters come from the cold store. *)
let per_layer st ~traced ~untraced =
  let all = !spans in
  let op_spans p = List.filter (fun s -> s.op <> 0 && (s.id = p.span_id || s.parent = p.span_id)) all in
  let count f = median (List.map (fun p -> f p (op_spans p)) traced) in
  let time f = median (List.map (fun p -> speed p.start p.stop *. f p (op_spans p)) traced) in
  let total key ss = sum (List.map (delta key) ss) in
  let ns key = time (fun _ ss -> total key ss /. 1e9) in
  (* Σ duration of the spans called [name] directly under the pass or one
     of its operations. *)
  let spans_named name =
    time (fun p ss ->
        let parents = p.span_id :: List.map (fun s -> s.id) ss in
        sum (List.map duration (List.filter (fun s -> s.name = name && List.mem s.parent parents) all)))
  in
  let sim_s = ns "runner.simulate.ns" and prep_s = ns "runner.prepare.ns" in
  let sim_calls = count (fun _ ss -> total "runner.simulate.calls" ss) in
  let prep_calls = count (fun _ ss -> total "runner.prepare.calls" ss) in
  let totals =
    match (st.workload, st.totals) with
    | Sweep_cold, Some t -> Array.map float t
    | _ -> Array.make (4 + List.length Stats.all_reasons) 0.
  in
  let instrs = totals.(0) in
  let minor = count (fun _ ss -> total "gc.minor_words" ss) in
  [ ("gpu_sim.busy_s", sim_s, "s");
    ("gpu_sim.calls", sim_calls, "count");
    ("gpu_sim.us_per_call", 1e6 *. ratio sim_s sim_calls, "us");
    ("gpu_sim.instructions", instrs, "count");
    ("gpu_sim.cycles", totals.(1), "count") ]
  @ List.mapi
      (fun i r -> ("gpu_sim.stall_cycles." ^ Stats.reason_name r, totals.(4 + i), "count"))
      Stats.all_reasons
  @ [ ("gpu_sim.divergent_branches", totals.(2), "count");
      ("gpu_sim.predicated_lane_cycles", totals.(3), "count");
      ("gpu_sim.ns_per_instr", 1e9 *. ratio sim_s instrs, "ns");
      ("gpu_sim.alloc_words_per_instr", ratio minor instrs, "words");
      ("regmutex.prepare_s", prep_s, "s");
      ("regmutex.prepare_calls", prep_calls, "count");
      ("regmutex.us_per_prepare", 1e6 *. ratio prep_s prep_calls, "us");
      ("fuzz.gen_s", spans_named "fuzz.gen", "s");
      ("fuzz.oracle_s", spans_named "fuzz.oracle", "s") ]
  @ List.map (fun (n, slot) -> ("fuzz.oracle." ^ n ^ "_s", ns (slot ^ ".ns"), "s")) oracle_stages
  @ [ ("gpu_isa.roundtrip_s", ns "oracle.roundtrip.ns", "s") ]
  @ List.map
      (fun (e : Suite.entry) ->
        ("experiments." ^ e.name ^ "_ms", 1e3 *. spans_named ("experiments." ^ e.name), "ms"))
      Suite.all
  @ [ ("experiments.simulations", count (fun _ ss -> total "engine.simulations" ss), "count");
      ("experiments.store_entries", float (fst st.store), "count");
      ("experiments.store_bytes", float (snd st.store), "bytes");
      ("experiments.residual_s", time (fun _ ss -> sum (List.map duration ss)) -. sim_s -. prep_s, "s");
      ( "ocaml.minor_words_per_op",
        count (fun p ss -> ratio (total "gc.minor_words" ss) (float p.attempted)),
        "words" );
      ("ocaml.major_collections", count (fun _ ss -> total "gc.major_collections" ss), "count");
      ( "telemetry.trace_overhead_pct",
        100. *. (ratio (pass_time traced) (pass_time untraced) -. 1.),
        "%" ) ]

(* --- main ----------------------------------------------------------------- *)

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (n, v, u) -> Printf.printf "# %-40s %16.6f %s\n" n v u) metrics;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", "
       (List.map (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u) metrics))

let () =
  let name = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let probe_mode = ref false and probe_dir = ref "" and probe_store = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string name, "NAME sweep-cold | sweep-warm | fuzz");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--probe", Arg.Set probe_mode, " (internal) set up, then exit");
      ("--dir", Arg.Set_string probe_dir, "DIR (internal) probe scratch directory");
      ("--store", Arg.Set_string probe_store, "DIR (internal) probe store root") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let workload =
    match List.assoc_opt !name workloads with
    | Some w -> w
    | None ->
        complain "unknown workload %S (expected %s)" !name (String.concat ", " (List.map fst workloads));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    complain "--trace must be 0 or 1";
    exit 2
  end;
  if !probe_mode then begin
    setup workload ~dir:!probe_dir ~store:!probe_store;
    exit 0
  end;
  let base = "_perfbench" in
  let dir = Filename.concat base (Printf.sprintf "run-%d" (Unix.getpid ())) in
  let st =
    { workload; seed = !seed; dir; reference = Hashtbl.create 16; verdicts = Hashtbl.create 256;
      checks_ok = true; totals = None; store = (0, 0) }
  in
  let traced_run = !trace = 1 in
  let correct, attempted, failed, metrics =
    Fun.protect
      ~finally:(fun () ->
        rm_rf dir;
        try Unix.rmdir base with Unix.Unix_error _ -> ())
      (fun () ->
        mkdir_p dir;
        let store = Filename.concat dir "warm-store" in
        if workload = Sweep_warm then begin
          (* The fill: one cold sweep, whose renderings are the reference
             every warm pass must reproduce. *)
          setup workload ~dir ~store;
          ignore (run_figures st ~parent:0 ~figure_ops:false Suite.all)
        end;
        probe_command :=
          [| Sys.executable_name; "--probe"; "--workload"; !name; "--seed"; string_of_int !seed;
             "--dir"; Filename.concat dir "probe"; "--store"; store |];
        calibrate ();
        for _ = 1 to setup_probes do
          probe ();
          maybe_calibrate ()
        done;
        setup workload ~dir ~store;
        let pass =
          match workload with
          | Sweep_cold -> cold_pass st
          | Sweep_warm -> warm_pass st
          | Fuzz_campaign -> fuzz_pass st
        in
        Gc.compact ();
        peak_heap_words := 0;
        let deadline = now () +. !seconds in
        (* Untraced and traced passes alternate in a traced run, which
           has at least one of each. *)
        let rec go index acc =
          let traced = traced_run && index mod 2 = 1 in
          tracing := traced;
          Profile.set_enabled traced;
          let alarm = if traced then None else Some (Gc.create_alarm maybe_calibrate) in
          let p = pass ~index in
          Option.iter Gc.delete_alarm alarm;
          tracing := false;
          Profile.set_enabled false;
          let acc = p :: acc in
          if now () >= deadline && ((not traced_run) || index >= 1) then List.rev acc
          else go (index + 1) acc
        in
        let passes = go 0 [] in
        calibrate ();
        let traced, untraced = List.partition (fun p -> p.traced) passes in
        let attempted = List.fold_left (fun n p -> n + p.attempted) 0 passes in
        let failed = List.fold_left (fun n p -> n + p.failed) 0 passes in
        let setup_s = median (List.map normalised !probes) in
        let e2e = end_to_end ~setup_s untraced in
        let kernel_runs = List.map (fun (a, b) -> b -. a) !kernel_runs in
        Printf.printf "# %s seed %d: %d pass(es), %d operation(s), %d failed, error_rate %.6f\n" !name
          !seed (List.length passes) attempted failed
          (ratio (float failed) (float attempted));
        Printf.printf "# host speed: calibration kernel median %.3f ms over %d runs (reference %.3f ms)\n"
          (1e3 *. median kernel_runs) (List.length kernel_runs) (1e3 *. reference_s);
        if traced_run then begin
          Printf.printf "# end-to-end, from this run's untraced passes:\n";
          List.iter (fun (n, v, u) -> Printf.printf "#   %-38s %16.6f %s\n" n v u) e2e;
          write_trace (Filename.concat base (Printf.sprintf "trace-%s-%d.jsonl" !name !seed))
        end;
        let metrics = if traced_run then per_layer st ~traced ~untraced else e2e in
        (st.checks_ok, attempted, failed, metrics))
  in
  print_result ~correct ~attempted ~failed metrics
