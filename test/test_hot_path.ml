(* Guards on the SM issue loop's shortcuts.

   Allocation: a simulation allocates (almost) nothing per issued
   instruction, in the warp-uniform and the per-lane (--simt) model. The count is deterministic, so the bound is exact
   rather than timing-banded.

   Exactness: [Sm.classify_idle] (the early-exit idle attribution the
   schedulers use every idle cycle) must always agree with the
   straightforward full scan in [Sm.idle_summary]. Brute-force stepping
   with an every-cycle observer visits every cycle of the run, so the two
   are compared in every reachable state. *)

open Gpu_sim
module Technique = Regmutex.Technique
module Exp_config = Experiments.Exp_config
module Registry = Workloads.Registry

(* --- allocation --------------------------------------------------------- *)

let max_words_per_instr = 1.0

let words_per_instr ?(simt = false) ~arch technique spec =
  let kernel = Exp_config.kernel_of Exp_config.quick spec in
  let prepared = Technique.prepare arch technique kernel in
  let config = { (Gpu.default_config arch prepared.Technique.policy) with Gpu.simt } in
  let w0 = Gc.minor_words () in
  let stats = Gpu.run config prepared.Technique.kernel in
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int (max 1 stats.Stats.instructions)

let check_words ?simt ~arch technique spec label =
  let w = words_per_instr ?simt ~arch technique spec in
  if w > max_words_per_instr then
    Alcotest.failf "%s: %.3f minor words per issued instruction (bound %.1f)"
      label w max_words_per_instr

let alloc_table1 ?simt () =
  List.iter
    (fun spec ->
      let arch = Exp_config.eval_arch Exp_config.quick spec in
      List.iter
        (fun technique ->
          check_words ?simt ~arch technique spec
            (spec.Workloads.Spec.name ^ "/" ^ Technique.name technique))
        Technique.all)
    Registry.all

let test_alloc_table1 () = alloc_table1 ()

(* The per-lane model iterates the active mask with plain loops, so the
   same bound holds under --simt. *)
let test_alloc_table1_simt () = alloc_table1 ~simt:true ()

let test_alloc_schedulers () =
  let spec = Registry.find "BFS" in
  List.iter
    (fun (name, scheduler) ->
      let arch =
        { (Exp_config.eval_arch Exp_config.quick spec) with
          Gpu_uarch.Arch_config.scheduler }
      in
      List.iter
        (fun technique ->
          check_words ~arch technique spec
            ("BFS/" ^ name ^ "/" ^ Technique.name technique))
        [ Technique.Baseline; Technique.Regmutex ])
    [ ("lrr", Gpu_uarch.Arch_config.Lrr);
      ("two-level", Gpu_uarch.Arch_config.Two_level 4) ]

(* --- classification fast path ------------------------------------------ *)

let check_classification ~arch ~label technique spec =
  let grid = max 2 (spec.Workloads.Spec.kernel.Kernel.grid_ctas / 32) in
  let kernel = (Workloads.Spec.with_grid spec grid).Workloads.Spec.kernel in
  let prepared = Technique.prepare arch technique kernel in
  let config =
    { (Gpu.default_config arch prepared.Technique.policy) with
      Gpu.fast_forward = false }
  in
  let checked = ref 0 in
  let observe ~cycle sms =
    Array.iteri
      (fun i sm ->
        let fast = Sm.classify_idle sm ~cycle in
        let full = fst (Sm.idle_summary sm ~cycle) in
        incr checked;
        if fast <> full then
          Alcotest.failf "%s/%s/%s, %d memory slots, SM %d, cycle %d: classify_idle %s, \
                          idle_summary %s"
            spec.Workloads.Spec.name (Technique.name technique) label
            arch.Gpu_uarch.Arch_config.mem_slots i cycle (Stats.reason_name fast)
            (Stats.reason_name full))
      sms
  in
  let stats = Gpu.run ~observe config prepared.Technique.kernel in
  Alcotest.(check bool) "run completed" false stats.Stats.timed_out;
  Alcotest.(check bool) "states observed" true (!checked > 0)

(* Each cell runs on the stock slice and on one starved of memory slots,
   where [Blocked_mem] competes with the other stall ranks. *)
let archs spec =
  let arch = Exp_config.eval_arch Exp_config.quick spec in
  [ arch; { arch with Gpu_uarch.Arch_config.mem_slots = 8 } ]

let test_classification_policies () =
  List.iter
    (fun name ->
      let spec = Registry.find name in
      List.iter
        (fun arch ->
          List.iter
            (fun technique -> check_classification ~arch ~label:"gto" technique spec)
            [ Technique.Baseline; Technique.Regmutex; Technique.Regmutex_paired;
              Technique.Owf; Technique.Rfv ])
        (archs spec))
    [ "BFS"; "SRAD" ]

let test_classification_schedulers () =
  let spec = Registry.find "HeartWall" in
  List.iter
    (fun (label, scheduler) ->
      List.iter
        (fun arch ->
          let arch = { arch with Gpu_uarch.Arch_config.scheduler } in
          List.iter
            (fun technique -> check_classification ~arch ~label technique spec)
            [ Technique.Baseline; Technique.Regmutex; Technique.Rfv ])
        (archs spec))
    [ ("gto", Gpu_uarch.Arch_config.Gto); ("lrr", Gpu_uarch.Arch_config.Lrr);
      ("two-level", Gpu_uarch.Arch_config.Two_level 4) ]

let suite =
  [ Alcotest.test_case "allocation per instruction (Table I)" `Quick
      test_alloc_table1;
    Alcotest.test_case "allocation per instruction (Table I, --simt)" `Quick
      test_alloc_table1_simt;
    Alcotest.test_case "allocation per instruction (LRR, two-level)" `Quick
      test_alloc_schedulers;
    Alcotest.test_case "classify_idle = idle_summary (policies)" `Quick
      test_classification_policies;
    Alcotest.test_case "classify_idle = idle_summary (schedulers)" `Quick
      test_classification_schedulers ]
