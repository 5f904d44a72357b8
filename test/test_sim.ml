open Gpu_sim
module B = Gpu_isa.Builder
module I = Gpu_isa.Instr

(* Each thread-warp computes gid*2+1 and stores it at its gid. *)
let arith_kernel =
  B.(
    assemble ~name:"arith"
      [ mul 0 ctaid ntid;
        add 0 (r 0) tid;
        mad 1 (r 0) (imm 2) (imm 1);
        store ~ofs:0x10000000 I.Global (r 0) (r 1);
        exit_ ])

let test_functional_result () =
  let stats = Util.run_with ~grid:2 ~threads:64 (Util.static_policy arith_kernel) arith_kernel in
  let traces = Util.traces stats in
  (* 2 CTAs x 2 warps. *)
  Alcotest.(check int) "4 warps stored" 4 (List.length traces);
  List.iter
    (fun ((cta, w), tr) ->
      let gid = (cta * 64) + (w * 32) in
      match tr with
      | [ (I.Global, addr, v) ] ->
          Alcotest.(check int) "address" (0x10000000 + gid) addr;
          Alcotest.(check int) "value" ((gid * 2) + 1) v
      | _ -> Alcotest.fail "expected exactly one store")
    traces

let test_stats_basics () =
  let stats = Util.run_with ~grid:2 ~threads:64 (Util.static_policy arith_kernel) arith_kernel in
  Alcotest.(check int) "all CTAs retired" 2 stats.Stats.ctas_retired;
  Alcotest.(check bool) "not timed out" false stats.Stats.timed_out;
  Alcotest.(check int) "instructions = warps x 5" (4 * 5) stats.Stats.instructions;
  Alcotest.(check bool) "cycles positive" true (stats.Stats.cycles > 0);
  Alcotest.(check bool) "ipc sane" true (Stats.ipc stats > 0.)

let test_latency_hiding () =
  (* A memory-bound kernel: more warps should reduce total cycles. *)
  let body =
    B.(
      [ mul 0 ctaid ntid; add 0 (r 0) tid; mov 3 (imm 0); mul 2 (r 0) (imm 4) ]
      @ Workloads.Shape.counted_loop ~ctr:1 ~trips:(imm 6) ~name:"l"
          (Workloads.Shape.chase I.Global ~addr:2 ~dst:4 ~hops:2
          @ [ mad 3 (r 4) (imm 1) (r 3) ])
      @ [ store ~ofs:0x10000000 I.Global (r 0) (r 3); exit_ ])
  in
  let prog = B.assemble ~name:"membound" body in
  let cycles_with_grid grid =
    (Util.run_with ~grid ~threads:64 (Util.static_policy prog) prog).Stats.cycles
  in
  let one = cycles_with_grid 1 in
  let eight = cycles_with_grid 8 in
  (* 8x the work should take far less than 8x the time. *)
  Alcotest.(check bool)
    (Printf.sprintf "parallel speedup (1 CTA: %d, 8 CTAs: %d)" one eight)
    true
    (eight < 4 * one)

let test_barrier_orders_shared_memory () =
  (* Warp 0 writes a shared slot before the barrier; all warps read it
     after. Without barrier semantics the values would be stale. *)
  let prog =
    B.(
      assemble ~name:"barrier"
        [ mov 0 tid;
          cmp I.Eq 1 (r 0) (imm 0);
          bz (r 1) "wait";
          store I.Shared (imm 0) (imm 77);
          label "wait";
          bar;
          load I.Shared 2 (imm 0);
          mul 3 ctaid ntid;
          add 3 (r 3) (r 0);
          store ~ofs:0x10000000 I.Global (r 3) (r 2);
          exit_ ])
  in
  let stats =
    Util.run_with ~grid:1 ~threads:128
      (Gpu_sim.Policy.Static { regs_per_thread = 4 })
      prog
  in
  let traces = Util.traces stats in
  Alcotest.(check int) "4 warps" 4 (List.length traces);
  List.iter
    (fun (_, tr) ->
      match List.rev tr with
      | (I.Global, _, v) :: _ -> Alcotest.(check int) "saw warp 0's write" 77 v
      | ((I.Shared | I.Spill), _, _) :: _ | [] ->
          Alcotest.fail "missing global store")
    traces

let test_timeout_flag () =
  let spin =
    B.(assemble ~name:"spin" [ label "l"; add 0 (r 0) (imm 1); bra "l"; exit_ ])
  in
  let kernel = Kernel.make ~name:"spin" ~grid_ctas:1 ~cta_threads:32 spin in
  let config =
    { (Gpu.default_config Util.small_arch (Policy.Static { regs_per_thread = 1 })) with
      Gpu.max_cycles = 500 }
  in
  let stats = Gpu.run config kernel in
  Alcotest.(check bool) "timed out" true stats.Stats.timed_out;
  Alcotest.(check int) "stopped at watchdog" 500 stats.Stats.cycles

let test_zero_occupancy_rejected () =
  let kernel = Kernel.make ~name:"big" ~grid_ctas:1 ~cta_threads:1537 arith_kernel in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Gpu.run (Gpu.default_config Util.small_arch (Util.static_policy arith_kernel)) kernel);
       false
     with Invalid_argument _ -> true)

let test_multi_sm_dispatch () =
  let arch = { Util.small_arch with Gpu_uarch.Arch_config.n_sms = 4 } in
  let stats = Util.run_with ~arch ~grid:16 ~threads:64 (Util.static_policy arith_kernel) arith_kernel in
  Alcotest.(check int) "all retired across SMs" 16 stats.Stats.ctas_retired;
  Alcotest.(check int) "all warps stored" 32 (List.length (Util.traces stats))

let test_occupancy_accounting () =
  let stats = Util.run_with ~grid:2 ~threads:64 (Util.static_policy arith_kernel) arith_kernel in
  let occ = Stats.achieved_occupancy stats in
  Alcotest.(check bool) "occupancy in (0,1]" true (occ > 0. && occ <= 1.)

let test_per_warp_instruction_counts () =
  let stats = Util.run_with ~grid:2 ~threads:64 (Util.static_policy arith_kernel) arith_kernel in
  let counts = Stats.warp_instruction_counts stats in
  Alcotest.(check int) "4 warps recorded" 4 (List.length counts);
  List.iter
    (fun (_, n) -> Alcotest.(check int) "uniform kernel, uniform count" 5 n)
    counts;
  (* A divergent kernel produces non-uniform counts across warps. *)
  let spec = Workloads.Spec.with_grid (Workloads.Registry.find "HeartWall") 4 in
  let kernel = spec.Workloads.Spec.kernel in
  let config =
    Gpu_sim.Gpu.default_config Util.small_arch
      (Policy.Static { regs_per_thread = Kernel.regs_per_thread kernel })
  in
  let stats = Gpu_sim.Gpu.run config kernel in
  let counts = List.map snd (Stats.warp_instruction_counts stats) in
  Alcotest.(check bool) "divergent counts differ" true
    (List.length (List.sort_uniq compare counts) > 1)

let test_theoretical_warps () =
  let kernel = Kernel.make ~name:"t" ~grid_ctas:4 ~cta_threads:256 arith_kernel in
  let config = Gpu.default_config Gpu_uarch.Arch_config.gtx480 (Policy.Static { regs_per_thread = 24 }) in
  Alcotest.(check int) "5 CTAs x 8 warps" 40 (Gpu.theoretical_warps config kernel)

(* [theoretical_warps] and [srp_sections_of] read the capacity and
   section formulas without building an SM; they must answer what a
   created SM reports, for every Table I kernel and technique on both
   evaluation register files. *)
let test_capacity_without_sm () =
  let module Exp_config = Experiments.Exp_config in
  let module Technique = Regmutex.Technique in
  let cfg = Exp_config.quick in
  List.iter
    (fun spec ->
      let kernel = Exp_config.kernel_of cfg spec in
      List.iter
        (fun (arch_name, arch) ->
          List.iter
            (fun technique ->
              let prepared = Technique.prepare arch technique kernel in
              let kernel = prepared.Technique.kernel in
              let config = Gpu.default_config arch prepared.Technique.policy in
              let sm =
                Sm.create arch ~sm_id:0 ~policy:config.Gpu.policy ~kernel
                  ~memory:(Memory.create ()) ~stats:(Stats.create ())
                  ~mem_sys:(Mem_system.create arch ~n_sms:1)
                  ~record_stores:false ~trace_warp0:false
              in
              let label what =
                Printf.sprintf "%s/%s/%s: %s" spec.Workloads.Spec.name
                  (Technique.name technique) arch_name what
              in
              Alcotest.(check int) (label "theoretical warps")
                (Sm.cta_capacity sm * Kernel.warps_per_cta arch kernel)
                (Gpu.theoretical_warps config kernel);
              Alcotest.(check int) (label "SRP sections") (Sm.srp_sections sm)
                (Gpu.srp_sections_of config kernel))
            Technique.all)
        [ ("arch", cfg.Exp_config.arch); ("half_arch", cfg.Exp_config.half_arch) ])
    Workloads.Registry.all

let suite =
  [ Alcotest.test_case "functional results" `Quick test_functional_result;
    Alcotest.test_case "stats basics" `Quick test_stats_basics;
    Alcotest.test_case "latency hiding with occupancy" `Quick test_latency_hiding;
    Alcotest.test_case "barrier orders shared memory" `Quick test_barrier_orders_shared_memory;
    Alcotest.test_case "watchdog timeout" `Quick test_timeout_flag;
    Alcotest.test_case "zero occupancy rejected" `Quick test_zero_occupancy_rejected;
    Alcotest.test_case "multi-SM dispatch" `Quick test_multi_sm_dispatch;
    Alcotest.test_case "occupancy accounting" `Quick test_occupancy_accounting;
    Alcotest.test_case "per-warp instruction counts" `Quick test_per_warp_instruction_counts;
    Alcotest.test_case "theoretical warps" `Quick test_theoretical_warps;
    Alcotest.test_case "capacity and sections without an SM" `Quick
      test_capacity_without_sm ]
