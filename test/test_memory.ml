open Gpu_sim

let test_default_pattern () =
  let m = Memory.create () in
  let v = Memory.read_global m 1234 in
  Alcotest.(check int) "deterministic" v (Memory.read_global m 1234);
  Alcotest.(check int) "matches default_value" (Memory.default_value 1234) v;
  Alcotest.(check bool) "within 16 bits" true (v >= 0 && v < 65536)

let test_write_read () =
  let m = Memory.create () in
  Memory.write_global m 10 99;
  Alcotest.(check int) "read back" 99 (Memory.read_global m 10);
  Memory.write_global m 10 100;
  Alcotest.(check int) "overwrite" 100 (Memory.read_global m 10);
  Alcotest.(check int) "footprint" 1 (Memory.footprint m)

let test_address_masking () =
  let m = Memory.create () in
  Memory.write_global m 5 1;
  (* Addresses wrap at 30 bits: 5 + 2^30 aliases 5. *)
  Alcotest.(check int) "aliased high address" 1 (Memory.read_global m (5 + 0x40000000));
  Alcotest.(check int) "negative address masked"
    (Memory.read_global m ((-3) land 0x3fffffff))
    (Memory.read_global m (-3))

let test_written () =
  let m = Memory.create () in
  Memory.write_global m 30 3;
  Memory.write_global m 10 1;
  Memory.write_global m 20 2;
  Alcotest.(check (list (pair int int))) "sorted" [ (10, 1); (20, 2); (30, 3) ]
    (Memory.written m)

(* Unwrap a successful issue; the slot-availability cases below check
   the [-1] refusal explicitly. *)
let issue ms ~sm ~cycle =
  match Mem_system.issue_global ms ~sm ~cycle with
  | -1 -> Alcotest.fail "unexpected refusal (no free slot)"
  | c -> c

let test_mem_system_slots () =
  let arch = { Util.small_arch with Gpu_uarch.Arch_config.mem_slots = 2 } in
  let ms = Mem_system.create arch ~n_sms:1 in
  Alcotest.(check bool) "slot free" true (Mem_system.slot_free ms ~sm:0 ~cycle:0);
  let c1 = issue ms ~sm:0 ~cycle:0 in
  let _c2 = issue ms ~sm:0 ~cycle:0 in
  Alcotest.(check bool) "slots exhausted" false (Mem_system.slot_free ms ~sm:0 ~cycle:0);
  (* A slot frees once its request completes. *)
  Alcotest.(check bool) "free after completion" true
    (Mem_system.slot_free ms ~sm:0 ~cycle:c1);
  Alcotest.(check int) "issued" 2 (Mem_system.issued ms)

let test_mem_system_no_slot () =
  let arch = { Util.small_arch with Gpu_uarch.Arch_config.mem_slots = 1 } in
  let ms = Mem_system.create arch ~n_sms:2 in
  let c1 = issue ms ~sm:0 ~cycle:0 in
  (* Structured back-pressure: a full SM answers [-1] instead of
     raising, without counting the refused request as issued. *)
  Alcotest.(check int) "refused on a full SM" (-1)
    (Mem_system.issue_global ms ~sm:0 ~cycle:0);
  Alcotest.(check int) "refusal not counted" 1 (Mem_system.issued ms);
  (* Slots are per-SM: the other SM still issues. *)
  let _ = issue ms ~sm:1 ~cycle:0 in
  (* And the refused SM recovers once its request completes. *)
  let c3 = issue ms ~sm:0 ~cycle:c1 in
  Alcotest.(check bool) "recovers after completion" true (c3 > c1);
  Alcotest.(check int) "issued" 3 (Mem_system.issued ms)

let test_mem_system_queueing () =
  let arch =
    { Util.small_arch with Gpu_uarch.Arch_config.mem_slots = 64; dram_interval = 10. }
  in
  let ms = Mem_system.create arch ~n_sms:1 in
  let c1 = issue ms ~sm:0 ~cycle:0 in
  let c2 = issue ms ~sm:0 ~cycle:0 in
  let c3 = issue ms ~sm:0 ~cycle:0 in
  Alcotest.(check int) "uncontended latency" arch.Gpu_uarch.Arch_config.lat_global c1;
  Alcotest.(check int) "queued by one interval" (c1 + 10) c2;
  Alcotest.(check int) "queued by two intervals" (c1 + 20) c3;
  Alcotest.(check bool) "mean latency grows" true (Mem_system.mean_latency ms > float_of_int c1)

let test_mem_system_idle_recovers () =
  let arch = { Util.small_arch with Gpu_uarch.Arch_config.dram_interval = 10. } in
  let ms = Mem_system.create arch ~n_sms:1 in
  ignore (issue ms ~sm:0 ~cycle:0);
  (* After a long idle period the channel is free again: no queueing. *)
  let c = issue ms ~sm:0 ~cycle:1000 in
  Alcotest.(check int) "no residual queue" (1000 + arch.Gpu_uarch.Arch_config.lat_global) c

let suite =
  [ Alcotest.test_case "default pattern" `Quick test_default_pattern;
    Alcotest.test_case "write / read" `Quick test_write_read;
    Alcotest.test_case "address masking" `Quick test_address_masking;
    Alcotest.test_case "written listing" `Quick test_written;
    Alcotest.test_case "mem system: slots" `Quick test_mem_system_slots;
    Alcotest.test_case "mem system: no-slot back-pressure" `Quick test_mem_system_no_slot;
    Alcotest.test_case "mem system: queueing" `Quick test_mem_system_queueing;
    Alcotest.test_case "mem system: idle recovery" `Quick test_mem_system_idle_recovers ]
