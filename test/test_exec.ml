open Gpu_sim
module I = Gpu_isa.Instr

let make_ctx ?(regs = Array.make 8 0) ?(params = [| 10; 20 |]) () =
  let shared = Array.make 16 0 in
  let memory = Memory.create () in
  ( {
      Exec.regs;
      params;
      tid = 32;
      ctaid = 2;
      ntid = 128;
      nctaid = 4;
      warp_id = 1;
      shared;
      spill_words = 0;
      memory;
      stats = Stats.create ();
      record_stores = false;
      lanes = 0;
      n_regs = Array.length regs;
      lane_regs = [||];
    },
    shared,
    memory )

let step ctx i = Exec.step ctx i

let test_binops () =
  let ctx, _, _ = make_ctx () in
  let check name op a b expected =
    ignore (step ctx (I.Bin (op, 0, I.Imm a, I.Imm b)));
    Alcotest.(check int) name expected ctx.Exec.regs.(0)
  in
  check "add" I.Add 3 4 7;
  check "sub" I.Sub 3 4 (-1);
  check "mul" I.Mul 3 4 12;
  check "div" I.Div 12 4 3;
  check "div by zero" I.Div 12 0 0;
  check "rem" I.Rem 13 4 1;
  check "rem by zero" I.Rem 13 0 0;
  check "min" I.Min 3 4 3;
  check "max" I.Max 3 4 4;
  check "and" I.And 12 10 8;
  check "or" I.Or 12 10 14;
  check "xor" I.Xor 12 10 6;
  check "shl" I.Shl 1 4 16;
  check "shl masked" I.Shl 1 33 2;
  check "shr" I.Shr 16 2 4;
  check "shr negative (arithmetic)" I.Shr (-16) 2 (-4)

let test_unops_cmp_sel () =
  let ctx, _, _ = make_ctx () in
  ignore (step ctx (I.Un (I.Neg, 0, I.Imm 5)));
  Alcotest.(check int) "neg" (-5) ctx.Exec.regs.(0);
  ignore (step ctx (I.Un (I.Abs, 0, I.Imm (-7))));
  Alcotest.(check int) "abs" 7 ctx.Exec.regs.(0);
  ignore (step ctx (I.Un (I.Not, 0, I.Imm 0)));
  Alcotest.(check int) "not" (-1) ctx.Exec.regs.(0);
  ignore (step ctx (I.Cmp (I.Lt, 1, I.Imm 3, I.Imm 4)));
  Alcotest.(check int) "lt true" 1 ctx.Exec.regs.(1);
  ignore (step ctx (I.Cmp (I.Ge, 1, I.Imm 3, I.Imm 4)));
  Alcotest.(check int) "ge false" 0 ctx.Exec.regs.(1);
  ignore (step ctx (I.Sel (2, I.Imm 1, I.Imm 10, I.Imm 20)));
  Alcotest.(check int) "sel taken" 10 ctx.Exec.regs.(2);
  ignore (step ctx (I.Sel (2, I.Imm 0, I.Imm 10, I.Imm 20)));
  Alcotest.(check int) "sel not taken" 20 ctx.Exec.regs.(2)

let test_mad_mov () =
  let ctx, _, _ = make_ctx () in
  ignore (step ctx (I.Mad (0, I.Imm 3, I.Imm 4, I.Imm 5)));
  Alcotest.(check int) "mad" 17 ctx.Exec.regs.(0);
  ignore (step ctx (I.Mov (1, I.Reg 0)));
  Alcotest.(check int) "mov reg" 17 ctx.Exec.regs.(1)

let test_specials_params () =
  let ctx, _, _ = make_ctx () in
  Alcotest.(check int) "tid" 32 (Exec.operand ctx (I.Special I.Tid));
  Alcotest.(check int) "ctaid" 2 (Exec.operand ctx (I.Special I.Ctaid));
  Alcotest.(check int) "ntid" 128 (Exec.operand ctx (I.Special I.Ntid));
  Alcotest.(check int) "nctaid" 4 (Exec.operand ctx (I.Special I.Nctaid));
  Alcotest.(check int) "warp_id" 1 (Exec.operand ctx (I.Special I.Warp_id));
  Alcotest.(check int) "param" 20 (Exec.operand ctx (I.Param 1));
  Alcotest.(check int) "missing param reads 0" 0 (Exec.operand ctx (I.Param 9))

let test_memory_ops () =
  let ctx, shared, memory = make_ctx () in
  ignore (step ctx (I.Store (I.Shared, I.Imm 3, I.Imm 42, 0)));
  Alcotest.(check int) "shared written" 42 shared.(3);
  ignore (step ctx (I.Load (I.Shared, 0, I.Imm 1, 2)));
  Alcotest.(check int) "shared load with offset" 42 ctx.Exec.regs.(0);
  ignore (step ctx (I.Store (I.Global, I.Imm 100, I.Imm 7, 4)));
  Alcotest.(check int) "global written at addr+ofs" 7 (Memory.read_global memory 104);
  ignore (step ctx (I.Load (I.Global, 1, I.Imm 5, 0)));
  Alcotest.(check int) "global default read" (Memory.default_value 5)
    ctx.Exec.regs.(1)

let test_shared_oob_wraps () =
  let ctx, shared, _ = make_ctx () in
  (* Address 19 wraps into the 16-word CTA allocation (19 mod 16 = 3) and
     the excursion is counted, not crashed on. *)
  ignore (step ctx (I.Store (I.Shared, I.Imm 19, I.Imm 5, 0)));
  Alcotest.(check int) "wrapped write" 5 shared.(3);
  Alcotest.(check int) "oob counted" 1 ctx.Exec.stats.Stats.shared_oob;
  ignore (step ctx (I.Load (I.Shared, 0, I.Imm (-13), 0)));
  Alcotest.(check int) "negative address wraps" 5 ctx.Exec.regs.(0);
  Alcotest.(check int) "second excursion counted" 2 ctx.Exec.stats.Stats.shared_oob

let test_store_recording () =
  let ctx, _, _ = make_ctx () in
  let ctx = { ctx with Exec.record_stores = true } in
  ignore (step ctx (I.Store (I.Shared, I.Imm 2, I.Imm 9, 0)));
  ignore (step ctx (I.Store (I.Global, I.Imm 50, I.Imm 4, 0)));
  match Stats.store_traces ctx.Exec.stats with
  | [ ((cta, warp), trace ) ] ->
      Alcotest.(check (pair int int)) "keyed by cta/warp" (2, 1) (cta, warp);
      Alcotest.(check int) "both stores recorded" 2 (List.length trace)
  | l -> Alcotest.failf "expected one warp's trace, got %d" (List.length l)

let test_outcomes () =
  let ctx, _, _ = make_ctx () in
  Alcotest.(check bool) "next" true (step ctx (I.Mov (0, I.Imm 1)) = Exec.Fall);
  Alcotest.(check bool) "goto" true (step ctx (I.Jump 7) = Exec.Branch);
  Alcotest.(check bool) "taken" true (step ctx (I.Jump_if (I.Imm 1, 3)) = Exec.Branch);
  Alcotest.(check bool) "not taken" true (step ctx (I.Jump_if (I.Imm 0, 3)) = Exec.Fall);
  Alcotest.(check bool) "ifz taken" true (step ctx (I.Jump_ifz (I.Imm 0, 3)) = Exec.Branch);
  Alcotest.(check bool) "stop" true (step ctx I.Exit = Exec.Halt);
  Alcotest.(check bool) "sync" true (step ctx I.Bar = Exec.Barrier);
  Alcotest.(check bool) "acq" true (step ctx I.Acquire = Exec.Acquire);
  Alcotest.(check bool) "rel" true (step ctx I.Release = Exec.Release)

let suite =
  [ Alcotest.test_case "binary operators" `Quick test_binops;
    Alcotest.test_case "unops / cmp / sel" `Quick test_unops_cmp_sel;
    Alcotest.test_case "mad / mov" `Quick test_mad_mov;
    Alcotest.test_case "specials and params" `Quick test_specials_params;
    Alcotest.test_case "memory operations" `Quick test_memory_ops;
    Alcotest.test_case "shared OOB wraps and counts" `Quick test_shared_oob_wraps;
    Alcotest.test_case "store recording" `Quick test_store_recording;
    Alcotest.test_case "control outcomes" `Quick test_outcomes ]
