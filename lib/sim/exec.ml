module Instr = Gpu_isa.Instr

type ctx = {
  regs : int array;
  params : int array;
  tid : int;
  mutable ctaid : int;
  ntid : int;
  nctaid : int;
  warp_id : int;
  mutable shared : int array;
  spill_words : int;
  memory : Memory.t;
  stats : Stats.t;
  record_stores : bool;
  lanes : int;
  n_regs : int;
  lane_regs : int array;
}

type control =
  | Fall
  | Branch
  | Halt
  | Barrier
  | Acquire
  | Release
  | Split

let operand ctx = function
  | Instr.Reg r -> ctx.regs.(r)
  | Instr.Imm n -> n
  | Instr.Param i -> if i < Array.length ctx.params then ctx.params.(i) else 0
  | Instr.Special Instr.Tid -> ctx.tid
  | Instr.Special Instr.Ctaid -> ctx.ctaid
  | Instr.Special Instr.Ntid -> ctx.ntid
  | Instr.Special Instr.Nctaid -> ctx.nctaid
  | Instr.Special Instr.Warp_id -> ctx.warp_id
  | Instr.Special Instr.Lane_id -> 0

(* Lane-resolved operand read: registers come from the lane's row of the
   per-lane file, [%laneid] distinguishes the lanes, and everything else
   is warp-uniform by construction. *)
let lane_operand ctx lane = function
  | Instr.Reg r -> ctx.lane_regs.((lane * ctx.n_regs) + r)
  | Instr.Imm n -> n
  | Instr.Param i -> if i < Array.length ctx.params then ctx.params.(i) else 0
  | Instr.Special Instr.Tid -> ctx.tid
  | Instr.Special Instr.Ctaid -> ctx.ctaid
  | Instr.Special Instr.Ntid -> ctx.ntid
  | Instr.Special Instr.Nctaid -> ctx.nctaid
  | Instr.Special Instr.Warp_id -> ctx.warp_id
  | Instr.Special Instr.Lane_id -> lane

let binop op a b =
  match op with
  | Instr.Add -> a + b
  | Instr.Sub -> a - b
  | Instr.Mul -> a * b
  | Instr.Div -> if b = 0 then 0 else a / b
  | Instr.Rem -> if b = 0 then 0 else a mod b
  | Instr.Min -> min a b
  | Instr.Max -> max a b
  | Instr.And -> a land b
  | Instr.Or -> a lor b
  | Instr.Xor -> a lxor b
  | Instr.Shl -> a lsl (b land 31)
  | Instr.Shr -> a asr (b land 31)

let unop op a =
  match op with
  | Instr.Neg -> -a
  | Instr.Not -> lnot a
  | Instr.Abs -> abs a

let cmpop op a b =
  let r =
    match op with
    | Instr.Eq -> a = b
    | Instr.Ne -> a <> b
    | Instr.Lt -> a < b
    | Instr.Le -> a <= b
    | Instr.Gt -> a > b
    | Instr.Ge -> a >= b
  in
  if r then 1 else 0

(* Out-of-bounds shared accesses wrap (real hardware would fault or read a
   neighbour's bank); the wrap is counted so workloads exercising it are
   visible in the statistics rather than silently absorbed. The user
   window excludes the spill window RegDem reserves at the top of the
   allocation, so a user access wraps exactly as it would without the
   demotion pass — the spill window is invisible to the program's
   architectural shared-memory semantics. *)
let shared_index ctx addr =
  let words = Array.length ctx.shared - ctx.spill_words in
  if addr < 0 || addr >= words then
    ctx.stats.Stats.shared_oob <- ctx.stats.Stats.shared_oob + 1;
  ((addr mod words) + words) mod words

(* Non-counting variants used by the per-lane path: lane accesses report
   out-of-bounds through [oob] so the instruction as a whole bumps
   [shared_oob] at most once — exactly the count a warp-uniform program
   produces in the warp-uniform model. *)
let shared_index_flag ctx oob addr =
  let words = Array.length ctx.shared - ctx.spill_words in
  if addr < 0 || addr >= words then oob := true;
  ((addr mod words) + words) mod words

let spill_index_flag ctx oob rel =
  if ctx.spill_words > 0 && rel >= 0 && rel < ctx.spill_words then
    Array.length ctx.shared - ctx.spill_words + rel
  else begin
    oob := true;
    let words = Array.length ctx.shared in
    ((rel mod words) + words) mod words
  end

(* Spill accesses address the reserved window relative to its base. Any
   access outside the window — including a spill instruction executing
   with no window configured — is a compiler bug, counted as [shared_oob]
   and wrapped into the user window so it stays observable downstream
   (the fuzz oracle treats a shared_oob delta vs baseline as a hard
   failure). *)
let spill_index ctx rel =
  if ctx.spill_words > 0 && rel >= 0 && rel < ctx.spill_words then
    Array.length ctx.shared - ctx.spill_words + rel
  else begin
    ctx.stats.Stats.shared_oob <- ctx.stats.Stats.shared_oob + 1;
    let words = Array.length ctx.shared in
    ((rel mod words) + words) mod words
  end

let read ctx space addr =
  match space with
  | Instr.Global -> Memory.read_global ctx.memory addr
  | Instr.Shared ->
      ctx.stats.Stats.shared_reads <- ctx.stats.Stats.shared_reads + 1;
      ctx.shared.(shared_index ctx addr)
  | Instr.Spill ->
      ctx.stats.Stats.fill_loads <- ctx.stats.Stats.fill_loads + 1;
      ctx.shared.(spill_index ctx addr)

(* Spill stores are micro-architectural traffic, not program semantics:
   they are never recorded in the architectural store trace, which is what
   lets the fuzz oracle demand store-trace equality between RegDem and
   baseline. *)
let write ctx space addr v =
  match space with
  | Instr.Global ->
      if ctx.record_stores then
        Stats.record_store ctx.stats ~cta:ctx.ctaid ~warp:ctx.warp_id space addr v;
      Memory.write_global ctx.memory addr v
  | Instr.Shared ->
      if ctx.record_stores then
        Stats.record_store ctx.stats ~cta:ctx.ctaid ~warp:ctx.warp_id space addr v;
      ctx.stats.Stats.shared_writes <- ctx.stats.Stats.shared_writes + 1;
      ctx.shared.(shared_index ctx addr) <- v
  | Instr.Spill ->
      ctx.stats.Stats.spill_stores <- ctx.stats.Stats.spill_stores + 1;
      ctx.shared.(spill_index ctx addr) <- v

(* Register-file port activity per executed instruction, for the energy
   model: one read per register operand (duplicates count — each is a
   port access), one write per defined register. Counted here, at
   execution granularity, so the totals are identical under fast-forward
   and brute-force stepping (scheduler re-probes such as the RFV peek
   are cycle-dependent and must not contribute). *)
let is_reg = function Instr.Reg _ -> 1 | Instr.Imm _ | Instr.Special _ | Instr.Param _ -> 0

let rf_reads = function
  | Instr.Bin (_, _, a, b) | Instr.Cmp (_, _, a, b) -> is_reg a + is_reg b
  | Instr.Un (_, _, a) | Instr.Mov (_, a) -> is_reg a
  | Instr.Mad (_, a, b, c) | Instr.Sel (_, a, b, c) -> is_reg a + is_reg b + is_reg c
  | Instr.Load (_, _, addr, _) -> is_reg addr
  | Instr.Store (_, addr, v, _) -> is_reg addr + is_reg v
  | Instr.Jump_if (c, _) | Instr.Jump_ifz (c, _) -> is_reg c
  | Instr.Jump _ | Instr.Bar | Instr.Acquire | Instr.Release | Instr.Exit -> 0

let rf_writes = function
  | Instr.Bin _ | Instr.Cmp _ | Instr.Un _ | Instr.Mov _ | Instr.Mad _ | Instr.Sel _
  | Instr.Load _ ->
      1
  | Instr.Store _ | Instr.Jump_if _ | Instr.Jump_ifz _ | Instr.Jump _ | Instr.Bar
  | Instr.Acquire | Instr.Release | Instr.Exit ->
      0

let count_rf ctx instr =
  ctx.stats.Stats.rf_reads <- ctx.stats.Stats.rf_reads + rf_reads instr;
  ctx.stats.Stats.rf_writes <- ctx.stats.Stats.rf_writes + rf_writes instr

let step ctx instr =
  count_rf ctx instr;
  match instr with
  | Instr.Bin (op, d, a, b) ->
      ctx.regs.(d) <- binop op (operand ctx a) (operand ctx b);
      Fall
  | Instr.Un (op, d, a) ->
      ctx.regs.(d) <- unop op (operand ctx a);
      Fall
  | Instr.Mad (d, a, b, c) ->
      ctx.regs.(d) <- (operand ctx a * operand ctx b) + operand ctx c;
      Fall
  | Instr.Mov (d, a) ->
      ctx.regs.(d) <- operand ctx a;
      Fall
  | Instr.Cmp (op, d, a, b) ->
      ctx.regs.(d) <- cmpop op (operand ctx a) (operand ctx b);
      Fall
  | Instr.Sel (d, c, a, b) ->
      ctx.regs.(d) <- (if operand ctx c <> 0 then operand ctx a else operand ctx b);
      Fall
  | Instr.Load (space, d, addr, ofs) ->
      ctx.regs.(d) <- read ctx space (operand ctx addr + ofs);
      Fall
  | Instr.Store (space, addr, value, ofs) ->
      write ctx space (operand ctx addr + ofs) (operand ctx value);
      Fall
  | Instr.Jump _ -> Branch
  | Instr.Jump_if (c, _) -> if operand ctx c <> 0 then Branch else Fall
  | Instr.Jump_ifz (c, _) -> if operand ctx c = 0 then Branch else Fall
  | Instr.Bar -> Barrier
  | Instr.Acquire -> Acquire
  | Instr.Release -> Release
  | Instr.Exit -> Halt

(* --- per-lane (SIMT) execution ----------------------------------------- *)

let lanes_taken ctx c ~mask ~if_zero =
  let taken = ref 0 in
  for lane = 0 to ctx.lanes - 1 do
    let bit = 1 lsl lane in
    if mask land bit <> 0 && (lane_operand ctx lane c = 0) = if_zero then
      taken := !taken lor bit
  done;
  !taken

(* Pure evaluation of a conditional branch's per-lane outcome: the mask of
   active lanes whose condition takes the branch (0 for any other
   instruction). Never counts register ports (the RFV peek calls this
   every scheduler probe). *)
let branch_taken ctx instr ~mask =
  match instr with
  | Instr.Jump_if (c, _) -> lanes_taken ctx c ~mask ~if_zero:false
  | Instr.Jump_ifz (c, _) -> lanes_taken ctx c ~mask ~if_zero:true
  | _ -> 0

(* Evaluate one instruction for every lane in [mask]. Counter discipline:
   register-port and shared/spill traffic counters advance once per
   instruction (the same totals the warp-uniform model produces for the
   same dynamic instruction stream), and [shared_oob] is clamped to at
   most one bump per instruction. The architectural (warp-level) store
   trace records the lowest active lane, which for a warp-uniform program
   is bit-identical to the uniform trace; the full lane-resolved trace is
   recorded separately per lane. *)
let step_simt ctx instr ~mask =
  count_rf ctx instr;
  let n = ctx.n_regs in
  let set lane d value = ctx.lane_regs.((lane * n) + d) <- value in
  let each f =
    for lane = 0 to ctx.lanes - 1 do
      if mask land (1 lsl lane) <> 0 then f lane
    done
  in
  match instr with
  | Instr.Bin (op, d, a, b) ->
      each (fun l -> set l d (binop op (lane_operand ctx l a) (lane_operand ctx l b)));
      Fall
  | Instr.Un (op, d, a) ->
      each (fun l -> set l d (unop op (lane_operand ctx l a)));
      Fall
  | Instr.Mad (d, a, b, c) ->
      each (fun l ->
          set l d
            ((lane_operand ctx l a * lane_operand ctx l b) + lane_operand ctx l c));
      Fall
  | Instr.Mov (d, a) ->
      each (fun l -> set l d (lane_operand ctx l a));
      Fall
  | Instr.Cmp (op, d, a, b) ->
      each (fun l -> set l d (cmpop op (lane_operand ctx l a) (lane_operand ctx l b)));
      Fall
  | Instr.Sel (d, c, a, b) ->
      each (fun l ->
          set l d
            (if lane_operand ctx l c <> 0 then lane_operand ctx l a
             else lane_operand ctx l b));
      Fall
  | Instr.Load (space, d, addr, ofs) ->
      (match space with
      | Instr.Global -> ()
      | Instr.Shared ->
          ctx.stats.Stats.shared_reads <- ctx.stats.Stats.shared_reads + 1
      | Instr.Spill ->
          ctx.stats.Stats.fill_loads <- ctx.stats.Stats.fill_loads + 1);
      let oob = ref false in
      each (fun l ->
          let a = lane_operand ctx l addr + ofs in
          let v =
            match space with
            | Instr.Global -> Memory.read_global ctx.memory a
            | Instr.Shared -> ctx.shared.(shared_index_flag ctx oob a)
            | Instr.Spill -> ctx.shared.(spill_index_flag ctx oob a)
          in
          set l d v);
      if !oob then ctx.stats.Stats.shared_oob <- ctx.stats.Stats.shared_oob + 1;
      Fall
  | Instr.Store (space, addr, value, ofs) ->
      (match space with
      | Instr.Global -> ()
      | Instr.Shared ->
          ctx.stats.Stats.shared_writes <- ctx.stats.Stats.shared_writes + 1
      | Instr.Spill ->
          ctx.stats.Stats.spill_stores <- ctx.stats.Stats.spill_stores + 1);
      let oob = ref false in
      let leader = ref (-1) in
      each (fun l ->
          let a = lane_operand ctx l addr + ofs in
          let v = lane_operand ctx l value in
          if ctx.record_stores && space <> Instr.Spill then begin
            if !leader < 0 then begin
              leader := l;
              Stats.record_store ctx.stats ~cta:ctx.ctaid ~warp:ctx.warp_id space a v
            end;
            Stats.record_lane_store ctx.stats ~cta:ctx.ctaid ~warp:ctx.warp_id
              ~lane:l space a v
          end;
          match space with
          | Instr.Global -> Memory.write_global ctx.memory a v
          | Instr.Shared -> ctx.shared.(shared_index_flag ctx oob a) <- v
          | Instr.Spill -> ctx.shared.(spill_index_flag ctx oob a) <- v);
      if !oob then ctx.stats.Stats.shared_oob <- ctx.stats.Stats.shared_oob + 1;
      Fall
  | Instr.Jump _ -> Branch
  | Instr.Jump_if _ | Instr.Jump_ifz _ ->
      let taken = branch_taken ctx instr ~mask in
      if taken = 0 then Fall else if taken = mask then Branch else Split
  | Instr.Bar -> Barrier
  | Instr.Acquire -> Acquire
  | Instr.Release -> Release
  | Instr.Exit -> Halt
