module Instr = Gpu_isa.Instr
module Program = Gpu_isa.Program
module Regset = Gpu_isa.Regset
module Arch_config = Gpu_uarch.Arch_config
module Srp = Gpu_uarch.Srp
module Srp_paired = Gpu_uarch.Srp_paired
module Soa = Warp.Soa
module Reconv = Gpu_analysis.Reconv

exception Verification_failure of string

type cta_state = {
  cta_slot : int;
  global_cta : int;
  n_warps : int;
  mutable arrived : int;   (* warps waiting at the barrier *)
  mutable running : int;   (* warps not yet Done *)
  shared : int array;      (* shared-memory words (the slot's pooled array) *)
}

type pstate =
  | Ps_static
  | Ps_srp of Srp.t
  | Ps_paired of Srp_paired.t
  | Ps_owf
  | Ps_rfv of { mutable used : int; capacity : int }

type t = {
  cfg : Arch_config.t;
  sm_id : int;
  kernel : Kernel.t;
  policy : Policy.t;
  memory : Memory.t;
  mem_sys : Mem_system.t;
  stats : Stats.t;
  instrs : Instr.t array;
  warps_per_cta : int;
  cta_capacity : int;
  srp_sections : int;
  ctas : cta_state option array;
  shared_pool : int array array;
      (* per CTA slot: its shared-memory array, allocated at the slot's
         first launch and zeroed at every later one *)
  (* Hot per-warp state lives structure-of-arrays: the schedulers and the
     issue stage index packed int arrays by warp slot instead of chasing
     one boxed record per warp. *)
  soa : Soa.t;
  (* One execution context per warp slot, built once and rebound (ctaid,
     shared memory) at each CTA launch — the issue path allocates no
     context or closures. *)
  ctxs : Exec.ctx array;
  schedulers : Scheduler.t array;
  mutable can_issue : int -> bool;
      (* the schedulers' residual eligibility check, built once; it reads
         the clock and the memory-slot answer of the current pick from the
         two fields below, so no closure is built per cycle *)
  mutable pick_cycle : int;
  mutable pick_mem_free : bool;
  pstate : pstate;
  is_static : bool;
  (* Per-PC precomputation. *)
  latency : int array;           (* result latency for non-global instrs *)
  touches_ext : bool array;      (* any referenced register has index >= bs *)
  rfv_live : int array;          (* RFV: physical packs demanded at each pc *)
  def_reg : int array;           (* destination register, -1 none, -2 invalid *)
  pc_regs : int array array;     (* registers read or written, ascending *)
  branch_tgt : int array;        (* branch target, -1 for non-branches *)
  is_global : bool array;        (* occupies a global-memory slot at issue *)
  is_acquire : bool array;
  max_rank : int;
      (* highest [rank_block] value the policy can produce with a memory
         slot busy; bounds the early exit in [classify_idle] *)
  mutable state_gen : int;
      (* bumped on every launch and issue — the only operations that change
         warp statuses or ages — so derived scans can be memoized *)
  mutable oldest_gen : int;
  mutable oldest_cache : int;
  mutable resident_ctas : int;
  mutable resident_warps : int;
  mutable retired : int;
  mutable launched_this_cycle : int;
  mutable next_age : int;
  record_stores : bool;
  trace_warp0 : bool;
  (* SIMT (per-lane) execution: lane-resolved register values, predication
     and the per-warp reconvergence stack. Timing stays warp-granular —
     only the values (and the lane occupancy statistics) are resolved per
     lane, so a warp-uniform program is bit-identical in both models. *)
  simt : bool;
  mutable reconv : int array;
      (* per-pc reconvergence table, built at the first divergent branch
         ([||] until then: a warp-uniform program never needs it) *)
  reconv_sentinel : int;    (* program length: the never-reached top rpc *)
  full_mask : int;          (* (1 lsl warp_size) - 1 when simt, else 0 *)
  corrupt_mask : int;       (* lanes cleared at launch (fuzz self-test) *)
  events : Event_trace.t option;
  tracing : bool;  (* [events <> None]: guards building event payloads *)
  probe : Probe.t option;
  bs : int;  (* base-set size for SRP/paired/OWF policies; max_int otherwise *)
  es : int;
  verify : bool;
  mapping : Gpu_uarch.Reg_mapping.config;  (* Figure 6 mapping, for errors *)
}

(* Resident-CTA capacity under the policy's register accounting, combined
   with the shared-memory / thread / CTA-slot / warp-slot limits. *)
let compute_capacity (cfg : Arch_config.t) policy kernel =
  let wpc = Kernel.warps_per_cta cfg kernel in
  let regs_cta = Policy.regs_per_cta cfg policy ~warps_per_cta:wpc in
  let shmem_cta = Arch_config.round_shmem cfg kernel.Kernel.shmem_bytes in
  let cap v per = if per = 0 then max_int else v / per in
  let ctas =
    List.fold_left min cfg.max_ctas
      [ cap cfg.regfile_regs regs_cta;
        cap cfg.shmem_bytes shmem_cta;
        cap cfg.max_threads kernel.Kernel.cta_threads;
        cap cfg.max_warps wpc ]
  in
  (max ctas 0, wpc, regs_cta)

let cta_capacity_for cfg ~policy ~kernel =
  let capacity, _, _ = compute_capacity cfg policy kernel in
  capacity

(* Extended-set sections per SM: under RegMutex the register file left
   over by the resident CTAs' base sets, in |Es|-sized sections; under
   paired warps and OWF one per warp pair; none otherwise. *)
let sections_of (cfg : Arch_config.t) policy (cta_capacity, wpc, regs_cta) =
  match policy with
  | Policy.Static _ | Policy.Regdem _ | Policy.Rfv _ -> 0
  | Policy.Srp { es; _ } ->
      let leftover = cfg.regfile_regs - (cta_capacity * regs_cta) in
      if es <= 0 then 0
      else min cfg.max_warps (max 0 (leftover / (es * cfg.warp_size)))
  | Policy.Srp_paired _ | Policy.Owf _ -> cta_capacity * wpc / 2

let srp_sections_for cfg ~policy ~kernel =
  sections_of cfg policy (compute_capacity cfg policy kernel)

(* Call sites test [t.tracing] first, so an untraced run never builds the
   event payload. *)
let emit t ~cycle event =
  match t.events with
  | Some tr -> Event_trace.emit tr ~cycle event
  | None -> ()

(* --- issue eligibility ---------------------------------------------- *)

type block_reason =
  | Can_issue
  | Blocked_deps
  | Blocked_mem
  | Blocked_acquire
  | Blocked_regs
  | Blocked_barrier
  | Blocked_done

(* Reconvergence pc of the divergent branch at [pc]. *)
let reconv_pc t pc =
  if Array.length t.reconv = 0 then t.reconv <- Reconv.table t.kernel.Kernel.program;
  t.reconv.(pc)

(* RFV: the next instruction's demand, given this instruction's outcome.
   Branch conditions are evaluated without side effects. Under SIMT the
   computed next-pc is routed through the reconvergence stack (pure peek
   variants), and a divergent branch executes its fall-through arm next —
   unless the fall-through IS the reconvergence point (a loop exit), in
   which case the suspended taken arm runs immediately. *)
let rfv_peek_next t ~slot instr =
  let pc = t.soa.Soa.pc.(slot) in
  if not t.simt then
    match instr with
    | Instr.Jump tgt -> tgt
    | Instr.Jump_if (c, tgt) ->
        if Exec.operand t.ctxs.(slot) c <> 0 then tgt else pc + 1
    | Instr.Jump_ifz (c, tgt) ->
        if Exec.operand t.ctxs.(slot) c = 0 then tgt else pc + 1
    | Instr.Exit -> pc
    | _ -> pc + 1
  else
    let soa = t.soa in
    match instr with
    | Instr.Jump tgt -> Soa.simt_peek_next soa ~slot tgt
    | Instr.Jump_if (_, tgt) | Instr.Jump_ifz (_, tgt) ->
        let mask = Soa.simt_active soa ~slot in
        let taken = Exec.branch_taken t.ctxs.(slot) instr ~mask in
        if taken = 0 || tgt = pc + 1 then Soa.simt_peek_next soa ~slot (pc + 1)
        else if taken = mask then Soa.simt_peek_next soa ~slot tgt
        else
          let rpc = reconv_pc t pc in
          if pc + 1 = rpc then tgt else pc + 1
    | Instr.Exit -> (
        match Soa.simt_peek_exit soa ~slot with -1 -> pc | next -> next)
    | _ -> Soa.simt_peek_next soa ~slot (pc + 1)

(* Forward-progress anchor for RFV: the oldest warp that could actually
   issue (barrier-parked warps are waiting on others and must not anchor
   the override, or a register-starved CTA deadlocks against it). The
   answer depends only on statuses and ages, which change solely at
   launches and issues, so it is memoized on [state_gen] — a scheduler
   scan under register pressure probes many candidates per cycle and pays
   the O(slots) sweep once instead of per candidate. *)
let oldest_ready_age t =
  if t.oldest_gen = t.state_gen then t.oldest_cache
  else begin
    let soa = t.soa in
    let acc = ref max_int in
    for slot = 0 to soa.Soa.n_slots - 1 do
      if soa.Soa.status.(slot) = Soa.st_ready && soa.Soa.age.(slot) < !acc then
        acc := soa.Soa.age.(slot)
    done;
    t.oldest_gen <- t.state_gen;
    t.oldest_cache <- !acc;
    !acc
  end

(* A failed acquire attempt marks the start (or continuation) of a stall
   episode: the flag feeds the first-try statistic, and the transition
   into it emits the [Acquire_stalled] trace event. *)
let note_acquire_stall t ~slot ~cycle =
  let soa = t.soa in
  if t.tracing && soa.Soa.acquire_stalled.(slot) = 0 then
    emit t ~cycle
      (Event_trace.Acquire_stalled
         { sm = t.sm_id; cta = soa.Soa.global_cta.(slot);
           warp = soa.Soa.warp_in_cta.(slot) });
  soa.Soa.acquire_stalled.(slot) <- 1

(* [check_ready] is the issue-eligibility residual for a warp that already
   passed the slot-local prefix (resident, [Ready], scoreboard clear):
   structural memory slots, then policy state. With [~probe:true] the
   answer is computed without side effects; the default (an actual issue
   attempt by the warp's scheduler) records acquire stalls.

   [mem_free] is [Mem_system.slot_free] evaluated once by the caller: a
   scheduler scan (or classification sweep) issues nothing, so the answer
   cannot change between the candidates of one scan — hoisting it turns a
   per-candidate cross-module call into an argument read. *)
let check_ready ~probe t ~mem_free ~slot ~cycle =
  let soa = t.soa in
  let pc = soa.Soa.pc.(slot) in
  if t.is_global.(pc) && not mem_free then Blocked_mem
  else if t.is_acquire.(pc) then begin
    match t.pstate with
    | Ps_srp srp ->
        if Srp.section srp ~warp:slot >= 0 || Srp.free_sections srp > 0 then
          Can_issue
        else begin
          if not probe then note_acquire_stall t ~slot ~cycle;
          Blocked_acquire
        end
    | Ps_paired srp ->
        if Srp_paired.available srp ~warp:slot then Can_issue
        else begin
          if not probe then note_acquire_stall t ~slot ~cycle;
          Blocked_acquire
        end
    | Ps_static | Ps_owf | Ps_rfv _ -> Can_issue
  end
  else begin
    match t.pstate with
    | Ps_owf when t.touches_ext.(pc) && soa.Soa.owns_ext.(slot) = 0 ->
        (* First extended access acquires the pair's registers for the
           rest of the warp's life; blocked while the partner owns them. *)
        (* A partner parked at a barrier cannot finish until this warp
           arrives too; blocking here would deadlock the CTA, so ownership
           is ceded (the one concession the no-in-kernel-release design
           needs to run barrier kernels). *)
        let partner = soa.Soa.partner.(slot) in
        let partner_owns =
          partner >= 0
          && soa.Soa.owns_ext.(partner) = 1
          && soa.Soa.status.(partner) = Soa.st_ready
        in
        if partner_owns then begin
          if not probe then soa.Soa.acquire_stalled.(slot) <- 1;
          Blocked_acquire
        end
        else Can_issue
    | Ps_rfv r ->
        let next = rfv_peek_next t ~slot t.instrs.(pc) in
        let delta = t.rfv_live.(next) - soa.Soa.rfv_alloc.(slot) in
        if
          delta <= 0
          || r.used + delta <= r.capacity
          || soa.Soa.age.(slot) = oldest_ready_age t
        then Can_issue
        else Blocked_regs
    | Ps_static | Ps_srp _ | Ps_paired _ | Ps_owf -> Can_issue
  end

(* [check_warp] answers "can this warp issue right now, and if not, why?"
   for any resident warp — the status/scoreboard prefix plus a probing
   {!check_ready}, so it has no side effects. The issue path and
   [classify_idle] inline the prefix instead; this serves [idle_summary]
   (the full-scan reference) and diagnostics. *)
let check_warp t ~mem_free ~slot ~cycle =
  let soa = t.soa in
  let st = soa.Soa.status.(slot) in
  if st = Soa.st_done || st = Soa.st_absent then Blocked_done
  else if st = Soa.st_barrier then Blocked_barrier
  else if
    (* [ready_at] is the maintained max over the instruction's registers
       of [reg_ready] (refreshed at every pc move), so the scoreboard
       check is one comparison instead of a register-set scan. *)
    soa.Soa.ready_at.(slot) > cycle
  then Blocked_deps
  else check_ready ~probe:true t ~mem_free ~slot ~cycle

(* The schedulers' residual check for the pick in progress ([pick_cycle],
   [pick_mem_free]). Under the static policy the residual is pure and
   collapses to the memory-slot bit. *)
let can_issue t slot =
  if t.is_static then t.pick_mem_free || not t.is_global.(t.soa.Soa.pc.(slot))
  else
    match
      check_ready ~probe:false t ~mem_free:t.pick_mem_free ~slot ~cycle:t.pick_cycle
    with
    | Can_issue -> true
    | Blocked_deps | Blocked_mem | Blocked_acquire | Blocked_regs | Blocked_barrier
    | Blocked_done ->
        false

(* Builds the SM's one [can_issue] closure, right after creation. *)
let with_can_issue t =
  t.can_issue <- can_issue t;
  t

let create ?events ?telemetry ?(simt = false) ?(corrupt_mask = 0) cfg ~sm_id
    ~policy ~kernel ~memory ~mem_sys ~stats ~record_stores ~trace_warp0 =
  let capacity = compute_capacity cfg policy kernel in
  let cta_capacity, wpc, _ = capacity in
  let srp_sections = sections_of cfg policy capacity in
  let prog = kernel.Kernel.program in
  let n = Program.length prog in
  let instrs = Array.init n (Program.get prog) in
  let bs, es, verify =
    match policy with
    | Policy.Srp { bs; es; verify } | Policy.Srp_paired { bs; es; verify } ->
        (bs, es, verify)
    | Policy.Owf { bs; es } -> (bs, es, false)
    | Policy.Static _ | Policy.Rfv _ | Policy.Regdem _ -> (max_int, 0, false)
  in
  let pstate =
    match policy with
    (* Regdem is static allocation of the reduced register count; the
       spill machinery lives entirely in the program and the execution
       contexts, so the policy state machine is the stock one. *)
    | Policy.Static _ | Policy.Regdem _ -> Ps_static
    | Policy.Srp _ ->
        Ps_srp (Srp.create ~n_warps:cfg.max_warps ~sections:srp_sections)
    | Policy.Srp_paired _ ->
        if wpc mod 2 <> 0 then
          invalid_arg "Sm.create: paired-warps policy requires an even warp count per CTA";
        Ps_paired
          (Srp_paired.create ~n_warps:cfg.max_warps ~enabled_pairs:srp_sections)
    | Policy.Owf _ ->
        if wpc mod 2 <> 0 then
          invalid_arg "Sm.create: OWF policy requires an even warp count per CTA";
        Ps_owf
    | Policy.Rfv _ ->
        Ps_rfv { used = 0; capacity = cfg.regfile_regs / cfg.warp_size }
  in
  let latency =
    Array.map
      (fun i ->
        match Instr.lat_class i with
        | Instr.Lat_alu -> cfg.lat_alu
        | Instr.Lat_complex -> cfg.lat_complex
        | Instr.Lat_shared -> cfg.lat_shared
        | Instr.Lat_global -> cfg.lat_global (* refined at issue via mem_sys *)
        | Instr.Lat_control -> 1)
      instrs
  in
  let touches_ext =
    Array.map
      (fun i ->
        let rs = Instr.regs i in
        (not (Regset.is_empty rs)) && Regset.max_elt rs >= bs)
      instrs
  in
  let rfv_live =
    match policy with
    | Policy.Rfv { live; _ } ->
        if Array.length live <> n then
          invalid_arg "Sm.create: RFV live table length mismatch";
        live
    | Policy.Static _ | Policy.Srp _ | Policy.Srp_paired _ | Policy.Owf _
    | Policy.Regdem _ ->
        Array.make n 0
  in
  let def_reg =
    Array.map
      (fun i ->
        match Regset.to_list (Instr.defs i) with
        | [] -> -1
        | [ d ] -> d
        | _ :: _ :: _ -> -2)
      instrs
  in
  let pc_regs =
    Array.map (fun i -> Array.of_list (Regset.to_list (Instr.regs i))) instrs
  in
  let branch_tgt =
    Array.map (fun i -> Option.value (Instr.target i) ~default:(-1)) instrs
  in
  let is_global =
    Array.map (fun i -> Instr.lat_class i = Instr.Lat_global) instrs
  in
  let is_acquire =
    Array.map (fun i -> match i with Instr.Acquire -> true | _ -> false) instrs
  in
  let n_slots = max (cta_capacity * wpc) 1 in
  let n_regs = max prog.Program.n_regs 1 in
  let lanes = if simt then Some cfg.Arch_config.warp_size else None in
  let soa = Soa.create ?lanes ~n_slots ~n_regs () in
  let spill_words =
    match policy with
    | Policy.Regdem { spill_words; _ } -> spill_words
    | Policy.Static _ | Policy.Srp _ | Policy.Srp_paired _ | Policy.Owf _
    | Policy.Rfv _ ->
        0
  in
  let ctxs =
    Array.init n_slots (fun slot ->
        {
          Exec.regs = soa.Soa.regs.(slot);
          params = kernel.Kernel.params;
          tid = slot mod wpc * cfg.warp_size;
          ctaid = -1;
          ntid = kernel.Kernel.cta_threads;
          nctaid = kernel.Kernel.grid_ctas;
          warp_id = slot mod wpc;
          shared = [||];
          spill_words;
          memory;
          stats;
          record_stores;
          lanes = (if simt then cfg.warp_size else 0);
          n_regs;
          lane_regs =
            (match soa.Soa.simt with
            | Some s -> s.Soa.lane_regs.(slot)
            | None -> [||]);
        })
  in
  {
    cfg;
    sm_id;
    kernel;
    policy;
    memory;
    mem_sys;
    stats;
    instrs;
    warps_per_cta = wpc;
    cta_capacity;
    srp_sections;
    ctas = Array.make (max cta_capacity 1) None;
    shared_pool = Array.make (max cta_capacity 1) [||];
    soa;
    ctxs;
    schedulers =
      (let kind =
         match cfg.Arch_config.scheduler with
         | Arch_config.Gto -> Scheduler.Gto
         | Arch_config.Lrr -> Scheduler.Lrr
         | Arch_config.Two_level g -> Scheduler.Two_level g
       in
       Array.init cfg.n_schedulers (fun id ->
           Scheduler.create kind ~id ~n_schedulers:cfg.n_schedulers));
    can_issue = (fun _ -> false) (* see [with_can_issue] *);
    pick_cycle = 0;
    pick_mem_free = false;
    pstate;
    is_static = (match pstate with Ps_static -> true | _ -> false);
    latency;
    touches_ext;
    rfv_live;
    def_reg;
    pc_regs;
    branch_tgt;
    is_global;
    is_acquire;
    max_rank =
      (match pstate with
      | Ps_rfv _ -> 5 (* Blocked_regs *)
      | Ps_srp _ | Ps_paired _ | Ps_owf -> 4 (* Blocked_acquire *)
      | Ps_static -> 3 (* Blocked_mem *));
    state_gen = 0;
    oldest_gen = -1;
    oldest_cache = max_int;
    resident_ctas = 0;
    resident_warps = 0;
    retired = 0;
    launched_this_cycle = -1;
    next_age = 0;
    record_stores;
    trace_warp0;
    simt;
    reconv = [||];
    reconv_sentinel = n;
    full_mask = (if simt then (1 lsl cfg.warp_size) - 1 else 0);
    corrupt_mask;
    events;
    tracing = Option.is_some events;
    probe =
      Option.map
        (fun sink ->
          Probe.create sink ~sm_id ~n_slots ~n_cta_slots:(max cta_capacity 1)
            ~n_mem_slots:cfg.mem_slots)
        telemetry;
    bs;
    es;
    verify;
    mapping =
      {
        Gpu_uarch.Reg_mapping.bs;
        es;
        srp_offset = Gpu_uarch.Reg_mapping.srp_offset_for ~bs ~resident_warps:n_slots;
      };
  }
  |> with_can_issue

let cta_capacity t = t.cta_capacity
let srp_sections t = t.srp_sections

let srp_in_use t =
  match t.pstate with
  | Ps_srp srp -> Srp.in_use srp
  | Ps_paired srp -> Srp_paired.in_use srp
  | Ps_static | Ps_owf | Ps_rfv _ -> 0
let resident_ctas t = t.resident_ctas
let resident_warps t = t.resident_warps
let retired_ctas t = t.retired

(* --- CTA launch and retirement ------------------------------------- *)

let free_cta_slot t =
  let n = Array.length t.ctas in
  let rec go i =
    if i >= t.cta_capacity || i >= n then None
    else match t.ctas.(i) with None -> Some i | Some _ -> go (i + 1)
  in
  go 0

let rfv_can_admit t =
  match t.pstate with
  | Ps_rfv r -> r.used + (t.warps_per_cta * t.rfv_live.(0)) <= r.capacity
  | Ps_static | Ps_srp _ | Ps_paired _ | Ps_owf -> true

(* OWF owner warps are scheduled before age (priority 0); everything else
   orders by age alone. Keys are maintained at the three points priority
   can change — launch, the silent OWF acquire, and warp exit — so the
   schedulers read them without recomputing. *)
let launch_priority t =
  match t.pstate with Ps_owf -> 1 | Ps_static | Ps_srp _ | Ps_paired _ | Ps_rfv _ -> 0

(* A slot became [Ready] or moved its scoreboard bound: lower its
   scheduler's [ready_at] bound so the next pick scans again. *)
let wake_slot t ~slot =
  let scheds = t.schedulers in
  Scheduler.note_ready scheds.(slot mod Array.length scheds)
    ~ready_at:t.soa.Soa.ready_at.(slot)

let try_launch t ~global_cta ~cycle =
  (* The slot scan only happens when a slot is known to exist (occupied
     slots and resident CTAs correspond one to one), so the per-cycle
     no-room answer is one comparison. *)
  if t.launched_this_cycle = cycle || t.resident_ctas >= t.cta_capacity then
    false
  else
    match free_cta_slot t with
    | None -> false
    | Some slot when rfv_can_admit t ->
        let n_warps = t.warps_per_cta in
        let shared =
          match t.shared_pool.(slot) with
          | [||] ->
              let a = Array.make (max 1 (t.kernel.Kernel.shmem_bytes / 4)) 0 in
              t.shared_pool.(slot) <- a;
              a
          | a ->
              Array.fill a 0 (Array.length a) 0;
              a
        in
        let cta =
          { cta_slot = slot; global_cta; n_warps; arrived = 0; running = n_warps; shared }
        in
        t.ctas.(slot) <- Some cta;
        let soa = t.soa in
        for w = 0 to n_warps - 1 do
          let wslot = (slot * t.warps_per_cta) + w in
          let age = t.next_age in
          Soa.launch soa ~slot:wslot ~cta_slot:slot ~global_cta ~warp_in_cta:w
            ~age;
          wake_slot t ~slot:wslot;
          if t.simt then
            Soa.simt_reset soa ~slot:wslot
              ~mask:(t.full_mask land lnot t.corrupt_mask)
              ~rpc:t.reconv_sentinel;
          t.next_age <- t.next_age + 1;
          (* OWF: warps pair up within their CTA. *)
          soa.Soa.partner.(wslot) <-
            (if w land 1 = 0 then
               if w + 1 < n_warps then wslot + 1 else -1
             else wslot - 1);
          soa.Soa.key.(wslot) <-
            Scheduler.pack_key ~priority:(launch_priority t) ~age;
          (match t.pstate with
          | Ps_rfv r ->
              soa.Soa.rfv_alloc.(wslot) <- t.rfv_live.(0);
              r.used <- r.used + t.rfv_live.(0)
          | Ps_static | Ps_srp _ | Ps_paired _ | Ps_owf -> ());
          let ctx = t.ctxs.(wslot) in
          ctx.Exec.ctaid <- global_cta;
          ctx.Exec.shared <- cta.shared
        done;
        t.resident_ctas <- t.resident_ctas + 1;
        t.resident_warps <- t.resident_warps + n_warps;
        t.launched_this_cycle <- cycle;
        t.state_gen <- t.state_gen + 1;
        if t.tracing then
          emit t ~cycle (Event_trace.Cta_launched { sm = t.sm_id; cta = global_cta });
        (match t.probe with
        | Some p ->
            Probe.cta_launch p ~cycle ~cta_slot:slot ~global_cta;
            for w = 0 to n_warps - 1 do
              Probe.warp_start p ~cycle
                ~slot:((slot * t.warps_per_cta) + w)
                ~global_cta
            done
        | None -> ());
        true
    | Some _ -> false

let retire_cta t ~cycle cta =
  if t.tracing then
    emit t ~cycle (Event_trace.Cta_retired { sm = t.sm_id; cta = cta.global_cta });
  (match t.probe with
  | Some p -> Probe.cta_retire p ~cycle ~cta_slot:cta.cta_slot
  | None -> ());
  for w = 0 to cta.n_warps - 1 do
    Soa.retire t.soa ~slot:((cta.cta_slot * t.warps_per_cta) + w)
  done;
  t.ctas.(cta.cta_slot) <- None;
  t.resident_ctas <- t.resident_ctas - 1;
  t.resident_warps <- t.resident_warps - cta.n_warps;
  t.retired <- t.retired + 1;
  t.stats.Stats.ctas_retired <- t.stats.Stats.ctas_retired + 1

(* --- barrier handling ------------------------------------------------ *)

let maybe_release_barrier t ~cycle cta =
  if cta.running > 0 && cta.arrived = cta.running then begin
    cta.arrived <- 0;
    if t.tracing then
      emit t ~cycle (Event_trace.Barrier_released { sm = t.sm_id; cta = cta.global_cta });
    let soa = t.soa in
    for w = 0 to cta.n_warps - 1 do
      let slot = (cta.cta_slot * t.warps_per_cta) + w in
      if soa.Soa.status.(slot) = Soa.st_barrier then begin
        soa.Soa.status.(slot) <- Soa.st_ready;
        wake_slot t ~slot
      end
    done
  end

(* --- issue ----------------------------------------------------------- *)

(* Checks an extended-set access against the Figure 6 two-segment
   mapping. [pc_regs] is sorted, so its last entry is the highest
   register. Base-set registers always map; extended ones map iff the warp
   holds a section, so the first failing register is the lowest one at or
   above [bs]. The mapping itself only runs to name the error. *)
let verify_access t ~slot pc =
  if t.verify && t.touches_ext.(pc) then begin
    let regs = t.pc_regs.(pc) in
    let top = regs.(Array.length regs - 1) in
    if top >= t.bs + t.es then
      raise
        (Verification_failure
           (Printf.sprintf "pc %d references r%d beyond |Bs|+|Es| = %d" pc top
              (t.bs + t.es)));
    let held =
      match t.pstate with
      | Ps_srp srp -> Srp.section srp ~warp:slot >= 0
      | Ps_paired srp -> Srp_paired.holds srp ~warp:slot
      | Ps_static | Ps_owf | Ps_rfv _ -> true
    in
    if not held then begin
      let i = ref 0 in
      while regs.(!i) < t.bs do incr i done;
      let x = regs.(!i) in
      match Gpu_uarch.Reg_mapping.regmutex t.mapping ~widx:slot ~section:None ~x with
      | Ok _ -> ()
      | Error e ->
          raise
            (Verification_failure
               (Format.asprintf "pc %d, register r%d: %a" pc x
                  Gpu_uarch.Reg_mapping.pp_error e))
    end
  end

let rfv_move t ~slot ~next_pc =
  match t.pstate with
  | Ps_rfv r ->
      let demand = t.rfv_live.(next_pc) in
      r.used <- r.used + demand - t.soa.Soa.rfv_alloc.(slot);
      t.soa.Soa.rfv_alloc.(slot) <- demand
  | Ps_static | Ps_srp _ | Ps_paired _ | Ps_owf -> ()

(* On a successful release the physical extended set goes back to the SRP
   and may be handed to another warp, so the architected values above [bs]
   cease to exist for this warp. The functional model keeps a full per-warp
   register array, which would silently preserve them; clobbering with a
   poison constant makes any use-after-release (a value the compiler failed
   to compact below the Bs boundary) visible as a store-trace divergence
   instead of a lucky pass. Sound for checker-accepted programs: no
   extended register is live at a release point. *)
let release_poison = 0xDEAD_BEEF

let poison_ext t ~slot =
  let regs = t.soa.Soa.regs.(slot) in
  for r = t.bs to Array.length regs - 1 do
    regs.(r) <- release_poison
  done;
  match t.soa.Soa.simt with
  | Some s ->
      let row = s.Soa.lane_regs.(slot) in
      let n = t.soa.Soa.n_regs in
      for lane = 0 to s.Soa.lanes - 1 do
        for r = t.bs to n - 1 do
          row.((lane * n) + r) <- release_poison
        done
      done
  | None -> ()

let warp_done t ~cycle ~slot cta =
  let soa = t.soa in
  soa.Soa.status.(slot) <- Soa.st_done;
  if t.tracing then
    emit t ~cycle
      (Event_trace.Warp_exited
         { sm = t.sm_id; cta = soa.Soa.global_cta.(slot);
           warp = soa.Soa.warp_in_cta.(slot) });
  Stats.record_warp_done t.stats ~cta:soa.Soa.global_cta.(slot)
    ~warp:soa.Soa.warp_in_cta.(slot) ~instructions:soa.Soa.issued.(slot);
  cta.running <- cta.running - 1;
  (match t.probe with
  | Some p ->
      Probe.hold_end p ~cycle ~slot;
      Probe.warp_close p ~cycle ~slot
  | None -> ());
  (match t.pstate with
  | Ps_srp srp ->
      if Srp.release_section srp ~warp:slot >= 0 then (
        match t.probe with
        | Some p -> Probe.srp_sample p ~cycle ~in_use:(Srp.in_use srp)
        | None -> ())
  | Ps_paired srp ->
      if Srp_paired.reset_warp srp ~warp:slot then (
        match t.probe with
        | Some p -> Probe.srp_sample p ~cycle ~in_use:(Srp_paired.in_use srp)
        | None -> ())
  | Ps_owf -> soa.Soa.owns_ext.(slot) <- 0
  | Ps_rfv r ->
      r.used <- r.used - soa.Soa.rfv_alloc.(slot);
      soa.Soa.rfv_alloc.(slot) <- 0
  | Ps_static -> ());
  soa.Soa.acquired_at.(slot) <- -1;
  if cta.running = 0 then retire_cta t ~cycle cta else maybe_release_barrier t ~cycle cta

let advance t ~slot ~next =
  rfv_move t ~slot ~next_pc:next;
  t.soa.Soa.pc.(slot) <- next;
  Soa.refresh_ready_at t.soa ~slot ~touched:t.pc_regs.(next);
  wake_slot t ~slot

let mem_sample t ~cycle ~completion =
  match t.probe with
  | Some p -> Probe.mem_issue p ~cycle ~completion
  | None -> ()

let granted t ~cycle ~slot ~section ~in_use =
  if t.tracing then
    emit t ~cycle
      (Event_trace.Acquire_granted
         { sm = t.sm_id; cta = t.soa.Soa.global_cta.(slot);
           warp = t.soa.Soa.warp_in_cta.(slot); section });
  t.soa.Soa.acquired_at.(slot) <- cycle;
  match t.probe with
  | Some p ->
      Probe.hold_begin p ~cycle ~slot ~section;
      Probe.srp_sample p ~cycle ~in_use
  | None -> ()

let released t ~cycle ~slot ~section ~in_use =
  if t.tracing then
    emit t ~cycle
      (Event_trace.Release
         { sm = t.sm_id; cta = t.soa.Soa.global_cta.(slot);
           warp = t.soa.Soa.warp_in_cta.(slot); section });
  t.soa.Soa.acquired_at.(slot) <- -1;
  (match t.probe with
  | Some p ->
      Probe.hold_end p ~cycle ~slot;
      Probe.srp_sample p ~cycle ~in_use
  | None -> ());
  t.stats.Stats.release_execs <- t.stats.Stats.release_execs + 1;
  poison_ext t ~slot

let multi_def_error t ~slot ~pc =
  let section_state =
    match t.pstate with
    | Ps_srp srp ->
        Printf.sprintf "srp: holds=%s, %d/%d sections in use"
          (match Srp.holds srp ~warp:slot with
          | Some s -> string_of_int s
          | None -> "-")
          (Srp.in_use srp) (Srp.n_sections srp)
    | Ps_paired srp ->
        Printf.sprintf "paired: holds=%b, %d/%d pairs in use"
          (Srp_paired.holds srp ~warp:slot)
          (Srp_paired.in_use srp) (Srp_paired.n_pairs srp)
    | Ps_owf -> Printf.sprintf "owf: owns_ext=%d" t.soa.Soa.owns_ext.(slot)
    | Ps_rfv r -> Printf.sprintf "rfv: %d/%d packs used" r.used r.capacity
    | Ps_static -> "static"
  in
  invalid_arg
    (Printf.sprintf
       "Sm.issue: instruction with multiple destination registers — SM %d, \
        CTA %d, warp %d (slot %d), pc %d: %s [%s]"
       t.sm_id t.soa.Soa.global_cta.(slot) t.soa.Soa.warp_in_cta.(slot) slot pc
       (Instr.to_string t.instrs.(pc))
       section_state)

(* Route a computed next-pc through the reconvergence stack (pops when it
   reaches the current reconvergence point); identity in uniform mode. *)
let route t ~slot next =
  if t.simt then Soa.simt_next t.soa ~slot next else next

(* [issue] executes the warp's current instruction; returns [false] when a
   global access found every memory slot busy at the claim stage (the warp
   is re-stalled untouched and retries when a slot frees — structured
   back-pressure instead of a crash). *)
let issue t ~slot ~cycle =
  let soa = t.soa in
  let pc = soa.Soa.pc.(slot) in
  let instr = t.instrs.(pc) in
  let cta =
    match t.ctas.(soa.Soa.cta_slot.(slot)) with
    | Some c -> c
    | None -> invalid_arg "Sm.issue: orphan warp"
  in
  verify_access t ~slot pc;
  (* Global accesses claim their memory slot before any architectural
     state changes, so a refused claim ([-1]) leaves nothing to undo. The
     completion cycle depends only on the clock and DRAM horizon, never on
     this instruction's execution. *)
  let completion =
    if not t.is_global.(pc) then 0
    else Mem_system.issue_global t.mem_sys ~sm:t.sm_id ~cycle
  in
  if completion < 0 then false
  else begin
    t.state_gen <- t.state_gen + 1;
    (* OWF: silent one-time acquire at the first extended access. *)
    (match t.pstate with
    | Ps_owf when t.touches_ext.(pc) && soa.Soa.owns_ext.(slot) = 0 ->
        soa.Soa.owns_ext.(slot) <- 1;
        soa.Soa.acquired_at.(slot) <- cycle;
        soa.Soa.key.(slot) <-
          Scheduler.pack_key ~priority:0 ~age:soa.Soa.age.(slot);
        (match t.probe with
        | Some p -> Probe.hold_begin p ~cycle ~slot ~section:(slot / 2)
        | None -> ());
        t.stats.Stats.acquire_execs <- t.stats.Stats.acquire_execs + 1;
        if soa.Soa.acquire_stalled.(slot) = 0 then
          t.stats.Stats.acquire_first_try <- t.stats.Stats.acquire_first_try + 1;
        soa.Soa.acquire_stalled.(slot) <- 0
    | Ps_owf | Ps_static | Ps_srp _ | Ps_paired _ | Ps_rfv _ -> ());
    if
      t.trace_warp0
      && soa.Soa.global_cta.(slot) = 0
      && soa.Soa.warp_in_cta.(slot) = 0
    then t.stats.Stats.pc_trace <- pc :: t.stats.Stats.pc_trace;
    (* Execute: per-lane under the active mask in SIMT mode, warp-uniform
       otherwise. Lane-occupancy statistics are kept in both modes with
       the same convention (every uniform issue is a full warp), so
       warp-uniform programs report identical totals. *)
    let ctl =
      if t.simt then begin
        let mask = Soa.simt_active soa ~slot in
        let on = Gpu_isa.Bits.popcount mask in
        t.stats.Stats.active_lane_cycles <-
          t.stats.Stats.active_lane_cycles + on;
        t.stats.Stats.predicated_lane_cycles <-
          t.stats.Stats.predicated_lane_cycles + (t.cfg.warp_size - on);
        Exec.step_simt t.ctxs.(slot) instr ~mask
      end
      else begin
        t.stats.Stats.active_lane_cycles <-
          t.stats.Stats.active_lane_cycles + t.cfg.warp_size;
        Exec.step t.ctxs.(slot) instr
      end
    in
    t.stats.Stats.instructions <- t.stats.Stats.instructions + 1;
    soa.Soa.issued.(slot) <- soa.Soa.issued.(slot) + 1;
    (* Timing: set the destination's ready cycle. *)
    let d = t.def_reg.(pc) in
    if d >= 0 then begin
      let ready =
        if t.is_global.(pc) then begin
          mem_sample t ~cycle ~completion;
          completion
        end
        else cycle + t.latency.(pc)
      in
      soa.Soa.reg_ready.(slot).(d) <- ready
    end
    else if d = -1 then begin
      (* Global stores still consume a memory slot. *)
      if t.is_global.(pc) then mem_sample t ~cycle ~completion
    end
    else multi_def_error t ~slot ~pc;
    (match ctl with
    | Exec.Split ->
        (* Both arms land on pc+1 when the target is the fall-through:
           no divergence to track. Otherwise suspend the continuation and
           the taken arm and run the fall-through arm first (routing pops
           the taken arm immediately when the branch is a loop exit). *)
        let tgt = t.branch_tgt.(pc) in
        if tgt = pc + 1 then advance t ~slot ~next:(route t ~slot (pc + 1))
        else begin
          let taken =
            Exec.branch_taken t.ctxs.(slot) instr ~mask:(Soa.simt_active soa ~slot)
          in
          t.stats.Stats.divergent_branches <-
            t.stats.Stats.divergent_branches + 1;
          Soa.simt_diverge soa ~slot ~tgt ~taken ~rpc:(reconv_pc t pc);
          advance t ~slot ~next:(Soa.simt_next soa ~slot (pc + 1))
        end
    | Exec.Fall -> advance t ~slot ~next:(route t ~slot (pc + 1))
    | Exec.Branch -> advance t ~slot ~next:(route t ~slot t.branch_tgt.(pc))
    | Exec.Halt ->
        if t.simt then (
          match Soa.simt_exit soa ~slot with
          | -1 -> warp_done t ~cycle ~slot cta
          | next -> advance t ~slot ~next)
        else warp_done t ~cycle ~slot cta
    | Exec.Barrier ->
        soa.Soa.status.(slot) <- Soa.st_barrier;
        advance t ~slot ~next:(route t ~slot (pc + 1));
        cta.arrived <- cta.arrived + 1;
        if t.tracing then
          emit t ~cycle
            (Event_trace.Barrier_arrived
               { sm = t.sm_id; cta = soa.Soa.global_cta.(slot);
                 warp = soa.Soa.warp_in_cta.(slot) });
        maybe_release_barrier t ~cycle cta
    | Exec.Acquire ->
        let grant =
          match t.pstate with
          | Ps_srp srp ->
              Srp.section srp ~warp:slot >= 0
              || begin
                   let s = Srp.grant srp ~warp:slot in
                   if s >= 0 then
                     granted t ~cycle ~slot ~section:s ~in_use:(Srp.in_use srp);
                   s >= 0
                 end
          | Ps_paired srp -> (
              match Srp_paired.acquire srp ~warp:slot with
              | Srp_paired.Granted ->
                  granted t ~cycle ~slot
                    ~section:(Srp_paired.pair_of_warp ~warp:slot)
                    ~in_use:(Srp_paired.in_use srp);
                  true
              | Srp_paired.Already_held -> true
              | Srp_paired.Stall -> false)
          | Ps_static | Ps_owf | Ps_rfv _ -> true
        in
        if grant then begin
          t.stats.Stats.acquire_execs <- t.stats.Stats.acquire_execs + 1;
          if soa.Soa.acquire_stalled.(slot) = 0 then
            t.stats.Stats.acquire_first_try <-
              t.stats.Stats.acquire_first_try + 1;
          soa.Soa.acquire_stalled.(slot) <- 0;
          advance t ~slot ~next:(route t ~slot (pc + 1))
        end
        else
          (* Lost a same-cycle race for the last section; retry later. *)
          soa.Soa.acquire_stalled.(slot) <- 1
    | Exec.Release ->
        (match t.pstate with
        | Ps_srp srp ->
            let s = Srp.release_section srp ~warp:slot in
            if s >= 0 then released t ~cycle ~slot ~section:s ~in_use:(Srp.in_use srp)
        | Ps_paired srp -> (
            match Srp_paired.release srp ~warp:slot with
            | Srp_paired.Released ->
                released t ~cycle ~slot
                  ~section:(Srp_paired.pair_of_warp ~warp:slot)
                  ~in_use:(Srp_paired.in_use srp)
            | Srp_paired.Not_held -> ())
        | Ps_static | Ps_owf | Ps_rfv _ -> ());
        advance t ~slot ~next:(route t ~slot (pc + 1)));
    true
  end

(* --- per-cycle step --------------------------------------------------- *)

let rank_block = function
  | Blocked_regs -> 5
  | Blocked_acquire -> 4
  | Blocked_mem -> 3
  | Blocked_deps -> 2
  | Blocked_barrier -> 1
  | Can_issue | Blocked_done -> 0

let stall_reason_of_block = function
  | Can_issue | Blocked_done -> Stats.Stall_empty
  | Blocked_deps -> Stats.Stall_deps
  | Blocked_mem -> Stats.Stall_mem_slot
  | Blocked_acquire -> Stats.Stall_acquire
  | Blocked_regs -> Stats.Stall_regs
  | Blocked_barrier -> Stats.Stall_barrier

(* One scan over the resident warps yields both the idle classification
   (the most specific blockage, see {!classify_idle}) and the min-wakeup
   summary: the earliest future cycle at which any warp's issue
   eligibility could change. Scoreboard stalls end at the warp's
   [ready_at]; structural memory stalls end when the SM's earliest slot
   completes; acquire, RFV-register and barrier stalls only end through
   another warp's issue, so while the whole GPU is idle they never end —
   they contribute no wakeup bound. Probing is side-effect free. *)
let idle_summary t ~cycle =
  let soa = t.soa in
  let best = ref Blocked_done in
  let wake = ref max_int in
  let mem_free = Mem_system.slot_free t.mem_sys ~sm:t.sm_id ~cycle in
  for slot = 0 to soa.Soa.n_slots - 1 do
    if soa.Soa.status.(slot) < Soa.st_done then begin
      let reason = check_warp t ~mem_free ~slot ~cycle in
      if rank_block reason > rank_block !best then best := reason;
      match reason with
      | Blocked_deps ->
          if soa.Soa.ready_at.(slot) < !wake then wake := soa.Soa.ready_at.(slot)
      | Blocked_mem ->
          let c = Mem_system.next_completion t.mem_sys ~sm:t.sm_id in
          if c < !wake then wake := c
      | Can_issue -> if cycle + 1 < !wake then wake := cycle + 1
      | Blocked_acquire | Blocked_regs | Blocked_barrier | Blocked_done -> ()
    end
  done;
  (stall_reason_of_block !best, !wake)

(* Per-cycle idle attribution: only the most specific blockage is needed,
   not the wakeup bound. The loop reads [status] and [ready_at] directly
   and calls [check_ready] only for a warp whose scoreboard has cleared.
   It stops at the highest rank still possible: [max_rank] is the policy's
   ceiling ([Blocked_regs] only under RFV, [Blocked_acquire] only under
   SRP/paired/OWF), and with a memory slot free [Blocked_mem] cannot occur,
   so under the static policy the first warp blocked on dependencies
   settles the answer. Runs on every cycle where some scheduler finds
   nothing to issue; {!idle_summary} is the unoptimised reference. *)
let classify_idle t ~cycle =
  let soa = t.soa in
  let status = soa.Soa.status in
  let ready_at = soa.Soa.ready_at in
  let mem_free = Mem_system.slot_free t.mem_sys ~sm:t.sm_id ~cycle in
  let ceiling = if t.max_rank = 3 && mem_free then 2 else t.max_rank in
  let best = ref Blocked_done in
  let best_rank = ref 0 in
  let n = soa.Soa.n_slots in
  let slot = ref 0 in
  while !slot < n && !best_rank < ceiling do
    let s = !slot in
    let st = status.(s) in
    if st = Soa.st_barrier then begin
      if !best_rank < 1 then begin
        best_rank := 1;
        best := Blocked_barrier
      end
    end
    else if st = Soa.st_ready then begin
      if ready_at.(s) > cycle then begin
        if !best_rank < 2 then begin
          best_rank := 2;
          best := Blocked_deps
        end
      end
      else begin
        let reason = check_ready ~probe:true t ~mem_free ~slot:s ~cycle in
        let rk = rank_block reason in
        if rk > !best_rank then begin
          best_rank := rk;
          best := reason
        end
      end
    end;
    slot := s + 1
  done;
  stall_reason_of_block !best

(* --- diagnostics ------------------------------------------------------ *)

type warp_diag = {
  d_cta : int;
  d_warp : int;
  d_pc : int;
  d_status : Warp.status;
  d_block : Stats.stall_reason;
  d_ready_at : int;
  d_holds_ext : bool;
  d_held_section : int option;
  d_held_cycles : int;
}

let diagnose t ~cycle =
  let soa = t.soa in
  let acc = ref [] in
  let mem_free = Mem_system.slot_free t.mem_sys ~sm:t.sm_id ~cycle in
  for slot = soa.Soa.n_slots - 1 downto 0 do
    if soa.Soa.status.(slot) < Soa.st_done then begin
      let block = check_warp t ~mem_free ~slot ~cycle in
      let held_section =
        match t.pstate with
        | Ps_srp srp -> Srp.holds srp ~warp:slot
        | Ps_paired srp ->
            if Srp_paired.holds srp ~warp:slot then
              Some (Srp_paired.pair_of_warp ~warp:slot)
            else None
        | Ps_owf ->
            if soa.Soa.owns_ext.(slot) = 1 then Some (slot / 2) else None
        | Ps_static | Ps_rfv _ -> None
      in
      acc :=
        {
          d_cta = soa.Soa.global_cta.(slot);
          d_warp = soa.Soa.warp_in_cta.(slot);
          d_pc = soa.Soa.pc.(slot);
          d_status = Soa.status_of soa slot;
          d_block = stall_reason_of_block block;
          d_ready_at = soa.Soa.ready_at.(slot);
          d_holds_ext = held_section <> None;
          d_held_section = held_section;
          d_held_cycles =
            (if held_section <> None && soa.Soa.acquired_at.(slot) >= 0 then
               cycle - soa.Soa.acquired_at.(slot)
             else 0);
        }
        :: !acc
    end
  done;
  !acc

let pp_warp_diag ppf d =
  let status =
    match d.d_status with
    | Warp.Ready -> "ready"
    | Warp.At_barrier -> "at-barrier"
    | Warp.Done -> "done"
  in
  Format.fprintf ppf "cta %d warp %d: pc=%d %s block=%s ready_at=%s" d.d_cta
    d.d_warp d.d_pc status
    (Stats.reason_name d.d_block)
    (if d.d_ready_at = max_int then "-" else string_of_int d.d_ready_at);
  match d.d_held_section with
  | Some s ->
      Format.fprintf ppf " [holds section %d for %d cycles]" s d.d_held_cycles
  | None -> if d.d_holds_ext then Format.fprintf ppf " [holds ext set]"

let srp_invariant t =
  match t.pstate with
  | Ps_srp srp ->
      let in_use = Srp.in_use srp
      and free = Srp.free_sections srp
      and sections = Srp.n_sections srp in
      if in_use + free <> sections then
        Some
          (Error
             (Printf.sprintf "SRP conservation broken: %d in use + %d free <> %d sections"
                in_use free sections))
      else if not (Srp.consistent srp) then
        Some (Error "SRP status/bitmask/LUT bookkeeping out of sync")
      else Some (Ok (in_use, free, sections))
  | Ps_paired srp ->
      let in_use = Srp_paired.in_use srp
      and pairs = Srp_paired.n_pairs srp in
      if in_use < 0 || in_use > pairs then
        Some
          (Error
             (Printf.sprintf "paired SRP accounting broken: %d in use of %d pairs"
                in_use pairs))
      else Some (Ok (in_use, pairs - in_use, pairs))
  | Ps_static | Ps_owf | Ps_rfv _ -> None

let account_idle_span t ~from ~reason ~span =
  if t.resident_warps > 0 && span > 0 then begin
    (* Every scheduler of an idle SM bumps the same stall reason once per
       cycle, so a skipped span of [span] identical cycles contributes
       [span * n_schedulers] bumps — exactly what stepping them one by one
       would have recorded. *)
    let n = span * Array.length t.schedulers in
    Stats.bump_stall_by t.stats reason n;
    if reason = Stats.Stall_acquire then
      t.stats.Stats.acquire_stall_cycles <- t.stats.Stats.acquire_stall_cycles + n;
    match t.probe with
    | Some p -> Probe.note_idle_span p ~from ~span ~reason
    | None -> ()
  end

let finalize_probe t ~cycle =
  match t.probe with Some p -> Probe.finalize p ~cycle | None -> ()

let can_launch t = t.resident_ctas < t.cta_capacity && rfv_can_admit t

let step t ~cycle =
  (* Idle classification is pure and the SM state only changes when a
     scheduler issues, so consecutive idle schedulers in the same cycle
     share one classification instead of rescanning the warps. A scheduler
     whose [ready_at] bound is still ahead of the clock answers without
     scanning; the SM keeps that bound sound by calling [wake_slot] at
     every launch, barrier release and pc advance. *)
  let idle_valid = ref false in
  let idle_reason = ref Stats.Stall_empty in
  let issued_any = ref false in
  let scheds = t.schedulers in
  t.pick_cycle <- cycle;
  for i = 0 to Array.length scheds - 1 do
    (* One scheduler's scan issues nothing, so the memory-slot answer is
       constant across its candidates and is captured per pick (an earlier
       scheduler's issue this cycle may have consumed the last slot, so it
       cannot be hoisted above the loop). *)
    t.pick_mem_free <- Mem_system.slot_free t.mem_sys ~sm:t.sm_id ~cycle;
    let slot = Scheduler.pick scheds.(i) ~soa:t.soa ~cycle ~can_issue:t.can_issue in
    if slot >= 0 then begin
      idle_valid := false;
      if not !issued_any then begin
        issued_any := true;
        match t.probe with Some p -> Probe.flush_idle p | None -> ()
      end;
      if not (issue t ~slot ~cycle) then
        (* The eligibility the scheduler saw evaporated at the memory
           claim: leave the warp untouched and classify the slot. *)
        Stats.bump_stall t.stats Stats.Stall_mem_retry
    end
    else if t.resident_warps > 0 then begin
      let reason =
        if !idle_valid then !idle_reason
        else begin
          let r = classify_idle t ~cycle in
          idle_valid := true;
          idle_reason := r;
          r
        end
      in
      Stats.bump_stall t.stats reason;
      if reason = Stats.Stall_acquire then
        t.stats.Stats.acquire_stall_cycles <-
          t.stats.Stats.acquire_stall_cycles + 1
    end
  done;
  (* A fully idle cycle (no scheduler issued, warps resident) extends the
     SM's current stall episode; the probe closes it at the next issue.
     [idle_valid] necessarily holds here: the last scheduler found nothing
     to issue and classified the cycle. *)
  match t.probe with
  | Some p when (not !issued_any) && t.resident_warps > 0 ->
      if !idle_valid then Probe.note_idle p ~cycle ~reason:!idle_reason
  | Some _ | None -> ()
