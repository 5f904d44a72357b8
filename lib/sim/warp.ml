type status = Ready | At_barrier | Done

module Soa = struct
  let st_ready = 0
  let st_barrier = 1
  let st_done = 2
  let st_absent = 3

  (* Per-slot SIMT execution state: a lane-resolved register file and the
     immediate-post-dominator reconvergence stack. The running state is
     the triple (pc.(slot), active.(slot), rpc.(slot)); suspended arms and
     reconvergence continuations live on the stack, deepest scope first.
     Stacks grow by doubling — a divergent loop pushes one continuation
     per diverging iteration; they start empty, so a warp-uniform
     program never allocates them. *)
  type simt = {
    lanes : int;
    full_mask : int;
    lane_regs : int array array;  (* slot -> lane-major [lanes * n_regs] *)
    active : int array;           (* slot -> active-lane bitmask *)
    rpc : int array;              (* slot -> current reconvergence pc *)
    stk_pc : int array array;   (* slot -> entry pcs (rows grow by doubling) *)
    stk_rpc : int array array;
    stk_mask : int array array;
    stk_depth : int array;
  }

  type t = {
    n_slots : int;
    n_regs : int;
    status : int array;
    pc : int array;
    ready_at : int array;
    age : int array;
    key : int array;
    acquire_stalled : int array;
    acquired_at : int array;
    owns_ext : int array;
    partner : int array;
    rfv_alloc : int array;
    issued : int array;
    global_cta : int array;
    warp_in_cta : int array;
    cta_slot : int array;
    regs : int array array;
    reg_ready : int array array;
    simt : simt option;
  }

  let create ?lanes ~n_slots ~n_regs () =
    if n_slots < 1 then invalid_arg "Warp.Soa.create: n_slots must be >= 1";
    if n_regs < 1 then invalid_arg "Warp.Soa.create: n_regs must be >= 1";
    let simt =
      match lanes with
      | None -> None
      | Some lanes ->
          if lanes < 1 || lanes > 62 then
            invalid_arg "Warp.Soa.create: lanes must be in 1..62";
          Some
            {
              lanes;
              full_mask = (1 lsl lanes) - 1;
              lane_regs = Array.init n_slots (fun _ -> Array.make (lanes * n_regs) 0);
              active = Array.make n_slots 0;
              rpc = Array.make n_slots 0;
              stk_pc = Array.make n_slots [||];
              stk_rpc = Array.make n_slots [||];
              stk_mask = Array.make n_slots [||];
              stk_depth = Array.make n_slots 0;
            }
    in
    {
      n_slots;
      n_regs;
      status = Array.make n_slots st_absent;
      pc = Array.make n_slots 0;
      ready_at = Array.make n_slots 0;
      age = Array.make n_slots 0;
      key = Array.make n_slots max_int;
      acquire_stalled = Array.make n_slots 0;
      acquired_at = Array.make n_slots (-1);
      owns_ext = Array.make n_slots 0;
      partner = Array.make n_slots (-1);
      rfv_alloc = Array.make n_slots 0;
      issued = Array.make n_slots 0;
      global_cta = Array.make n_slots (-1);
      warp_in_cta = Array.make n_slots (-1);
      cta_slot = Array.make n_slots (-1);
      regs = Array.init n_slots (fun _ -> Array.make n_regs 0);
      reg_ready = Array.init n_slots (fun _ -> Array.make n_regs 0);
      simt;
    }

  let resident t slot = t.status.(slot) <> st_absent

  let status_of t slot =
    match t.status.(slot) with
    | 0 -> Ready
    | 1 -> At_barrier
    | 2 -> Done
    | _ -> invalid_arg "Warp.Soa.status_of: no warp resident in slot"

  let launch t ~slot ~cta_slot ~global_cta ~warp_in_cta ~age =
    t.status.(slot) <- st_ready;
    t.pc.(slot) <- 0;
    t.ready_at.(slot) <- 0;
    t.age.(slot) <- age;
    t.acquire_stalled.(slot) <- 0;
    t.acquired_at.(slot) <- -1;
    t.owns_ext.(slot) <- 0;
    t.partner.(slot) <- -1;
    t.rfv_alloc.(slot) <- 0;
    t.issued.(slot) <- 0;
    t.global_cta.(slot) <- global_cta;
    t.warp_in_cta.(slot) <- warp_in_cta;
    t.cta_slot.(slot) <- cta_slot;
    Array.fill t.regs.(slot) 0 t.n_regs 0;
    Array.fill t.reg_ready.(slot) 0 t.n_regs 0

  let retire t ~slot =
    t.status.(slot) <- st_absent;
    t.key.(slot) <- max_int

  let deps_ready t ~slot instr ~cycle =
    let rr = t.reg_ready.(slot) in
    let ready rs = not (Gpu_isa.Regset.exists (fun r -> rr.(r) > cycle) rs) in
    ready (Gpu_isa.Instr.uses instr) && ready (Gpu_isa.Instr.defs instr)

  let refresh_ready_at t ~slot ~touched =
    let rr = t.reg_ready.(slot) in
    let m = ref 0 in
    for i = 0 to Array.length touched - 1 do
      let v = rr.(touched.(i)) in
      if v > !m then m := v
    done;
    t.ready_at.(slot) <- !m

  (* --- SIMT reconvergence stack ---------------------------------------- *)

  let simt_get t =
    match t.simt with
    | Some s -> s
    | None -> invalid_arg "Warp.Soa: SIMT operation in warp-uniform mode"

  let simt_reset t ~slot ~mask ~rpc =
    let s = simt_get t in
    Array.fill s.lane_regs.(slot) 0 (Array.length s.lane_regs.(slot)) 0;
    s.active.(slot) <- mask;
    s.rpc.(slot) <- rpc;
    s.stk_depth.(slot) <- 0

  let simt_active t ~slot = (simt_get t).active.(slot)

  let push s ~slot ~pc ~rpc ~mask =
    let d = s.stk_depth.(slot) in
    let cap = Array.length s.stk_pc.(slot) in
    if d = cap then begin
      let grow a =
        let b = Array.make (max 8 (2 * cap)) 0 in
        Array.blit a 0 b 0 cap;
        b
      in
      s.stk_pc.(slot) <- grow s.stk_pc.(slot);
      s.stk_rpc.(slot) <- grow s.stk_rpc.(slot);
      s.stk_mask.(slot) <- grow s.stk_mask.(slot)
    end;
    s.stk_pc.(slot).(d) <- pc;
    s.stk_rpc.(slot).(d) <- rpc;
    s.stk_mask.(slot).(d) <- mask;
    s.stk_depth.(slot) <- d + 1

  (* Divergent conditional branch: suspend the reconvergence continuation
     (the full active mask resuming at [rpc] in the enclosing scope) and
     the taken arm; the warp continues into the fall-through arm. The
     caller then routes the fall-through pc through {!simt_next} — when the
     branch is a loop exit ([fall_pc = rpc]) that pop makes the taken arm
     current immediately. *)
  let simt_diverge t ~slot ~tgt ~taken ~rpc =
    let s = simt_get t in
    let m = s.active.(slot) in
    push s ~slot ~pc:rpc ~rpc:s.rpc.(slot) ~mask:m;
    push s ~slot ~pc:tgt ~rpc ~mask:taken;
    s.active.(slot) <- m land lnot taken;
    s.rpc.(slot) <- rpc

  (* Route a computed next-pc through the reconvergence stack: reaching the
     current reconvergence point pops the next suspended arm (or the
     continuation, restoring its wider mask and enclosing scope). *)
  let simt_next t ~slot next =
    let s = simt_get t in
    let next = ref next in
    while s.stk_depth.(slot) > 0 && !next = s.rpc.(slot) do
      let d = s.stk_depth.(slot) - 1 in
      s.stk_depth.(slot) <- d;
      s.active.(slot) <- s.stk_mask.(slot).(d);
      s.rpc.(slot) <- s.stk_rpc.(slot).(d);
      next := s.stk_pc.(slot).(d)
    done;
    !next

  (* [Exit] under the current mask: the active lanes terminate and vanish
     from every suspended mask (a lane exits in exactly one arm). Returns
     the pc where the surviving lanes resume, or [-1] when the whole warp
     is done. Entries whose mask emptied are discarded; because a
     continuation's mask is a superset of the arms above it, empty masks
     only ever sit at the top of the stack. *)
  let simt_exit t ~slot =
    let s = simt_get t in
    let dying = s.active.(slot) in
    let masks = s.stk_mask.(slot) in
    for d = 0 to s.stk_depth.(slot) - 1 do
      masks.(d) <- masks.(d) land lnot dying
    done;
    s.active.(slot) <- 0;
    while s.stk_depth.(slot) > 0 && masks.(s.stk_depth.(slot) - 1) = 0 do
      s.stk_depth.(slot) <- s.stk_depth.(slot) - 1
    done;
    if s.stk_depth.(slot) = 0 then -1
    else begin
      let d = s.stk_depth.(slot) - 1 in
      s.stk_depth.(slot) <- d;
      s.active.(slot) <- masks.(d);
      s.rpc.(slot) <- s.stk_rpc.(slot).(d);
      simt_next t ~slot s.stk_pc.(slot).(d)
    end

  (* Pure variants for scheduler peeks (the RFV next-pc probe): what
     {!simt_next} / {!simt_exit} would return, without mutating. *)
  let simt_peek_next t ~slot next =
    let s = simt_get t in
    let next = ref next and rpc = ref s.rpc.(slot) in
    let d = ref (s.stk_depth.(slot) - 1) in
    while !d >= 0 && !next = !rpc do
      next := s.stk_pc.(slot).(!d);
      rpc := s.stk_rpc.(slot).(!d);
      decr d
    done;
    !next

  let simt_peek_exit t ~slot =
    let s = simt_get t in
    let dying = s.active.(slot) in
    let d = ref (s.stk_depth.(slot) - 1) in
    while !d >= 0 && s.stk_mask.(slot).(!d) land lnot dying = 0 do
      decr d
    done;
    if !d < 0 then -1
    else begin
      let next = ref s.stk_pc.(slot).(!d) and rpc = ref s.stk_rpc.(slot).(!d) in
      let i = ref (!d - 1) in
      while !i >= 0 && !next = !rpc do
        next := s.stk_pc.(slot).(!i);
        rpc := s.stk_rpc.(slot).(!i);
        decr i
      done;
      !next
    end
end

type view = {
  slot : int;
  cta_slot : int;
  global_cta : int;
  warp_in_cta : int;
  age : int;
}

let view (soa : Soa.t) slot =
  {
    slot;
    cta_slot = soa.Soa.cta_slot.(slot);
    global_cta = soa.Soa.global_cta.(slot);
    warp_in_cta = soa.Soa.warp_in_cta.(slot);
    age = soa.Soa.age.(slot);
  }
