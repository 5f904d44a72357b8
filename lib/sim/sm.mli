(** One streaming multiprocessor: resident CTAs/warps, warp schedulers,
    barrier bookkeeping and policy enforcement (baseline, RegMutex SRP,
    paired-warps, OWF, RFV). *)

(** Raised in verification mode when a transformed program accesses an
    extended-set register without holding an SRP section, or any register
    beyond [|Bs| + |Es|] — i.e. the compiler pass emitted unsound code. *)
exception Verification_failure of string

type t

(** [simt] switches on per-thread (SIMT) execution: lane-resolved register
    values, predicated execution under an active-lane mask, and an
    immediate-post-dominator reconvergence stack per warp slot. Timing
    stays warp-granular, so a warp-uniform program runs bit-identically in
    both models. [corrupt_mask] clears the given lanes from every warp's
    initial active mask — a fault-injection hook for the fuzz oracle's
    per-lane-trace self-test (never set in normal runs). *)
val create :
  ?events:Event_trace.t ->
  ?telemetry:Telemetry.Sink.t ->
  ?simt:bool ->
  ?corrupt_mask:int ->
  Gpu_uarch.Arch_config.t ->
  sm_id:int ->
  policy:Policy.t ->
  kernel:Kernel.t ->
  memory:Memory.t ->
  mem_sys:Mem_system.t ->
  stats:Stats.t ->
  record_stores:bool ->
  trace_warp0:bool ->
  t

(** Resident-CTA capacity under the policy's resource accounting. *)
val cta_capacity : t -> int

(** [cta_capacity_for cfg ~policy ~kernel] — the same computation without
    building an SM (used by compile-time decisions, e.g. whether OWF
    sharing raises occupancy at all). *)
val cta_capacity_for :
  Gpu_uarch.Arch_config.t -> policy:Policy.t -> kernel:Kernel.t -> int

(** Usable SRP sections (0 for non-SRP policies). *)
val srp_sections : t -> int

(** [srp_sections_for cfg ~policy ~kernel] — {!srp_sections} of the SM
    {!create} would build, without building it. *)
val srp_sections_for :
  Gpu_uarch.Arch_config.t -> policy:Policy.t -> kernel:Kernel.t -> int

val resident_ctas : t -> int
val resident_warps : t -> int
val retired_ctas : t -> int

(** SRP sections currently acquired (0 for non-SRP policies). *)
val srp_in_use : t -> int

(** [try_launch t ~global_cta ~cycle] places a CTA if a slot and resources
    are free; returns [true] on success. At most one launch per cycle is
    attempted by the driver. *)
val try_launch : t -> global_cta:int -> cycle:int -> bool

(** Can a CTA be placed right now (free slot and, under RFV, admissible
    register demand)? Pure; the fast-forward driver uses it to decide
    whether CTA dispatch bounds the clock jump. *)
val can_launch : t -> bool

(** Advance one cycle: every scheduler issues at most one instruction. *)
val step : t -> cycle:int -> unit

(** Attribute an idle scheduler slot to the most specific blockage among
    the resident warps. Pure observation: probing never mutates warp
    state, statistics, or the event trace, no matter how many idle
    schedulers classify the same cycle. The scan stops at the highest
    stall rank the policy and the memory-slot state still allow, so it
    often visits only a prefix of the slots; it always equals
    [fst (idle_summary t ~cycle)]. *)
val classify_idle : t -> cycle:int -> Stats.stall_reason

(** [idle_summary t ~cycle] is {!classify_idle} plus the SM's min-wakeup
    cycle: the earliest future cycle at which any resident warp's issue
    eligibility (or classification) could change while no instruction
    issues anywhere — scoreboard completions ([Warp.ready_at]) and memory
    slot completions. Stalls that only another warp's issue can end
    (acquire, RFV registers, barriers) contribute no bound; [max_int]
    means "asleep until an external event". Pure observation. *)
val idle_summary : t -> cycle:int -> Stats.stall_reason * int

(** [account_idle_span t ~from ~reason ~span] records [span] fully idle
    cycles starting at [from] at once: per skipped cycle, every scheduler
    bumps [reason] (and the acquire-stall counter when applicable) exactly
    as per-cycle stepping would have, and the telemetry probe's open stall
    episode extends over the span. No-op when the SM has no resident
    warps. *)
val account_idle_span :
  t -> from:int -> reason:Stats.stall_reason -> span:int -> unit

(** Close the telemetry probe's open spans at the run's final cycle (the
    GPU driver calls this once after the main loop). No-op without a
    telemetry sink. *)
val finalize_probe : t -> cycle:int -> unit

(** Per-warp snapshot for deadlock diagnostics: who is stuck where, on
    what, and whether it holds an extended set. *)
type warp_diag = {
  d_cta : int;            (** global CTA index *)
  d_warp : int;           (** warp within the CTA *)
  d_pc : int;
  d_status : Warp.status;
  d_block : Stats.stall_reason;  (** why the warp cannot issue right now *)
  d_ready_at : int;       (** scoreboard bound; [max_int] = no bound *)
  d_holds_ext : bool;     (** holds an SRP section / pair set / OWF regs *)
  d_held_section : int option;
      (** which SRP section (or pair index) the warp holds, so deadlock
          reports name the holder, not just the waiter *)
  d_held_cycles : int;
      (** how long the section has been held ([Warp.acquired_at] based);
          [0] when nothing is held *)
}

(** Snapshot of every non-exited resident warp, in slot order. Pure
    observation ({!check_warp} probing). *)
val diagnose : t -> cycle:int -> warp_diag list

val pp_warp_diag : Format.formatter -> warp_diag -> unit

(** SRP conservation cross-check, for the fuzz oracle: [None] for
    policies without an acquire pool; [Some (Ok (in_use, free, total))]
    when the accounting is consistent ([in_use + free = total] and, for
    the full SRP engine, the status/bitmask/LUT structures agree);
    [Some (Error msg)] otherwise. *)
val srp_invariant : t -> (int * int * int, string) result option
