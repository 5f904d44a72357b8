(** Warp schedulers. Each SM has [n_schedulers] of them; scheduler [id]
    owns the warp slots with [slot mod n_schedulers = id].

    [Gto] is GPGPU-Sim's default greedy-then-oldest policy: keep issuing
    from the current warp until it stalls, then switch to the runnable warp
    with the smallest packed ordering key ([Warp.Soa.key] — policy
    priority before age, i.e. launch order). [Lrr] is loose round-robin.
    [Two_level n] drains a fetch group of [n] consecutive slots before
    rotating to the next group with runnable warps (Narasiman et al.,
    MICRO 2011).

    Scheduling operates directly over the SM's structure-of-arrays warp
    state: a candidate slot must be resident, [Ready] and past its
    scoreboard bound ([ready_at <= cycle]) before the SM-provided residual
    [can_issue] check (memory slots, register-policy state — the part
    with acquire-stall side effects) runs.

    Each scheduler keeps a lower bound on the [ready_at] of its [Ready]
    slots. A scan that visits every owned slot without picking one sets
    it exactly; the SM lowers it through {!note_ready} whenever a slot
    becomes [Ready] or its [ready_at] changes (launch, barrier release,
    pc advance). While [cycle] is below the bound, {!pick} answers [-1]
    without scanning. A pick allocates nothing beyond what [can_issue]
    does. *)

type kind = Gto | Lrr | Two_level of int

type t

val create : kind -> id:int -> n_schedulers:int -> t

val owns : t -> slot:int -> bool

(** [note_ready t ~ready_at] lowers the scheduler's bound so that an owned
    slot that is (or just became) [Ready] with this [ready_at] is seen by
    the next {!pick}. The SM must call it at every such transition;
    missing one makes {!pick} skip an eligible warp. *)
val note_ready : t -> ready_at:int -> unit

(** [bounded t ~cycle] holds while [cycle] is below the scheduler's
    [ready_at] bound: every owned [Ready] slot is then still waiting on
    its scoreboard, and {!pick} answers [-1] without scanning. *)
val bounded : t -> cycle:int -> bool

(** Width of the age field inside a packed ordering key; ages at or above
    [2^age_bits] saturate to {!age_mask} rather than corrupting the
    priority field. *)
val age_bits : int

val age_mask : int

(** [pack_key ~priority ~age] packs [(priority, age)] so that integer
    comparison of keys equals lexicographic comparison of the pairs (for
    ages within the field width; beyond it, priority still dominates).
    Smaller keys are scheduled first. *)
val pack_key : priority:int -> age:int -> int

(** [pick t ~soa ~cycle ~can_issue] returns the warp slot to issue from
    this cycle, or [-1] when no owned slot can issue. [can_issue] is the
    SM's residual eligibility check (beyond status/scoreboard, which are
    read directly from [soa]); it may record acquire stalls, and is called
    on candidate slots in increasing slot order exactly once per scan.
    Returns [-1] at once while [cycle] is below the scheduler's
    [ready_at] bound (see {!note_ready}). *)
val pick :
  t -> soa:Warp.Soa.t -> cycle:int -> can_issue:(int -> bool) -> int
