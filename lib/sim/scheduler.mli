(** Warp schedulers. Each SM has [n_schedulers] of them; scheduler [id]
    owns the warp slots with [slot mod n_schedulers = id].

    [Gto] is GPGPU-Sim's default greedy-then-oldest policy: keep issuing
    from the current warp until it stalls, then switch to the runnable warp
    with the smallest packed ordering key ([Warp.Soa.key] — policy
    priority before age, i.e. launch order). [Lrr] is loose round-robin.
    [Two_level n] drains a fetch group of [n] consecutive slots before
    rotating to the next group with runnable warps (Narasiman et al.,
    MICRO 2011).

    A scheduler picks from the SM's due mask ({!Wheel}): the bitmask of
    warp slots that are [Ready] with their scoreboard clear ([ready_at <=
    cycle]). It visits only the set bits of [due] it owns, lowest slot
    first, and runs the SM-provided residual [can_issue] check (memory
    slots, register-policy state — the part with acquire-stall side
    effects) on exactly the slots, in exactly the order, that a scan over
    every slot's status and scoreboard would. A pick allocates nothing
    beyond what [can_issue] does. *)

type kind = Gto | Lrr | Two_level of int

type t

val create : kind -> id:int -> n_schedulers:int -> t

(** Does the scheduler own warp slot [slot] (below {!Wheel.max_slots})? *)
val owns : t -> slot:int -> bool

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

(** [pick t ~soa ~due ~can_issue] returns the warp slot to issue from
    this cycle, or [-1] when no owned slot can issue. [due] is the SM's
    due mask (bit [s] set iff slot [s] is [Ready] and its scoreboard is
    clear); [soa] supplies the ordering keys and the slot count.
    [can_issue] is the SM's residual eligibility check; it may record
    acquire stalls, and is called on candidate slots in increasing slot
    order (GTO first retries its current warp). *)
val pick : t -> soa:Warp.Soa.t -> due:int -> can_issue:(int -> bool) -> int
