(** The issue stage's due-warp bitmask, fed by a [ready_at] timing wheel.

    One bit per warp slot. A slot is {e filed} while its warp is [Ready]
    (the SM files it at launch, barrier release and every pc advance, and
    unfiles it at barrier arrival and warp exit), together with the cycle
    its scoreboard clears. After [sync ~cycle] the {!due} mask holds
    exactly the filed slots whose cycle is at most [cycle]; the rest wait
    in one of 512 buckets (indexed by [at land 511]) or, when [at] lies a
    wheel turn (512 cycles) or more ahead (DRAM queueing), in a far mask
    that is refiled when the clock comes within a turn of it.

    This is the warp-status bitmask of the paper's issue stage (§IV,
    Fig. 5): the schedulers pick from [due] instead of scanning every
    slot's status and scoreboard. *)

type t

(** Most warp slots a wheel (an [int] bitmask) can hold: 61, the same
    limit {!Gpu_uarch.Bitmask.create} puts on the SRP bitmasks. *)
val max_slots : int

(** An empty wheel at cycle 0.
    @raise Invalid_argument when [n_slots] is negative or exceeds
    {!max_slots}. *)
val create : n_slots:int -> t

(** [file t ~slot ~at] records that [slot] is Ready and its scoreboard
    clears at cycle [at], replacing any earlier filing of [slot]. When
    [at] is at or before the last synced cycle the slot is due at once. *)
val file : t -> slot:int -> at:int -> unit

(** [unfile t ~slot] removes [slot] (no-op when it is not filed). *)
val unfile : t -> slot:int -> unit

(** [sync t ~cycle] advances the wheel's clock to [cycle], moving every
    filed slot with [at <= cycle] into {!due}. Earlier or equal cycles
    are a no-op, so the clock never runs backwards. Syncing through any
    intermediate cycles first gives the same state. *)
val sync : t -> cycle:int -> unit

(** Filed slots with [at] at or before the last synced cycle. *)
val due : t -> int

(** Filed slots whose scoreboard is still pending at the last synced
    cycle. *)
val waiting : t -> int
