(** The Shared Register Pool acquire/release engine of RegMutex's issue
    stage (§III-B1): a warp-status bitmask, an SRP bitmask searched with
    FFZ, and a warp → section lookup table.

    Acquire and release are idempotent, as the paper requires: an acquire
    by a warp already holding a section, or a release by a warp holding
    none, is a no-op. *)

type t

type acquire_result =
  | Granted of int  (** section index newly assigned *)
  | Stall           (** no free section; warp must retry when rescheduled *)
  | Already_held of int

type release_result =
  | Released of int
  | Not_held

(** [create ~n_warps ~sections] builds the engine for an SM hosting up to
    [n_warps] warps with [sections] usable SRP sections
    ([sections <= n_warps]; excess bitmask bits are permanently set). *)
val create : n_warps:int -> sections:int -> t

val acquire : t -> warp:int -> acquire_result
val release : t -> warp:int -> release_result

(** Section currently held by the warp, if any. *)
val holds : t -> warp:int -> int option

(** {2 Unboxed forms}

    The issue stage calls these on every acquire-related instruction, so
    they answer with a plain section index ([-1] for none) instead of an
    allocated option or result. The functions above are defined on top of
    them. *)

(** [section t ~warp] is {!holds} as an int: the held section or [-1]. *)
val section : t -> warp:int -> int

(** [grant t ~warp] assigns the lowest free section to a warp holding
    none and returns it, or [-1] (a stall) when none is free.
    @raise Invalid_argument when the warp already holds a section. *)
val grant : t -> warp:int -> int

(** [release_section t ~warp] frees the warp's section and returns it, or
    [-1] when it held none. *)
val release_section : t -> warp:int -> int

val n_sections : t -> int
val free_sections : t -> int
val in_use : t -> int

(** [reset_warp t ~warp] force-releases on warp exit (hardware reclaims
    the section when the CTA retires). Returns the freed section, if any. *)
val reset_warp : t -> warp:int -> int option

(** Independent bookkeeping cross-check, for the fuzz oracle's SRP
    conservation invariant: every status bit maps through the LUT to a
    distinct acquired section within range, and the status and SRP
    popcounts agree (so [in_use + free_sections = n_sections] cannot
    drift). Walks the raw bitmasks rather than the accessors. *)
val consistent : t -> bool

(** [raw t] is [(status, srp, lut)]: the engine's own warp-status mask,
    SRP mask and warp → section table, shared rather than copied. For
    tests that corrupt the bookkeeping to exercise {!consistent}. *)
val raw : t -> Bitmask.t * Bitmask.t * int array

val pp : Format.formatter -> t -> unit
