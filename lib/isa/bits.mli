(** Bit-twiddling over native ints, shared by every bit-set representation
    in the model ({!Regset}, the SRP bitmasks, SIMT active masks). Each
    costs a handful of word operations instead of a walk over every bit
    position. *)

(** Number of set bits (clears the lowest set bit once per member). For a
    negative [m] the sign bit counts too. *)
val popcount : int -> int

(** Index of the highest set bit of a positive [m].
    @raise Invalid_argument when [m <= 0]. *)
val msb : int -> int

(** Index of the lowest set bit of [m] (one multiply and one table read,
    de Bruijn style). The sign bit does not count.
    @raise Invalid_argument when no bit below the sign is set. *)
val lsb : int -> int
