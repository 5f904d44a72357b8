module Soa = Warp.Soa

type kind = Gto | Lrr | Two_level of int

type t = {
  kind : kind;
  own : int;  (* bitmask of the warp slots this scheduler owns *)
  mutable current : int;
  mutable rr_pos : int;
  mutable active_group : int;
}

let create kind ~id ~n_schedulers =
  (match kind with
  | Two_level g when g <= 0 -> invalid_arg "Scheduler.create: empty fetch group"
  | Two_level _ | Gto | Lrr -> ());
  let own = ref 0 in
  for slot = Wheel.max_slots - 1 downto 0 do
    if slot mod n_schedulers = id then own := !own lor (1 lsl slot)
  done;
  { kind; own = !own; current = -1; rr_pos = 0; active_group = 0 }

let owns t ~slot = t.own land (1 lsl slot) <> 0

(* Candidate ordering packed into one int — [(priority, age)] compared
   lexicographically — so a pick reads one precomputed key per candidate
   and allocates nothing. Ages beyond the field width saturate instead of
   spilling into the priority bits, so priority still dominates at the
   limit (ties then fall back to the first/lowest-slot candidate, exactly
   as equal keys always have). *)
let age_bits = 50
let age_mask = (1 lsl age_bits) - 1
let pack_key ~priority ~age = (priority lsl age_bits) lor min age age_mask

(* Every pick visits the set bits of a candidate mask ([due] restricted to
   the scheduler's own slots, and to one fetch group or one side of the
   round-robin pointer) lowest first: the residual [can_issue] carries the
   acquire-stall side effects of a real issue attempt, so candidates are
   offered in increasing slot order, as a scan over every slot would.
   The loops are plain [while]s over refs, with no local closures: they
   are the simulator's hottest code and the non-flambda compiler neither
   unboxes closure-captured refs nor reliably inlines tiny calls. *)

(* The candidate of [m] with the smallest key that [can_issue] accepts,
   or -1. *)
let best_of ~(soa : Soa.t) ~can_issue m =
  let key = soa.Soa.key in
  let best = ref (-1) in
  let best_key = ref max_int in
  let m = ref m in
  while !m <> 0 do
    let s = Gpu_isa.Bits.lsb !m in
    if can_issue s then begin
      let k = key.(s) in
      if k < !best_key then begin
        best_key := k;
        best := s
      end
    end;
    m := !m land (!m - 1)
  done;
  !best

(* The lowest candidate of [m] that [can_issue] accepts, or -1. *)
let first_of ~can_issue m =
  let found = ref (-1) in
  let m = ref m in
  while !found < 0 && !m <> 0 do
    let s = Gpu_isa.Bits.lsb !m in
    if can_issue s then found := s;
    m := !m land (!m - 1)
  done;
  !found

let pick_gto t ~soa ~cand ~can_issue =
  let cur = t.current in
  if cur >= 0 && cand land (1 lsl cur) <> 0 && can_issue cur then cur
  else begin
    let s = best_of ~soa ~can_issue cand in
    if s >= 0 then t.current <- s;
    s
  end

(* Loose round-robin: the slots from [rr_pos] up, then the ones below. *)
let pick_lrr t ~cand ~can_issue =
  let below = (1 lsl t.rr_pos) - 1 in
  let s = first_of ~can_issue (cand land lnot below) in
  let s = if s >= 0 then s else first_of ~can_issue (cand land below) in
  if s >= 0 then t.rr_pos <- s + 1;
  s

(* Two-level: drain the active fetch group; when it has no runnable warp,
   rotate to the next group that does. Groups partition the slots into
   contiguous runs of [group_size]. *)
let pick_two_level t ~group_size ~(soa : Soa.t) ~cand ~can_issue =
  let n_slots = soa.Soa.n_slots in
  let n_groups = (n_slots + group_size - 1) / group_size in
  let found = ref (-1) in
  let tried = ref 0 in
  let g = ref (t.active_group mod max n_groups 1) in
  while !found < 0 && !tried < n_groups do
    let lo = !g * group_size in
    let hi = min (lo + group_size) n_slots in
    let group = ((1 lsl hi) - 1) land lnot ((1 lsl lo) - 1) in
    let s = best_of ~soa ~can_issue (cand land group) in
    if s >= 0 then begin
      t.active_group <- !g;
      found := s
    end
    else begin
      incr tried;
      g := (!g + 1) mod n_groups
    end
  done;
  !found

let pick t ~soa ~due ~can_issue =
  let cand = due land t.own in
  if cand = 0 then -1
  else
    match t.kind with
    | Gto -> pick_gto t ~soa ~cand ~can_issue
    | Lrr -> pick_lrr t ~cand ~can_issue
    | Two_level group_size -> pick_two_level t ~group_size ~soa ~cand ~can_issue
