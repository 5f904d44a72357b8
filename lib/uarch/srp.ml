type t = {
  status : Bitmask.t;        (* warp status: 1 = holding an extended set *)
  srp : Bitmask.t;           (* SRP sections: 1 = acquired *)
  lut : int array;           (* warp -> section (valid when status bit set) *)
}

type acquire_result =
  | Granted of int
  | Stall
  | Already_held of int

type release_result =
  | Released of int
  | Not_held

let create ~n_warps ~sections =
  if sections > n_warps then invalid_arg "Srp.create: more sections than warps";
  {
    status = Bitmask.create ~width:n_warps ~valid:n_warps;
    srp = Bitmask.create ~width:n_warps ~valid:sections;
    lut = Array.make n_warps 0;
  }

let section t ~warp = if Bitmask.test t.status warp then t.lut.(warp) else -1

let holds t ~warp = match section t ~warp with -1 -> None | s -> Some s

let grant t ~warp =
  if Bitmask.test t.status warp then
    invalid_arg "Srp.grant: warp already holds a section";
  let s = Bitmask.first_zero t.srp in
  if s >= 0 then begin
    Bitmask.set t.srp s;
    Bitmask.set t.status warp;
    t.lut.(warp) <- s
  end;
  s

let acquire t ~warp =
  match section t ~warp with
  | -1 -> ( match grant t ~warp with -1 -> Stall | s -> Granted s)
  | s -> Already_held s

let release_section t ~warp =
  let s = section t ~warp in
  if s >= 0 then begin
    Bitmask.clear t.status warp;
    Bitmask.clear t.srp s
  end;
  s

let release t ~warp =
  match release_section t ~warp with -1 -> Not_held | s -> Released s

let n_sections t = Bitmask.valid t.srp
let free_sections t = n_sections t - Bitmask.popcount t.srp
let in_use t = Bitmask.popcount t.srp

let reset_warp t ~warp = match release_section t ~warp with -1 -> None | s -> Some s

(* Independent cross-check of the three redundant structures: every held
   warp must map (via the lut) to a distinct acquired section, and the two
   popcounts must agree. Walks the raw bits rather than trusting any of the
   accessor invariants above. Sections are below the 61-bit mask width, so
   an int records the ones seen: the check allocates nothing, which
   matters to the fuzz oracle calling it on every simulated cycle. *)
let consistent t =
  let n_warps = Bitmask.width t.status in
  let sections = Bitmask.valid t.srp in
  let seen = ref 0 in
  let ok = ref true in
  let w = ref 0 in
  while !ok && !w < n_warps do
    if Bitmask.test t.status !w then begin
      let s = t.lut.(!w) in
      if
        s < 0 || s >= sections
        || !seen land (1 lsl s) <> 0
        || not (Bitmask.test t.srp s)
      then ok := false
      else seen := !seen lor (1 lsl s)
    end;
    incr w
  done;
  !ok && Bitmask.popcount t.status = Bitmask.popcount t.srp

let raw t = (t.status, t.srp, t.lut)

let pp ppf t =
  Format.fprintf ppf "srp=%a status=%a" Bitmask.pp t.srp Bitmask.pp t.status
