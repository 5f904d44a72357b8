let span = 512
let bucket_mask = span - 1
let max_slots = 61

type t = {
  at : int array;  (* per slot: the cycle it was filed to become due *)
  buckets : int array;
      (* [span] slot masks; bucket [c land (span - 1)] holds the slots with
         [at = c] for [now < c < now + span] *)
  mutable due : int;      (* filed, [at <= now] *)
  mutable pending : int;  (* union of the buckets *)
  mutable far : int;      (* filed, [at >= now + span] when filed *)
  mutable far_min : int;  (* lower bound on [at] over [far] *)
  mutable now : int;
}

let create ~n_slots =
  if n_slots < 0 || n_slots > max_slots then
    invalid_arg
      (Printf.sprintf "Wheel.create: %d warp slots (at most %d)" n_slots max_slots);
  {
    at = Array.make (max n_slots 1) 0;
    buckets = Array.make span 0;
    due = 0;
    pending = 0;
    far = 0;
    far_min = max_int;
    now = 0;
  }

let due t = t.due
let waiting t = t.pending lor t.far

(* Places a slot that is in none of the three sets. *)
let place t ~slot ~at =
  let b = 1 lsl slot in
  t.at.(slot) <- at;
  if at <= t.now then t.due <- t.due lor b
  else if at - t.now < span then begin
    let i = at land bucket_mask in
    t.buckets.(i) <- t.buckets.(i) lor b;
    t.pending <- t.pending lor b
  end
  else begin
    t.far <- t.far lor b;
    if at < t.far_min then t.far_min <- at
  end

let unfile t ~slot =
  let b = 1 lsl slot in
  let keep = lnot b in
  t.due <- t.due land keep;
  if t.pending land b <> 0 then begin
    let i = t.at.(slot) land bucket_mask in
    t.buckets.(i) <- t.buckets.(i) land keep;
    t.pending <- t.pending land keep
  end;
  (* [far_min] stays a lower bound; the next refile recomputes it. *)
  t.far <- t.far land keep

let file t ~slot ~at =
  unfile t ~slot;
  place t ~slot ~at

let sync t ~cycle =
  let now = t.now in
  if cycle > now then begin
    if t.pending <> 0 then
      if cycle - now < span then
        for c = now + 1 to cycle do
          let i = c land bucket_mask in
          let b = t.buckets.(i) in
          if b <> 0 then begin
            t.due <- t.due lor b;
            t.pending <- t.pending land lnot b;
            t.buckets.(i) <- 0
          end
        done
      else begin
        (* A jump of a whole turn or more: every bucketed slot is due, and
           only their own buckets need clearing. *)
        let m = ref t.pending in
        while !m <> 0 do
          let s = Gpu_isa.Bits.lsb !m in
          t.buckets.(t.at.(s) land bucket_mask) <- 0;
          m := !m land (!m - 1)
        done;
        t.due <- t.due lor t.pending;
        t.pending <- 0
      end;
    t.now <- cycle;
    if t.far <> 0 && t.far_min - cycle < span then begin
      let m = ref t.far in
      t.far <- 0;
      t.far_min <- max_int;
      while !m <> 0 do
        let s = Gpu_isa.Bits.lsb !m in
        place t ~slot:s ~at:t.at.(s);
        m := !m land (!m - 1)
      done
    end
  end
