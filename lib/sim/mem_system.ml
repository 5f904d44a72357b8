type t = {
  lat_global : int;
  dram_interval : float;
  slots : int array array;    (* per SM: busy-until cycle per slot *)
  min_slot : int array;       (* per SM: index of the slot with the smallest
                                 busy-until — free iff any slot is free, and
                                 its value is the SM's earliest completion *)
  dram_free : float array;
      (* one cell: earliest cycle the service channel is free (a float
         array stores it unboxed, so updating it allocates nothing) *)
  mutable issued : int;
  mutable total_latency : int;
}

let create (cfg : Gpu_uarch.Arch_config.t) ~n_sms =
  {
    lat_global = cfg.lat_global;
    dram_interval = cfg.dram_interval;
    slots = Array.init n_sms (fun _ -> Array.make cfg.mem_slots 0);
    min_slot = Array.make n_sms 0;
    dram_free = [| 0. |];
    issued = 0;
    total_latency = 0;
  }

let refresh_min_slot t ~sm =
  let slots = t.slots.(sm) in
  let best = ref 0 in
  for i = 1 to Array.length slots - 1 do
    if slots.(i) < slots.(!best) then best := i
  done;
  t.min_slot.(sm) <- !best

(* Which free slot a request claims is unobservable (slots are symmetric and
   their indices never escape), so the common-path queries read the cached
   minimum instead of rescanning the array. *)
let slot_free t ~sm ~cycle = t.slots.(sm).(t.min_slot.(sm)) <= cycle

let next_completion t ~sm = t.slots.(sm).(t.min_slot.(sm))

let issue_global t ~sm ~cycle =
  let i = t.min_slot.(sm) in
  if t.slots.(sm).(i) > cycle then -1
  else begin
    let now = float_of_int cycle and free = t.dram_free.(0) in
    let start = if free > now then free else now in
    let completion = int_of_float (Float.ceil start) + t.lat_global in
    t.dram_free.(0) <- start +. t.dram_interval;
    t.slots.(sm).(i) <- completion;
    refresh_min_slot t ~sm;
    t.issued <- t.issued + 1;
    t.total_latency <- t.total_latency + (completion - cycle);
    completion
  end

let busy_slots t ~sm ~cycle =
  Array.fold_left (fun acc b -> if b > cycle then acc + 1 else acc) 0 t.slots.(sm)

let issued t = t.issued

let mean_latency t =
  if t.issued = 0 then 0. else float_of_int t.total_latency /. float_of_int t.issued
