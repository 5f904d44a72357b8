open Gpu_sim
module Soa = Warp.Soa

(* Build an SoA pool with warps resident at the given (slot, age) pairs;
   unlisted slots stay absent and must be skipped by every scheduler. *)
let pool ?(priority = fun _ -> 0) slots_ages =
  let n = 1 + List.fold_left (fun acc (s, _) -> max acc s) 0 slots_ages in
  let soa = Soa.create ~n_slots:n ~n_regs:4 () in
  List.iter
    (fun (s, a) ->
      Soa.launch soa ~slot:s ~cta_slot:0 ~global_cta:0 ~warp_in_cta:s ~age:a;
      soa.Soa.key.(s) <- Scheduler.pack_key ~priority:(priority s) ~age:a)
    slots_ages;
  soa

(* The due mask a scan over every slot would see: Ready and scoreboard
   clear at [cycle]. *)
let due_at (soa : Soa.t) ~cycle =
  let m = ref 0 in
  for s = 0 to soa.Soa.n_slots - 1 do
    if soa.Soa.status.(s) = Soa.st_ready && soa.Soa.ready_at.(s) <= cycle then
      m := !m lor (1 lsl s)
  done;
  !m

let pick ?(cycle = 0) ?(can = fun _ -> true) sched soa =
  Scheduler.pick sched ~soa ~due:(due_at soa ~cycle) ~can_issue:can

let test_gto_oldest_first () =
  let sched = Scheduler.create Scheduler.Gto ~id:0 ~n_schedulers:1 in
  let soa = pool [ (0, 5); (1, 2); (2, 9) ] in
  Alcotest.(check int) "oldest wins" 1 (pick sched soa)

let test_gto_greedy () =
  let sched = Scheduler.create Scheduler.Gto ~id:0 ~n_schedulers:1 in
  let soa = pool [ (0, 5); (1, 2) ] in
  Alcotest.(check int) "first pick oldest" 1 (pick sched soa);
  (* Same warp keeps issuing while it can (greedy). *)
  Alcotest.(check int) "greedy sticks" 1 (pick sched soa);
  (* When the current warp stalls, switch to the other one. *)
  Alcotest.(check int) "switch on stall" 0
    (pick ~can:(fun s -> s <> 1) sched soa);
  (* And stay greedy on the new one. *)
  Alcotest.(check int) "greedy on new warp" 0 (pick sched soa)

let test_ownership () =
  let sched = Scheduler.create Scheduler.Gto ~id:1 ~n_schedulers:2 in
  Alcotest.(check bool) "owns odd slots" true (Scheduler.owns sched ~slot:3);
  Alcotest.(check bool) "not even slots" false (Scheduler.owns sched ~slot:2);
  let soa = pool [ (0, 0); (1, 10); (2, 1); (3, 11) ] in
  Alcotest.(check int) "only scans own slots" 1 (pick sched soa)

let test_priority_beats_age () =
  let sched = Scheduler.create Scheduler.Gto ~id:0 ~n_schedulers:1 in
  (* OWF-style: warp 1 is an owner (priority 0), warp 0 is not. *)
  let soa = pool ~priority:(fun s -> if s = 1 then 0 else 1) [ (0, 0); (1, 5) ] in
  Alcotest.(check int) "owner first despite age" 1 (pick sched soa)

let test_none_issueable () =
  let sched = Scheduler.create Scheduler.Gto ~id:0 ~n_schedulers:1 in
  let soa = pool [ (0, 0) ] in
  Alcotest.(check int) "none" (-1) (pick ~can:(fun _ -> false) sched soa)

let test_scoreboard_gates_pick () =
  let sched = Scheduler.create Scheduler.Gto ~id:0 ~n_schedulers:1 in
  let soa = pool [ (0, 0); (1, 1) ] in
  (* The oldest warp's operands are in flight until cycle 10: the
     scheduler must pass it over without consulting [can_issue]. *)
  soa.Soa.ready_at.(0) <- 10;
  Alcotest.(check int) "in-flight warp skipped" 1 (pick ~cycle:5 sched soa);
  (* A fresh scheduler (no greedy hold on slot 1) picks the older warp
     again once its operands complete. *)
  let fresh = Scheduler.create Scheduler.Gto ~id:0 ~n_schedulers:1 in
  Alcotest.(check int) "eligible again at completion" 0 (pick ~cycle:10 fresh soa)

let test_lrr_rotates () =
  let sched = Scheduler.create Scheduler.Lrr ~id:0 ~n_schedulers:1 in
  let soa = pool [ (0, 0); (1, 1); (2, 2) ] in
  let first = pick sched soa in
  let second = pick sched soa in
  let third = pick sched soa in
  Alcotest.(check (list int)) "round robin" [ 0; 1; 2 ]
    (List.sort compare [ first; second; third ]);
  Alcotest.(check bool) "no immediate repeat" true (first <> second && second <> third)

let test_two_level_drains_group () =
  let sched = Scheduler.create (Scheduler.Two_level 2) ~id:0 ~n_schedulers:1 in
  let soa = pool [ (0, 0); (1, 1); (2, 2); (3, 3) ] in
  (* Group 0 = slots {0,1}. Oldest of the active group wins while the
     group has runnable warps. *)
  Alcotest.(check int) "active group first" 0 (pick sched soa);
  Alcotest.(check int) "stays in group" 1 (pick ~can:(fun s -> s <> 0) sched soa);
  (* When the whole group stalls, rotate to group 1. *)
  Alcotest.(check int) "rotates on group stall" 2
    (pick ~can:(fun s -> s >= 2) sched soa);
  (* The rotation is sticky: group 1 is now active. *)
  Alcotest.(check int) "sticky rotation" 2 (pick sched soa)

let test_two_level_invalid () =
  Alcotest.check_raises "empty group"
    (Invalid_argument "Scheduler.create: empty fetch group") (fun () ->
      ignore (Scheduler.create (Scheduler.Two_level 0) ~id:0 ~n_schedulers:1))

let test_two_level_end_to_end () =
  (* A full simulation under each scheduler produces identical stores. *)
  let prog = Util.loop in
  let run kind =
    let arch = { Util.small_arch with Gpu_uarch.Arch_config.scheduler = kind } in
    Util.run_with ~arch (Util.static_policy prog) prog
  in
  let gto = run Gpu_uarch.Arch_config.Gto in
  let lrr = run Gpu_uarch.Arch_config.Lrr in
  let two = run (Gpu_uarch.Arch_config.Two_level 4) in
  Util.check_same_traces "gto vs lrr" (Util.traces gto) (Util.traces lrr);
  Util.check_same_traces "gto vs two-level" (Util.traces gto) (Util.traces two)

let test_warp_deps_ready () =
  let soa = pool [ (0, 0) ] in
  let instr = Gpu_isa.Instr.Bin (Gpu_isa.Instr.Add, 0, Gpu_isa.Instr.Reg 1, Gpu_isa.Instr.Imm 1) in
  Alcotest.(check bool) "ready initially" true
    (Soa.deps_ready soa ~slot:0 instr ~cycle:0);
  soa.Soa.reg_ready.(0).(1) <- 10;
  Alcotest.(check bool) "source in flight" false
    (Soa.deps_ready soa ~slot:0 instr ~cycle:5);
  Alcotest.(check bool) "ready at completion" true
    (Soa.deps_ready soa ~slot:0 instr ~cycle:10);
  soa.Soa.reg_ready.(0).(1) <- 0;
  soa.Soa.reg_ready.(0).(0) <- 10;
  Alcotest.(check bool) "destination busy blocks too" false
    (Soa.deps_ready soa ~slot:0 instr ~cycle:5)

(* Packed ordering keys: integer comparison of [pack_key] must equal
   lexicographic comparison of (priority, age) across the whole field
   width, and ages beyond the width must saturate instead of bleeding
   into the priority bits. *)
let test_packed_key_order () =
  let m = Scheduler.age_mask in
  let ages = [ 0; 1; 2; 1023; m / 2; m - 1; m; m + 1; m * 2; max_int ] in
  let priorities = [ 0; 1 ] in
  List.iter
    (fun p1 ->
      List.iter
        (fun a1 ->
          List.iter
            (fun p2 ->
              List.iter
                (fun a2 ->
                  let expect = compare (p1, min a1 m) (p2, min a2 m) in
                  let got =
                    compare
                      (Scheduler.pack_key ~priority:p1 ~age:a1)
                      (Scheduler.pack_key ~priority:p2 ~age:a2)
                  in
                  if got <> expect then
                    Alcotest.failf
                      "pack_key order mismatch: (%d,%d) vs (%d,%d): got %d, \
                       want %d"
                      p1 a1 p2 a2 got expect)
                ages)
            priorities)
        ages)
    priorities

let test_packed_key_saturation () =
  let m = Scheduler.age_mask in
  Alcotest.(check int) "age saturates at the mask"
    (Scheduler.pack_key ~priority:0 ~age:m)
    (Scheduler.pack_key ~priority:0 ~age:max_int);
  Alcotest.(check bool) "priority dominates any age" true
    (Scheduler.pack_key ~priority:0 ~age:max_int
    < Scheduler.pack_key ~priority:1 ~age:0);
  Alcotest.(check bool) "keys stay positive" true
    (Scheduler.pack_key ~priority:1 ~age:max_int > 0)

let test_pick_near_age_limit () =
  let m = Scheduler.age_mask in
  let sched = Scheduler.create Scheduler.Gto ~id:0 ~n_schedulers:1 in
  (* Ages one apart just under the field width: order must survive. *)
  let soa = pool [ (0, m - 1); (1, m - 2) ] in
  Alcotest.(check int) "older wins near the limit" 1 (pick sched soa);
  (* A priority-0 owner with a saturated age still beats a young
     priority-1 warp. *)
  let sched2 = Scheduler.create Scheduler.Gto ~id:0 ~n_schedulers:1 in
  let soa2 =
    pool ~priority:(fun s -> if s = 0 then 0 else 1) [ (0, max_int); (1, 0) ]
  in
  Alcotest.(check int) "saturated owner still first" 0 (pick sched2 soa2)

(* The scan the due mask replaced, kept as the reference: every slot in
   increasing order, the status/scoreboard prefix read from the SoA, then
   [can_issue]. *)
type scan_state = {
  mutable current : int;
  mutable rr_pos : int;
  mutable active_group : int;
}

let reference_pick kind st ~(soa : Soa.t) ~own ~cycle ~can_issue =
  let n = soa.Soa.n_slots in
  let eligible s =
    own s && soa.Soa.status.(s) = Soa.st_ready && soa.Soa.ready_at.(s) <= cycle
  in
  let best lo hi =
    let best = ref (-1) in
    for s = lo to hi - 1 do
      if eligible s && can_issue s
         && (!best < 0 || soa.Soa.key.(s) < soa.Soa.key.(!best))
      then best := s
    done;
    !best
  in
  match kind with
  | Scheduler.Gto ->
      let cur = st.current in
      if cur >= 0 && eligible cur && can_issue cur then cur
      else begin
        let s = best 0 n in
        if s >= 0 then st.current <- s;
        s
      end
  | Scheduler.Lrr ->
      let found = ref (-1) and pos = ref st.rr_pos and tried = ref 0 in
      while !found < 0 && !tried < n do
        let s = if !pos >= n then 0 else !pos in
        if eligible s && can_issue s then found := s;
        pos := s + 1;
        incr tried
      done;
      if !found >= 0 then st.rr_pos <- !found + 1;
      !found
  | Scheduler.Two_level gs ->
      let n_groups = (n + gs - 1) / gs in
      let found = ref (-1) and tried = ref 0 in
      let g = ref (st.active_group mod max n_groups 1) in
      while !found < 0 && !tried < n_groups do
        let s = best (!g * gs) (min ((!g + 1) * gs) n) in
        if s >= 0 then begin
          st.active_group <- !g;
          found := s
        end
        else begin
          incr tried;
          g := (!g + 1) mod n_groups
        end
      done;
      !found

(* Drive each scheduler kind through random launches, issues that move a
   warp's [ready_at] (some a wheel turn or more ahead), barrier parks and
   releases, exits, and clock ticks and jumps longer than the wheel,
   filing and unfiling slots on a [Wheel] exactly where the SM does. At
   every step the wheel's due mask must equal {Ready and ready_at <=
   cycle}, and every pick from it must return the reference scan's slot
   after the same [can_issue] calls, in the same order. Two picks per
   scheduler and step: the first refuses some candidates, so picks that
   pass over eligible-but-refused warps are covered too. *)
let prop_due_pick_matches_scan kind name =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 150) (triple (int_bound 6) (int_bound 11) (int_bound 11)))
  in
  Util.qtest ~count:200 ("due-mask pick equals the full scan (" ^ name ^ ")") gen
    (fun ops ->
      let n_slots = 12 and n_sched = 2 in
      let soa = Soa.create ~n_slots ~n_regs:1 () in
      let wheel = Wheel.create ~n_slots in
      let scheds =
        Array.init n_sched (fun id -> Scheduler.create kind ~id ~n_schedulers:n_sched)
      in
      let refs =
        Array.init n_sched (fun _ -> { current = -1; rr_pos = 0; active_group = 0 })
      in
      let cycle = ref 0 and next_age = ref 0 in
      let st s = soa.Soa.status.(s) in
      let file s = Wheel.file wheel ~slot:s ~at:soa.Soa.ready_at.(s) in
      (* Odd delays reach past the wheel's span. *)
      let issue s d =
        soa.Soa.ready_at.(s) <- (!cycle + if d land 1 = 0 then d else 97 * d);
        file s
      in
      List.for_all
        (fun (op, slot, d) ->
          (match op with
          | 0 when st slot = Soa.st_absent ->
              Soa.launch soa ~slot ~cta_slot:0 ~global_cta:0 ~warp_in_cta:slot
                ~age:!next_age;
              soa.Soa.key.(slot) <- Scheduler.pack_key ~priority:(slot land 1) ~age:!next_age;
              incr next_age;
              file slot
          | 1 -> cycle := !cycle + d
          | 2 when st slot = Soa.st_ready ->
              soa.Soa.status.(slot) <- Soa.st_barrier;
              Wheel.unfile wheel ~slot
          | 3 when st slot = Soa.st_barrier ->
              soa.Soa.status.(slot) <- Soa.st_ready;
              file slot
          | 4 when st slot = Soa.st_ready ->
              Soa.retire soa ~slot;
              Wheel.unfile wheel ~slot
          | 5 -> cycle := !cycle + (100 * d) + 1
          | _ -> ());
          Wheel.sync wheel ~cycle:!cycle;
          Wheel.due wheel = due_at soa ~cycle:!cycle
          && Array.for_all
               (fun i ->
                 let sched = scheds.(i) in
                 let own s = Scheduler.owns sched ~slot:s in
                 let both accept =
                   let got = ref [] and want = ref [] in
                   let s =
                     Scheduler.pick sched ~soa ~due:(Wheel.due wheel)
                       ~can_issue:(fun s -> got := s :: !got; accept s)
                   in
                   let r =
                     reference_pick kind refs.(i) ~soa ~own ~cycle:!cycle
                       ~can_issue:(fun s -> want := s :: !want; accept s)
                   in
                   if s >= 0 then issue s d;
                   s = r && !got = !want
                 in
                 both (fun s -> (s + !cycle) mod 3 <> 0) && both (fun _ -> true))
               (Array.init n_sched Fun.id))
        ops)

(* The wheel on its own against a model that keeps each filed slot's
   cycle: after every filing, unfiling and clock advance (steps of one
   cycle up to jumps of two wheel turns, filings up to two turns ahead,
   some already due), [due] and [waiting] must split the filed slots at
   the clock. *)
let prop_wheel_model =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 200)
        (triple (int_bound 3) (int_bound (Wheel.max_slots - 1)) (int_bound 1100)))
  in
  Util.qtest ~count:300 "wheel due mask matches a model" gen (fun ops ->
      let wheel = Wheel.create ~n_slots:Wheel.max_slots in
      let filed = Array.make Wheel.max_slots None in
      let now = ref 0 in
      List.for_all
        (fun (op, slot, d) ->
          (match op with
          | 0 ->
              let at = !now + d - 4 in
              Wheel.file wheel ~slot ~at;
              filed.(slot) <- Some at
          | 1 ->
              Wheel.unfile wheel ~slot;
              filed.(slot) <- None
          | 2 ->
              now := !now + (d land 7);
              Wheel.sync wheel ~cycle:!now
          | _ ->
              now := !now + d;
              Wheel.sync wheel ~cycle:!now);
          let due = ref 0 and waiting = ref 0 in
          Array.iteri
            (fun s -> function
              | Some at when at <= !now -> due := !due lor (1 lsl s)
              | Some _ -> waiting := !waiting lor (1 lsl s)
              | None -> ())
            filed;
          Wheel.due wheel = !due && Wheel.waiting wheel = !waiting)
        ops)

let test_wheel_limits () =
  Alcotest.check_raises "62 slots"
    (Invalid_argument "Wheel.create: 62 warp slots (at most 61)") (fun () ->
      ignore (Wheel.create ~n_slots:62));
  let wheel = Wheel.create ~n_slots:Wheel.max_slots in
  Wheel.file wheel ~slot:60 ~at:5;
  Wheel.sync wheel ~cycle:4;
  Alcotest.(check int) "not yet due" 0 (Wheel.due wheel);
  Wheel.sync wheel ~cycle:3;
  Wheel.file wheel ~slot:0 ~at:4;
  Alcotest.(check int) "the clock never runs backwards" 1 (Wheel.due wheel);
  Wheel.sync wheel ~cycle:5;
  Alcotest.(check int) "top slot due" ((1 lsl 60) lor 1) (Wheel.due wheel)

(* Every set bit, from the lowest: the de Bruijn index must agree with a
   shift loop at every position, with and without higher bits and the
   sign bit set. *)
let test_lsb () =
  for k = 0 to 61 do
    let b = 1 lsl k in
    List.iter
      (fun m -> Alcotest.(check int) (Printf.sprintf "lsb, bit %d" k) k (Gpu_isa.Bits.lsb m))
      [ b; b lor (1 lsl 61); b lor min_int; -b ]
  done;
  Alcotest.check_raises "zero"
    (Invalid_argument "Bits.lsb: argument must have a set bit below the sign")
    (fun () -> ignore (Gpu_isa.Bits.lsb 0))

let suite =
  [ Alcotest.test_case "GTO picks oldest" `Quick test_gto_oldest_first;
    Alcotest.test_case "GTO greedy behaviour" `Quick test_gto_greedy;
    Alcotest.test_case "slot ownership" `Quick test_ownership;
    Alcotest.test_case "priority beats age (OWF)" `Quick test_priority_beats_age;
    Alcotest.test_case "nothing issueable" `Quick test_none_issueable;
    Alcotest.test_case "scoreboard gates the pick" `Quick test_scoreboard_gates_pick;
    Alcotest.test_case "LRR rotation" `Quick test_lrr_rotates;
    Alcotest.test_case "two-level drains and rotates" `Quick test_two_level_drains_group;
    Alcotest.test_case "two-level validation" `Quick test_two_level_invalid;
    Alcotest.test_case "schedulers agree on behaviour" `Quick test_two_level_end_to_end;
    Alcotest.test_case "warp scoreboard" `Quick test_warp_deps_ready;
    Alcotest.test_case "packed key order" `Quick test_packed_key_order;
    Alcotest.test_case "packed key saturation" `Quick test_packed_key_saturation;
    Alcotest.test_case "pick near the age limit" `Quick test_pick_near_age_limit;
    prop_due_pick_matches_scan Scheduler.Gto "GTO";
    prop_due_pick_matches_scan Scheduler.Lrr "LRR";
    prop_due_pick_matches_scan (Scheduler.Two_level 3) "two-level";
    prop_wheel_model;
    Alcotest.test_case "wheel limits and clock" `Quick test_wheel_limits;
    Alcotest.test_case "lowest set bit" `Quick test_lsb ]
