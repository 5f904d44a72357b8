open Gpu_uarch

let test_acquire_release () =
  let srp = Srp.create ~n_warps:48 ~sections:2 in
  Alcotest.(check int) "sections" 2 (Srp.n_sections srp);
  (match Srp.acquire srp ~warp:5 with
  | Srp.Granted 0 -> ()
  | _ -> Alcotest.fail "expected first section");
  Alcotest.(check (option int)) "holds" (Some 0) (Srp.holds srp ~warp:5);
  Alcotest.(check int) "free" 1 (Srp.free_sections srp);
  (match Srp.release srp ~warp:5 with
  | Srp.Released 0 -> ()
  | _ -> Alcotest.fail "expected release of section 0");
  Alcotest.(check int) "all free" 2 (Srp.free_sections srp)

let test_idempotency () =
  let srp = Srp.create ~n_warps:48 ~sections:2 in
  (match Srp.acquire srp ~warp:1 with Srp.Granted _ -> () | _ -> Alcotest.fail "grant");
  (* Nested acquire has no effect. *)
  (match Srp.acquire srp ~warp:1 with
  | Srp.Already_held 0 -> ()
  | _ -> Alcotest.fail "expected Already_held");
  Alcotest.(check int) "still one in use" 1 (Srp.in_use srp);
  (* Release without holding is a no-op. *)
  (match Srp.release srp ~warp:7 with
  | Srp.Not_held -> ()
  | _ -> Alcotest.fail "expected Not_held");
  Alcotest.(check int) "unchanged" 1 (Srp.in_use srp)

let test_stall_and_retry () =
  let srp = Srp.create ~n_warps:48 ~sections:1 in
  (match Srp.acquire srp ~warp:0 with Srp.Granted 0 -> () | _ -> Alcotest.fail "grant");
  (match Srp.acquire srp ~warp:1 with Srp.Stall -> () | _ -> Alcotest.fail "stall");
  (match Srp.release srp ~warp:0 with Srp.Released 0 -> () | _ -> Alcotest.fail "rel");
  (match Srp.acquire srp ~warp:1 with
  | Srp.Granted 0 -> ()
  | _ -> Alcotest.fail "retry succeeds")

let test_reset_warp () =
  let srp = Srp.create ~n_warps:48 ~sections:2 in
  ignore (Srp.acquire srp ~warp:3);
  Alcotest.(check (option int)) "reset frees" (Some 0) (Srp.reset_warp srp ~warp:3);
  Alcotest.(check (option int)) "reset of clean warp" None (Srp.reset_warp srp ~warp:3)

let test_distinct_sections () =
  let srp = Srp.create ~n_warps:48 ~sections:3 in
  let grant w =
    match Srp.acquire srp ~warp:w with Srp.Granted s -> s | _ -> Alcotest.fail "grant"
  in
  let s = List.map grant [ 10; 20; 30 ] in
  Alcotest.(check (list int)) "distinct FFZ order" [ 0; 1; 2 ] s;
  (match Srp.acquire srp ~warp:40 with Srp.Stall -> () | _ -> Alcotest.fail "full");
  ignore (Srp.release srp ~warp:20);
  Alcotest.(check int) "freed middle section" 1 (grant 40)

let test_create_invalid () =
  Alcotest.check_raises "too many sections"
    (Invalid_argument "Srp.create: more sections than warps") (fun () ->
      ignore (Srp.create ~n_warps:4 ~sections:5))

(* --- paired specialization ------------------------------------------- *)

let test_paired_basic () =
  let p = Srp_paired.create ~n_warps:48 ~enabled_pairs:24 in
  Alcotest.(check int) "pairs" 24 (Srp_paired.n_pairs p);
  (match Srp_paired.acquire p ~warp:4 with
  | Srp_paired.Granted -> ()
  | _ -> Alcotest.fail "grant");
  (* Partner (warp 5) must stall; unrelated warp 6 gets its own pair. *)
  (match Srp_paired.acquire p ~warp:5 with
  | Srp_paired.Stall -> ()
  | _ -> Alcotest.fail "partner stalls");
  (match Srp_paired.acquire p ~warp:6 with
  | Srp_paired.Granted -> ()
  | _ -> Alcotest.fail "other pair free");
  (match Srp_paired.release p ~warp:4 with
  | Srp_paired.Released -> ()
  | _ -> Alcotest.fail "release");
  (match Srp_paired.acquire p ~warp:5 with
  | Srp_paired.Granted -> ()
  | _ -> Alcotest.fail "partner acquires after release")

let test_paired_idempotent () =
  let p = Srp_paired.create ~n_warps:48 ~enabled_pairs:24 in
  ignore (Srp_paired.acquire p ~warp:0);
  (match Srp_paired.acquire p ~warp:0 with
  | Srp_paired.Already_held -> ()
  | _ -> Alcotest.fail "nested acquire no-op");
  (match Srp_paired.release p ~warp:1 with
  | Srp_paired.Not_held -> ()
  | _ -> Alcotest.fail "partner cannot release for me");
  Alcotest.(check bool) "still held" true (Srp_paired.holds p ~warp:0)

let test_paired_disabled_pairs () =
  let p = Srp_paired.create ~n_warps:48 ~enabled_pairs:2 in
  (match Srp_paired.acquire p ~warp:10 with
  | Srp_paired.Stall -> ()
  | _ -> Alcotest.fail "disabled pair always stalls")

let test_paired_reset () =
  let p = Srp_paired.create ~n_warps:48 ~enabled_pairs:24 in
  ignore (Srp_paired.acquire p ~warp:9);
  Alcotest.(check bool) "reset frees" true (Srp_paired.reset_warp p ~warp:9);
  Alcotest.(check bool) "idempotent" false (Srp_paired.reset_warp p ~warp:9)

(* Property: after any operation sequence, in_use equals the number of
   warps holding a section, and no section is shared. *)
let prop_srp_consistency =
  let gen =
    QCheck2.Gen.(list_size (int_bound 200) (pair bool (int_bound 47)))
  in
  Util.qtest "in_use matches holders after random ops" gen (fun ops ->
      let srp = Srp.create ~n_warps:48 ~sections:7 in
      List.iter
        (fun (acq, w) ->
          if acq then ignore (Srp.acquire srp ~warp:w)
          else ignore (Srp.release srp ~warp:w))
        ops;
      let holders = ref [] in
      for w = 0 to 47 do
        match Srp.holds srp ~warp:w with
        | Some s -> holders := s :: !holders
        | None -> ()
      done;
      let sections = List.sort compare !holders in
      List.length sections = Srp.in_use srp
      && List.length (List.sort_uniq compare sections) = List.length sections
      && Srp.free_sections srp = 7 - List.length sections)

(* The list-based definition [Srp.consistent] had before it became an
   allocation-free loop, kept as the reference: every held warp maps to a
   distinct acquired section in range, and the popcounts agree. *)
let reference_consistent srp =
  let status, bits, lut = Srp.raw srp in
  let holders = ref [] in
  for w = Bitmask.width status - 1 downto 0 do
    if Bitmask.test status w then holders := lut.(w) :: !holders
  done;
  let sections = List.sort_uniq compare !holders in
  List.length sections = List.length !holders
  && List.for_all
       (fun s -> s >= 0 && s < Bitmask.valid bits && Bitmask.test bits s)
       sections
  && Bitmask.popcount status = Bitmask.popcount bits

type op =
  | Acquire of int
  | Release of int
  | Set_lut of int * int  (* corrupt: point a warp at any section *)
  | Flip_status of int    (* corrupt: toggle a warp-status bit *)
  | Flip_srp of int       (* corrupt: toggle a usable SRP bit *)

(* Random grant/release sequences with occasional corruptions of the raw
   bookkeeping, so both answers of the check are exercised; the two
   definitions must agree after every step. *)
let prop_consistent_matches_reference =
  let gen =
    QCheck2.Gen.(
      let* n_warps = int_range 1 48 in
      let* sections = int_range 1 (min n_warps 8) in
      let warp = int_bound (n_warps - 1) in
      let op =
        frequency
          [ (4, map (fun w -> Acquire w) warp);
            (3, map (fun w -> Release w) warp);
            (1, map2 (fun w s -> Set_lut (w, s)) warp (int_range (-1) (sections + 1)));
            (1, map (fun w -> Flip_status w) warp);
            (1, map (fun s -> Flip_srp s) (int_bound (sections - 1))) ]
      in
      let* ops = list_size (int_bound 40) op in
      return (n_warps, sections, ops))
  in
  Util.qtest "consistent = list-based reference" gen (fun (n_warps, sections, ops) ->
      let srp = Srp.create ~n_warps ~sections in
      let status, bits, lut = Srp.raw srp in
      let flip m i = if Bitmask.test m i then Bitmask.clear m i else Bitmask.set m i in
      List.for_all
        (fun op ->
          (* On corrupted state an acquire or release may refuse with
             [Invalid_argument]; the check must still agree afterwards. *)
          (try
             match op with
             | Acquire w -> ignore (Srp.acquire srp ~warp:w)
             | Release w -> ignore (Srp.release srp ~warp:w)
             | Set_lut (w, s) -> lut.(w) <- s
             | Flip_status w -> flip status w
             | Flip_srp s -> flip bits s
           with Invalid_argument _ -> ());
          Srp.consistent srp = reference_consistent srp)
        ops)

let suite =
  [ Alcotest.test_case "acquire/release" `Quick test_acquire_release;
    Alcotest.test_case "idempotency" `Quick test_idempotency;
    Alcotest.test_case "stall and retry" `Quick test_stall_and_retry;
    Alcotest.test_case "reset on warp exit" `Quick test_reset_warp;
    Alcotest.test_case "distinct sections, FFZ reuse" `Quick test_distinct_sections;
    Alcotest.test_case "invalid creation" `Quick test_create_invalid;
    Alcotest.test_case "paired: basics" `Quick test_paired_basic;
    Alcotest.test_case "paired: idempotency" `Quick test_paired_idempotent;
    Alcotest.test_case "paired: disabled pairs" `Quick test_paired_disabled_pairs;
    Alcotest.test_case "paired: reset" `Quick test_paired_reset;
    prop_srp_consistency;
    prop_consistent_matches_reference ]
