(* Json_check's printer on hostile inputs and the reproduction report —
   including the gate's negative tests: a moved metric, a malformed
   baseline row, a missing or stale key and a broken invariant must all
   fail. *)

module J = Telemetry.Json_check
module Report = Experiments.Report

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- Json_check.to_string edge cases --------------------------------- *)

let test_json_escapes () =
  (* Every byte class the escaper must handle: quote, backslash, the
     named controls, an arbitrary low control, and 8-bit bytes (passed
     through untouched — the printer is encoding-agnostic). *)
  let hostile = "a\"b\\c\nd\te\rf\bg\012h\000i\031j\127caf\xc3\xa9" in
  let s = J.to_string (J.Str hostile) in
  Alcotest.(check bool) "no raw newline in output" true
    (not (String.contains s '\n'));
  (match J.parse s with
  | J.Str back -> Alcotest.(check string) "escape round-trip" hostile back
  | _ -> Alcotest.fail "did not parse back to a string");
  (* A key made of nothing but escapes survives an object round-trip. *)
  let obj = J.Obj [ (hostile, J.Bool true) ] in
  match J.parse (J.to_string obj) with
  | J.Obj [ (k, J.Bool true) ] -> Alcotest.(check string) "key survives" hostile k
  | _ -> Alcotest.fail "object round-trip failed"

let test_json_non_finite () =
  (* JSON has no NaN/Infinity literal: the printer must emit null, never
     an unparseable token. *)
  List.iter
    (fun v ->
      Alcotest.(check string) "non-finite prints null" "null"
        (J.to_string (J.Num v)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  let s = J.to_string (J.Obj [ ("ok", J.Num 1.5); ("bad", J.Num Float.nan) ]) in
  match J.parse s with
  | J.Obj [ ("ok", J.Num v); ("bad", J.Null) ] ->
      Alcotest.(check (float 0.)) "finite neighbour intact" 1.5 v
  | _ -> Alcotest.failf "unexpected parse of %s" s

let test_json_floats_round_trip () =
  List.iter
    (fun v ->
      match J.parse (J.to_string (J.Num v)) with
      | J.Num back ->
          Alcotest.(check bool)
            (Printf.sprintf "%h round-trips" v)
            true
            (Float.equal back v)
      | _ -> Alcotest.fail "not a number")
    [ 0.; -0.; 1.; -1.; 0.1; 1e-300; 1e300; 4096.; 3.565;
      Float.max_float; Float.min_float; 1. /. 3. ]

let test_json_deep_nesting () =
  (* 2000 levels of list nesting: printer and parser must both be
     iterative enough (or stack-frugal enough) to survive. *)
  let depth = 2000 in
  let rec build n = if n = 0 then J.Num 1. else J.List [ build (n - 1) ] in
  let deep = build depth in
  let s = J.to_string deep in
  let rec peel n j =
    match j with
    | J.List [ inner ] -> peel (n + 1) inner
    | J.Num _ -> n
    | _ -> Alcotest.fail "unexpected shape"
  in
  Alcotest.(check int) "depth preserved" depth (peel 0 (J.parse s))

(* --- reproduction report ------------------------------------------------ *)

let with_temp_dir f =
  let dir = Filename.temp_file "regmutex_report" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let write dir name s =
  let oc = open_out (Filename.concat dir name) in
  output_string oc s;
  close_out oc

(* The measuring pass on a small cell set: one Figure-1 kernel (which
   RegDem demotes) as the uniform and --simt set, the divergent registry,
   every grid at its 4-CTA minimum. *)
let small_cfg = { Experiments.Exp_config.quick with grid_scale = 0. }

let small_snapshot =
  lazy
    (Report.measure
       ~cells:
         {
           Report.uniform = [ Workloads.Registry.find "SAD" ];
           simt = [ Workloads.Registry.find "SAD" ];
           divergent = Workloads.Registry.divergent;
         }
       small_cfg)

let metric key value = { Report.key; value }

let test_report_measure () =
  let snap = Lazy.force small_snapshot in
  Alcotest.(check (list string))
    "metric keys"
    [ "regdem.mean_occupancy_gain"; "regdem.mean_energy_factor";
      "total.cycles"; "total.instructions"; "total.issue_checks";
      "total.divergent_branches" ]
    (List.map (fun m -> m.Report.key) snap.Report.metrics);
  List.iter
    (fun i ->
      Alcotest.(check (list string)) i.Report.inv_key [] i.Report.failing)
    snap.Report.invariants;
  Alcotest.(check int) "six invariants" 6 (List.length snap.Report.invariants);
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (m.Report.key ^ " positive")
        true (m.Report.value > 0.))
    snap.Report.metrics

let test_report_baseline_round_trip () =
  with_temp_dir (fun dir ->
      let snap = Lazy.force small_snapshot in
      let path = Filename.concat dir "report.json" in
      Report.write_baseline path snap;
      (match Report.load_baseline path with
      | Error e -> Alcotest.failf "load_baseline: %s" e
      | Ok base ->
          Alcotest.(check bool) "every value persisted exactly" true
            (base = snap.Report.metrics);
          Alcotest.(check (list string)) "self-check passes" []
            (Report.check snap base));
      (* Malformed baselines are errors, never silently thinned rows. *)
      let rows r = Printf.sprintf "{\"metrics\": [%s]}" r in
      List.iter
        (fun (what, text) ->
          write dir "bad.json" text;
          match Report.load_baseline (Filename.concat dir "bad.json") with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "%s loaded" what)
        [ ("string value", rows {|{"key":"a","value":"1.72"}|});
          ("null value", rows {|{"key":"a","value":null}|});
          ("missing value", rows {|{"key":"a"}|});
          ("numeric key", rows {|{"key":1,"value":1}|});
          ("extra field", rows {|{"key":"a","value":1,"config":"quick"}|});
          ("non-object row", rows "1");
          ( "duplicate key",
            rows {|{"key":"a","value":1},{"key":"a","value":1}|} );
          ("no metrics array", {|{"rows": []}|});
          ("not an object", "[]");
          ("not json", "{not json") ];
      match Report.load_baseline (Filename.concat dir "absent.json") with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "missing file loaded")

(* Exact comparison: every metric moved by 20% in either direction, or
   by one ulp, fails on its own. *)
let test_report_synthetic_regression () =
  let snap =
    {
      Report.metrics =
        [ metric "regdem.mean_occupancy_gain" 1.72; metric "total.cycles" 1e6 ];
      invariants = [ { Report.inv_key = "ff_bf.identical"; failing = [] } ];
    }
  in
  let moved f =
    List.map
      (fun m -> { m with Report.value = f m.Report.value })
      snap.Report.metrics
  in
  List.iter
    (fun (what, f) ->
      Alcotest.(check int) what 2 (List.length (Report.check snap (moved f))))
    [ ("20% down", ( *. ) 0.8); ("20% up", ( *. ) 1.2);
      ("one ulp", Float.succ) ];
  Alcotest.(check bool) "a lower baseline fails too" true
    (List.exists
       (fun f -> contains f "regdem.mean_occupancy_gain")
       (Report.check snap
          [ metric "regdem.mean_occupancy_gain" 0.5;
            metric "total.cycles" 1e6 ]));
  Alcotest.(check (list string)) "unchanged passes" []
    (Report.check snap (moved Fun.id))

let test_report_invariants_and_key_failures () =
  let snap failing =
    {
      Report.metrics = [ metric "total.cycles" 10. ];
      invariants = [ { Report.inv_key = "ff_bf.identical"; failing } ];
    }
  in
  let base = [ metric "total.cycles" 10. ] in
  (* A broken invariant fails against a matching baseline and names its
     cells. *)
  Alcotest.(check bool) "broken invariant fails" true
    (List.exists
       (fun f -> contains f "ff_bf.identical" && contains f "BFS/regmutex")
       (Report.check (snap [ "BFS/regmutex" ]) base));
  (* A metric the baseline lacks fails: a new metric is pinned on purpose. *)
  Alcotest.(check bool) "missing key fails" true
    (List.exists
       (fun f -> contains f "total.cycles" && contains f "not in baseline")
       (Report.check (snap []) []));
  (* A baseline key nothing measures any more fails too. *)
  Alcotest.(check bool) "stale baseline key fails" true
    (List.exists
       (fun f ->
         contains f "retired.speedup"
         && contains f "in baseline but not measured")
       (Report.check (snap []) (metric "retired.speedup" 2. :: base)))

let test_report_repo_root () =
  match Report.find_repo_root () with
  | None -> Alcotest.fail "dune-project not found from the test's cwd"
  | Some root ->
      Alcotest.(check bool) "root has dune-project" true
        (Sys.file_exists (Filename.concat root "dune-project"))

let suite =
  [ Alcotest.test_case "json: escape-heavy strings round-trip" `Quick
      test_json_escapes;
    Alcotest.test_case "json: non-finite floats print null" `Quick
      test_json_non_finite;
    Alcotest.test_case "json: float formatting round-trips" `Quick
      test_json_floats_round_trip;
    Alcotest.test_case "json: 2000-deep nesting survives" `Quick
      test_json_deep_nesting;
    Alcotest.test_case "report: measured snapshot holds every invariant"
      `Quick test_report_measure;
    Alcotest.test_case "report: baseline round-trip self-check" `Quick
      test_report_baseline_round_trip;
    Alcotest.test_case "report: 20% synthetic regression fails" `Quick
      test_report_synthetic_regression;
    Alcotest.test_case "report: invariants and missing/stale-key failures"
      `Quick test_report_invariants_and_key_failures;
    Alcotest.test_case "report: repo root discovery" `Quick
      test_report_repo_root ]
