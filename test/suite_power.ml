(* Power framework: units, characterization, profiles, components, DPA. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let test_units_pj_per_transition () =
  (* 0.5 * 400 fF * (2 V)^2 = 800 fJ = 0.8 pJ *)
  check_float "0.8 pJ" 0.8 (Power.Units.pj_per_transition ~capacitance_ff:400.0 ~vdd:2.0)

let test_units_power () =
  (* 1000 pJ over 100 cycles at 10 MHz: 1e-9 J / 1e-5 s = 1e-4 W = 100 uW. *)
  check_float "100 uW" 100.0
    (Power.Units.uw_of_pj_per_cycle ~pj:1000.0 ~cycles:100 ~clock_hz:1e7)

let test_units_pct_error () =
  check_float "-7.9" (-7.9) (Power.Units.pct_error ~reference:1000.0 921.0);
  check_bool "zero reference rejected" true
    (match Power.Units.pct_error ~reference:0.0 1.0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_characterization_default_positive () =
  List.iter
    (fun id ->
      check_bool "positive energy" true
        (Power.Characterization.energy_per_transition Power.Characterization.default id
        > 0.0))
    Ec.Signals.all

let test_characterization_derive () =
  let energy = Array.make Ec.Signals.count 0.0 in
  let transitions = Array.make Ec.Signals.count 0 in
  let idx = Ec.Signals.index (Ec.Signals.Addr 0) in
  energy.(idx) <- 12.0;
  transitions.(idx) <- 4;
  let t = Power.Characterization.derive ~name:"test" ~energy_pj:energy ~transitions in
  check_float "average" 3.0
    (Power.Characterization.energy_per_transition t (Ec.Signals.Addr 0));
  (* Untoggled wires fall back to the default. *)
  check_float "fallback"
    (Power.Characterization.energy_per_transition Power.Characterization.default
       (Ec.Signals.Wdata 0))
    (Power.Characterization.energy_per_transition t (Ec.Signals.Wdata 0))

let test_characterization_derive_validation () =
  check_bool "bad length rejected" true
    (match
       Power.Characterization.derive ~name:"bad" ~energy_pj:[| 1.0 |]
         ~transitions:[| 1 |]
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_characterization_scale () =
  let t = Power.Characterization.scale Power.Characterization.default 2.0 in
  check_float "doubled"
    (2.0
    *. Power.Characterization.energy_per_transition Power.Characterization.default
         (Ec.Signals.Addr 3))
    (Power.Characterization.energy_per_transition t (Ec.Signals.Addr 3))

let test_characterization_averages () =
  let t = Power.Characterization.default in
  (* All address wires share the default capacitance, so the group average
     equals any single wire. *)
  check_float "addr avg"
    (Power.Characterization.energy_per_transition t (Ec.Signals.Addr 0))
    (Power.Characterization.avg_addr_bit t)

let test_profile_basics () =
  let p = Power.Profile.create () in
  List.iter (Power.Profile.push p) [ 1.0; 2.0; 3.0; 4.0 ];
  check_int "length" 4 (Power.Profile.length p);
  check_float "total" 10.0 (Power.Profile.total p);
  check_float "max" 4.0 (Power.Profile.max_value p);
  check_float "window" 5.0 (Power.Profile.window_sum p ~lo:1 ~hi:3);
  check_float "window clamps" 10.0 (Power.Profile.window_sum p ~lo:(-5) ~hi:100)

let test_profile_growth () =
  let p = Power.Profile.create () in
  for i = 1 to 1000 do
    Power.Profile.push p (float_of_int i)
  done;
  check_int "grows" 1000 (Power.Profile.length p);
  check_float "kept values" 500500.0 (Power.Profile.total p)

let test_profile_lumped () =
  let p = Power.Profile.create () in
  List.iter (Power.Profile.push p) [ 1.0; 1.0; 1.0; 1.0; 1.0; 1.0 ];
  let lumps = Power.Profile.lumped p ~sample_points:[ 2; 4 ] in
  Alcotest.(check (list (pair int (float 1e-9))))
    "lumps cover profile"
    [ (2, 2.0); (4, 2.0); (6, 2.0) ]
    lumps

let test_profile_csv () =
  let p = Power.Profile.create () in
  Power.Profile.push p 1.5;
  match Power.Profile.to_csv_lines p with
  | [ header; row ] ->
    Alcotest.(check string) "header" "cycle,energy_pj" header;
    Alcotest.(check string) "row" "0,1.500000" row
  | _ -> Alcotest.fail "two lines expected"

let test_profile_sparkline () =
  let p = Power.Profile.create () in
  List.iter (Power.Profile.push p) [ 0.0; 8.0 ];
  let s = Power.Profile.sparkline p in
  check_int "two buckets" 2 (String.length s);
  check_bool "low then high" true (s.[0] = ' ' && s.[1] = '#')

let test_component_accounting () =
  let params =
    Power.Component.params ~idle_pj_per_cycle:0.5 ~active_pj_per_cycle:2.0
      ~access_pj:10.0 ()
  in
  (* Active on the first of three cycles: the owner's process counts it
     and parks; the two idle cycles are derived from the slot's edges. *)
  let k = Sim.Kernel.create () in
  let slot = Sim.Kernel.slot k ~name:"x" in
  let c = Power.Component.create ~name:"x" ~slot params in
  Sim.Kernel.bind slot (fun _ ->
      if Sim.Kernel.now k = 0 then Power.Component.count_active c
      else Sim.Kernel.park slot);
  Sim.Kernel.unpark slot;
  Sim.Kernel.run k ~cycles:3;
  Power.Component.access c;
  check_float "energy" (2.0 +. 1.0 +. 10.0) (Power.Component.energy_pj c);
  check_int "active" 1 (Power.Component.active_cycles c);
  check_int "idle" 2 (Power.Component.idle_cycles c);
  check_int "accesses" 1 (Power.Component.accesses c);
  Power.Component.reset c;
  check_float "reset" 0.0 (Power.Component.energy_pj c)

let test_component_validation () =
  check_bool "negative rejected" true
    (match Power.Component.params ~access_pj:(-1.0) () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_dpa_difference_of_means () =
  (* Selected traces carry a bump at sample 2. *)
  let traces =
    List.init 20 (fun i ->
        Array.init 5 (fun j ->
            (if j = 2 && i mod 2 = 0 then 3.0 else 1.0) +. (0.01 *. float_of_int i)))
  in
  let diff = Power.Dpa.difference_of_means ~traces ~select:(fun i -> i mod 2 = 0) in
  let peak_at, peak = Power.Dpa.peak_abs diff in
  check_int "peak sample" 2 peak_at;
  check_bool "peak magnitude" true (peak > 1.9)

let test_dpa_empty_partition () =
  check_bool "raises" true
    (match
       Power.Dpa.difference_of_means
         ~traces:[ [| 1.0 |]; [| 2.0 |] ]
         ~select:(fun _ -> true)
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_dpa_attack_recovers_key () =
  (* Synthetic leakage: trace sample 3 leaks bit0 of sbox(input xor key). *)
  let secret = 0x5A in
  let rng = Sim.Rng.create ~seed:77 in
  let inputs = List.init 256 (fun _ -> Sim.Rng.bits rng 8) in
  let traces =
    List.map
      (fun input ->
        let bit = Soc.Crypto.sbox (input lxor secret) land 1 in
        Array.init 6 (fun j ->
            (if j = 3 then float_of_int bit else 0.0)
            +. (0.3 *. Sim.Rng.float rng)))
      inputs
  in
  let model ~key ~input = Soc.Crypto.sbox (input lxor key) land 1 = 1 in
  let guesses = List.init 256 Fun.id in
  (match Power.Dpa.dpa_attack ~traces ~inputs ~model ~guesses with
  | (best, _) :: _ -> check_int "recovered key" secret best
  | [] -> Alcotest.fail "no guesses");
  let cpa_model ~key ~input =
    float_of_int (Power.Dpa.hamming_weight (Soc.Crypto.sbox (input lxor key)))
  in
  let hw_traces =
    List.map
      (fun input ->
        let hw = Power.Dpa.hamming_weight (Soc.Crypto.sbox (input lxor secret)) in
        Array.init 4 (fun j ->
            (if j = 1 then float_of_int hw else 0.0) +. (0.2 *. Sim.Rng.float rng)))
      inputs
  in
  match Power.Dpa.cpa_attack ~traces:hw_traces ~inputs ~model:cpa_model ~guesses with
  | (best, score) :: _ ->
    check_int "cpa recovered key" secret best;
    check_bool "high correlation" true (score > 0.8)
  | [] -> Alcotest.fail "no guesses"

let test_pearson () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "self correlation" 1.0 (Power.Dpa.pearson xs xs);
  let ys = Array.map (fun v -> -.v) xs in
  check_float "anti correlation" (-1.0) (Power.Dpa.pearson xs ys);
  check_float "constant is zero" 0.0 (Power.Dpa.pearson xs [| 1.0; 1.0; 1.0; 1.0 |])

let test_hamming_helpers () =
  check_int "weight" 4 (Power.Dpa.hamming_weight 0xF0);
  check_int "distance" 8 (Power.Dpa.hamming_distance 0xFF 0x00)

let test_snr_separates () =
  let group_a = List.init 10 (fun _ -> [| 1.0; 5.0 |]) in
  let group_b = List.init 10 (fun _ -> [| 1.0; 9.0 |]) in
  let traces = group_a @ group_b in
  let groups = List.init 20 (fun i -> if i < 10 then 0 else 1) in
  (* Zero noise within groups: snr is huge where means differ. *)
  check_bool "snr positive" true (Power.Dpa.snr ~traces ~groups >= 0.0)

let suite =
  [
    Alcotest.test_case "units pj per transition" `Quick test_units_pj_per_transition;
    Alcotest.test_case "units average power" `Quick test_units_power;
    Alcotest.test_case "units pct error" `Quick test_units_pct_error;
    Alcotest.test_case "characterization default positive" `Quick
      test_characterization_default_positive;
    Alcotest.test_case "characterization derive" `Quick test_characterization_derive;
    Alcotest.test_case "characterization derive validation" `Quick
      test_characterization_derive_validation;
    Alcotest.test_case "characterization scale" `Quick test_characterization_scale;
    Alcotest.test_case "characterization group averages" `Quick
      test_characterization_averages;
    Alcotest.test_case "profile basics" `Quick test_profile_basics;
    Alcotest.test_case "profile growth" `Quick test_profile_growth;
    Alcotest.test_case "profile lumped sampling" `Quick test_profile_lumped;
    Alcotest.test_case "profile csv" `Quick test_profile_csv;
    Alcotest.test_case "profile sparkline" `Quick test_profile_sparkline;
    Alcotest.test_case "component accounting" `Quick test_component_accounting;
    Alcotest.test_case "component validation" `Quick test_component_validation;
    Alcotest.test_case "dpa difference of means" `Quick test_dpa_difference_of_means;
    Alcotest.test_case "dpa empty partition" `Quick test_dpa_empty_partition;
    Alcotest.test_case "dpa+cpa recover key" `Quick test_dpa_attack_recovers_key;
    Alcotest.test_case "pearson correlation" `Quick test_pearson;
    Alcotest.test_case "hamming helpers" `Quick test_hamming_helpers;
    Alcotest.test_case "snr" `Quick test_snr_separates;
  ]

(* Bus coding analysis. *)

let test_coding_transitions () =
  check_int "simple count" (1 + 2 + 1)
    (Power.Coding.transitions ~width:8 [| 0b1; 0b10; 0b0 |]);
  check_int "empty-ish" 0 (Power.Coding.transitions ~width:8 [| 0; 0; 0 |])

let test_coding_gray_roundtrip () =
  for v = 0 to 1023 do
    check_int "roundtrip" v (Power.Coding.gray_decode (Power.Coding.gray_encode v))
  done

let test_coding_gray_sequential () =
  (* Gray-coded consecutive integers toggle exactly one wire each. *)
  let values = Array.init 64 (fun i -> i + 1) in
  (* First value contributes popcount(gray 1) = 1 from the zero state. *)
  check_int "one toggle per step" 64
    (Power.Coding.gray_transitions ~width:8 values)

let test_coding_bus_invert_bound () =
  (* Including the invert line, no transfer toggles more than width/2+1
     wires. *)
  let rng = Sim.Rng.create ~seed:55 in
  let values = Array.init 200 (fun _ -> Sim.Rng.bits rng 16) in
  let coded, _ = Power.Coding.bus_invert ~width:16 values in
  check_bool "per-word bound" true (coded <= 200 * ((16 / 2) + 1));
  (* All-complement sequences are the best case: plain toggles everything,
     bus-invert only the invert line. *)
  let worst = Array.init 10 (fun i -> if i mod 2 = 0 then 0xFFFF else 0x0000) in
  let plain = Power.Coding.transitions ~width:16 worst in
  let coded, inversions = Power.Coding.bus_invert ~width:16 worst in
  check_int "plain is pathological" (16 * 9 + 16) plain;
  check_bool "bus invert collapses it" true (coded <= 10);
  check_bool "inversions happened" true (inversions > 0)

let test_coding_analyze_report () =
  let r = Power.Coding.analyze ~width:8 [| 0xFF; 0x00; 0xFF |] in
  check_int "plain" (8 * 3) r.Power.Coding.plain;
  check_bool "bus invert saves" true
    (r.Power.Coding.bus_invert_savings_pct > 50.0);
  check_bool "empty rejected" true
    (match Power.Coding.analyze ~width:8 [||] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let coding_suite =
  [
    Alcotest.test_case "coding transitions" `Quick test_coding_transitions;
    Alcotest.test_case "coding gray roundtrip" `Quick test_coding_gray_roundtrip;
    Alcotest.test_case "coding gray sequential" `Quick test_coding_gray_sequential;
    Alcotest.test_case "coding bus-invert bounds" `Quick test_coding_bus_invert_bound;
    Alcotest.test_case "coding analyze report" `Quick test_coding_analyze_report;
  ]

let suite = suite @ coding_suite

(* Power budgets (the paper's section 1 motivation). *)

let test_budget_current_math () =
  (* 1000 pJ over 100 cycles at 10 MHz = 0.1 mW; at 5 V that is 0.02 mA. *)
  check_float "current" 0.02
    (Power.Budget.average_current_ma ~energy_pj:1000.0 ~cycles:100
       ~clock_hz:1e7 ~supply_v:5.0);
  check_float "empty interval" 0.0
    (Power.Budget.average_current_ma ~energy_pj:1.0 ~cycles:0 ~clock_hz:1e7
       ~supply_v:5.0)

let test_budget_verdicts () =
  let ok =
    Power.Budget.check Power.Budget.gsm_contact ~energy_pj:1000.0 ~cycles:100
  in
  check_bool "tiny workload within gsm" true ok.Power.Budget.within;
  check_bool "headroom positive" true (ok.Power.Budget.headroom_pct > 0.0);
  (* 5 J over one 100 ns cycle is absurd on purpose. *)
  let over =
    Power.Budget.check Power.Budget.contactless_rf ~energy_pj:5e12 ~cycles:1
  in
  check_bool "over budget detected" false over.Power.Budget.within

let test_budget_realistic_workload () =
  (* The bus-exercise program must fit the contact budget comfortably at
     10 MHz with our synthetic magnitudes. *)
  let run = Core.Runner.run_program (Soc.Asm.assemble Core.Test_programs.bus_exercise) in
  let r = run.Core.Runner.result in
  let verdict =
    Power.Budget.check Power.Budget.gsm_contact
      ~energy_pj:(r.Core.Runner.bus_pj +. r.Core.Runner.component_pj)
      ~cycles:r.Core.Runner.cycles
  in
  check_bool "within gsm budget" true verdict.Power.Budget.within

let budget_suite =
  [
    Alcotest.test_case "budget current math" `Quick test_budget_current_math;
    Alcotest.test_case "budget verdicts" `Quick test_budget_verdicts;
    Alcotest.test_case "budget realistic workload" `Quick
      test_budget_realistic_workload;
  ]

let suite = suite @ budget_suite
