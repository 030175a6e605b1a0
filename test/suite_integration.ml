(* End-to-end reproduction checks: the paper's result bands, the JCVM
   exploration, and the DPA story. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Shared across the slow accuracy checks (characterization is the
   expensive part). *)
let accuracy_rows = lazy (Core.Experiments.run_accuracy ())

let row level =
  List.find (fun r -> r.Core.Experiments.level = level) (Lazy.force accuracy_rows)

(* Table 1: layer 1 is cycle-exact; layer 2 within a few percent,
   overestimating. *)
let test_table1_bands () =
  let rtl = row Core.Level.Rtl in
  let l1 = row Core.Level.L1 in
  let l2 = row Core.Level.L2 in
  check_int "l1 exact" rtl.Core.Experiments.cycles l1.Core.Experiments.cycles;
  check_bool "table 1 renders" true
    (String.length (Core.Experiments.render_table1 (Lazy.force accuracy_rows)) > 0);
  check_bool
    (Printf.sprintf "l2 error %+.2f%% in (0, 3]" l2.Core.Experiments.cycle_err_pct)
    true
    (l2.Core.Experiments.cycle_err_pct > 0.0
    && l2.Core.Experiments.cycle_err_pct <= 3.0)

(* Table 2: layer 1 underestimates by roughly 8%, layer 2 overestimates
   by roughly 15% (paper: -7.8% / +14.7%). *)
let test_table2_bands () =
  let l1 = row Core.Level.L1 in
  let l2 = row Core.Level.L2 in
  check_bool "table 2 renders" true
    (String.length (Core.Experiments.render_table2 (Lazy.force accuracy_rows)) > 0);
  check_bool
    (Printf.sprintf "l1 error %+.2f%% in [-12, -4]" l1.Core.Experiments.energy_err_pct)
    true
    (l1.Core.Experiments.energy_err_pct <= -4.0
    && l1.Core.Experiments.energy_err_pct >= -12.0);
  check_bool
    (Printf.sprintf "l2 error %+.2f%% in [8, 25]" l2.Core.Experiments.energy_err_pct)
    true
    (l2.Core.Experiments.energy_err_pct >= 8.0
    && l2.Core.Experiments.energy_err_pct <= 25.0)

(* Table 3 shape, as work the simulator counts rather than wall-clock
   throughput, so it holds on any host.  Each configuration replays the
   Table 3 mix serially, as [run_performance] does, on a fresh system; its
   work is the kernel's process runs plus the estimator's own units: Diesel
   words scanned and wire bits visited (rtl), layer-1 transition words,
   layer-2 phase lumps.  The wall-clock table stays in [smartcard tables]
   and the perfbench replay workload. *)
let table3_work level ~estimate =
  let system = ref None in
  ignore
    (Core.Runner.run_trace ~level ~estimate ~mode:`Serial
       ~init:(fun s -> system := Some s)
       (Core.Workloads.table3_trace ~n:1000));
  let s = Option.get !system in
  let process_runs =
    List.fold_left (fun acc (_, n) -> acc + n) 0
      (Sim.Kernel.runs (Core.System.kernel s))
  in
  let estimator_work =
    match Core.System.bus s with
    | Core.System.Rtl_bus b ->
      let d = Rtl.Bus.diesel b in
      Rtl.Diesel.words_scanned d + Rtl.Diesel.bits_visited d
    | Core.System.L1_bus b ->
      Option.fold ~none:0 ~some:Tlm1.Energy.transition_words
        (Tlm1.Bus.energy b)
    | Core.System.L2_bus b ->
      Option.fold ~none:0 ~some:Tlm2.Energy.lumps (Tlm2.Bus.energy b)
  in
  process_runs + estimator_work

let test_table3_shape () =
  check_bool "table 3 renders" true
    (String.length
       (Core.Experiments.render_table3
          (Core.Experiments.run_performance ~txns:100 ()))
    > 0);
  let l1_est = table3_work Core.Level.L1 ~estimate:true in
  let l1_raw = table3_work Core.Level.L1 ~estimate:false in
  let l2_est = table3_work Core.Level.L2 ~estimate:true in
  let l2_raw = table3_work Core.Level.L2 ~estimate:false in
  let rtl = table3_work Core.Level.Rtl ~estimate:true in
  check_bool "estimation costs speed (l1)" true (l1_est > l1_raw);
  check_bool "estimation not faster (l2)" true (l2_est > l2_raw);
  check_bool "l2 faster than l1" true (l2_est < l1_est);
  check_bool "rtl much slower" true (rtl > 2 * l1_est)

(* Figure 6: both estimates account the same transactions; the lumped
   samples sum to the layer-2 total; layer 1 spreads energy over more
   cycles than layer 2 has lumps. *)
let test_figure6_semantics () =
  let f = Core.Experiments.run_figure6 () in
  check_bool "figure 6 renders" true
    (String.length (Core.Experiments.render_figure6 f) > 0);
  let lump_sum = List.fold_left (fun acc (_, e) -> acc +. e) 0.0 f.Core.Experiments.l2_lumps in
  Alcotest.(check (float 1e-6)) "lumps sum to total" f.Core.Experiments.l2_total lump_sum;
  check_int "two samples" 2 (List.length f.Core.Experiments.l2_lumps);
  let nonzero = ref 0 in
  let p = f.Core.Experiments.l1_profile in
  for i = 0 to Power.Profile.length p - 1 do
    if Power.Profile.get p i > 0.0 then incr nonzero
  done;
  check_bool "l1 cycle-accurate profile" true (!nonzero > 2)

(* Section 4.3: the exploration separates configurations and never breaks
   functionality. *)
let test_exploration_sanity () =
  let rows =
    Core.Exploration.run ~applets:[ Jcvm.Applets.wallet ] ()
  in
  List.iter
    (fun r -> check_bool (r.Core.Exploration.config.Jcvm.Configs.name ^ " ok") true
        r.Core.Exploration.correct)
    rows;
  let energy name =
    (List.find
       (fun r -> r.Core.Exploration.config.Jcvm.Configs.name = name)
       rows)
      .Core.Exploration.bus_pj
  in
  (* Expected ordering of the design space. *)
  check_bool "packed beats plain 16-bit" true
    (energy "w32-packed" < energy "w16-dedicated");
  check_bool "16-bit beats 8-bit" true
    (energy "w16-dedicated" < energy "w8-dedicated");
  check_bool "dedicated beats cmd+data" true
    (energy "w16-dedicated" < energy "w16-cmd+data");
  check_bool "compact map beats spread map" true
    (energy "w16-cmd+data" < energy "w16-cmd+data-spread")

let test_exploration_levels_agree_on_ranking () =
  (* Layer 2 is less accurate and may swap near-tied configurations, but
     it must agree with layer 1 on the winner and the loser for the
     design decision to be safe. *)
  let ranking level =
    Core.Exploration.run ~level ~applets:[ Jcvm.Applets.fib ] ()
    |> List.sort (fun a b -> compare a.Core.Exploration.bus_pj b.Core.Exploration.bus_pj)
    |> List.map (fun r -> r.Core.Exploration.config.Jcvm.Configs.name)
  in
  let l1 = ranking Core.Level.L1 and l2 = ranking Core.Level.L2 in
  Alcotest.(check string) "same winner" (List.hd l1) (List.hd l2);
  Alcotest.(check string) "same loser"
    (List.hd (List.rev l1))
    (List.hd (List.rev l2))

(* Power analysis: DPA on simulated layer-1 bus traces of the crypto
   coprocessor recovers a key byte; the masked readout defeats it. *)
let crypto_traces ~masked ~n =
  let rng = Sim.Rng.create ~seed:0xD1A in
  let key = 0x0000003C in
  let inputs = List.init n (fun _ -> Sim.Rng.bits rng 8) in
  let trace_index = ref 0 in
  let traces =
    List.map
      (fun pt ->
        incr trace_index;
        (* Each encryption runs on its own card instance with its own
           random streams (a shared mask stream would be a broken RNG). *)
        let system =
          Core.System.create ~level:Core.Level.L1 ~record_profile:true
            ~seed:!trace_index ()
        in
        let kernel = Core.System.kernel system in
        let port = Core.System.port system in
        let ids = Ec.Txn.Id_gen.create () in
        let transact txn =
          assert (port.Ec.Port.try_submit txn);
          ignore
            (Sim.Kernel.run_until kernel ~max_cycles:10_000 (fun () ->
                 Ec.Port.completed port txn.Ec.Txn.id));
          port.Ec.Port.retire txn.Ec.Txn.id;
          txn.Ec.Txn.data.(0)
        in
        let base = Soc.Platform.Map.crypto_base in
        let wr addr v =
          ignore
            (transact
               (Ec.Txn.single_write ~id:(Ec.Txn.Id_gen.fresh ids) addr ~value:v))
        in
        let rd addr =
          transact (Ec.Txn.single_read ~id:(Ec.Txn.Id_gen.fresh ids) addr)
        in
        wr (base + 0x00) key;
        wr (base + 0x04) pt;
        wr (base + 0x08) (if masked then 0b11 else 0b01);
        let rec wait_done () =
          if rd (base + 0x0C) land 2 = 0 then wait_done ()
        in
        wait_done ();
        let ct = rd (base + 0x10) in
        let ct =
          if masked then begin
            (* Read a constant register between DOUT and MASK: a
               back-to-back DOUT/MASK read would put ct^m and m on
               consecutive read-data cycles, whose Hamming distance IS
               HW(ct) — the mask would leak its own removal. *)
            ignore (rd (base + 0x0C));
            ct lxor rd (base + 0x14)
          end
          else ct
        in
        ignore ct;
        match Core.System.profile system with
        | Some p -> Power.Profile.to_array p
        | None -> assert false)
      inputs
  in
  (inputs, traces, key)

(* Hypothetical leakage: Hamming weight of the predicted ciphertext byte
   on the read-data bus. *)
let hw_model ~key ~input =
  float_of_int (Power.Dpa.hamming_weight (Soc.Crypto.sbox (input lxor key)))

let test_cpa_recovers_unprotected_key () =
  let inputs, traces, key = crypto_traces ~masked:false ~n:150 in
  match
    Power.Dpa.cpa_attack ~traces ~inputs ~model:hw_model
      ~guesses:(List.init 256 Fun.id)
  with
  | (best, score) :: _ ->
    check_int "key byte recovered" (key land 0xFF) best;
    check_bool "correlation meaningful" true (score > 0.3)
  | [] -> Alcotest.fail "no result"

let test_masked_readout_blunts_cpa () =
  let inputs, traces, key = crypto_traces ~masked:true ~n:150 in
  let scores =
    Power.Dpa.cpa_attack ~traces ~inputs ~model:hw_model
      ~guesses:(List.init 256 Fun.id)
  in
  (* The right key must not stand out: either someone else ranks first or
     the margin over the runner-up is small. *)
  match scores with
  | (best, s0) :: (_, s1) :: _ ->
    check_bool "no clear leak" true (best <> key land 0xFF || s0 < 1.3 *. s1)
  | _ -> Alcotest.fail "no result"

let suite =
  [
    Alcotest.test_case "table 1 bands" `Slow test_table1_bands;
    Alcotest.test_case "table 2 bands" `Slow test_table2_bands;
    Alcotest.test_case "table 3 shape" `Slow test_table3_shape;
    Alcotest.test_case "figure 6 semantics" `Quick test_figure6_semantics;
    Alcotest.test_case "exploration sanity" `Slow test_exploration_sanity;
    Alcotest.test_case "exploration rankings agree" `Slow
      test_exploration_levels_agree_on_ranking;
    Alcotest.test_case "cpa recovers unprotected key" `Slow
      test_cpa_recovers_unprotected_key;
    Alcotest.test_case "masked readout blunts cpa" `Slow
      test_masked_readout_blunts_cpa;
  ]
