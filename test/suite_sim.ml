(* Simulation kernel, signals and RNG. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_kernel_time_advances () =
  let k = Sim.Kernel.create () in
  check_int "starts at 0" 0 (Sim.Kernel.now k);
  Sim.Kernel.run k ~cycles:7;
  check_int "after 7" 7 (Sim.Kernel.now k)

let test_kernel_edge_order () =
  let k = Sim.Kernel.create () in
  let log = ref [] in
  Sim.Kernel.on_falling k ~name:"f" (fun _ -> log := "f" :: !log);
  Sim.Kernel.on_rising k ~name:"r" (fun _ -> log := "r" :: !log);
  Sim.Kernel.step k;
  Alcotest.(check (list string)) "rising then falling" [ "r"; "f" ] (List.rev !log)

let test_kernel_registration_order () =
  let k = Sim.Kernel.create () in
  let log = ref [] in
  Sim.Kernel.on_rising k ~name:"a" (fun _ -> log := 1 :: !log);
  Sim.Kernel.on_rising k ~name:"b" (fun _ -> log := 2 :: !log);
  Sim.Kernel.step k;
  Alcotest.(check (list int)) "in registration order" [ 1; 2 ] (List.rev !log)

let test_kernel_stop_mid_run () =
  let k = Sim.Kernel.create () in
  Sim.Kernel.on_rising k ~name:"stopper" (fun k ->
      if Sim.Kernel.now k = 4 then Sim.Kernel.stop k);
  Sim.Kernel.run k ~cycles:100;
  check_bool "stopped" true (Sim.Kernel.stopped k);
  check_int "stopped after cycle 4 completed" 5 (Sim.Kernel.now k)

let test_kernel_run_until () =
  let k = Sim.Kernel.create () in
  let count = ref 0 in
  Sim.Kernel.on_rising k ~name:"count" (fun _ -> incr count);
  let consumed = Sim.Kernel.run_until k (fun () -> !count >= 10) in
  check_int "ten cycles" 10 consumed

let test_kernel_run_until_raises () =
  let k = Sim.Kernel.create () in
  Alcotest.check_raises "timeout"
    (Failure "Sim.Kernel.run_until: no completion after 5 cycles")
    (fun () -> ignore (Sim.Kernel.run_until k ~max_cycles:5 (fun () -> false)))

let test_kernel_late_registration () =
  let k = Sim.Kernel.create () in
  let hits = ref 0 in
  Sim.Kernel.run k ~cycles:3;
  Sim.Kernel.on_rising k ~name:"late" (fun _ -> incr hits);
  Sim.Kernel.run k ~cycles:2;
  check_int "late process runs" 2 !hits

let test_kernel_process_names () =
  let k = Sim.Kernel.create () in
  Sim.Kernel.on_rising k ~name:"r1" (fun _ -> ());
  Sim.Kernel.on_falling k ~name:"f1" (fun _ -> ());
  Alcotest.(check (list string)) "names" [ "r1"; "f1" ] (Sim.Kernel.process_names k)

(* Two-phase signals: the gate-level model's packed wire words
   (Rtl.Wires), with the per-wire transitions its Diesel estimator counts
   as each cycle commits. *)

let wire_set () =
  let w = Rtl.Wires.create ~n_slaves:4 in
  (w, Rtl.Diesel.create w)

let be_transitions d =
  Array.sub (Rtl.Diesel.per_signal_transitions d)
    (Ec.Signals.index (Ec.Signals.Be 0))
    Ec.Signals.be_wires

let test_signal_initial () =
  let w, d = wire_set () in
  check_int "current 0" 0 w.Rtl.Wires.wdata;
  check_int "next 0" 0 w.Rtl.Wires.wdata_next;
  check_int "no transitions" 0 (Rtl.Diesel.transitions_total d)

let test_signal_commit_counts () =
  let w, d = wire_set () in
  Rtl.Wires.set_be w 0xF;
  Rtl.Diesel.observe_and_commit d;
  check_int "four toggles" 4 (Rtl.Diesel.transitions_total d);
  check_int "committed" 0xF w.Rtl.Wires.be;
  Rtl.Wires.set_be w 0x3;
  Rtl.Diesel.observe_and_commit d;
  Alcotest.(check (array int)) "falls after clearing high half" [| 1; 1; 2; 2 |]
    (be_transitions d)

let test_signal_masking () =
  let w, _ = wire_set () in
  Rtl.Wires.set_be w 0xFF;
  Rtl.Wires.commit_all w;
  check_int "masked to width" 0xF w.Rtl.Wires.be

let test_signal_idempotent_commit () =
  let w, d = wire_set () in
  Rtl.Wires.set_wdata w 0xA5;
  Rtl.Diesel.observe_and_commit d;
  let after_first = Rtl.Diesel.transitions_total d in
  Rtl.Diesel.observe_and_commit d;
  check_int "no change, no toggle" after_first (Rtl.Diesel.transitions_total d)

let test_signal_per_bit () =
  let w, d = wire_set () in
  Rtl.Wires.set_be w 0b0101;
  Rtl.Diesel.observe_and_commit d;
  Rtl.Wires.set_be w 0b0110;
  Rtl.Diesel.observe_and_commit d;
  Alcotest.(check (array int)) "per bit" [| 2; 1; 1; 0 |] (be_transitions d)

let test_signal_reset_counters () =
  let w, d = wire_set () in
  Rtl.Wires.set_wdata w 0xFF;
  Rtl.Diesel.observe_and_commit d;
  Rtl.Diesel.reset d;
  check_int "cleared" 0 (Rtl.Diesel.transitions_total d);
  check_int "value preserved" 0xFF w.Rtl.Wires.wdata

let test_signal_width_validation () =
  Alcotest.check_raises "no slave" (Invalid_argument "Rtl.Wires.create")
    (fun () -> ignore (Rtl.Wires.create ~n_slaves:0));
  Alcotest.check_raises "63 slaves" (Invalid_argument "Rtl.Wires.create")
    (fun () -> ignore (Rtl.Wires.create ~n_slaves:63))

let test_popcount () =
  check_int "zero" 0 (Sim.Bits.popcount 0);
  check_int "one bit" 1 (Sim.Bits.popcount 0x8000);
  check_int "byte" 8 (Sim.Bits.popcount 0xFF);
  check_int "alternating" 16 (Sim.Bits.popcount 0xAAAAAAAA)

let test_rng_determinism () =
  let a = Sim.Rng.create ~seed:42 and b = Sim.Rng.create ~seed:42 in
  for _ = 1 to 50 do
    check_int "same stream" (Sim.Rng.next64 a) (Sim.Rng.next64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Sim.Rng.create ~seed:1 and b = Sim.Rng.create ~seed:2 in
  check_bool "different seeds diverge" true
    (Sim.Rng.next64 a <> Sim.Rng.next64 b)

let test_rng_bounds () =
  let rng = Sim.Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int rng 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 1000 do
    let v = Sim.Rng.bits rng 12 in
    check_bool "bits in range" true (v >= 0 && v < 4096)
  done;
  for _ = 1 to 100 do
    let f = Sim.Rng.float rng in
    check_bool "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_split_independent () =
  let a = Sim.Rng.create ~seed:9 in
  let b = Sim.Rng.split a in
  check_bool "split diverges from parent" true
    (Sim.Rng.next64 a <> Sim.Rng.next64 b)

let suite =
  [
    Alcotest.test_case "kernel time advances" `Quick test_kernel_time_advances;
    Alcotest.test_case "kernel rising before falling" `Quick test_kernel_edge_order;
    Alcotest.test_case "kernel registration order" `Quick test_kernel_registration_order;
    Alcotest.test_case "kernel stop mid run" `Quick test_kernel_stop_mid_run;
    Alcotest.test_case "kernel run_until" `Quick test_kernel_run_until;
    Alcotest.test_case "kernel run_until timeout" `Quick test_kernel_run_until_raises;
    Alcotest.test_case "kernel late registration" `Quick test_kernel_late_registration;
    Alcotest.test_case "kernel process names" `Quick test_kernel_process_names;
    Alcotest.test_case "signal initial state" `Quick test_signal_initial;
    Alcotest.test_case "signal commit counts edges" `Quick test_signal_commit_counts;
    Alcotest.test_case "signal masks to width" `Quick test_signal_masking;
    Alcotest.test_case "signal idempotent commit" `Quick test_signal_idempotent_commit;
    Alcotest.test_case "signal per-bit counters" `Quick test_signal_per_bit;
    Alcotest.test_case "signal reset counters" `Quick test_signal_reset_counters;
    Alcotest.test_case "signal width validation" `Quick test_signal_width_validation;
    Alcotest.test_case "popcount" `Quick test_popcount;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
  ]

(* --- parked processes --- *)

let logger k log name =
  let h = Sim.Kernel.slot k ~name in
  Sim.Kernel.bind h (fun _ -> log := name :: !log);
  Sim.Kernel.unpark h;
  h

let step_log k log =
  log := [];
  Sim.Kernel.step k;
  List.rev !log

let test_park_keeps_slot () =
  let k = Sim.Kernel.create () in
  let log = ref [] in
  let _a = logger k log "a" in
  let b = logger k log "b" in
  let _c = logger k log "c" in
  Sim.Kernel.park b;
  Alcotest.(check (list string)) "b parked" [ "a"; "c" ] (step_log k log);
  Sim.Kernel.unpark b;
  Alcotest.(check (list string)) "b back in its slot" [ "a"; "b"; "c" ]
    (step_log k log);
  Sim.Kernel.unpark b;
  Alcotest.(check (list string)) "unpark is idempotent" [ "a"; "b"; "c" ]
    (step_log k log);
  Alcotest.(check (list (pair string int))) "runs"
    [ ("a", 3); ("b", 2); ("c", 3) ] (Sim.Kernel.runs k)

let test_unpark_mid_edge () =
  (* A process woken by an earlier slot runs on the same edge; one woken
     by a later slot waits for the next edge — where it would have run
     had it never been parked. *)
  let k = Sim.Kernel.create () in
  let log = ref [] in
  let early = Sim.Kernel.slot k ~name:"early" in
  let waker = Sim.Kernel.slot k ~name:"waker" in
  let late = Sim.Kernel.slot k ~name:"late" in
  let once name h =
    Sim.Kernel.bind h (fun _ ->
        log := name :: !log;
        Sim.Kernel.park h)
  in
  once "early" early;
  once "late" late;
  Sim.Kernel.bind waker (fun _ ->
      log := "waker" :: !log;
      Sim.Kernel.park waker;
      Sim.Kernel.unpark early;
      Sim.Kernel.unpark late);
  Sim.Kernel.unpark waker;
  Alcotest.(check (list string)) "late runs now" [ "waker"; "late" ]
    (step_log k log);
  Alcotest.(check (list string)) "early runs next edge" [ "early" ]
    (step_log k log);
  Alcotest.(check (list string)) "all parked" [] (step_log k log)

let test_slot_edges () =
  (* Inside a rising edge a slot counts that edge once the edge has
     passed it: [mid] sits between [s0] and [s2]. *)
  let k = Sim.Kernel.create () in
  let seen = ref [] in
  let s0 = Sim.Kernel.slot k ~name:"s0" in
  let s2 = ref None in
  Sim.Kernel.on_rising k ~name:"mid" (fun _ ->
      let e2 = match !s2 with Some h -> Sim.Kernel.edges h | None -> -1 in
      seen := (Sim.Kernel.edges s0, e2) :: !seen);
  s2 := Some (Sim.Kernel.slot k ~name:"s2");
  Sim.Kernel.run k ~cycles:2;
  Alcotest.(check (list (pair int int))) "s0 passed, s2 not yet"
    [ (1, 0); (2, 1) ] (List.rev !seen);
  (match !s2 with
  | Some h -> check_int "s2 after the run" 2 (Sim.Kernel.edges h)
  | None -> assert false);
  Sim.Kernel.reset k;
  check_int "reset keeps counting" 2 (Sim.Kernel.edges s0);
  Alcotest.(check (list string)) "slots are not processes" [ "mid" ]
    (Sim.Kernel.process_names k)

let park_suite =
  [
    Alcotest.test_case "kernel park keeps the slot" `Quick test_park_keeps_slot;
    Alcotest.test_case "kernel unpark mid edge" `Quick test_unpark_mid_edge;
    Alcotest.test_case "kernel slot edges" `Quick test_slot_edges;
  ]

let suite = suite @ park_suite
