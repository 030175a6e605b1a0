(* Core.Parallel: the domain-pool map must never change a reported
   number — parallel experiment sweeps are bit-identical to serial ones,
   whatever the scheduling. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_map_preserves_order () =
  let xs = List.init 100 (fun i -> i) in
  check_bool "order, many domains" true
    (Core.Parallel.map ~domains:8 (fun i -> i * i) xs = List.map (fun i -> i * i) xs);
  check_bool "order, one domain" true
    (Core.Parallel.map ~domains:1 (fun i -> i + 1) xs = List.map (fun i -> i + 1) xs);
  check_bool "empty" true (Core.Parallel.map ~domains:4 (fun i -> i) [] = []);
  check_bool "more domains than items" true
    (Core.Parallel.map ~domains:16 string_of_int [ 1; 2 ] = [ "1"; "2" ])

exception Boom of int

let test_map_propagates_failure () =
  match Core.Parallel.map ~domains:4 (fun i -> if i = 5 then raise (Boom i) else i)
          (List.init 20 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 5 -> ()

(* Everything but the wall clock and the (absent) profile. *)
let strip (r : Core.Runner.result) =
  ( r.Core.Runner.level,
    r.Core.Runner.cycles,
    r.Core.Runner.txns,
    r.Core.Runner.beats,
    r.Core.Runner.errors,
    r.Core.Runner.bus_pj,
    r.Core.Runner.component_pj,
    r.Core.Runner.transitions )

let test_run_accuracy_deterministic () =
  let table = Core.Runner.characterize () in
  let serial = Core.Experiments.run_accuracy ~table ~domains:1 () in
  let parallel = Core.Experiments.run_accuracy ~table ~domains:4 () in
  check_bool "accuracy rows identical" true (serial = parallel)

let test_exploration_deterministic () =
  let applets = [ Jcvm.Applets.fib ] in
  let serial = Core.Exploration.run ~applets ~domains:1 () in
  let parallel = Core.Exploration.run ~applets ~domains:4 () in
  check_bool "exploration rows identical" true (serial = parallel)

(* --- session pool under the parallel map --- *)

(* Every domain shares the pool's one store, but a checked-out session
   belongs to one worker until it is released: a checkout under
   Parallel.map is never observed by two workers at once.  The probe
   session flags overlapping checkouts with an atomic in-use marker. *)
type probe = { busy : bool Atomic.t }

let probe_kind : probe Core.Pool.kind = Core.Pool.kind ()

let test_pool_affinity_under_map () =
  let pool = Core.Pool.create () in
  let overlaps = Atomic.make 0 in
  let work _ =
    Core.Pool.with_session pool probe_kind ~key:"probe"
      ~build:(fun () -> { busy = Atomic.make false })
      ~reset:(fun _ -> ())
      (fun s ->
        if not (Atomic.compare_and_set s.busy false true) then
          Atomic.incr overlaps;
        (* Hold the session across some real work so an aliasing bug has
           a window to overlap in. *)
        let acc = ref 0 in
        for i = 1 to 10_000 do
          acc := !acc + i
        done;
        ignore (Sys.opaque_identity !acc);
        Atomic.set s.busy false)
  in
  ignore (Core.Parallel.map ~domains:4 work (List.init 200 (fun i -> i)));
  check_int "no session checked out concurrently" 0 (Atomic.get overlaps);
  check_bool "at most one session built per worker" true
    (Core.Pool.builds pool <= 4 && Core.Pool.builds pool >= 1);
  check_int "every checkout accounted for" 200
    (Core.Pool.builds pool + Core.Pool.hits pool)

(* The free-list bound: a key keeps at most 4 released
   sessions.  Six sessions checked out at once all build; once all six
   are released, the next six checkouts find exactly the 4 kept ones and
   build the 2 that were dropped. *)
let test_pool_free_list_bound () =
  let pool = Core.Pool.create () in
  (* Nested checkouts: all six are held at once, then released. *)
  let rec round held =
    if held < 6 then
      Core.Pool.with_session pool probe_kind ~key:"bound"
        ~build:(fun () -> { busy = Atomic.make false })
        ~reset:(fun _ -> ())
        (fun _ -> round (held + 1))
  in
  let round () = round 0 in
  round ();
  check_int "first round builds every session" 6 (Core.Pool.builds pool);
  check_int "first round finds nothing pooled" 0 (Core.Pool.hits pool);
  round ();
  check_int "second round reuses the 4 kept sessions" 4 (Core.Pool.hits pool);
  check_int "and builds the 2 dropped ones" 8 (Core.Pool.builds pool)

(* The store belongs to the pool: once the pool is dropped, the
   sessions it kept are garbage.  The pooled run happens in a function
   of its own, so no stack slot of the test keeps the pool alive. *)
let pooled_run_into weak =
  let pool = Core.Pool.create () in
  ignore
    (Core.Runner.run_trace ~level:Core.Level.L1 ~pool
       ~init:(fun system -> Weak.set weak 0 (Some system))
       (Core.Workloads.table3_trace ~n:16));
  check_bool "the run saw its system" true (Weak.check weak 0);
  check_int "one session built" 1 (Core.Pool.builds pool)
[@@inline never]

let test_dropped_pool_is_collected () =
  let weak = Weak.create 1 in
  pooled_run_into weak;
  Gc.full_major ();
  check_bool "the pooled system is collected with its pool" false
    (Weak.check weak 0)

(* A plan memoized on the calling domain is a hit on the workers of a
   later Parallel.map.  The two items wait for each other, so they run
   on two domains at once: one of them on a spawned worker. *)
let test_plans_cross_domains () =
  let pool = Core.Pool.create () in
  let trace = Core.Workloads.table3_trace ~n:32 in
  let compile () = Core.Runner.compile_trace ~level:Core.Level.L1 ~pool trace in
  let plan = compile () in
  let arrived = Atomic.make 0 in
  let plans =
    Core.Parallel.map ~domains:2
      (fun _ ->
        Atomic.incr arrived;
        while Atomic.get arrived < 2 do
          Domain.cpu_relax ()
        done;
        compile ())
      [ 1; 2 ]
  in
  check_int "one plan built" 1 (Core.Pool.memo_builds pool);
  check_int "both workers hit" 2 (Core.Pool.memo_hits pool);
  check_bool "every worker got the memoized plan" true
    (List.for_all (fun p -> p == plan) plans)

(* Layer 3 replays serially through [Ec.Port.transact], which has no
   issue discipline: a serial and a pipelined compile share one plan. *)
let test_l3_plan_ignores_mode () =
  let pool = Core.Pool.create () in
  let trace = Core.Workloads.table3_trace ~n:32 in
  let compile mode =
    Core.Runner.compile_trace ~level:Core.Level.L3 ~mode ~pool trace
  in
  let serial = compile `Serial in
  let pipelined = compile `Pipelined in
  check_int "one plan built" 1 (Core.Pool.memo_builds pool);
  check_int "one plan hit" 1 (Core.Pool.memo_hits pool);
  check_bool "the same plan" true (serial == pipelined)

(* --- cross-run state leaks --- *)

(* The dedicated regression for the reset protocol: two different traces
   back-to-back on one pooled session must reproduce two fresh sessions,
   and replaying the first trace again must reproduce its first run. *)
let test_pooled_no_cross_run_leak () =
  let t1 = Core.Workloads.table3_trace ~n:96 in
  let t2 =
    Core.Workloads.random_trace ~rng:(Sim.Rng.create ~seed:7) ~n:60 ()
  in
  let pool = Core.Pool.create () in
  List.iter
    (fun level ->
      let fresh tr = strip (Core.Runner.run_trace ~level tr) in
      let pooled tr = strip (Core.Runner.run_trace ~level ~pool tr) in
      let f1 = fresh t1 and f2 = fresh t2 in
      let tag s =
        Core.Level.to_string level ^ ": " ^ s
      in
      check_bool (tag "first trace on the pooled session") true (pooled t1 = f1);
      check_bool (tag "a different trace on the same session") true
        (pooled t2 = f2);
      check_bool (tag "the first trace again after reset") true (pooled t1 = f1))
    [ Core.Level.Rtl; Core.Level.L1; Core.Level.L2 ];
  check_int "one session built per level" 3 (Core.Pool.builds pool);
  check_int "replays were resets, not rebuilds" 6 (Core.Pool.hits pool)

(* The reference a sweep must reproduce: every grid cell interpreted on
   its own fresh session, in the sweep's row order. *)
let unpooled_sweep applets =
  List.concat_map
    (fun applet ->
      List.map
        (fun config -> Core.Exploration.run_one ~config applet)
        Jcvm.Configs.standard)
    applets

let test_exploration_pooled_matches_unpooled () =
  let applets = [ Jcvm.Applets.fib; Jcvm.Applets.gcd ] in
  check_bool "pooled sweep rows = unpooled sweep rows" true
    (unpooled_sweep applets = Core.Exploration.run ~applets ())

let suite =
  [
    Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
    Alcotest.test_case "map propagates the first failure" `Quick
      test_map_propagates_failure;
    Alcotest.test_case "parallel run_accuracy = serial run_accuracy" `Slow
      test_run_accuracy_deterministic;
    Alcotest.test_case "parallel exploration = serial exploration" `Quick
      test_exploration_deterministic;
    Alcotest.test_case "session pool never shares across domains" `Quick
      test_pool_affinity_under_map;
    Alcotest.test_case "session pool keeps at most 4 free sessions per key"
      `Quick test_pool_free_list_bound;
    Alcotest.test_case "dropped pool is collected with its sessions" `Quick
      test_dropped_pool_is_collected;
    Alcotest.test_case "memoized plans are hits on every domain" `Quick
      test_plans_cross_domains;
    Alcotest.test_case "l3 plans carry no issue mode" `Quick
      test_l3_plan_ignores_mode;
    Alcotest.test_case "pooled session leaks nothing across runs" `Quick
      test_pooled_no_cross_run_leak;
    Alcotest.test_case "pooled exploration = unpooled exploration" `Quick
      test_exploration_pooled_matches_unpooled;
  ]
