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

(* Sessions are domain-local: a checkout under Parallel.map must never be
   observed on a different domain than built it, and never concurrently
   by two workers.  The probe session records its birth domain and flags
   overlapping checkouts with an atomic in-use marker. *)
type probe = { created_on : int; busy : bool Atomic.t }

let probe_kind : probe Core.Pool.kind = Core.Pool.kind ()

let test_pool_affinity_under_map () =
  let pool = Core.Pool.create () in
  let overlaps = Atomic.make 0 in
  let migrations = Atomic.make 0 in
  let work _ =
    Core.Pool.with_session pool probe_kind ~key:"probe"
      ~build:(fun () ->
        { created_on = (Domain.self () :> int); busy = Atomic.make false })
      ~reset:(fun _ -> ())
      (fun s ->
        if not (Atomic.compare_and_set s.busy false true) then
          Atomic.incr overlaps;
        if s.created_on <> (Domain.self () :> int) then
          Atomic.incr migrations;
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
  check_int "no session crossed domains" 0 (Atomic.get migrations);
  check_bool "every domain built its own session" true
    (Core.Pool.builds pool <= 4 && Core.Pool.builds pool >= 1);
  check_int "every checkout accounted for" 200
    (Core.Pool.builds pool + Core.Pool.hits pool)

(* The free-list bound: a (domain, key) keeps at most 4 released
   sessions.  Six sessions checked out at once all build; once all six
   are released, the next six checkouts find exactly the 4 kept ones and
   build the 2 that were dropped. *)
let test_pool_free_list_bound () =
  let pool = Core.Pool.create () in
  let round () =
    let held =
      List.init 6 (fun _ ->
          Core.Pool.acquire pool probe_kind ~key:"bound"
            ~build:(fun () -> { created_on = 0; busy = Atomic.make false })
            ~reset:(fun _ -> ()))
    in
    List.iter (Core.Pool.release pool probe_kind ~key:"bound") held
  in
  round ();
  check_int "first round builds every session" 6 (Core.Pool.builds pool);
  check_int "first round finds nothing pooled" 0 (Core.Pool.hits pool);
  round ();
  check_int "second round reuses the 4 kept sessions" 4 (Core.Pool.hits pool);
  check_int "and builds the 2 dropped ones" 8 (Core.Pool.builds pool)

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
    Alcotest.test_case "pooled session leaks nothing across runs" `Quick
      test_pooled_no_cross_run_leak;
    Alcotest.test_case "pooled exploration = unpooled exploration" `Quick
      test_exploration_pooled_matches_unpooled;
  ]
