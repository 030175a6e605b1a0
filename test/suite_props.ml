(* Property-based tests (qcheck): protocol invariants, model equivalence,
   codec roundtrips. *)

open Bus_harness

module Gen = QCheck.Gen

(* --- generators --- *)

let gen_width = Gen.oneofl [ Ec.Txn.W8; Ec.Txn.W16; Ec.Txn.W32 ]

(* A valid transaction over the harness memory map; writes avoid the ROM. *)
let gen_txn =
  let open Gen in
  let* dir = oneofl [ Ec.Txn.Read; Ec.Txn.Write ] in
  let* base =
    match dir with
    | Ec.Txn.Read -> oneofl [ fast_base; slow_base; rom_base ]
    | Ec.Txn.Write -> oneofl [ fast_base; slow_base ]
  in
  let* burst = frequency [ (3, return 1); (1, return 4) ] in
  if burst = 4 then
    let* slot = int_bound 30 in
    let addr = base + (16 * slot) in
    match dir with
    | Ec.Txn.Read -> return (Ec.Txn.burst_read ~id:0 addr)
    | Ec.Txn.Write ->
      let* values = array_size (return 4) (int_bound 0xFFFFFF) in
      return (Ec.Txn.burst_write ~id:0 addr ~values)
  else
    let* width = gen_width in
    let align = match width with Ec.Txn.W8 -> 1 | Ec.Txn.W16 -> 2 | Ec.Txn.W32 -> 4 in
    let* slot = int_bound (0x400 / align) in
    let addr = base + (align * slot) in
    match dir with
    | Ec.Txn.Read ->
      let* kind =
        if base = rom_base && width = Ec.Txn.W32 then
          oneofl [ Ec.Txn.Data; Ec.Txn.Instruction ]
        else return Ec.Txn.Data
      in
      return (Ec.Txn.single_read ~id:0 ~kind ~width addr)
    | Ec.Txn.Write ->
      let* value = int_bound 0xFFFFFF in
      return (Ec.Txn.single_write ~id:0 ~width addr ~value)

let gen_trace =
  let open Gen in
  list_size (int_range 1 40)
    (let* gap = int_bound 3 in
     let* txn = gen_txn in
     return (Ec.Trace.item ~gap txn))

let arb_trace =
  QCheck.make gen_trace
    ~print:(fun t -> String.concat "\n" (Ec.Trace.to_lines t))

(* --- protocol equivalence properties --- *)

let prop_l1_equals_rtl_cycles =
  QCheck.Test.make ~name:"L1 cycles = RTL cycles on any traffic" ~count:60
    arb_trace (fun trace ->
      let _, rtl = run_trace Rtl_l trace in
      let _, l1 = run_trace L1_l trace in
      rtl = l1)

let prop_l1_equals_rtl_transitions =
  QCheck.Test.make ~name:"L1 transitions = RTL transitions" ~count:40 arb_trace
    (fun trace ->
      let h_rtl, _ = run_trace Rtl_l trace in
      let h_l1, _ = run_trace L1_l trace in
      h_rtl.transitions () = h_l1.transitions ())

let prop_l2_serial_equals_l1 =
  QCheck.Test.make ~name:"L2 cycles = L1 cycles on serial traffic" ~count:40
    arb_trace (fun trace ->
      let _, l1 = run_trace ~mode:`Serial L1_l trace in
      let _, l2 = run_trace ~mode:`Serial L2_l trace in
      l1 = l2)

let prop_l2_never_faster_pipelined =
  QCheck.Test.make ~name:"L2 cycles >= L1 cycles pipelined" ~count:40 arb_trace
    (fun trace ->
      let _, l1 = run_trace ~mode:`Pipelined L1_l trace in
      let _, l2 = run_trace ~mode:`Pipelined L2_l trace in
      l2 >= l1)

let prop_all_complete_no_errors =
  QCheck.Test.make ~name:"every valid transaction completes without error"
    ~count:40 arb_trace (fun trace ->
      List.for_all
        (fun level ->
          let h, _ = run_trace level trace in
          Iface.completed_txns h.iface = List.length trace
          && Iface.error_txns h.iface = 0
          && not (Iface.busy h.iface))
        all_levels)

let prop_energy_monotone_with_estimation =
  QCheck.Test.make ~name:"RTL energy strictly above L1 (internal nets)"
    ~count:25 arb_trace (fun trace ->
      let h_rtl, _ = run_trace Rtl_l trace in
      let h_l1, _ = run_trace L1_l trace in
      h_rtl.energy_pj () > h_l1.energy_pj ())

let prop_isolated_latency =
  QCheck.Test.make ~name:"isolated latency matches analytic timing" ~count:80
    (QCheck.make gen_txn ~print:(Format.asprintf "%a" Ec.Txn.pp))
    (fun txn ->
      let cfg_for addr =
        if addr >= rom_base then
          Ec.Slave_cfg.make ~name:"rom" ~base:rom_base ~size:0x1000
            ~writable:false ~executable:true ()
        else if addr >= slow_base then
          Ec.Slave_cfg.make ~name:"slow" ~base:slow_base ~size:0x1000
            ~addr_wait:1 ~read_wait:2 ~write_wait:4 ()
        else Ec.Slave_cfg.make ~name:"fast" ~base:fast_base ~size:0x1000 ()
      in
      let expected = Ec.Timing.isolated_latency (cfg_for txn.Ec.Txn.addr) txn in
      List.for_all
        (fun level ->
          let h = build level in
          let txn = Ec.Trace.(instantiate ids (item txn)).Ec.Trace.txn in
          run_one h txn = expected)
        all_levels)

(* --- data transport properties --- *)

let prop_write_read_roundtrip =
  QCheck.Test.make ~name:"write then read returns the value (all levels)"
    ~count:50
    QCheck.(pair (QCheck.make gen_width) (int_bound 0xFFFFFF))
    (fun (width, value) ->
      let align = match width with Ec.Txn.W8 -> 1 | Ec.Txn.W16 -> 2 | Ec.Txn.W32 -> 4 in
      let addr = fast_base + (64 * align) in
      let bits = Ec.Txn.width_bits width in
      let masked = value land ((1 lsl bits) - 1) in
      List.for_all
        (fun level ->
          let h = build level in
          ignore (run_one h (write ~width addr masked));
          let r = read ~width addr in
          ignore (run_one h r);
          r.Ec.Txn.data.(0) = masked)
        all_levels)

(* --- codec roundtrips --- *)

let prop_trace_text_roundtrip =
  QCheck.Test.make ~name:"trace text serialization roundtrip" ~count:100
    arb_trace (fun trace ->
      let back = Ec.Trace.of_lines (Ec.Trace.to_lines trace) in
      List.length back = List.length trace
      && List.for_all2
           (fun a b ->
             a.Ec.Trace.gap = b.Ec.Trace.gap
             && Ec.Txn.equal_payload a.Ec.Trace.txn b.Ec.Trace.txn)
           trace back)

let gen_instr =
  let open Gen in
  let reg = int_bound 31 in
  let imm = int_range (-32768) 32767 in
  let uimm = int_bound 0xFFFF in
  let sh = int_bound 31 in
  let target = int_bound 0x3FFFFFF in
  oneof
    [
      return Soc.Isa.Nop;
      return Soc.Isa.Halt;
      map3 (fun a b c -> Soc.Isa.Add (a, b, c)) reg reg reg;
      map3 (fun a b c -> Soc.Isa.Sub (a, b, c)) reg reg reg;
      map3 (fun a b c -> Soc.Isa.Xor (a, b, c)) reg reg reg;
      map3 (fun a b c -> Soc.Isa.Mul (a, b, c)) reg reg reg;
      map3 (fun a b c -> Soc.Isa.Sll (a, b, c)) reg reg sh;
      map3 (fun a b c -> Soc.Isa.Addi (a, b, c)) reg reg imm;
      map3 (fun a b c -> Soc.Isa.Ori (a, b, c)) reg reg uimm;
      map2 (fun a b -> Soc.Isa.Lui (a, b)) reg uimm;
      map3 (fun a b c -> Soc.Isa.Lw (a, b, c)) reg imm reg;
      map3 (fun a b c -> Soc.Isa.Sb (a, b, c)) reg imm reg;
      map3 (fun a b c -> Soc.Isa.Lw4 (a, b, c)) reg imm reg;
      map3 (fun a b c -> Soc.Isa.Beq (a, b, c)) reg reg imm;
      map (fun t -> Soc.Isa.J t) target;
      map (fun r -> Soc.Isa.Jr r) reg;
    ]

let prop_isa_roundtrip =
  QCheck.Test.make ~name:"isa encode/decode roundtrip" ~count:300
    (QCheck.make gen_instr ~print:Soc.Isa.to_string)
    (fun instr -> Soc.Isa.decode (Soc.Isa.encode instr) = instr)

let gen_bytecode =
  let open Gen in
  let u16 = int_bound 0xFFFF in
  let s16 = int_range (-32768) 32767 in
  let s8 = int_range (-128) 127 in
  oneof
    [
      return Jcvm.Bytecode.Nop;
      return Jcvm.Bytecode.Sadd;
      return Jcvm.Bytecode.Sdiv;
      return Jcvm.Bytecode.Dup;
      return Jcvm.Bytecode.Sastore;
      map (fun v -> Jcvm.Bytecode.Sspush v) s16;
      map (fun v -> Jcvm.Bytecode.Bspush v) s8;
      map (fun v -> Jcvm.Bytecode.Sload v) u16;
      map2 (fun i v -> Jcvm.Bytecode.Sinc (i, v)) u16 s8;
      map (fun v -> Jcvm.Bytecode.Goto v) u16;
      map (fun v -> Jcvm.Bytecode.If_scmplt v) u16;
      map (fun v -> Jcvm.Bytecode.Getstatic v) u16;
      return Jcvm.Bytecode.Sreturn;
    ]

let prop_bytecode_roundtrip =
  QCheck.Test.make ~name:"bytecode encode/decode roundtrip" ~count:100
    (QCheck.make (Gen.array_size (Gen.int_range 1 30) gen_bytecode))
    (fun program ->
      Jcvm.Bytecode.decode (Jcvm.Bytecode.encode program) = program)

(* --- short arithmetic semantics --- *)

let to_short v =
  let v = v land 0xFFFF in
  if v > 32767 then v - 65536 else v

let prop_interp_binops_match_reference =
  let ops =
    [
      (Jcvm.Bytecode.Sadd, ( + ));
      (Jcvm.Bytecode.Ssub, ( - ));
      (Jcvm.Bytecode.Smul, ( * ));
      (Jcvm.Bytecode.Sand, ( land ));
      (Jcvm.Bytecode.Sor, ( lor ));
      (Jcvm.Bytecode.Sxor, ( lxor ));
    ]
  in
  QCheck.Test.make ~name:"interpreter binops = OCaml reference mod 2^16"
    ~count:200
    QCheck.(triple (int_bound 5) (int_range (-32768) 32767) (int_range (-32768) 32767))
    (fun (op_idx, a, b) ->
      let instr, f = List.nth ops op_idx in
      let r =
        Jcvm.Interp.run_soft
          [| Jcvm.Bytecode.Sspush a; Jcvm.Bytecode.Sspush b; instr;
             Jcvm.Bytecode.Sreturn |]
      in
      r.Jcvm.Interp.value = Some (to_short (f a b)))

(* --- stack refinement: random op streams on the packed configuration --- *)

let prop_packed_adapter_equals_soft =
  QCheck.Test.make ~name:"packed hw stack = soft stack on random op streams"
    ~count:30
    QCheck.(list_of_size (Gen.int_range 1 120) (option (int_range (-32768) 32767)))
    (fun script ->
      (* [Some v] pushes, [None] pops when non-empty. *)
      let config =
        List.find
          (fun c -> c.Jcvm.Configs.name = "w32-packed")
          Jcvm.Configs.standard
      in
      let kernel = Sim.Kernel.create () in
      let hw = Jcvm.Hw_stack.create config in
      let bus =
        Tlm1.Bus.create ~kernel
          ~decoder:(Ec.Decoder.create [ Jcvm.Hw_stack.slave hw ])
          ()
      in
      let adapter =
        Jcvm.Master_adapter.create ~kernel ~port:(Iface.port (Rtl.Bus.iface (Tlm1.Bus.engine bus))) config
      in
      let hw_ops = Jcvm.Master_adapter.ops adapter in
      let soft = Jcvm.Soft_stack.create ~capacity:256 () in
      let soft_ops = Jcvm.Soft_stack.ops soft in
      List.for_all
        (fun step ->
          match step with
          | Some v ->
            if soft_ops.Jcvm.Stack_intf.depth () >= 250 then true
            else begin
              hw_ops.Jcvm.Stack_intf.push v;
              soft_ops.Jcvm.Stack_intf.push v;
              true
            end
          | None ->
            if soft_ops.Jcvm.Stack_intf.depth () = 0 then true
            else hw_ops.Jcvm.Stack_intf.pop () = soft_ops.Jcvm.Stack_intf.pop ())
        script
      && hw_ops.Jcvm.Stack_intf.depth () = soft_ops.Jcvm.Stack_intf.depth ())

(* --- misc invariants --- *)

let prop_signal_commit_counts =
  QCheck.Test.make ~name:"signal commit counts = popcount(xor)" ~count:200
    QCheck.(pair (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF))
    (fun (a, b) ->
      let w = Rtl.Wires.create ~n_slaves:1 in
      let d = Rtl.Diesel.create w in
      Rtl.Wires.set_wdata w a;
      Rtl.Diesel.observe_and_commit d;
      let first = Rtl.Diesel.transitions_total d in
      Rtl.Wires.set_wdata w b;
      Rtl.Diesel.observe_and_commit d;
      first = Sim.Bits.popcount a
      && Rtl.Diesel.transitions_total d - first = Sim.Bits.popcount (a lxor b))

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:200
    QCheck.(pair (int_bound 1000) (int_range 1 10000))
    (fun (seed, bound) ->
      let rng = Sim.Rng.create ~seed in
      let v = Sim.Rng.int rng bound in
      v >= 0 && v < bound)

let prop_profile_lumps_cover =
  QCheck.Test.make ~name:"lumped samples always sum to profile total"
    ~count:100
    QCheck.(pair (list_of_size (Gen.int_range 1 50) (float_bound_inclusive 10.0))
              (list_of_size (Gen.int_range 0 5) (int_bound 60)))
    (fun (values, points) ->
      let p = Power.Profile.create () in
      List.iter (Power.Profile.push p) values;
      let lumps = Power.Profile.lumped p ~sample_points:points in
      let sum = List.fold_left (fun acc (_, e) -> acc +. e) 0.0 lumps in
      Float.abs (sum -. Power.Profile.total p) < 1e-9)

(* Zero-gap traces keep the request rings and the outstanding store at
   the category limits, exercising the preallocated-buffer rework of the
   rtl bus and trace master where it wraps and swaps the most.  Layer 2
   shares the master interface but serializes data phases by design
   (Table 1), so it matches on counts and drains, not on cycles. *)
let gen_pressure_trace =
  Gen.list_size (Gen.int_range 20 60)
    (Gen.map (fun txn -> Ec.Trace.item ~gap:0 txn) gen_txn)

let prop_l1_equals_rtl_under_queue_pressure =
  QCheck.Test.make
    ~name:"L1 = RTL cycles/counts under queue pressure, L2 = RTL counts"
    ~count:40
    (QCheck.make gen_pressure_trace
       ~print:(fun t -> String.concat "\n" (Ec.Trace.to_lines t)))
    (fun trace ->
      let h_rtl, rtl_cycles = run_trace ~mode:`Pipelined Rtl_l trace in
      let h_l1, l1_cycles = run_trace ~mode:`Pipelined L1_l trace in
      let h_l2, _ = run_trace ~mode:`Pipelined L2_l trace in
      let counts h = (Iface.completed_txns h.iface, Iface.error_txns h.iface) in
      rtl_cycles = l1_cycles
      && counts h_rtl = counts h_l1
      && counts h_rtl = counts h_l2
      && Iface.completed_txns h_rtl.iface = List.length trace
      && not (Iface.busy h_rtl.iface || Iface.busy h_l2.iface))

(* The preallocated structures against their library models. *)
let gen_ring_ops =
  Gen.list_size (Gen.int_range 1 200)
    Gen.(
      frequency
        [
          (3, map (fun v -> `Push v) (int_bound 1000));
          (2, return `Pop);
          (1, return `Peek);
        ])

let prop_ring_models_queue =
  QCheck.Test.make ~name:"Ec.Ring behaves like Queue" ~count:200
    (QCheck.make
       Gen.(pair (int_range 1 5) gen_ring_ops)
       ~print:(fun (capacity, ops) ->
         String.concat ";"
           (Printf.sprintf "capacity %d" capacity
           :: List.map
                (function
                  | `Push v -> Printf.sprintf "push %d" v
                  | `Pop -> "pop"
                  | `Peek -> "peek")
                ops)))
    (fun (capacity, ops) ->
      (* Small start capacities round up to a power of two, then force
         growth and wrap-around early. *)
      let ring = Ec.Ring.create ~capacity ~dummy:(-1) () in
      let queue = Queue.create () in
      List.for_all
        (function
          | `Push v ->
            Ec.Ring.push ring v;
            Queue.push v queue;
            Ec.Ring.length ring = Queue.length queue
          | `Pop ->
            Ec.Ring.pop_opt ring = (if Queue.is_empty queue then None
                                    else Some (Queue.pop queue))
          | `Peek ->
            Ec.Ring.is_empty ring = Queue.is_empty queue
            && (Queue.is_empty queue || Ec.Ring.peek ring = Queue.peek queue))
        ops)

let gen_store_ops =
  let open Gen in
  let key = int_bound 7 in
  list_size (int_range 1 200)
    (frequency
       [
         (3, map2 (fun k v -> `Set (k, v)) key (int_bound 1000));
         (2, map (fun k -> `Find k) key);
         (2, map (fun k -> `Remove k) key);
       ])

let prop_id_store_models_hashtbl =
  QCheck.Test.make ~name:"Ec.Id_store behaves like Hashtbl" ~count:200
    (QCheck.make gen_store_ops
       ~print:(fun ops ->
         String.concat ";"
           (List.map
              (function
                | `Set (k, v) -> Printf.sprintf "set %d=%d" k v
                | `Find k -> Printf.sprintf "find %d" k
                | `Remove k -> Printf.sprintf "remove %d" k)
              ops)))
    (fun ops ->
      (* Capacity 2 forces growth; 8 keys force collisions and swaps. *)
      let store = Ec.Id_store.create ~capacity:2 ~dummy:(-1) () in
      let tbl = Hashtbl.create 8 in
      List.for_all
        (function
          | `Set (k, v) ->
            Ec.Id_store.set store k v;
            Hashtbl.replace tbl k v;
            Ec.Id_store.length store = Hashtbl.length tbl
          | `Find k ->
            Ec.Id_store.find_default store k ~default:(-1)
            = Option.value (Hashtbl.find_opt tbl k) ~default:(-1)
            && Ec.Id_store.mem store k = Hashtbl.mem tbl k
          | `Remove k ->
            Ec.Id_store.remove store k;
            Hashtbl.remove tbl k;
            Ec.Id_store.length store = Hashtbl.length tbl)
        ops)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_l1_equals_rtl_cycles;
      prop_l1_equals_rtl_transitions;
      prop_l2_serial_equals_l1;
      prop_l2_never_faster_pipelined;
      prop_l1_equals_rtl_under_queue_pressure;
      prop_ring_models_queue;
      prop_id_store_models_hashtbl;
      prop_all_complete_no_errors;
      prop_energy_monotone_with_estimation;
      prop_isolated_latency;
      prop_write_read_roundtrip;
      prop_trace_text_roundtrip;
      prop_isa_roundtrip;
      prop_bytecode_roundtrip;
      prop_interp_binops_match_reference;
      prop_packed_adapter_equals_soft;
      prop_signal_commit_counts;
      prop_rng_int_bounds;
      prop_profile_lumps_cover;
    ]

(* --- extension properties --- *)

let gen_apdu =
  let open Gen in
  let byte = int_bound 0xFF in
  let* ins = byte in
  let* p1 = byte in
  let* p2 = byte in
  let* data = list_size (int_bound 20) byte in
  let* le = option (int_range 1 256) in
  return (Iso7816.Apdu.command ~ins ~p1 ~p2 ~data ?le ())

let prop_apdu_roundtrip =
  QCheck.Test.make ~name:"APDU encode/decode roundtrip (cases 1-4)" ~count:300
    (QCheck.make gen_apdu
       ~print:(Format.asprintf "%a" Iso7816.Apdu.pp_command))
    (fun c ->
      match Iso7816.Apdu.decode_command (Iso7816.Apdu.encode_command c) with
      | Ok back -> back = c
      | Error _ -> false)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"APDU response roundtrip" ~count:200
    QCheck.(pair (list_of_size (Gen.int_bound 16) (int_bound 0xFF)) (int_bound 0xFFFF))
    (fun (data, sw) ->
      let r = Iso7816.Apdu.response ~data sw in
      match Iso7816.Apdu.decode_response (Iso7816.Apdu.encode_response r) with
      | Ok back -> back = r
      | Error _ -> false)

let prop_bridge_matches_channel =
  QCheck.Test.make ~name:"layer-3 bridge data = layer-3 channel data" ~count:30
    QCheck.(pair (int_bound 60) (int_range 1 12))
    (fun (slot, words) ->
      let h = build L1_l in
      for w = 0 to 127 do
        Soc.Memory.poke32 h.fast ~addr:(fast_base + (4 * w)) ((w * 1103) land 0xFFFFF)
      done;
      let addr = fast_base + (4 * slot) in
      let decoder =
        Ec.Decoder.create
          [ Soc.Memory.slave h.fast; Soc.Memory.slave h.slow; Soc.Memory.slave h.rom ]
      in
      let ch = Tlm3.Channel.create decoder in
      let bridge = Tlm3.Bridge.create ~kernel:h.kernel ~port:h.port in
      match
        ( Tlm3.Channel.read ch { Tlm3.Channel.addr; words },
          Tlm3.Bridge.read bridge ~addr ~words )
      with
      | Tlm3.Channel.Ok_data a, (Tlm3.Channel.Ok_data b, _) -> a = b
      | _, _ -> false)

let prop_gray_coding_neighbours =
  QCheck.Test.make ~name:"gray codes of consecutive ints differ in one bit"
    ~count:300
    QCheck.(int_bound 100000)
    (fun v ->
      Sim.Bits.popcount
        (Power.Coding.gray_encode v lxor Power.Coding.gray_encode (v + 1))
      = 1)

let prop_budget_scales_linearly =
  QCheck.Test.make ~name:"budget current scales linearly with energy" ~count:100
    QCheck.(pair (float_bound_inclusive 1e6) (int_range 1 100000))
    (fun (pj, cycles) ->
      let i1 =
        Power.Budget.average_current_ma ~energy_pj:pj ~cycles ~clock_hz:1e7
          ~supply_v:5.0
      in
      let i2 =
        Power.Budget.average_current_ma ~energy_pj:(2.0 *. pj) ~cycles
          ~clock_hz:1e7 ~supply_v:5.0
      in
      Float.abs (i2 -. (2.0 *. i1)) < 1e-9 *. Float.max 1.0 i2)

let extension_props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_apdu_roundtrip;
      prop_response_roundtrip;
      prop_bridge_matches_channel;
      prop_gray_coding_neighbours;
      prop_budget_scales_linearly;
    ]

let suite = suite @ extension_props

(* --- CPU semantics: random straight-line programs vs a pure reference --- *)

let gen_alu_instr =
  let open Gen in
  (* Registers r1..r7, so r0's zero-wiring is also exercised as source. *)
  let reg = int_range 1 7 in
  let src = int_range 0 7 in
  let imm = int_range (-1000) 1000 in
  let uimm = int_bound 0xFFFF in
  oneof
    [
      map3 (fun d a b -> Soc.Isa.Add (d, a, b)) reg src src;
      map3 (fun d a b -> Soc.Isa.Sub (d, a, b)) reg src src;
      map3 (fun d a b -> Soc.Isa.And (d, a, b)) reg src src;
      map3 (fun d a b -> Soc.Isa.Or (d, a, b)) reg src src;
      map3 (fun d a b -> Soc.Isa.Xor (d, a, b)) reg src src;
      map3 (fun d a b -> Soc.Isa.Slt (d, a, b)) reg src src;
      map3 (fun d a b -> Soc.Isa.Mul (d, a, b)) reg src src;
      map3 (fun d a sh -> Soc.Isa.Sll (d, a, sh)) reg src (int_bound 31);
      map3 (fun d a sh -> Soc.Isa.Srl (d, a, sh)) reg src (int_bound 31);
      map3 (fun d a i -> Soc.Isa.Addi (d, a, i)) reg src imm;
      map3 (fun d a i -> Soc.Isa.Xori (d, a, i)) reg src uimm;
      map2 (fun d i -> Soc.Isa.Lui (d, i)) reg uimm;
      map3 (fun d a i -> Soc.Isa.Slti (d, a, i)) reg src imm;
    ]

(* Pure reference semantics of the ALU subset. *)
let reference_alu regs instr =
  let mask32 v = v land 0xFFFFFFFF in
  let signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v in
  let get r = if r = 0 then 0 else regs.(r) in
  let set r v = if r <> 0 then regs.(r) <- mask32 v in
  match instr with
  | Soc.Isa.Add (d, a, b) -> set d (get a + get b)
  | Soc.Isa.Sub (d, a, b) -> set d (get a - get b)
  | Soc.Isa.And (d, a, b) -> set d (get a land get b)
  | Soc.Isa.Or (d, a, b) -> set d (get a lor get b)
  | Soc.Isa.Xor (d, a, b) -> set d (get a lxor get b)
  | Soc.Isa.Slt (d, a, b) -> set d (if signed (get a) < signed (get b) then 1 else 0)
  | Soc.Isa.Mul (d, a, b) -> set d (get a * get b)
  | Soc.Isa.Sll (d, a, sh) -> set d (get a lsl sh)
  | Soc.Isa.Srl (d, a, sh) -> set d (get a lsr sh)
  | Soc.Isa.Addi (d, a, i) -> set d (get a + i)
  | Soc.Isa.Xori (d, a, i) -> set d (get a lxor i)
  | Soc.Isa.Lui (d, i) -> set d (i lsl 16)
  | Soc.Isa.Slti (d, a, i) -> set d (if signed (get a) < i then 1 else 0)
  | _ -> assert false

let prop_cpu_matches_reference =
  QCheck.Test.make ~name:"CPU register semantics = pure reference" ~count:60
    (QCheck.make
       (Gen.list_size (Gen.int_range 1 40) gen_alu_instr)
       ~print:(fun instrs ->
         String.concat "\n" (List.map Soc.Isa.to_string instrs)))
    (fun instrs ->
      (* Reference execution. *)
      let expected = Array.make 8 0 in
      List.iter (reference_alu expected) instrs;
      (* Simulated execution over the bus. *)
      let h = build L1_l in
      let words =
        Array.of_list (List.map Soc.Isa.encode instrs @ [ Soc.Isa.encode Soc.Isa.Halt ])
      in
      Soc.Memory.load_words h.fast ~addr:fast_base words;
      let cpu = Soc.Cpu.create ~kernel:h.kernel ~port:h.port () in
      ignore (Soc.Cpu.run_to_halt cpu ~kernel:h.kernel ());
      List.for_all (fun r -> Soc.Cpu.reg cpu r = expected.(r)) [ 1; 2; 3; 4; 5; 6; 7 ])

let prop_icache_transparent =
  QCheck.Test.make ~name:"icache is architecturally transparent" ~count:12
    QCheck.(pair (int_bound 3) (int_range 4 10))
    (fun (size_idx, n) ->
      let lines = [| 1; 2; 8; 32 |].(size_idx) in
      let program = Soc.Asm.assemble (Core.Test_programs.bubble_sort ~n) in
      let dump icache_lines =
        let run = Core.Runner.run_program ?icache_lines program in
        let ram = Soc.Platform.ram (Core.System.platform run.Core.Runner.system) in
        ( run.Core.Runner.fault,
          List.init n (fun i ->
              Soc.Memory.peek32 ram ~addr:(Soc.Platform.Map.ram_base + (4 * i))) )
      in
      dump None = dump (Some lines))

let cpu_props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_cpu_matches_reference; prop_icache_transparent ]

let suite = suite @ cpu_props

(* --- optimized vs reference gate-level observation kernel --- *)

(* The optimized Diesel path (precomputed energy tables, word-level bit
   scans) must be bit-for-bit equal to the naive reference path it
   replaced, on every accumulator, for any stimulus and parameter set. *)

(* Random electrical parameters: the default and ideal sets, or each
   factor drawn, coupling zero in a quarter of the cases. *)
let gen_rtl_params =
  let open QCheck.Gen in
  let f = float_range 0.0 2.0 in
  frequency
    [
      (1, return Rtl.Params.default);
      (1, return Rtl.Params.ideal);
      ( 6,
        let* vdd = float_range 0.5 2.0 and* slope_rise = f and* slope_fall = f
        and* coupling_ratio =
          frequency [ (1, return 0.0); (3, float_range 0.0 0.6) ]
        and* opposite_factor = f and* same_relief = f
        and* decoder = f and* glitch = f and* mux = f and* fsm = f
        and* sel = f and* leakage = f in
        return
          { Rtl.Params.vdd; slope_rise; slope_fall; coupling_ratio;
            opposite_factor; same_relief;
            decoder_pj_per_addr_toggle = decoder;
            glitch_pj_per_hamming = glitch; mux_pj_per_rdata_toggle = mux;
            fsm_pj_per_ctrl_toggle = fsm; sel_pj_per_toggle = sel;
            leakage_pj_per_cycle = leakage } );
    ]

(* Random next values, each group's top bit and the pair below it
   (addr bit 33, data bit 31, be bit 3, ctrl bit 10) forced high on a
   third of the cycles. *)
let drive_random rng ~n_slaves wires =
  let top width = if Sim.Rng.int rng 3 = 0 then 3 lsl (width - 2) else 0 in
  Rtl.Wires.set_addr wires (Sim.Rng.bits rng 34 lor top 34);
  if Sim.Rng.bool rng then Rtl.Wires.set_be wires (Sim.Rng.bits rng 4 lor top 4);
  Rtl.Wires.set_wdata wires (Sim.Rng.bits rng 32 lor top 32);
  if Sim.Rng.bool rng then
    Rtl.Wires.set_rdata wires (Sim.Rng.bits rng 32 lor top 32);
  List.iter
    (fun c -> Rtl.Wires.set_ctrl wires c (Sim.Rng.bool rng))
    Ec.Signals.all_ctrl;
  if top 11 <> 0 then begin
    Rtl.Wires.set_ctrl wires Ec.Signals.(List.nth all_ctrl 10) true;
    Rtl.Wires.set_ctrl wires Ec.Signals.(List.nth all_ctrl 9) true
  end;
  Rtl.Wires.set_sel wires (Sim.Rng.bits rng n_slaves)

(* What the table path visits in one cycle: every toggled bit, and on
   the four buses every adjacent pair a toggle touches. *)
let visited_bits (w : Rtl.Wires.t) =
  let bus width cur nxt =
    let c = cur lxor nxt in
    Sim.Bits.popcount c
    + Sim.Bits.popcount ((c lor (c lsr 1)) land ((1 lsl (width - 1)) - 1))
  in
  bus 34 w.addr w.addr_next + bus 4 w.be w.be_next
  + bus 32 w.wdata w.wdata_next + bus 32 w.rdata w.rdata_next
  + Sim.Bits.popcount (w.ctrl lxor w.ctrl_next)

let prop_diesel_fast_equals_reference =
  QCheck.Test.make
    ~name:"optimized Diesel kernel = naive reference kernel (bit-exact)"
    ~count:200
    QCheck.(
      quad (int_bound 1_000_000) (int_range 1 120) (int_range 1 62)
        (make gen_rtl_params))
    (fun (seed, cycles, n_slaves, params) ->
      let run ~reference =
        let wires = Rtl.Wires.create ~n_slaves in
        let d = Rtl.Diesel.create ~params ~record_profile:true ~reference wires in
        let rng = Sim.Rng.create ~seed in
        let visited = ref 0 in
        for _ = 1 to cycles do
          drive_random rng ~n_slaves wires;
          visited := !visited + visited_bits wires;
          Rtl.Diesel.observe_and_commit d
        done;
        (d, !visited)
      in
      let (fast, visited), (ref_, _) =
        (run ~reference:false, run ~reference:true)
      in
      let profile d =
        Option.map Power.Profile.to_array (Power.Meter.profile (Rtl.Diesel.meter d))
      in
      let bits = Int64.bits_of_float in
      bits (Rtl.Diesel.interface_pj fast) = bits (Rtl.Diesel.interface_pj ref_)
      && bits (Rtl.Diesel.internal_pj fast) = bits (Rtl.Diesel.internal_pj ref_)
      && Rtl.Diesel.per_signal_transitions fast
         = Rtl.Diesel.per_signal_transitions ref_
      && Array.map bits (Rtl.Diesel.per_signal_energy_pj fast)
         = Array.map bits (Rtl.Diesel.per_signal_energy_pj ref_)
      && bits (Power.Meter.total_pj (Rtl.Diesel.meter fast))
         = bits (Power.Meter.total_pj (Rtl.Diesel.meter ref_))
      && Option.map (Array.map bits) (profile fast)
         = Option.map (Array.map bits) (profile ref_)
      && Rtl.Diesel.transitions_total fast = Rtl.Diesel.transitions_total ref_
      (* The work counts: six words a cycle and the visited bits on the
         table path; sixteen words and every bit and pair, plus the
         selects, on the reference path. *)
      && Rtl.Diesel.words_scanned fast = 6 * cycles
      && Rtl.Diesel.bits_visited fast = visited
      && Rtl.Diesel.words_scanned ref_ = 16 * cycles
      && Rtl.Diesel.bits_visited ref_
         = cycles * ((2 * (34 + 4 + 32 + 32)) - 4 + 11 + n_slaves))

(* The closes read and commit Rtl.Wires.t by field position
   (lane_kernel.c): each group driven alone, with a distinct word, must
   toggle exactly its own wires in both closes, and be committed. *)
let test_wire_field_order () =
  let table =
    Power.Characterization.derive ~name:"order"
      ~energy_pj:(Array.init Ec.Signals.count (fun i -> Float.ldexp 1.0 (i - 60)))
      ~transitions:(Array.make Ec.Signals.count 1)
  in
  let groups =
    [ ("addr", 0, 34, Rtl.Wires.set_addr, fun (w : Rtl.Wires.t) -> w.addr);
      ("be", 34, 4, Rtl.Wires.set_be, fun w -> w.be);
      ("wdata", 38, 32, Rtl.Wires.set_wdata, fun w -> w.wdata);
      ("rdata", 70, 32, Rtl.Wires.set_rdata, fun w -> w.rdata);
      ( "ctrl", 102, 11,
        (fun w v ->
          List.iteri
            (fun i c -> Rtl.Wires.set_ctrl w c ((v lsr i) land 1 = 1))
            Ec.Signals.all_ctrl),
        fun w -> w.ctrl ) ]
  in
  List.iter
    (fun (name, base, width, set, get) ->
      let word = 0b1011 lsl (width - 4) in
      let w = Rtl.Wires.create ~n_slaves:3 in
      let d = Rtl.Diesel.create w in
      set w word;
      Rtl.Diesel.observe_and_commit d;
      let expect =
        Array.init Ec.Signals.count (fun i ->
            if i >= base && i < base + width && (word lsr (i - base)) land 1 = 1
            then 1 else 0)
      in
      Alcotest.(check (array int)) (name ^ ": gate-level transitions") expect
        (Rtl.Diesel.per_signal_transitions d);
      Alcotest.(check int) (name ^ ": committed") word (get w);
      let w1 = Rtl.Wires.create ~n_slaves:3 in
      let e = Tlm1.Energy.create table in
      set w1 word;
      Tlm1.Energy.end_cycle e w1;
      let pj = ref 0.0 in
      Array.iteri
        (fun i n ->
          if n = 1 then
            pj := !pj +. Power.Characterization.energy_per_transition table
                          (Ec.Signals.of_index i))
        expect;
      Alcotest.(check (float 0.0)) (name ^ ": layer-1 energy") !pj
        (Tlm1.Energy.total_pj e);
      Alcotest.(check int) (name ^ ": committed at layer 1") word (get w1))
    groups;
  (* The selects: internal energy only, and committed by both. *)
  let w = Rtl.Wires.create ~n_slaves:3 in
  let d = Rtl.Diesel.create w in
  Rtl.Wires.set_sel w 0b101;
  Rtl.Diesel.observe_and_commit d;
  Alcotest.(check int) "sel: no interface transitions" 0
    (Rtl.Diesel.transitions_total d);
  Alcotest.(check (float 0.0)) "sel: internal energy"
    ((2.0 *. Rtl.Params.default.Rtl.Params.sel_pj_per_toggle)
    +. Rtl.Params.default.Rtl.Params.leakage_pj_per_cycle)
    (Rtl.Diesel.internal_pj d);
  Alcotest.(check int) "sel: committed" 0b101 w.Rtl.Wires.sel

let diesel_props =
  List.map QCheck_alcotest.to_alcotest [ prop_diesel_fast_equals_reference ]
  @ [ Alcotest.test_case "wire field order = lane kernel's" `Quick
        test_wire_field_order ]

let suite = suite @ diesel_props

(* --- pooled resettable sessions: reset replay = fresh build --- *)

(* A pooled session must be indistinguishable, number for number, from a
   freshly built one: same cycles, same transaction counts, same energies
   to the last bit of the float accumulators.  Everything below compares
   a pool-drawn run against its fresh-build twin on random stimuli. *)

(* Everything but the wall clock and the (absent) profile. *)
let strip_result (r : Core.Runner.result) =
  ( r.Core.Runner.level,
    r.Core.Runner.cycles,
    r.Core.Runner.txns,
    r.Core.Runner.beats,
    r.Core.Runner.errors,
    r.Core.Runner.bus_pj,
    r.Core.Runner.component_pj,
    r.Core.Runner.transitions )

let strip_splice (s : Hier.Splice.t) =
  ( List.map
      (fun (w : Hier.Splice.window) ->
        ( w.Hier.Splice.index, w.level, w.start_cycle, w.cycles, w.txns,
          w.beats, w.errors, w.bus_pj, w.component_pj, w.err_bound_pj,
          w.provenance ))
      s.Hier.Splice.windows,
    s.Hier.Splice.total_cycles, s.Hier.Splice.total_txns,
    s.Hier.Splice.total_beats, s.Hier.Splice.total_errors,
    s.Hier.Splice.total_bus_pj, s.Hier.Splice.total_component_pj,
    s.Hier.Splice.error_bound_pj, s.Hier.Splice.switches )

let strip_adaptive (a : Core.Runner.adaptive_run) =
  ( a.Core.Runner.cycles, a.Core.Runner.txns, a.Core.Runner.beats,
    a.Core.Runner.errors, a.Core.Runner.bus_pj, a.Core.Runner.component_pj,
    a.Core.Runner.switches, strip_splice a.Core.Runner.splice )

(* Random platform-map traffic, reproducible from a compact seed triple. *)
let arb_seeded_trace =
  QCheck.make
    Gen.(triple (int_bound 1_000_000) (int_range 8 80) (int_bound 3))
    ~print:(fun (seed, n, max_gap) ->
      Printf.sprintf "seed=%d n=%d max_gap=%d" seed n max_gap)

let seeded_trace (seed, n, max_gap) =
  Core.Workloads.random_trace ~rng:(Sim.Rng.create ~seed) ~n ~max_gap ()

let prop_pooled_trace_bit_exact =
  QCheck.Test.make
    ~name:"pooled run_trace = fresh run_trace, bit-exact (all levels)"
    ~count:8
    (QCheck.pair arb_seeded_trace arb_seeded_trace)
    (fun (a, b) ->
      let ta = seeded_trace a and tb = seeded_trace b in
      let pool = Core.Pool.create () in
      List.for_all
        (fun level ->
          let fresh tr = strip_result (Core.Runner.run_trace ~level tr) in
          let pooled tr =
            strip_result (Core.Runner.run_trace ~level ~pool tr)
          in
          (* Two different traces back-to-back on one pooled session, then
             the first again: any state leaking across a reset shows up in
             one of the three comparisons against the fresh-build twins. *)
          pooled ta = fresh ta && pooled tb = fresh tb && pooled ta = fresh ta)
        [ Core.Level.Rtl; Core.Level.L1; Core.Level.L2 ]
      && Core.Pool.builds pool = 3 (* one session per level, ever *)
      && Core.Pool.hits pool = 6)

let prop_pooled_program_bit_exact =
  QCheck.Test.make ~name:"pooled run_program = fresh run_program" ~count:6
    (QCheck.make
       Gen.(pair (int_range 4 10) (int_bound 2))
       ~print:(fun (n, idx) -> Printf.sprintf "n=%d icache_idx=%d" n idx))
    (fun (n, size_idx) ->
      let icache_lines = [| None; Some 2; Some 8 |].(size_idx) in
      let program = Soc.Asm.assemble (Core.Test_programs.bubble_sort ~n) in
      let strip_run (pr : Core.Runner.program_run) =
        (strip_result pr.Core.Runner.result, pr.Core.Runner.fault)
      in
      let fresh =
        strip_run (Core.Runner.run_program ?icache_lines program)
      in
      let pool = Core.Pool.create () in
      let pooled () =
        strip_run (Core.Runner.run_program ?icache_lines ~pool program)
      in
      pooled () = fresh && pooled () = fresh && Core.Pool.builds pool = 1)

let prop_pooled_adaptive_bit_exact =
  QCheck.Test.make
    ~name:
      "pooled run_adaptive = fresh run_adaptive (spliced totals, any timed \
       script, either issue mode)"
    ~count:8
    (QCheck.make
       Gen.(
         triple
           (pair (int_range 200 600) (int_range 48 128))
           (list_size (int_range 1 5)
              (pair (int_range 16 160) (oneofl Core.Level.timed)))
           (oneofl [ `Serial; `Pipelined ]))
       ~print:(fun ((n, phase), script, mode) ->
         Printf.sprintf "n=%d phase=%d %s %s" n phase
           (Schedule.to_string script)
           (match mode with `Serial -> "serial" | `Pipelined -> "pipelined")))
    (fun ((n, phase), script, mode) ->
      let trace = Core.Workloads.mixed_phase_trace ~phase ~n () in
      let policy = Schedule.policy script in
      let fresh =
        strip_adaptive (Core.Runner.run_adaptive ~mode ~policy trace)
      in
      let pool = Core.Pool.create () in
      let pooled () =
        strip_adaptive (Core.Runner.run_adaptive ~mode ~pool ~policy trace)
      in
      (* Twice on the pool: the second replay runs on the materials the
         first one reset and returned, master and calibrated layer-2
         model included. *)
      pooled () = fresh && pooled () = fresh && Core.Pool.builds pool = 1)

let strip_row (r : Core.Exploration.row) =
  ( r.Core.Exploration.config.Jcvm.Configs.name,
    r.Core.Exploration.applet, r.Core.Exploration.level,
    r.Core.Exploration.cycles, r.Core.Exploration.bus_pj,
    r.Core.Exploration.transactions, r.Core.Exploration.steps,
    r.Core.Exploration.value, r.Core.Exploration.correct,
    Option.map strip_splice r.Core.Exploration.provenance )

let prop_pooled_exploration_cell_bit_exact =
  QCheck.Test.make
    ~name:"pooled exploration cell = fresh cell (fixed and live adaptive)"
    ~count:4
    (QCheck.make
       Gen.(
         pair (int_bound 2)
           (int_bound (List.length Jcvm.Configs.standard - 1)))
       ~print:(fun (a, c) -> Printf.sprintf "applet_idx=%d config_idx=%d" a c))
    (fun (applet_idx, config_idx) ->
      let applet =
        List.nth [ Jcvm.Applets.fib; Jcvm.Applets.gcd; Jcvm.Applets.crc16 ]
          applet_idx
      in
      let config = List.nth Jcvm.Configs.standard config_idx in
      let policy = Hier.Policy.for_exploration () in
      let fresh_fixed = strip_row (Core.Exploration.run_one ~config applet) in
      let fresh_live =
        strip_row (Core.Exploration.run_one ~policy ~config applet)
      in
      let pool = Core.Pool.create () in
      let pooled_fixed () =
        strip_row (Core.Exploration.run_one ~pool ~config applet)
      in
      let pooled_live () =
        strip_row (Core.Exploration.run_one ~pool ~policy ~config applet)
      in
      pooled_fixed () = fresh_fixed
      && pooled_live () = fresh_live
      && pooled_fixed () = fresh_fixed
      && pooled_live () = fresh_live)

let pool_props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pooled_trace_bit_exact;
      prop_pooled_program_bit_exact;
      prop_pooled_adaptive_bit_exact;
      prop_pooled_exploration_cell_bit_exact;
    ]

let suite = suite @ pool_props

(* --- a sink is a run input: traced runs keep their pooled path --- *)

module Traffic = Platform_traffic

let bits = Int64.bits_of_float

let profile_bits =
  Option.map (fun p -> Array.map bits (Power.Profile.to_array p))

(* Every result field but the wall clock, floats and profile by bits. *)
let result_bits (r : Core.Runner.result) =
  ( r.Core.Runner.level, r.cycles, r.txns, r.beats, r.errors, r.transitions,
    bits r.bus_pj, bits r.component_pj, profile_bits r.profile )

let adaptive_bits (a : Core.Runner.adaptive_run) =
  ( strip_adaptive a,
    bits a.Core.Runner.bus_pj,
    List.map
      (fun (w : Hier.Splice.window) ->
        (bits w.Hier.Splice.bus_pj, profile_bits w.Hier.Splice.profile))
      a.Core.Runner.splice.Hier.Splice.windows )

(* What a sink holds: every event (value by bits), the drop count and
   the metrics. *)
let recorded sink =
  ( List.map
      (fun (e : Obs.Event.t) ->
        ( Obs.Event.kind_code e.kind, e.cycle, e.id, e.arg, e.arg2,
          bits e.value ))
      (Obs.Sink.events sink),
    Obs.Sink.dropped sink,
    Obs.Metrics.view (Obs.Sink.metrics sink) )

(* The shape both properties check, for a [run ?sink ?pool case]: after
   a traced warm-up run on a pool, a traced checkout equals a traced
   fresh build in its results and in its sink; then an untraced checkout
   equals an untraced fresh build, and neither earlier sink records
   anything more. *)
let sink_keeps_pooled_path ~strip
    (run : ?sink:Obs.Sink.t -> ?pool:Core.Pool.t -> Traffic.t -> 'r) ~warm
    case =
  let pool = Core.Pool.create () in
  let traced ?pool c =
    let sink = Obs.Sink.create () in
    let r = run ~sink ?pool c in
    (sink, r)
  in
  let warm_sink, _ = traced ~pool warm in
  let hits = Core.Pool.hits pool in
  let pooled_sink, pooled = traced ~pool case in
  let fresh_sink, fresh = traced case in
  let warm_log = recorded warm_sink and pooled_log = recorded pooled_sink in
  let plain_pooled = run ?sink:None ~pool case in
  strip pooled = strip fresh
  && pooled_log = recorded fresh_sink
  && strip plain_pooled = strip (run ?sink:None ?pool:None case)
  && recorded pooled_sink = pooled_log
  && recorded warm_sink = warm_log
  && Core.Pool.hits pool = hits + 2

let prop_pooled_sink_trace =
  QCheck.Test.make
    ~name:
      "pooled traced run_trace = fresh traced run_trace, events too (rtl, \
       l1, l2, l3)"
    ~count:10
    (QCheck.pair (Traffic.arb ~max_n:40 ()) (Traffic.arb ~max_n:40 ()))
    (fun (warm, case) ->
      List.for_all
        (fun level ->
          let run ?sink ?pool (c : Traffic.t) =
            Core.Runner.run_trace ~level ~record_profile:true
              ~mode:c.Traffic.mode ?init:(Traffic.init c) ?sink ?pool
              (Traffic.trace c)
          in
          sink_keeps_pooled_path ~strip:result_bits run ~warm case)
        Core.Level.[ Rtl; L1; L2; L3 ])

let prop_pooled_sink_adaptive =
  QCheck.Test.make
    ~name:
      "pooled traced run_adaptive = fresh traced run_adaptive, events too \
       (random timed scripts)"
    ~count:8
    (QCheck.triple
       (Traffic.arb ~max_n:200 ())
       (Traffic.arb ~max_n:200 ())
       (QCheck.make
          Gen.(
            list_size (int_range 1 5)
              (pair (int_range 8 80) (oneofl Core.Level.timed)))
          ~print:Schedule.to_string))
    (fun (warm, case, script) ->
      let policy = Schedule.policy script in
      let run ?sink ?pool (c : Traffic.t) =
        Core.Runner.run_adaptive ~record_profile:true ~mode:c.Traffic.mode
          ?init:(Traffic.init c) ?sink ?pool ~policy (Traffic.trace c)
      in
      sink_keeps_pooled_path ~strip:adaptive_bits run ~warm case)

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_pooled_sink_trace; prop_pooled_sink_adaptive ]

(* --- compiled trace replay: plan evaluation = interpretation --- *)

(* The trace compiler's whole contract is bit-exactness (DESIGN.md
   section 14): the plan's energy fold must reproduce the interpreted
   estimator's floats to the last bit — totals and the per-cycle
   profile — at every covered level and bus cadence, and a multi-point
   batch must equal the corresponding single-point replays. *)

let profile_bits (r : Core.Runner.result) =
  Option.map Power.Profile.to_array r.Core.Runner.profile

(* One compiled point: a one-element [replay_multi]. *)
let replay_one ?(record_profile = false)
    ?(point =
      { Compile.Eval.table = Power.Characterization.default; l2_params = None })
    plan =
  List.hd (Core.Runner.replay_multi ~record_profile ~points:[ point ] plan)

let prop_compiled_trace_bit_exact =
  QCheck.Test.make
    ~name:"compiled run_trace = interpreted run_trace (L1/L2 x cadence)"
    ~count:8 arb_seeded_trace
    (fun seeded ->
      let trace = seeded_trace seeded in
      List.for_all
        (fun (level, mode) ->
          let i =
            Core.Runner.run_trace ~level ~mode ~record_profile:true trace
          in
          let c =
            replay_one ~record_profile:true
              (Core.Runner.compile_trace ~level ~mode trace)
          in
          strip_result i = strip_result c && profile_bits i = profile_bits c)
        [
          (Core.Level.L1, `Serial);
          (Core.Level.L1, `Pipelined);
          (Core.Level.L2, `Serial);
          (Core.Level.L2, `Pipelined);
        ])

(* Three parameter points spanning table scaling and a layer-2 lump
   variant — enough to catch any cross-lane bleed in the shared decode. *)
let compiled_points =
  [
    { Compile.Eval.table = Power.Characterization.default; l2_params = None };
    {
      Compile.Eval.table =
        Power.Characterization.scale Power.Characterization.default 0.5;
      l2_params =
        Some
          {
            Tlm2.Energy.default_params with
            Tlm2.Energy.boundary_data_toggles = 9.0;
          };
    };
    {
      Compile.Eval.table =
        Power.Characterization.scale Power.Characterization.default 1.75;
      l2_params = None;
    };
  ]

let prop_compiled_multi_point =
  QCheck.Test.make
    ~name:"multi-point replay = N single replays = N interpreted runs"
    ~count:6 arb_seeded_trace
    (fun seeded ->
      let trace = seeded_trace seeded in
      List.for_all
        (fun level ->
          let plan = Core.Runner.compile_trace ~level trace in
          let multi =
            Core.Runner.replay_multi ~record_profile:true
              ~points:compiled_points plan
          in
          List.for_all2
            (fun (pt : Compile.Eval.point) m ->
              let single =
                replay_one ~record_profile:true ~point:pt plan
              in
              let interp =
                Core.Runner.run_trace ~level ~record_profile:true
                  ~table:pt.Compile.Eval.table
                  ?l2_params:pt.Compile.Eval.l2_params trace
              in
              strip_result m = strip_result single
              && strip_result m = strip_result interp
              && profile_bits m = profile_bits single
              && profile_bits m = profile_bits interp)
            compiled_points multi)
        [ Core.Level.L1; Core.Level.L2 ])

let prop_plan_memo_counters =
  QCheck.Test.make ~name:"plan memo: one build then hits, bit-exact replays"
    ~count:6 arb_seeded_trace
    (fun seeded ->
      let trace = seeded_trace seeded in
      let pool = Core.Pool.create () in
      let run () =
        strip_result
          (replay_one
             (Core.Runner.compile_trace ~level:Core.Level.L1 ~pool trace))
      in
      let a = run () in
      let b = run () in
      a = strip_result (Core.Runner.run_trace ~level:Core.Level.L1 trace)
      && a = b
      && Core.Pool.memo_builds pool = 1
      && Core.Pool.memo_hits pool = 1)

(* Every level has a plan, so the one capture refusal left is a system
   without an energy model: a typed error instead of an empty plan.  The
   gate level always estimates. *)
let test_capture_refusals () =
  List.iter
    (fun level ->
      Alcotest.(check bool)
        (Core.Level.to_string level ^ " estimation off")
        true
        (match
           Core.System.capture (Core.System.create ~level ~estimate:false ())
             ~cycles:0
         with
        | _ -> false
        | exception Invalid_argument _ -> true))
    Core.Level.[ L1; L2; L3 ]

(* A result down to the bits of its floats: the scalars, [bus_pj],
   [component_pj] and every profile entry. *)
let result_bits (r : Core.Runner.result) =
  let bits = Int64.bits_of_float in
  ( ( r.Core.Runner.level,
      r.Core.Runner.cycles,
      r.Core.Runner.txns,
      r.Core.Runner.beats,
      r.Core.Runner.errors,
      r.Core.Runner.transitions ),
    bits r.Core.Runner.bus_pj,
    bits r.Core.Runner.component_pj,
    Option.map
      (fun p -> Array.map bits (Power.Profile.to_array p))
      r.Core.Runner.profile )

(* The gate-level plan is the wire body captured at layer 1 and the
   layer-3 plan its carrier's lump stream; either replays to the
   interpreted run bit for bit, in both issue modes, profiles included. *)
let prop_compiled_rtl_l3_bit_exact =
  QCheck.Test.make
    ~name:"compiled = interpreted at rtl and l3, bit for bit (both modes)"
    ~count:8 arb_seeded_trace
    (fun seeded ->
      let trace = seeded_trace seeded in
      List.for_all
        (fun (level, mode) ->
          let i =
            Core.Runner.run_trace ~level ~mode ~record_profile:true trace
          in
          let c =
            replay_one ~record_profile:true
              (Core.Runner.compile_trace ~level ~mode trace)
          in
          i.Core.Runner.profile <> None && result_bits i = result_bits c)
        [
          (Core.Level.Rtl, `Serial);
          (Core.Level.Rtl, `Pipelined);
          (Core.Level.L3, `Serial);
          (Core.Level.L3, `Pipelined);
        ])

(* The gate-level plan is the wire body captured at layer 1, folded by
   playing its rows back through Diesel: on platform traffic, blank and
   filled memories, both issue modes, it equals the interpreted gate
   level bit for bit — bus_pj, component_pj and every profile entry. *)
let prop_compiled_rtl_bit_exact =
  QCheck.Test.make
    ~name:"compiled = interpreted at rtl on platform traffic, bit for bit"
    ~count:10 (Traffic.arb ())
    (fun case ->
      List.for_all
        (fun (mode, mem) ->
          let c = { case with Traffic.mode; mem } in
          let trace = Traffic.trace c and init = Traffic.init c in
          let level = Core.Level.Rtl in
          let i =
            Core.Runner.run_trace ~level ~mode ?init ~record_profile:true
              trace
          in
          let p = Core.Runner.compile_trace ~level ~mode ?init trace in
          i.Core.Runner.profile <> None
          && result_bits i = result_bits (replay_one ~record_profile:true p))
        [
          (`Serial, Traffic.Blank);
          (`Serial, Traffic.Filled);
          (`Pipelined, Traffic.Blank);
          (`Pipelined, Traffic.Filled);
        ])

(* The gate level and layer 1 record one wire body: compiling a trace at
   rtl and then at l1 in one pool builds one plan, and the two plans
   share the body and differ only in their level. *)
let test_rtl_l1_share_plan () =
  let trace = Core.Workloads.table3_trace ~n:64 in
  List.iter
    (fun mode ->
      let pool = Core.Pool.create () in
      let compile level = Core.Runner.compile_trace ~level ~mode ~pool trace in
      let rtl = compile Core.Level.Rtl in
      let l1 = compile Core.Level.L1 in
      Alcotest.(check int) "one plan built" 1 (Core.Pool.memo_builds pool);
      Alcotest.(check int) "one plan hit" 1 (Core.Pool.memo_hits pool);
      Alcotest.(check bool) "one body" true
        (rtl.Compile.Plan.body == l1.Compile.Plan.body);
      Alcotest.(check bool) "levels differ" true
        (rtl.Compile.Plan.meta.Compile.Plan.level = Core.Level.Rtl
        && l1.Compile.Plan.meta.Compile.Plan.level = Core.Level.L1))
    [ `Serial; `Pipelined ]

(* --- the class table is lossless --- *)

(* A test-local tap: what the plan taps see, recorded without interning —
   per closed cycle with something to price, the cycle and its key: the
   six old-xor-new words at the gate level and layer 1 (one engine, so
   either system's tap), the cycle's lumps at layer 2, each as kind, dir,
   burst and the inter-beat popcounts of a data lump. *)
let raw_rows ~level ~mode ?init trace =
  let system = Core.System.create ~level ~estimate:true () in
  let rows = ref [] and cycle = ref 0 in
  let wires w =
    let open Rtl.Wires in
    let key =
      [ w.addr lxor w.addr_next; w.be lxor w.be_next;
        w.wdata lxor w.wdata_next; w.rdata lxor w.rdata_next;
        w.ctrl lxor w.ctrl_next; w.sel lxor w.sel_next ]
    in
    if List.exists (( <> ) 0) key then rows := (!cycle, key) :: !rows;
    incr cycle
  in
  let lumps = ref [] in
  let close () =
    if !lumps <> [] then
      rows := (!cycle, List.concat (List.rev !lumps)) :: !rows;
    lumps := []
  in
  (match Core.System.bus system with
  | Core.System.Rtl_bus b -> Rtl.Bus.set_tap b (Some wires)
  | Core.System.L1_bus b -> Rtl.Bus.set_tap (Tlm1.Bus.engine b) (Some wires)
  | Core.System.L2_bus b ->
    Tlm2.Energy.set_observer
      (Option.get (Tlm2.Bus.energy b))
      (Some
         (function
         | Tlm2.Energy.Cycle ->
           close ();
           incr cycle
         | Tlm2.Energy.Addr_lump _ -> lumps := [ 0; 0; 0 ] :: !lumps
         | Tlm2.Energy.Data_lump txn ->
           let d = txn.Ec.Txn.data in
           lumps :=
             ([ 1; (if txn.Ec.Txn.dir = Ec.Txn.Read then 0 else 1);
                txn.Ec.Txn.burst ]
             @ List.init (txn.Ec.Txn.burst - 1) (fun i ->
                   Sim.Bits.popcount (d.(i + 1) lxor d.(i))))
             :: !lumps)));
  (match init with Some f -> f system | None -> ());
  let kernel = Core.System.kernel system in
  ignore
    (Soc.Trace_master.run
       (Soc.Trace_master.create ~kernel ~port:(Core.System.port system) ~mode
          trace)
       ~kernel ());
  close ();
  List.rev !rows

let class_keys (b : Compile.Plan.body) =
  match b.Compile.Plan.classes with
  | Compile.Plan.Wires { Compile.Plan.words = ws; _ } ->
    Array.init (Array.length ws / 6) (fun c ->
        Array.to_list (Array.sub ws (6 * c) 6))
  | Compile.Plan.L2 { l2_off; l2_words } ->
    Array.init (Array.length l2_off - 1) (fun c ->
        let len = l2_off.(c + 1) - l2_off.(c) in
        Array.to_list (Array.sub l2_words l2_off.(c) len))

(* Class ids count up from 0 in order of first occurrence: each row's id
   is at most one past every id before it, and every class has a row. *)
let first_occurrence_order (b : Compile.Plan.body) n =
  let next = ref 0 in
  Array.for_all
    (fun c ->
      if c = !next then incr next;
      c < !next)
    b.Compile.Plan.row_class
  && !next = n

(* Expanding a plan's rows through its classes gives back what the raw
   tap saw, cycle for cycle, at rtl, l1 and l2 on platform traffic, blank
   and filled memories, both issue modes; the classes are pairwise
   distinct and numbered in first-occurrence order. *)
let prop_class_table_lossless =
  QCheck.Test.make ~name:"plan class table is lossless" ~count:10
    (Traffic.arb ())
    (fun case ->
      List.for_all
        (fun (level, mode, mem) ->
          let c = { case with Traffic.mode; mem } in
          let trace = Traffic.trace c and init = Traffic.init c in
          let plan = Core.Runner.compile_trace ~level ~mode ?init trace in
          let b = plan.Compile.Plan.body in
          let keys = class_keys b in
          let distinct = Hashtbl.create 64 in
          Array.iter (fun k -> Hashtbl.replace distinct k ()) keys;
          let rc = b.Compile.Plan.row_cycle and rk = b.Compile.Plan.row_class in
          let expanded =
            List.init (Array.length rc) (fun r -> (rc.(r), keys.(rk.(r))))
          in
          expanded = raw_rows ~level ~mode ?init trace
          && Hashtbl.length distinct = Array.length keys
          && first_occurrence_order b (Array.length keys))
        (List.concat_map
           (fun level ->
             List.concat_map
               (fun mode ->
                 [
                   (level, mode, Traffic.Blank); (level, mode, Traffic.Filled);
                 ])
               [ `Serial; `Pipelined ])
           Core.Level.[ Rtl; L1; L2 ]))

(* The per-tag memo rows of [Report.pool_stats] add up to the totals:
   every plan kind is tagged, the exploration cell included. *)
let test_memo_tags_sum () =
  let pool = Core.Pool.create () in
  let trace = Core.Workloads.table3_trace ~n:16 in
  for _ = 1 to 2 do
    ignore (Core.Runner.compile_trace ~pool trace);
    ignore
      (Core.Contention.compile ~pool
         (Core.Contention.default_masters ~n:16 Core.Contention.Single));
    ignore
      (Core.Exploration.run_one ~pool
         ~config:(List.hd Jcvm.Configs.standard)
         Jcvm.Applets.fib)
  done;
  let tags = Core.Pool.memo_tag_stats pool in
  Alcotest.(check (list string))
    "tags" [ "explore"; "fabric"; "trace" ]
    (List.map (fun (t, _, _) -> t) tags);
  let sum f = List.fold_left (fun acc row -> acc + f row) 0 tags in
  Alcotest.(check int) "builds" 3 (Core.Pool.memo_builds pool);
  Alcotest.(check int) "hits" 3 (Core.Pool.memo_hits pool);
  Alcotest.(check int) "tag builds sum" (Core.Pool.memo_builds pool)
    (sum (fun (_, _, b) -> b));
  Alcotest.(check int) "tag hits sum" (Core.Pool.memo_hits pool)
    (sum (fun (_, h, _) -> h))

(* The layer-1 fold: the kernel's k lanes equal k single-lane folds of
   the interpreter and a per-bit reference scan, bit for bit, on random
   tables and random toggle words over each group's full width.  k runs
   to 40, so the kernel's 16-lane blocks, its remainder and several
   blocks together all run. *)
let gen_l1_word width =
  let open Gen in
  frequency
    [
      (1, return 0);
      ( 4,
        map
          (fun (a, b, c) ->
            ((a lsl 32) lor (b lsl 16) lor c) land ((1 lsl width) - 1))
          (triple (int_bound 0xFFFF) (int_bound 0xFFFF) (int_bound 0xFFFF)) );
    ]

let gen_l1_cycle =
  let open Gen in
  let word = gen_l1_word in
  let* a = word Ec.Signals.addr_wires in
  let* b = word Ec.Signals.be_wires in
  let* w = word Ec.Signals.data_wires in
  let* r = word Ec.Signals.data_wires in
  let* c = word Ec.Signals.ctrl_count in
  return [| a; b; w; r; c |]

let gen_l1_tables =
  Gen.(
    list_size (int_range 1 40)
      (array_size (return Ec.Signals.count) (float_bound_inclusive 5.0)))

let gen_l1_fold_case =
  Gen.pair gen_l1_tables (Gen.list_size (Gen.int_range 1 20) gen_l1_cycle)

let l1_tables energies =
  Array.of_list
    (List.map
       (fun energy_pj ->
         Power.Characterization.derive ~name:"random" ~energy_pj
           ~transitions:(Array.make Ec.Signals.count 1))
       energies)

(* A hand-built layer-1 plan over [cycles] closed cycles: class [c] is
   [classes.(c)] (five toggle words) with a zero select word, through the
   segment-table builder. *)
let l1_wires classes =
  Compile.Plan.wires
    (Array.concat (List.map (fun w -> Array.append w [| 0 |]) classes))

let l1_plan_of ~cycles wires ~row_cycle ~row_class =
  {
    Compile.Plan.meta =
      {
        Compile.Plan.level = Core.Level.L1;
        cycles;
        txns = 0;
        beats = 0;
        errors = 0;
        transitions = 0;
        component_pj = 0.0;
      };
    body =
      {
        Compile.Plan.row_cycle;
        row_class;
        classes = Compile.Plan.Wires wires;
      };
  }

let l1_plan ~cycles classes ~row_cycle ~row_class =
  l1_plan_of ~cycles (l1_wires classes) ~row_cycle ~row_class

(* Each lane's total and dense profile. *)
let eval_l1_lanes plan tables =
  List.map
    (fun (o : Compile.Eval.outcome) ->
      ( o.Compile.Eval.bus_pj,
        Power.Profile.to_array (Option.get o.Compile.Eval.profile) ))
    (Compile.Eval.eval_multi ~record_profile:true plan
       ~points:
         (Array.to_list
            (Array.map
               (fun table -> { Compile.Eval.table; l2_params = None })
               tables)))

(* The estimator as first written: each group's toggled bits summed from
   0.0 by scanning every bit position, groups added left to right. *)
let reference_l1_fold table words =
  let widths =
    [| Ec.Signals.addr_wires; Ec.Signals.be_wires; Ec.Signals.data_wires;
       Ec.Signals.data_wires; Ec.Signals.ctrl_count |]
  in
  let pj = ref 0.0 and bits = ref 0 and base = ref 0 in
  Array.iteri
    (fun g width ->
      let s = ref 0.0 in
      for i = 0 to width - 1 do
        if (words.(g) lsr i) land 1 = 1 then begin
          s :=
            !s
            +. Power.Characterization.energy_per_transition table
                 (Ec.Signals.of_index (!base + i));
          incr bits
        end
      done;
      pj := !pj +. !s;
      base := !base + width)
    widths;
  (!pj, !bits)

(* The lane kernel's variant hook, declared here only (lane_kernel.c):
   [lane_variant v] forces variant [v] (0 baseline x86-64, 1 AVX2,
   2 AVX-512F) and returns [v] if the CPU supports it, else returns -1
   and changes nothing; [lane_variant (-1)] restores the CPU's choice. *)
external lane_variant : int -> int = "lane_variant" [@@noalloc]

(* [check ()] under every kernel variant the host supports, then the
   CPU's choice again. *)
let under_every_variant check =
  Fun.protect
    ~finally:(fun () -> ignore (lane_variant (-1)))
    (fun () ->
      List.for_all
        (fun v -> lane_variant v <> v || check ())
        [ 0; 1; 2 ])

(* The interpreted layer-1 model, one lane: each cycle's words played
   onto the wires and closed by [Tlm1.Energy.end_cycle], which prices
   them through the lane kernel at k = 1.  Each cycle's energy and
   transition count. *)
let interpreted_l1 table cycles =
  let w = Rtl.Wires.create ~n_slaves:1 in
  let e = Tlm1.Energy.create table in
  List.map
    (fun c ->
      let before = Tlm1.Energy.transitions_total e in
      Rtl.Wires.toggle w ~addr:c.(0) ~be:c.(1) ~wdata:c.(2) ~rdata:c.(3)
        ~ctrl:c.(4) ~sel:0;
      Tlm1.Energy.end_cycle e w;
      ( Power.Meter.last_cycle_pj (Tlm1.Energy.meter e),
        Tlm1.Energy.transitions_total e - before ))
    cycles

(* A plan of one row per cycle, each its own class, folded over the
   tables of [energies]: each lane's profile, the interpreted model and
   the per-bit scan agree on every cycle, bit for bit, under every
   kernel variant the host supports. *)
let l1_lanes_exact energies cycles =
  let tables = l1_tables energies in
  let n = List.length cycles in
  let plan =
    l1_plan ~cycles:n cycles ~row_cycle:(Array.init n Fun.id)
      ~row_class:(Array.init n Fun.id)
  in
  let bits = Int64.bits_of_float in
  under_every_variant (fun () ->
      List.for_all2
        (fun table (_, profile) ->
          List.for_all2
            (fun (w, (one, n1)) e ->
              let ref_pj, ref_bits = reference_l1_fold table w in
              n1 = ref_bits && bits e = bits one && bits e = bits ref_pj)
            (List.combine cycles (interpreted_l1 table cycles))
            (Array.to_list profile))
        (Array.to_list tables) (eval_l1_lanes plan tables))

let prop_l1_fold_lanes =
  QCheck.Test.make
    ~name:"l1 fold over k lanes = k single-lane folds = per-bit scan"
    ~count:200 (QCheck.make gen_l1_fold_case)
    (fun (energies, cycles) -> l1_lanes_exact energies cycles)

(* The segment pricer: class tables whose groups repeat — each group's
   word drawn from a small pool, so many classes share segments — with
   every popcount from 0 to the group's width, over k = 1 to 40 tables
   whose energies include zeros, subnormals and large values. *)
let gen_popcount_word width =
  let open Gen in
  let* p = int_bound width in
  let* order = shuffle_l (List.init width Fun.id) in
  return
    (List.fold_left ( lor ) 0
       (List.filteri (fun j _ -> j < p) (List.map (fun i -> 1 lsl i) order)))

let gen_segment_case =
  let open Gen in
  let widths =
    Ec.Signals.
      [| addr_wires; be_wires; data_wires; data_wires; ctrl_count |]
  in
  let* pools =
    flatten_a
      (Array.map
         (fun w -> array_size (int_range 1 4) (gen_popcount_word w))
         widths)
  in
  let* classes =
    list_size (int_range 1 24)
      (flatten_a
         (Array.map
            (fun pool ->
              frequency [ (1, return 0); (4, oneofa pool) ])
            pools))
  in
  let energy =
    frequency
      [
        (1, return 0.0);
        (1, map (fun i -> Int64.float_of_bits (Int64.of_int i)) (int_range 1 4096));
        (1, map (fun x -> x *. 1e300) (float_bound_inclusive 1.0));
        (4, float_bound_inclusive 5.0);
      ]
  in
  let* tables =
    list_size (int_range 1 40) (array_size (return Ec.Signals.count) energy)
  in
  return (tables, classes)

let prop_segment_pricing =
  QCheck.Test.make ~name:"segment pricing = per-bit scan" ~count:100
    (QCheck.make gen_segment_case)
    (fun (energies, classes) -> l1_lanes_exact energies classes)

(* The kernel's walk: random class tables and row streams — classes
   repeat, cycles skip — against a sequential loop over the reference
   class energies: each lane's total adds the rows' energies onto 0.0 in
   cycle order, and its dense profile holds each row's energy at its
   cycle, 0.0 elsewhere. *)
let gen_walk_case =
  let open Gen in
  let* tables = gen_l1_tables in
  let* classes = list_size (int_range 1 12) gen_l1_cycle in
  let* rows =
    list_size (int_range 0 60)
      (pair (int_range 1 3) (int_bound (List.length classes - 1)))
  in
  return (tables, classes, rows)

let prop_walk_sequential =
  QCheck.Test.make ~name:"kernel walk = sequential walk" ~count:200
    (QCheck.make gen_walk_case)
    (fun (energies, classes, rows) ->
      let tables = l1_tables energies in
      (* Each row lands [gap] cycles after the previous one. *)
      let row_cycle =
        Array.of_list
          (List.rev
             (snd
                (List.fold_left
                   (fun (c, acc) (gap, _) -> (c + gap, (c + gap - 1) :: acc))
                   (0, []) rows)))
      in
      let cycles =
        if rows = [] then 3 else row_cycle.(Array.length row_cycle - 1) + 2
      in
      let row_class = Array.of_list (List.map snd rows) in
      let plan = l1_plan ~cycles classes ~row_cycle ~row_class in
      let classes = Array.of_list classes in
      let bits = Int64.bits_of_float in
      under_every_variant @@ fun () ->
      List.for_all2
        (fun table (total, profile) ->
          let e = Array.map (fun w -> fst (reference_l1_fold table w)) classes in
          let t = ref 0.0 and p = Array.make cycles 0.0 in
          Array.iteri
            (fun r c ->
              t := !t +. e.(row_class.(r));
              p.(c) <- e.(row_class.(r)))
            row_cycle;
          bits total = bits !t
          && Array.length profile = cycles
          && Array.for_all2 (fun x y -> bits x = bits y) profile p)
        (Array.to_list tables) (eval_l1_lanes plan tables))

(* Hand-built bodies the builder or the kernel must refuse rather than
   read past: class words wider than their group (the builder), segment
   tables broken one field at a time, and row classes outside the class
   table at layers 1 and 2. *)
let test_kernel_refuses_bad_bodies () =
  let points =
    [ { Compile.Eval.table = Power.Characterization.default;
        l2_params = None } ]
  in
  let refused what plan =
    match Compile.Eval.eval_multi ~record_profile:false plan ~points with
    | _ -> Alcotest.failf "%s: evaluated" what
    | exception Invalid_argument _ -> ()
  in
  let unbuilt what classes =
    match l1_wires classes with
    | _ -> Alcotest.failf "%s: built" what
    | exception Invalid_argument _ -> ()
  in
  let quiet = [| 0; 0; 0; 0; 0 |] in
  unbuilt "35-bit address word" [ quiet; [| 1 lsl 34; 0; 0; 0; 0 |] ];
  unbuilt "12-bit control word"
    [ [| 0; 0; 0; 0; 1 lsl Ec.Signals.ctrl_count |] ];
  unbuilt "negative address word" [ [| -1; 0; 0; 0; 0 |] ];
  (match Compile.Plan.wires [| 1; 0; 0 |] with
  | _ -> Alcotest.fail "three words: built"
  | exception Invalid_argument _ -> ());
  (* Two classes over three segments of one wire each, and one of two. *)
  let w = l1_wires [ [| 1; 0; 2; 0; 0 |]; [| 0; 0; 2; 3; 0 |] ] in
  let plan w =
    l1_plan_of ~cycles:2 w ~row_cycle:[| 0; 1 |] ~row_class:[| 0; 1 |]
  in
  ignore (Compile.Eval.eval_multi ~record_profile:false (plan w) ~points);
  let set a i x =
    let a = Array.copy a in
    a.(i) <- x;
    a
  in
  let segs = Array.length w.Compile.Plan.seg_off - 1 in
  Alcotest.(check int) "segments" 4 segs;
  refused "segment wire 113"
    (plan
       { w with
         Compile.Plan.seg_wire =
           (let b = Bytes.copy w.Compile.Plan.seg_wire in
            Bytes.set_uint8 b 0 Ec.Signals.count;
            b);
       });
  refused "class segment id = segment count"
    (plan
       { w with Compile.Plan.class_seg = set w.Compile.Plan.class_seg 7 segs });
  refused "decreasing seg_off"
    (plan
       { w with
         Compile.Plan.seg_off =
           set w.Compile.Plan.seg_off 2 (w.Compile.Plan.seg_off.(1) - 1) });
  refused "truncated class segments"
    (plan
       { w with
         Compile.Plan.class_seg = Array.sub w.Compile.Plan.class_seg 0 9 });
  List.iter
    (fun row_class ->
      refused
        (Printf.sprintf "l1 row class %d of 1" row_class)
        (l1_plan ~cycles:1 [ quiet ] ~row_cycle:[| 0 |]
           ~row_class:[| row_class |]);
      refused
        (Printf.sprintf "l2 row class %d of 1" row_class)
        {
          Compile.Plan.meta =
            {
              (l1_plan ~cycles:1 [] ~row_cycle:[||] ~row_class:[||])
                .Compile.Plan.meta
              with
              Compile.Plan.level = Core.Level.L2;
            };
          body =
            {
              Compile.Plan.row_cycle = [| 0 |];
              row_class = [| row_class |];
              classes =
                Compile.Plan.L2 { l2_off = [| 0; 3 |]; l2_words = [| 0; 0; 0 |] };
            };
        })
    [ 1; 1_000_000; -1 ];
  (* Two layer-2 classes: an address lump and a burst-4 read, then a
     single write. *)
  let l2_off = [| 0; 9; 12 |]
  and l2_words = [| 0; 0; 0; 1; 0; 4; 1; 2; 3; 1; 1; 1 |] in
  let l2 l2_off l2_words =
    let p = l1_plan ~cycles:2 [] ~row_cycle:[||] ~row_class:[||] in
    {
      Compile.Plan.meta = { p.Compile.Plan.meta with level = Core.Level.L2 };
      body =
        {
          Compile.Plan.row_cycle = [| 0; 1 |];
          row_class = [| 0; 1 |];
          classes = Compile.Plan.L2 { l2_off; l2_words };
        };
    }
  in
  ignore (Compile.Eval.eval_multi ~record_profile:false (l2 l2_off l2_words) ~points);
  refused "decreasing l2_off" (l2 (set l2_off 0 10) l2_words);
  refused "l2_off past the words" (l2 (set l2_off 2 13) l2_words);
  refused "lump kind 2" (l2 l2_off (set l2_words 3 2));
  refused "burst 0" (l2 l2_off (set l2_words 5 0));
  refused "burst past its class" (l2 l2_off (set l2_words 5 5))

(* The layer-2 data lump written out from its definition (DESIGN.md
   section 14): boundary toggles plus the inter-beat counts in beat order,
   times the data-bit average, plus the strobe pulses times the
   control-bit average; and the address lump likewise. *)
let reference_l2_lumps table (p : Tlm2.Energy.params) ~read ~burst pops off =
  let module C = Power.Characterization in
  let toggles = ref p.Tlm2.Energy.boundary_data_toggles in
  for j = 0 to burst - 2 do
    toggles := !toggles +. float_of_int pops.(off + j)
  done;
  let strobes =
    (p.Tlm2.Energy.strobe_pulses_per_beat *. float_of_int burst)
    +. if burst > 1 then 4.0 else 0.0
  in
  let avg_bit = if read then C.avg_rdata_bit table else C.avg_wdata_bit table in
  let data = (!toggles *. avg_bit) +. (strobes *. C.avg_ctrl_bit table) in
  let addr =
    (p.Tlm2.Energy.boundary_addr_toggles *. C.avg_addr_bit table)
    +. (p.Tlm2.Energy.attr_toggles *. C.avg_be_bit table)
    +. (3.0 *. p.Tlm2.Energy.attr_toggles *. C.avg_ctrl_bit table)
    +. (2.0 *. p.Tlm2.Energy.strobe_pulses_per_phase *. C.avg_ctrl_bit table)
  in
  (addr, data)

(* The lane kernel's layer-2 entry, declared here only (lane_kernel.c):
   [lane_price_l2 off words ln e k] prices every class of a layer-2 class
   table under the k lanes [ln], class [c] of lane [l] into
   [e.(c * k + l)], and returns 0, or nonzero if it refused the table. *)
external lane_price_l2 :
  int array -> int array -> Tlm2.Energy.lanes -> float array -> int -> int
  = "lane_price_l2"
[@@noalloc]

(* The k-lane layer-2 class pricing as OCaml ran it before the kernel
   (Compile.Eval's class loop and Tlm2.Energy's data lump): per class and
   lane, its lumps onto 0.0 in event order; a data lump per lane is the
   first beat against an unknown bus state, then the exact Hamming
   distances between consecutive beats of the burst, in beat order. *)
let reference_l2_classes ~off ~(words : int array) (ln : Tlm2.Energy.lanes)
    ~k =
  let data_lump ~read ~burst ~off (out : float array) =
    let fburst = float_of_int burst
    and bursts = if burst > 1 then 4.0 else 0.0 in
    let avg_bit =
      if read then ln.Tlm2.Energy.avg_rdata else ln.Tlm2.Energy.avg_wdata
    in
    for l = 0 to k - 1 do
      let toggles = ref ln.Tlm2.Energy.boundary_data_toggles.(l) in
      for j = 0 to burst - 2 do
        toggles := !toggles +. float_of_int words.(off + j)
      done;
      let strobes =
        (ln.Tlm2.Energy.strobe_pulses_per_beat.(l) *. fburst) +. bursts
      in
      out.(l) <-
        (!toggles *. avg_bit.(l)) +. (strobes *. ln.Tlm2.Energy.avg_ctrl.(l))
    done
  in
  let n = Array.length off - 1 in
  let e = Array.make (n * k) 0.0 and lump = Array.make k 0.0 in
  for c = 0 to n - 1 do
    let i = ref off.(c) in
    while !i < off.(c + 1) do
      let w = !i in
      if words.(w) = 0 then begin
        for l = 0 to k - 1 do
          e.((c * k) + l) <- e.((c * k) + l) +. ln.Tlm2.Energy.addr_lump.(l)
        done;
        i := w + 3
      end
      else begin
        let burst = words.(w + 2) in
        data_lump ~read:(words.(w + 1) = 0) ~burst ~off:(w + 3) lump;
        for l = 0 to k - 1 do
          e.((c * k) + l) <- e.((c * k) + l) +. lump.(l)
        done;
        i := w + 2 + burst
      end
    done
  done;
  e

(* Operands with the edge values the kernel must carry exactly: signed
   zeros (three -0.0 address-lump parameters make a -0.0 address lump,
   which a class sum started at 0.0 turns into +0.0), subnormals and
   values near the top of the exponent range. *)
let gen_edge_float hi =
  Gen.frequency
    [
      (6, Gen.float_bound_inclusive hi);
      (1, Gen.return 0.0);
      (1, Gen.return Float.min_float);
      (1, Gen.return (Int64.float_of_bits 1L));
      (1, Gen.return 1e300);
    ]

let gen_l2_lump_case =
  let open Gen in
  let param = frequency [ (3, gen_edge_float 40.0); (1, return (-0.0)) ] in
  let point =
    pair
      (array_size (return Ec.Signals.count) (gen_edge_float 5.0))
      (map
         (fun (a, d, t, ph, b) ->
           {
             Tlm2.Energy.boundary_addr_toggles = a;
             boundary_data_toggles = d;
             attr_toggles = t;
             strobe_pulses_per_phase = ph;
             strobe_pulses_per_beat = b;
           })
         (tup5 param param param param param))
  in
  let lump =
    frequency
      [
        (1, return `Addr);
        ( 3,
          let* burst = oneofl [ 1; 4 ] and* read = bool in
          let* pops = array_size (return (burst - 1)) (int_bound 32) in
          return (`Data (read, burst, pops)) );
      ]
  in
  pair
    (array_size (return 40) point)
    (list_size (int_range 1 12) (list_size (int_range 1 4) lump))

(* A class table from lumps, as Compile.Plan.l2_observe records it. *)
let l2_table classes =
  let words =
    List.map
      (List.concat_map (function
        | `Addr -> [ 0; 0; 0 ]
        | `Data (read, burst, pops) ->
          [ 1; (if read then 0 else 1); burst ] @ Array.to_list pops))
      classes
  in
  let off = Array.make (List.length words + 1) 0 in
  List.iteri (fun c w -> off.(c + 1) <- off.(c) + List.length w) words;
  (off, Array.of_list (List.concat words))

(* An interpreted data phase whose inter-beat toggle counts are [pops]. *)
let txn_of_pops ~read ~burst pops =
  let data = Array.make burst 0 in
  for i = 1 to burst - 1 do
    data.(i) <- data.(i - 1) lxor ((1 lsl pops.(i - 1)) - 1)
  done;
  let create dir =
    Ec.Txn.create ~id:0 ~kind:Ec.Txn.Data ~dir ~width:Ec.Txn.W32 ~addr:0
      ~burst
  in
  if read then begin
    let t = create Ec.Txn.Read () in
    Array.iteri (Ec.Txn.set_beat t) data;
    t
  end
  else create Ec.Txn.Write ~data ()

let prop_l2_lumps_lanes =
  QCheck.Test.make
    ~name:"l2 lumps over k lanes = k single-lane lumps = reference formula"
    ~count:60 (QCheck.make gen_l2_lump_case)
    (fun (points, classes) ->
      let points =
        Array.map
          (fun (energy_pj, params) ->
            ( Power.Characterization.derive ~name:"random" ~energy_pj
                ~transitions:(Array.make Ec.Signals.count 1),
              params ))
          points
      in
      let off, words = l2_table classes in
      let n = List.length classes and kmax = Array.length points in
      let bits = Int64.bits_of_float in
      let reference = reference_l2_classes ~off ~words (Tlm2.Energy.lanes points) ~k:kmax in
      (* The definition, lump by lump onto 0.0, and each data lump as the
         interpreter prices it. *)
      let defined =
        Array.mapi
          (fun l (table, params) ->
            let interp = Tlm2.Energy.create ~params table in
            Array.of_list
              (List.map
                 (List.fold_left
                    (fun sum lump ->
                      match lump with
                      | `Addr ->
                        sum
                        +. fst
                             (reference_l2_lumps table params ~read:true
                                ~burst:1 [||] 0)
                      | `Data (read, burst, pops) ->
                        let data =
                          snd
                            (reference_l2_lumps table params ~read ~burst pops
                               0)
                        in
                        let pj =
                          Tlm2.Energy.data_phase_pj interp
                            (txn_of_pops ~read ~burst pops)
                        in
                        if bits pj <> bits (0.0 +. data) then
                          QCheck.Test.fail_reportf
                            "lane %d: interpreted lump %h, formula %h" l pj
                            data;
                        sum +. data)
                    0.0)
                 classes))
          points
      in
      let kernel ln k =
        let e = Array.make (n * k) nan in
        if lane_price_l2 off words ln e k <> 0 then
          QCheck.Test.fail_report "kernel refused a valid table";
        e
      in
      let same what l c x y =
        bits x = bits y
        || QCheck.Test.fail_reportf "%s: lane %d class %d: %h <> %h" what l c x
             y
      in
      let classes_of_lane f =
        List.for_all (fun c -> f c) (List.init n Fun.id)
      in
      under_every_variant (fun () ->
          let single =
            Array.map (fun p -> kernel (Tlm2.Energy.lanes [| p |]) 1) points
          in
          List.for_all
            (fun k ->
              let e = kernel (Tlm2.Energy.lanes (Array.sub points 0 k)) k in
              List.for_all
                (fun l ->
                  classes_of_lane (fun c ->
                      let x = e.((c * k) + l) in
                      same "k lanes, single lane" l c x single.(l).(c)
                      && same "k lanes, reference" l c x
                           reference.((c * kmax) + l)
                      && same "k lanes, definition" l c x defined.(l).(c)))
                (List.init k Fun.id))
            (List.init kmax (fun k -> k + 1)))
      && (* A -0.0 address lump joins its class onto 0.0. *)
      (let neg =
         Tlm2.Energy.lanes
           [|
             ( Power.Characterization.default,
               {
                 Tlm2.Energy.default_params with
                 boundary_addr_toggles = -0.0;
                 attr_toggles = -0.0;
                 strobe_pulses_per_phase = -0.0;
               } );
           |]
       and e = [| nan |] in
       bits neg.Tlm2.Energy.addr_lump.(0) = bits (-0.0)
       && lane_price_l2 [| 0; 3 |] [| 0; 0; 0 |] neg e 1 = 0
       && bits e.(0) = bits 0.0)
      && (* A burst past the end of its class is refused, not read. *)
      lane_price_l2 [| 0; 5 |] [| 1; 0; 4; 1; 2 |] (Tlm2.Energy.lanes points)
        (Array.make kmax 0.0) kmax
      <> 0)

(* A warm 16-point fold allocates per pass, never per plan row, class
   or cycle, and nothing on the major heap: the outcomes and results,
   the same minor words for a 500- and a 4,000-transaction plan, and for
   a bridged fabric plan of 64- and 512-transaction masters.  The class
   energies, the layer-1 lane energies and a fabric body's cycle -> class
   index are scratch arrays reused from pass to pass (the warm-up pass
   sizes them); a fresh one per pass would show in the major words.  A
   boxed lane or bridge accumulator would allocate on every row, class
   or crossing and show in the minor words.  The minor heap is emptied
   first, so no collection promotes words during the measured pass. *)
let test_fold_alloc_flat level () =
  let points =
    List.init 16 (fun i ->
        {
          Compile.Eval.table =
            Power.Characterization.scale Power.Characterization.default
              (0.5 +. (0.0625 *. float_of_int i));
          l2_params = None;
        })
  in
  let words pass =
    pass ();
    Gc.minor ();
    let minor = Gc.minor_words () and _, _, major = Gc.counters () in
    pass ();
    let _, _, major' = Gc.counters () in
    (Gc.minor_words () -. minor, major' -. major)
  in
  let flat what (small, small_major) (large, large_major) =
    if small <> large then
      Alcotest.failf "%s allocates %.0f words small, %.0f large" what small
        large;
    if small_major <> 0.0 || large_major <> 0.0 then
      Alcotest.failf "%s allocates %.0f major words small, %.0f large" what
        small_major large_major
  in
  let replay n =
    let plan =
      Core.Runner.compile_trace ~level (Core.Workloads.table3_trace ~n)
    in
    words (fun () -> ignore (Core.Runner.replay_multi ~points plan))
  in
  flat "replay_multi" (replay 500) (replay 4000);
  let fabric n =
    let topology = Core.Contention.Bridged in
    let plan =
      Core.Contention.compile ~level ~topology
        (Core.Contention.default_masters ~n topology)
    in
    words (fun () -> ignore (Compile.Eval.eval_fabric_multi plan ~points))
  in
  flat "eval_fabric_multi" (fabric 64) (fabric 512)

(* A captured fabric plan with one field of its op streams broken: the
   fold refuses each before reading (a near sample far past the run, one
   just past the near body's cycles, a far sample on an unbridged plan,
   offsets that go down). *)
let test_fabric_refuses_bad_ops () =
  let topology = Core.Contention.Single in
  let f =
    Core.Contention.compile ~level:Core.Level.L1 ~topology
      (Core.Contention.default_masters ~n:16 topology)
  in
  let points =
    [ { Compile.Eval.table = Power.Characterization.default;
        l2_params = None } ]
  in
  ignore (Compile.Eval.eval_fabric_multi f ~points);
  let first_near =
    let rec go i =
      if f.Compile.Plan.op_kind.(i) = Compile.Plan.op_near then i
      else go (i + 1)
    in
    go 0
  in
  let set a i x =
    let a = Array.copy a in
    a.(i) <- x;
    a
  in
  let refused what f =
    match Compile.Eval.eval_fabric_multi f ~points with
    | _ -> Alcotest.failf "%s: evaluated" what
    | exception Invalid_argument _ -> ()
  in
  let near_arg arg =
    { f with Compile.Plan.op_arg = set f.Compile.Plan.op_arg first_near arg }
  in
  refused "near arg f_cycles + 5"
    (near_arg (f.Compile.Plan.f_meta.Compile.Plan.f_cycles + 5));
  refused "near arg = cycles"
    (near_arg f.Compile.Plan.near.Compile.Plan.meta.Compile.Plan.cycles);
  Alcotest.(check bool) "unbridged" true (f.Compile.Plan.far_plan = None);
  refused "far op on an unbridged plan"
    { f with
      Compile.Plan.op_kind =
        set f.Compile.Plan.op_kind first_near Compile.Plan.op_far };
  let off = f.Compile.Plan.op_off in
  Alcotest.(check bool)
    "two non-empty streams" true
    (off.(1) > off.(0) && off.(2) > off.(1));
  refused "decreasing op_off"
    { f with Compile.Plan.op_off = set off 1 (off.(2) + 1) }

let compiled_props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_compiled_trace_bit_exact;
      prop_compiled_multi_point;
      prop_plan_memo_counters;
      prop_compiled_rtl_l3_bit_exact;
      prop_compiled_rtl_bit_exact;
      prop_class_table_lossless;
    ]
  @ [
      Alcotest.test_case "rtl and l1 compile one plan" `Quick
        test_rtl_l1_share_plan;
      Alcotest.test_case "plan capture refuses estimation off" `Quick
        test_capture_refusals;
      Alcotest.test_case "memo tag rows sum to the totals" `Quick
        test_memo_tags_sum;
      QCheck_alcotest.to_alcotest prop_l1_fold_lanes;
      QCheck_alcotest.to_alcotest prop_l2_lumps_lanes;
      Alcotest.test_case "l1 warm fold allocates the same at any plan size"
        `Quick (test_fold_alloc_flat Core.Level.L1);
      Alcotest.test_case "l2 warm fold allocates the same at any plan size"
        `Quick (test_fold_alloc_flat Core.Level.L2);
      QCheck_alcotest.to_alcotest prop_walk_sequential;
      Alcotest.test_case "kernel refuses out-of-range bodies" `Quick
        test_kernel_refuses_bad_bodies;
      Alcotest.test_case "fabric fold refuses out-of-range op streams"
        `Quick test_fabric_refuses_bad_ops;
      QCheck_alcotest.to_alcotest prop_segment_pricing;
    ]

let suite = suite @ compiled_props
