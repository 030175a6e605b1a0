(* Java Card VM: bytecode, interpreter, firewall, memory manager, stacks,
   adapters and the communication refinement of Figure 7. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let value_of (r : Jcvm.Interp.result) =
  match r.Jcvm.Interp.value with
  | Some v -> v
  | None -> Alcotest.fail "expected a return value"

let run ?statics program = Jcvm.Interp.run_soft ?statics (Array.of_list program)

(* Bytecode serialization *)

let test_bytecode_roundtrip () =
  List.iter
    (fun (a : Jcvm.Applets.t) ->
      let encoded = Jcvm.Bytecode.encode a.Jcvm.Applets.program in
      let back = Jcvm.Bytecode.decode encoded in
      check_bool (a.Jcvm.Applets.name ^ " roundtrip") true
        (back = a.Jcvm.Applets.program))
    Jcvm.Applets.all

let test_bytecode_operand_ranges () =
  let invalid instr =
    check_bool "rejected" true
      (match Jcvm.Bytecode.encode [| instr |] with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  invalid (Jcvm.Bytecode.Sspush 40000);
  invalid (Jcvm.Bytecode.Bspush 200);
  invalid (Jcvm.Bytecode.Sinc (0, 999))

let test_bytecode_decode_garbage () =
  check_bool "bad opcode" true
    (match Jcvm.Bytecode.decode (Bytes.of_string "\xFE") with
    | _ -> false
    | exception Failure _ -> true);
  check_bool "truncated operand" true
    (match Jcvm.Bytecode.decode (Bytes.of_string "\x04\x01") with
    | _ -> false
    | exception Failure _ -> true)

let test_bytecode_validate () =
  let bad target =
    match Jcvm.Bytecode.validate [| Jcvm.Bytecode.Goto target |] with
    | Ok () -> false
    | Error _ -> true
  in
  check_bool "oob branch" true (bad 5);
  check_bool "self loop ok" false (bad 0);
  (match Jcvm.Bytecode.validate [| Jcvm.Bytecode.Nop |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "fall-off-end accepted");
  check_int "max locals" 8
    (Jcvm.Bytecode.max_locals [| Jcvm.Bytecode.Sload 7; Jcvm.Bytecode.Return |])

(* Interpreter semantics *)

let test_interp_arith () =
  let open Jcvm.Bytecode in
  check_int "add" 5 (value_of (run [ Sspush 2; Sspush 3; Sadd; Sreturn ]));
  check_int "sub order" (-1) (value_of (run [ Sspush 2; Sspush 3; Ssub; Sreturn ]));
  check_int "mul" 6 (value_of (run [ Sspush 2; Sspush 3; Smul; Sreturn ]));
  check_int "div" 3 (value_of (run [ Sspush 10; Sspush 3; Sdiv; Sreturn ]));
  check_int "neg" (-7) (value_of (run [ Sspush 7; Sneg; Sreturn ]));
  check_int "and" 0b1000 (value_of (run [ Sspush 0b1100; Sspush 0b1010; Sand; Sreturn ]));
  check_int "or" 0b1110 (value_of (run [ Sspush 0b1100; Sspush 0b1010; Sor; Sreturn ]));
  check_int "xor" 0b0110 (value_of (run [ Sspush 0b1100; Sspush 0b1010; Sxor; Sreturn ]));
  check_int "shl" 24 (value_of (run [ Sspush 3; Sspush 3; Sshl; Sreturn ]));
  check_int "shr arithmetic" (-2) (value_of (run [ Sspush (-8); Sspush 2; Sshr; Sreturn ]))

let test_interp_short_wraparound () =
  let open Jcvm.Bytecode in
  check_int "overflow wraps" (-32768)
    (value_of (run [ Sspush 32767; Sspush 1; Sadd; Sreturn ]));
  check_int "mul wraps" 0
    (value_of (run [ Sspush 1024; Sspush 64; Smul; Sreturn ]))

let test_interp_stack_ops () =
  let open Jcvm.Bytecode in
  check_int "dup" 8 (value_of (run [ Sspush 4; Dup; Sadd; Sreturn ]));
  check_int "swap" 1 (value_of (run [ Sspush 3; Sspush 4; Swap; Ssub; Sreturn ]));
  check_int "pop discards" 1 (value_of (run [ Sspush 1; Sspush 9; Pop; Sreturn ]))

let test_interp_locals () =
  let open Jcvm.Bytecode in
  check_int "store/load" 5
    (value_of (run [ Sspush 5; Sstore 3; Sload 3; Sreturn ]));
  check_int "sinc" 7
    (value_of (run [ Sspush 5; Sstore 0; Sinc (0, 2); Sload 0; Sreturn ]))

let test_interp_branches () =
  let open Jcvm.Bytecode in
  (* if (3 < 5) return 1 else return 0 *)
  check_int "scmplt taken" 1
    (value_of
       (run [ Sspush 3; Sspush 5; If_scmplt 5; Sspush 0; Sreturn; Sspush 1; Sreturn ]));
  check_int "ifeq on zero" 1
    (value_of (run [ Sspush 0; Ifeq 4; Sspush 0; Sreturn; Sspush 1; Sreturn ]));
  check_int "iflt on negative" 1
    (value_of (run [ Sspush (-1); Iflt 4; Sspush 0; Sreturn; Sspush 1; Sreturn ]))

let test_interp_statics () =
  let open Jcvm.Bytecode in
  check_int "getstatic initial" 42
    (value_of (run ~statics:[| 42 |] [ Getstatic 0; Sreturn ]));
  check_int "putstatic" 9
    (value_of (run [ Sspush 9; Putstatic 3; Getstatic 3; Sreturn ]))

let test_interp_arrays () =
  let open Jcvm.Bytecode in
  check_int "store/load element" 77
    (value_of
       (run
          [
            Sspush 4; Newarray; Sstore 0;
            Sload 0; Sspush 2; Sspush 77; Sastore;
            Sload 0; Sspush 2; Saload; Sreturn;
          ]));
  check_int "arraylength" 9
    (value_of (run [ Sspush 9; Newarray; Arraylength; Sreturn ]))

let test_interp_errors () =
  let open Jcvm.Bytecode in
  let raises_runtime program =
    match run program with
    | _ -> false
    | exception Jcvm.Interp.Runtime_error _ -> true
  in
  check_bool "div by zero" true
    (raises_runtime [ Sspush 1; Sspush 0; Sdiv; Sreturn ]);
  check_bool "fuel" true
    (match Jcvm.Interp.run_soft ~fuel:100 [| Jcvm.Bytecode.Goto 0 |] with
    | _ -> false
    | exception Jcvm.Interp.Runtime_error _ -> true);
  check_bool "bounds" true
    (match run [ Sspush 2; Newarray; Sspush 5; Saload; Sreturn ] with
    | _ -> false
    | exception Jcvm.Memmgr.Bounds _ -> true)

let test_interp_return_void () =
  let r = run [ Jcvm.Bytecode.Nop; Jcvm.Bytecode.Return ] in
  check_bool "void" true (r.Jcvm.Interp.value = None);
  check_int "steps" 2 r.Jcvm.Interp.steps

(* Firewall *)

let test_firewall_isolation () =
  let fw = Jcvm.Firewall.create () in
  let a = Jcvm.Firewall.new_context fw in
  let b = Jcvm.Firewall.new_context fw in
  Jcvm.Firewall.register_object fw ~owner:a ~obj:1;
  check_bool "owner ok" true (Jcvm.Firewall.accessible fw ~from_ctx:a ~obj:1);
  check_bool "other denied" false (Jcvm.Firewall.accessible fw ~from_ctx:b ~obj:1);
  check_bool "jcre allowed" true
    (Jcvm.Firewall.accessible fw ~from_ctx:Jcvm.Firewall.jcre ~obj:1);
  Jcvm.Firewall.share fw ~obj:1;
  check_bool "shared visible" true (Jcvm.Firewall.accessible fw ~from_ctx:b ~obj:1)

let test_firewall_check_raises_and_counts () =
  let fw = Jcvm.Firewall.create () in
  let a = Jcvm.Firewall.new_context fw in
  let b = Jcvm.Firewall.new_context fw in
  Jcvm.Firewall.register_object fw ~owner:a ~obj:7;
  check_bool "raises" true
    (match Jcvm.Firewall.check fw ~from_ctx:b ~obj:7 with
    | () -> false
    | exception Jcvm.Firewall.Security_violation _ -> true);
  check_int "denied counted" 1 (Jcvm.Firewall.denied_accesses fw);
  check_bool "owner recorded" true (Jcvm.Firewall.owner fw ~obj:7 = Some a)

let test_firewall_cross_context_array () =
  (* An applet touching another applet's array must be stopped. *)
  let fw = Jcvm.Firewall.create () in
  let mem = Jcvm.Memmgr.create fw in
  let a = Jcvm.Firewall.new_context fw in
  let b = Jcvm.Firewall.new_context fw in
  let arr = Jcvm.Memmgr.alloc_array mem ~ctx:a ~len:4 in
  Jcvm.Memmgr.store mem ~ctx:a ~obj:arr ~index:0 11;
  check_bool "foreign access blocked" true
    (match Jcvm.Memmgr.load mem ~ctx:b ~obj:arr ~index:0 with
    | _ -> false
    | exception Jcvm.Firewall.Security_violation _ -> true);
  Jcvm.Firewall.share fw ~obj:arr;
  check_int "shared read" 11 (Jcvm.Memmgr.load mem ~ctx:b ~obj:arr ~index:0)

(* Memory manager *)

let test_memmgr_statics_truncate () =
  let fw = Jcvm.Firewall.create () in
  let mem = Jcvm.Memmgr.create fw in
  Jcvm.Memmgr.set_static mem 0 0x12345;
  check_int "short truncation" 0x2345 (Jcvm.Memmgr.get_static mem 0);
  Jcvm.Memmgr.set_static mem 1 0xFFFF;
  check_int "negative short" (-1) (Jcvm.Memmgr.get_static mem 1)

let test_memmgr_oom () =
  let fw = Jcvm.Firewall.create () in
  let mem = Jcvm.Memmgr.create ~heap_shorts:8 fw in
  let ctx = Jcvm.Firewall.new_context fw in
  ignore (Jcvm.Memmgr.alloc_array mem ~ctx ~len:6);
  check_int "free tracked" 2 (Jcvm.Memmgr.free_shorts mem);
  check_bool "oom" true
    (match Jcvm.Memmgr.alloc_array mem ~ctx ~len:4 with
    | _ -> false
    | exception Jcvm.Memmgr.Out_of_memory -> true)

(* Software stack *)

let test_soft_stack_lifo () =
  let s = Jcvm.Soft_stack.create () in
  let ops = Jcvm.Soft_stack.ops s in
  List.iter ops.Jcvm.Stack_intf.push [ 1; 2; 3 ];
  Alcotest.(check (list int)) "contents" [ 3; 2; 1 ] (Jcvm.Soft_stack.contents s);
  check_int "pop" 3 (ops.Jcvm.Stack_intf.pop ());
  check_int "depth" 2 (ops.Jcvm.Stack_intf.depth ());
  check_int "max depth" 3 (Jcvm.Soft_stack.max_depth_seen s)

let test_soft_stack_bounds () =
  let s = Jcvm.Soft_stack.create ~capacity:2 () in
  let ops = Jcvm.Soft_stack.ops s in
  ops.Jcvm.Stack_intf.push 1;
  ops.Jcvm.Stack_intf.push 2;
  check_bool "overflow" true
    (match ops.Jcvm.Stack_intf.push 3 with
    | () -> false
    | exception Jcvm.Stack_intf.Overflow -> true);
  ops.Jcvm.Stack_intf.reset ();
  check_bool "underflow" true
    (match ops.Jcvm.Stack_intf.pop () with
    | _ -> false
    | exception Jcvm.Stack_intf.Underflow -> true)

let test_counted_ops () =
  let s = Jcvm.Soft_stack.create () in
  let ops, stats = Jcvm.Stack_intf.counted (Jcvm.Soft_stack.ops s) in
  ops.Jcvm.Stack_intf.push 1;
  ops.Jcvm.Stack_intf.push 2;
  ignore (ops.Jcvm.Stack_intf.pop ());
  check_bool "counts" true (stats () = (2, 1))

(* Applets against the reference interpreter *)

let test_applets_expected () =
  List.iter
    (fun (a : Jcvm.Applets.t) ->
      let r =
        Jcvm.Interp.run_soft ~statics:a.Jcvm.Applets.statics
          ~methods:a.Jcvm.Applets.methods a.Jcvm.Applets.program
      in
      check_bool (a.Jcvm.Applets.name ^ " expected") true
        (r.Jcvm.Interp.value = a.Jcvm.Applets.expected))
    Jcvm.Applets.all

let test_applets_validate () =
  List.iter
    (fun (a : Jcvm.Applets.t) ->
      Array.iter
        (fun m ->
          match Jcvm.Bytecode.validate m with
          | Ok () -> ()
          | Error msg -> Alcotest.fail (a.Jcvm.Applets.name ^ ": " ^ msg))
        (Jcvm.Applets.method_table a))
    Jcvm.Applets.all

(* Hardware stack + adapter refinement: every configuration must behave
   exactly like the software stack. *)

let adapter_fixture config =
  let kernel = Sim.Kernel.create () in
  let hw = Jcvm.Hw_stack.create config in
  let decoder = Ec.Decoder.create [ Jcvm.Hw_stack.slave hw ] in
  let bus = Tlm1.Bus.create ~kernel ~decoder () in
  let adapter = Jcvm.Master_adapter.create ~kernel ~port:(Iface.port (Rtl.Bus.iface (Tlm1.Bus.engine bus))) config in
  (kernel, hw, adapter)

let test_hw_stack_all_configs_lifo () =
  List.iter
    (fun config ->
      let _, hw, adapter = adapter_fixture config in
      let ops = Jcvm.Master_adapter.ops adapter in
      let values = [ 5; -3; 32767; -32768; 0; 1234 ] in
      List.iter ops.Jcvm.Stack_intf.push values;
      check_int (config.Jcvm.Configs.name ^ " depth") 6
        (ops.Jcvm.Stack_intf.depth ());
      let popped = List.init 6 (fun _ -> ops.Jcvm.Stack_intf.pop ()) in
      Alcotest.(check (list int))
        (config.Jcvm.Configs.name ^ " lifo")
        (List.rev values) popped;
      check_int (config.Jcvm.Configs.name ^ " empty") 0 (Jcvm.Hw_stack.depth hw))
    Jcvm.Configs.standard

let test_hw_stack_interleaved_ops () =
  List.iter
    (fun config ->
      let _, _, adapter = adapter_fixture config in
      let ops = Jcvm.Master_adapter.ops adapter in
      let soft = Jcvm.Soft_stack.create () in
      let soft_ops = Jcvm.Soft_stack.ops soft in
      let rng = Sim.Rng.create ~seed:31 in
      for _ = 1 to 200 do
        if Sim.Rng.bool rng || ops.Jcvm.Stack_intf.depth () = 0 then begin
          let v = Sim.Rng.bits rng 16 - 32768 in
          ops.Jcvm.Stack_intf.push v;
          soft_ops.Jcvm.Stack_intf.push v
        end
        else
          check_int
            (config.Jcvm.Configs.name ^ " interleaved pop")
            (soft_ops.Jcvm.Stack_intf.pop ())
            (ops.Jcvm.Stack_intf.pop ())
      done;
      check_int
        (config.Jcvm.Configs.name ^ " final depth")
        (soft_ops.Jcvm.Stack_intf.depth ())
        (ops.Jcvm.Stack_intf.depth ()))
    Jcvm.Configs.standard

let test_refinement_preserves_results () =
  (* Figure 7: functional model vs refined model, identical outcomes. *)
  List.iter
    (fun config ->
      List.iter
        (fun (a : Jcvm.Applets.t) ->
          let _, _, adapter = adapter_fixture config in
          let fw = Jcvm.Firewall.create () in
          let mem = Jcvm.Memmgr.create fw in
          Array.iteri (fun i v -> Jcvm.Memmgr.set_static mem i v) a.Jcvm.Applets.statics;
          let ctx = Jcvm.Firewall.new_context fw in
          let r =
            Jcvm.Interp.run_methods
              ~stack:(Jcvm.Master_adapter.ops adapter)
              ~memory:mem ~ctx
              (Jcvm.Applets.method_table a)
          in
          check_bool
            (Printf.sprintf "%s on %s" a.Jcvm.Applets.name config.Jcvm.Configs.name)
            true
            (r.Jcvm.Interp.value = a.Jcvm.Applets.expected))
        Jcvm.Applets.all)
    Jcvm.Configs.standard

let test_adapter_transaction_counts () =
  (* 16-bit dedicated: one transaction per operation.  cmd+data: two.
     8-bit: two.  packed 32: about half. *)
  let count config ops_count =
    let _, _, adapter = adapter_fixture config in
    let ops = Jcvm.Master_adapter.ops adapter in
    for i = 1 to ops_count do
      ops.Jcvm.Stack_intf.push i
    done;
    for _ = 1 to ops_count do
      ignore (ops.Jcvm.Stack_intf.pop ())
    done;
    Jcvm.Master_adapter.transactions adapter
  in
  let find name =
    List.find (fun c -> c.Jcvm.Configs.name = name) Jcvm.Configs.standard
  in
  check_int "w16 one per op" 20 (count (find "w16-dedicated") 10);
  check_int "cmd+data two per op" 40 (count (find "w16-cmd+data") 10);
  check_int "w8 two per op" 40 (count (find "w8-dedicated") 10);
  check_int "packed half" 10 (count (find "w32-packed") 10)

let test_packed_flush () =
  let find name =
    List.find (fun c -> c.Jcvm.Configs.name = name) Jcvm.Configs.standard
  in
  let _, hw, adapter = adapter_fixture (find "w32-packed") in
  let ops = Jcvm.Master_adapter.ops adapter in
  ops.Jcvm.Stack_intf.push 42;
  check_int "buffered, not yet in hw" 0 (Jcvm.Hw_stack.depth hw);
  Jcvm.Master_adapter.flush adapter;
  check_int "flushed" 1 (Jcvm.Hw_stack.depth hw);
  Alcotest.(check (list int)) "value" [ 42 ] (Jcvm.Hw_stack.contents hw)

let test_hw_stack_underflow_sticky () =
  let find name =
    List.find (fun c -> c.Jcvm.Configs.name = name) Jcvm.Configs.standard
  in
  let config = find "w16-dedicated" in
  let _, hw, _ = adapter_fixture config in
  let slave = Jcvm.Hw_stack.slave hw in
  (* Raw bus-level pop on an empty stack. *)
  check_int "returns zero" 0
    (slave.Ec.Slave.read ~addr:config.Jcvm.Configs.base ~width:Ec.Txn.W16);
  check_int "underflow recorded" 1 (Jcvm.Hw_stack.underflows hw)

let test_adapter_underflow_guard () =
  let _, _, adapter = adapter_fixture (List.hd Jcvm.Configs.standard) in
  let ops = Jcvm.Master_adapter.ops adapter in
  check_bool "adapter raises" true
    (match ops.Jcvm.Stack_intf.pop () with
    | _ -> false
    | exception Jcvm.Stack_intf.Underflow -> true)

let test_configs_validation () =
  let invalid f =
    check_bool "rejected" true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  invalid (fun () -> Jcvm.Configs.make ~name:"x" ~packed32:true ());
  invalid (fun () -> Jcvm.Configs.make ~name:"x" ~stride:2 ());
  invalid (fun () -> Jcvm.Configs.make ~name:"x" ~base:3 ())

let suite =
  [
    Alcotest.test_case "bytecode roundtrip" `Quick test_bytecode_roundtrip;
    Alcotest.test_case "bytecode operand ranges" `Quick test_bytecode_operand_ranges;
    Alcotest.test_case "bytecode decode garbage" `Quick test_bytecode_decode_garbage;
    Alcotest.test_case "bytecode validate" `Quick test_bytecode_validate;
    Alcotest.test_case "interp arithmetic" `Quick test_interp_arith;
    Alcotest.test_case "interp short wraparound" `Quick test_interp_short_wraparound;
    Alcotest.test_case "interp stack ops" `Quick test_interp_stack_ops;
    Alcotest.test_case "interp locals" `Quick test_interp_locals;
    Alcotest.test_case "interp branches" `Quick test_interp_branches;
    Alcotest.test_case "interp statics" `Quick test_interp_statics;
    Alcotest.test_case "interp arrays" `Quick test_interp_arrays;
    Alcotest.test_case "interp errors" `Quick test_interp_errors;
    Alcotest.test_case "interp void return" `Quick test_interp_return_void;
    Alcotest.test_case "firewall isolation" `Quick test_firewall_isolation;
    Alcotest.test_case "firewall check raises" `Quick
      test_firewall_check_raises_and_counts;
    Alcotest.test_case "firewall cross-context array" `Quick
      test_firewall_cross_context_array;
    Alcotest.test_case "memmgr statics truncate" `Quick test_memmgr_statics_truncate;
    Alcotest.test_case "memmgr oom" `Quick test_memmgr_oom;
    Alcotest.test_case "soft stack lifo" `Quick test_soft_stack_lifo;
    Alcotest.test_case "soft stack bounds" `Quick test_soft_stack_bounds;
    Alcotest.test_case "counted ops" `Quick test_counted_ops;
    Alcotest.test_case "applets expected values" `Quick test_applets_expected;
    Alcotest.test_case "applets validate" `Quick test_applets_validate;
    Alcotest.test_case "hw stack lifo all configs" `Quick
      test_hw_stack_all_configs_lifo;
    Alcotest.test_case "hw stack interleaved" `Quick test_hw_stack_interleaved_ops;
    Alcotest.test_case "refinement preserves results" `Quick
      test_refinement_preserves_results;
    Alcotest.test_case "adapter transaction counts" `Quick
      test_adapter_transaction_counts;
    Alcotest.test_case "packed flush" `Quick test_packed_flush;
    Alcotest.test_case "hw stack underflow sticky" `Quick
      test_hw_stack_underflow_sticky;
    Alcotest.test_case "adapter underflow guard" `Quick test_adapter_underflow_guard;
    Alcotest.test_case "configs validation" `Quick test_configs_validation;
  ]

(* Method invocation. *)

let test_invokestatic_basic () =
  let open Jcvm.Bytecode in
  (* method 1: pops x, returns x*2 *)
  let double = [| Sstore 0; Sload 0; Sspush 2; Smul; Sreturn |] in
  let entry = [| Sspush 21; Invokestatic 1; Sreturn |] in
  let r = Jcvm.Interp.run_soft ~methods:[| double |] entry in
  check_bool "doubled" true (r.Jcvm.Interp.value = Some 42)

let test_invokestatic_locals_isolated () =
  let open Jcvm.Bytecode in
  (* The callee clobbers local 0; the caller's local 0 must survive. *)
  let clobber = [| Sspush 999; Sstore 0; Return |] in
  let entry =
    [| Sspush 5; Sstore 0; Invokestatic 1; Sload 0; Sreturn |]
  in
  let r = Jcvm.Interp.run_soft ~methods:[| clobber |] entry in
  check_bool "caller locals preserved" true (r.Jcvm.Interp.value = Some 5)

let test_invokestatic_errors () =
  let open Jcvm.Bytecode in
  let raises program methods =
    match Jcvm.Interp.run_soft ~methods program with
    | _ -> false
    | exception Jcvm.Interp.Runtime_error _ -> true
  in
  check_bool "unknown method" true (raises [| Invokestatic 9; Return |] [||]);
  (* Unbounded recursion exhausts the call-depth limit. *)
  check_bool "call depth" true
    (raises [| Invokestatic 1; Return |] [| [| Invokestatic 1; Return |] |])

let test_gcd_applet () =
  let a = Jcvm.Applets.gcd in
  let r =
    Jcvm.Interp.run_soft ~statics:a.Jcvm.Applets.statics
      ~methods:a.Jcvm.Applets.methods a.Jcvm.Applets.program
  in
  check_bool "gcd(1071,462)=21" true (r.Jcvm.Interp.value = Some 21)

let test_gcd_on_hardware_stack () =
  (* Recursion over the bus-backed stack on every configuration. *)
  List.iter
    (fun config ->
      let _, _, adapter = adapter_fixture config in
      let fw = Jcvm.Firewall.create () in
      let mem = Jcvm.Memmgr.create fw in
      let ctx = Jcvm.Firewall.new_context fw in
      let r =
        Jcvm.Interp.run_methods
          ~stack:(Jcvm.Master_adapter.ops adapter)
          ~memory:mem ~ctx
          (Jcvm.Applets.method_table Jcvm.Applets.gcd)
      in
      check_bool (config.Jcvm.Configs.name ^ " gcd") true
        (r.Jcvm.Interp.value = Some 21))
    Jcvm.Configs.standard

let method_suite =
  [
    Alcotest.test_case "invokestatic basic" `Quick test_invokestatic_basic;
    Alcotest.test_case "invokestatic locals isolated" `Quick
      test_invokestatic_locals_isolated;
    Alcotest.test_case "invokestatic errors" `Quick test_invokestatic_errors;
    Alcotest.test_case "gcd applet" `Quick test_gcd_applet;
    Alcotest.test_case "gcd on hardware stacks" `Quick test_gcd_on_hardware_stack;
  ]

let suite = suite @ method_suite
