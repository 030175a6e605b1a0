(* EC protocol vocabulary: transactions, slave configs, decoder, signal
   map, timing rules, traces. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let invalid f = Alcotest.(check bool) "rejected" true
    (match f () with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* Transactions *)

let test_txn_single_read () =
  let txn = Ec.Txn.single_read ~id:1 0x100 in
  check_int "burst" 1 txn.Ec.Txn.burst;
  check_bool "read" true (txn.Ec.Txn.dir = Ec.Txn.Read);
  check_bool "data kind" true (txn.Ec.Txn.kind = Ec.Txn.Data);
  check_int "bytes per beat" 4 (Ec.Txn.bytes_per_beat txn)

let test_txn_burst_beats () =
  let txn = Ec.Txn.burst_read ~id:2 0x200 in
  check_int "beats" 4 txn.Ec.Txn.burst;
  check_int "beat 0" 0x200 (Ec.Txn.beat_addr txn 0);
  check_int "beat 3" 0x20C (Ec.Txn.beat_addr txn 3)

let test_txn_byte_enables () =
  let w8 at = Ec.Txn.single_read ~id:1 ~width:Ec.Txn.W8 at in
  check_int "byte 0" 0b0001 (Ec.Txn.byte_enables (w8 0x100) 0);
  check_int "byte 1" 0b0010 (Ec.Txn.byte_enables (w8 0x101) 0);
  check_int "byte 3" 0b1000 (Ec.Txn.byte_enables (w8 0x103) 0);
  let w16 at = Ec.Txn.single_read ~id:1 ~width:Ec.Txn.W16 at in
  check_int "half low" 0b0011 (Ec.Txn.byte_enables (w16 0x100) 0);
  check_int "half high" 0b1100 (Ec.Txn.byte_enables (w16 0x102) 0);
  let w32 = Ec.Txn.single_read ~id:1 0x100 in
  check_int "word" 0b1111 (Ec.Txn.byte_enables w32 0)

let test_txn_validation () =
  invalid (fun () -> Ec.Txn.single_read ~id:1 ~width:Ec.Txn.W16 0x101);
  invalid (fun () -> Ec.Txn.single_read ~id:1 0x102);
  invalid (fun () -> Ec.Txn.single_read ~id:1 (-4));
  invalid (fun () -> Ec.Txn.single_read ~id:1 Ec.Txn.max_addr);
  invalid (fun () ->
      Ec.Txn.create ~id:1 ~kind:Ec.Txn.Data ~dir:Ec.Txn.Read ~width:Ec.Txn.W32
        ~addr:0 ~burst:2 ());
  invalid (fun () ->
      Ec.Txn.create ~id:1 ~kind:Ec.Txn.Data ~dir:Ec.Txn.Read ~width:Ec.Txn.W16
        ~addr:0 ~burst:4 ());
  invalid (fun () ->
      Ec.Txn.create ~id:1 ~kind:Ec.Txn.Instruction ~dir:Ec.Txn.Write
        ~width:Ec.Txn.W32 ~addr:0 ~burst:1 ~data:[| 0 |] ());
  invalid (fun () ->
      Ec.Txn.create ~id:1 ~kind:Ec.Txn.Data ~dir:Ec.Txn.Write ~width:Ec.Txn.W32
        ~addr:0 ~burst:4 ~data:[| 1; 2 |] ());
  invalid (fun () ->
      Ec.Txn.create ~id:1 ~kind:Ec.Txn.Data ~dir:Ec.Txn.Write ~width:Ec.Txn.W32
        ~addr:0 ~burst:1 ())

let test_txn_category () =
  check_bool "instr read" true
    (Ec.Txn.category (Ec.Txn.single_read ~id:1 ~kind:Ec.Txn.Instruction 0)
    = Ec.Txn.Cat_instr_read);
  check_bool "data read" true
    (Ec.Txn.category (Ec.Txn.single_read ~id:1 0) = Ec.Txn.Cat_data_read);
  check_bool "write" true
    (Ec.Txn.category (Ec.Txn.single_write ~id:1 0 ~value:1) = Ec.Txn.Cat_write)

let test_txn_data_masking () =
  let txn = Ec.Txn.single_write ~id:1 0 ~value:0x1_FFFF_FFFF in
  check_int "payload masked to 32 bit" 0xFFFFFFFF txn.Ec.Txn.data.(0);
  Ec.Txn.set_beat txn 0 0x2_0000_0001;
  check_int "set_beat masks" 1 txn.Ec.Txn.data.(0)

let test_txn_id_gen () =
  let g = Ec.Txn.Id_gen.create () in
  let a = Ec.Txn.Id_gen.fresh g and b = Ec.Txn.Id_gen.fresh g in
  check_bool "monotonic" true (b > a)

(* Slave configuration *)

let test_cfg_contains () =
  let cfg = Ec.Slave_cfg.make ~name:"m" ~base:0x100 ~size:0x100 () in
  check_bool "start" true (Ec.Slave_cfg.contains cfg 0x100);
  check_bool "last" true (Ec.Slave_cfg.contains cfg 0x1FF);
  check_bool "before" false (Ec.Slave_cfg.contains cfg 0xFF);
  check_bool "after" false (Ec.Slave_cfg.contains cfg 0x200)

let test_cfg_rights () =
  let cfg =
    Ec.Slave_cfg.make ~name:"rom" ~base:0 ~size:0x100 ~writable:false
      ~executable:true ()
  in
  check_bool "read ok" true
    (Ec.Slave_cfg.allows cfg (Ec.Txn.single_read ~id:1 0));
  check_bool "fetch ok" true
    (Ec.Slave_cfg.allows cfg (Ec.Txn.single_read ~id:1 ~kind:Ec.Txn.Instruction 0));
  check_bool "write denied" false
    (Ec.Slave_cfg.allows cfg (Ec.Txn.single_write ~id:1 0 ~value:0))

let test_cfg_validation () =
  invalid (fun () -> Ec.Slave_cfg.make ~name:"x" ~base:0 ~size:0 ());
  invalid (fun () -> Ec.Slave_cfg.make ~name:"x" ~base:2 ~size:4 ());
  invalid (fun () -> Ec.Slave_cfg.make ~name:"x" ~base:0 ~size:4 ~addr_wait:(-1) ());
  invalid (fun () ->
      Ec.Slave_cfg.make ~name:"x" ~base:(Ec.Txn.max_addr - 4) ~size:8 ())

let test_cfg_overlap () =
  let a = Ec.Slave_cfg.make ~name:"a" ~base:0 ~size:0x100 () in
  let b = Ec.Slave_cfg.make ~name:"b" ~base:0x80 ~size:0x100 () in
  let c = Ec.Slave_cfg.make ~name:"c" ~base:0x100 ~size:0x100 () in
  check_bool "a overlaps b" true (Ec.Slave_cfg.overlaps a b);
  check_bool "a does not overlap c" false (Ec.Slave_cfg.overlaps a c)

(* Decoder *)

let make_mem name base size ?(writable = true) () =
  let store = Array.make (size / 4) 0 in
  let cfg = Ec.Slave_cfg.make ~name ~base ~size ~writable () in
  Ec.Slave.make ~cfg
    ~read:(fun ~addr ~width:_ -> store.((addr - base) / 4))
    ~write:(fun ~addr ~width:_ ~value -> store.((addr - base) / 4) <- value)

let test_decoder_find () =
  let d =
    Ec.Decoder.create [ make_mem "a" 0 0x100 (); make_mem "b" 0x200 0x100 () ]
  in
  check_int "two slaves" 2 (Ec.Decoder.count d);
  (match Ec.Decoder.find d 0x210 with
  | Some (1, s) -> check_bool "named b" true (s.Ec.Slave.cfg.Ec.Slave_cfg.name = "b")
  | Some _ | None -> Alcotest.fail "expected slave b");
  check_bool "hole unmapped" true (Ec.Decoder.find d 0x150 = None)

let test_decoder_overlap_rejected () =
  invalid (fun () ->
      Ec.Decoder.create [ make_mem "a" 0 0x100 (); make_mem "b" 0x80 0x100 () ])

let test_decoder_check_rights () =
  let d = Ec.Decoder.create [ make_mem "ro" 0 0x100 ~writable:false () ] in
  (match Ec.Decoder.check d (Ec.Txn.single_write ~id:1 0 ~value:1) with
  | Ec.Decoder.Rights_violation _ -> ()
  | Ec.Decoder.Mapped _ | Ec.Decoder.Unmapped -> Alcotest.fail "expected rights violation");
  match Ec.Decoder.check d (Ec.Txn.single_read ~id:1 0x400) with
  | Ec.Decoder.Unmapped -> ()
  | Ec.Decoder.Mapped _ | Ec.Decoder.Rights_violation _ ->
    Alcotest.fail "expected unmapped"

let test_decoder_burst_straddle () =
  let d = Ec.Decoder.create [ make_mem "a" 0 0x100 () ] in
  match Ec.Decoder.check d (Ec.Txn.burst_read ~id:1 0xF8) with
  | Ec.Decoder.Unmapped -> ()
  | Ec.Decoder.Mapped _ | Ec.Decoder.Rights_violation _ ->
    Alcotest.fail "burst leaving the range must be unmapped"

(* Signal map *)

let test_signals_count () =
  check_int "total wires" (34 + 4 + 32 + 32 + 11) Ec.Signals.count;
  check_int "all list" Ec.Signals.count (List.length Ec.Signals.all)

let test_signals_index_roundtrip () =
  List.iter
    (fun id ->
      let i = Ec.Signals.index id in
      check_bool "roundtrip" true (Ec.Signals.of_index i = id))
    Ec.Signals.all

let test_signals_index_dense_unique () =
  let seen = Hashtbl.create 128 in
  List.iter
    (fun id ->
      let i = Ec.Signals.index id in
      check_bool "in range" true (i >= 0 && i < Ec.Signals.count);
      check_bool "unique" false (Hashtbl.mem seen i);
      Hashtbl.replace seen i ())
    Ec.Signals.all

let test_signals_names () =
  Alcotest.(check string) "addr name" "EB_A[2]"
    (Ec.Signals.to_string (Ec.Signals.Addr 0));
  Alcotest.(check string) "ctrl name" "EB_ARdy"
    (Ec.Signals.to_string (Ec.Signals.Ctrl Ec.Signals.Ardy))

(* Timing rules *)

let test_timing_zero_wait () =
  let cfg = Ec.Slave_cfg.make ~name:"fast" ~base:0 ~size:0x100 () in
  let single = Ec.Txn.single_read ~id:1 0 in
  check_int "addr phase" 1 (Ec.Timing.addr_phase_cycles cfg);
  check_int "no data extra" 0 (Ec.Timing.data_phase_extra cfg single);
  check_int "isolated" 1 (Ec.Timing.isolated_latency cfg single)

let test_timing_waits () =
  let cfg =
    Ec.Slave_cfg.make ~name:"slow" ~base:0 ~size:0x100 ~addr_wait:1
      ~read_wait:2 ~write_wait:4 ()
  in
  let read = Ec.Txn.single_read ~id:1 0 in
  let write = Ec.Txn.single_write ~id:1 0 ~value:0 in
  let burst = Ec.Txn.burst_read ~id:1 0 in
  check_int "addr" 2 (Ec.Timing.addr_phase_cycles cfg);
  check_int "read extra" 2 (Ec.Timing.data_phase_extra cfg read);
  check_int "write extra" 4 (Ec.Timing.data_phase_extra cfg write);
  check_int "burst extra" (2 + (3 * 3)) (Ec.Timing.data_phase_extra cfg burst);
  check_int "isolated read" 4 (Ec.Timing.isolated_latency cfg read)

(* Traces *)

let sample_trace =
  [
    Ec.Trace.item ~gap:2 (Ec.Txn.single_read ~id:0 0x40);
    Ec.Trace.item (Ec.Txn.single_write ~id:0 ~width:Ec.Txn.W8 0x101 ~value:0xAB);
    Ec.Trace.item (Ec.Txn.burst_write ~id:0 0x80 ~values:[| 1; 2; 3; 4 |]);
    Ec.Trace.item (Ec.Txn.single_read ~id:0 ~kind:Ec.Txn.Instruction 0x0);
  ]

let test_trace_roundtrip () =
  let lines = Ec.Trace.to_lines sample_trace in
  let back = Ec.Trace.of_lines lines in
  check_int "same length" (List.length sample_trace) (List.length back);
  List.iter2
    (fun a b ->
      check_int "gap" a.Ec.Trace.gap b.Ec.Trace.gap;
      check_bool "payload" true (Ec.Txn.equal_payload a.Ec.Trace.txn b.Ec.Trace.txn))
    sample_trace back

let test_trace_comments_skipped () =
  let lines = [ "# comment"; ""; "0 RD 32 0x40 1" ] in
  check_int "one item" 1 (List.length (Ec.Trace.of_lines lines))

let test_trace_malformed () =
  check_bool "malformed rejected" true
    (match Ec.Trace.of_lines [ "bogus line" ] with
    | _ -> false
    | exception Failure _ -> true)

(* The one-pass line scan against the old split-and-convert parser
   (Trace_oracle): the same items, or a [Failure] with the same text, on
   lines of random traces, as printed and with mutated tokens. *)

let odd_tokens =
  [ "0b1"; "0o7"; "1_0"; "+0"; "-1"; "-0x10"; "0x"; "0X1f"; "0xg"; "";
    "007"; "1e3"; "0x0123456789abcdef"; "0xFFFFFFFFFFFFFFFF";
    "0x10000000000000000"; "0x000000000000001f"; "0x00000000000000001";
    "999999999999999"; "9999999999999999"; "99999999999999999999";
    "0x7fffffffffffffff"; "0xfffffffffffffff"; "RX"; "XD"; "WI"; "RDD"; "R";
    "8"; "16"; "4"; "#"; "0\t1" ]

let mutate_line st line =
  let tokens = String.split_on_char ' ' line in
  let n = List.length tokens in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let at = Random.State.int st n and other = Random.State.int st n in
  let join = String.concat " " in
  match Random.State.int st 10 with
  | 0 | 1 -> line
  | 2 -> join (List.mapi (fun i t -> if i = at then pick odd_tokens else t) tokens)
  | 3 ->
    (* two tokens: which of two bad fields fails first *)
    join
      (List.mapi
         (fun i t -> if i = at || i = other then pick odd_tokens else t)
         tokens)
  | 4 -> join (List.filteri (fun i _ -> i <> at) tokens)
  | 5 -> join (tokens @ [ pick odd_tokens ])
  | 6 ->
    (* a double space, or a tab for a separator *)
    let sep = pick [ "  "; "\t"; " \t" ] in
    List.fold_left
      (fun (i, acc) t -> (i + 1, if i = 0 then t else acc ^ (if i = at then sep else " ") ^ t))
      (0, "") tokens
    |> snd
  | 7 -> pick [ " "; "\t"; "  " ] ^ line ^ pick [ " "; "\t"; "\r"; "  "; "\012" ]
  | 8 -> pick [ "#"; "# "; "" ] ^ line
  | _ -> pick [ ""; " "; "\t"; "#" ]

let gen_trace_lines =
  QCheck.make
    ~print:(fun lines -> String.concat "\n" lines)
    (fun st ->
      let trace =
        Core.Workloads.random_trace
          ~rng:(Sim.Rng.create ~seed:(Random.State.bits st))
          ~n:(1 + Random.State.int st 12)
          ~write_ratio:(Random.State.float st 1.0)
          ~burst_ratio:(Random.State.float st 1.0)
          ~subword_ratio:(Random.State.float st 1.0)
          ()
      in
      List.map (mutate_line st) (Ec.Trace.to_lines trace))

let parsed f lines =
  match f lines with
  | items -> Ok items
  | exception Failure msg -> Error msg

let same_items a b =
  List.equal
    (fun (x : Ec.Trace.item) (y : Ec.Trace.item) ->
      x.gap = y.gap && x.txn = y.txn)
    a b

let prop_trace_lines_oracle =
  QCheck.Test.make ~name:"trace lines: one-pass scan = split-and-convert oracle"
    ~count:2000 gen_trace_lines (fun lines ->
      match (parsed Ec.Trace.of_lines lines, parsed Trace_oracle.of_lines lines) with
      | Ok a, Ok b -> same_items a b || QCheck.Test.fail_report "different items"
      | Error a, Error b ->
        String.equal a b || QCheck.Test.fail_reportf "%S <> oracle %S" a b
      | Ok _, Error e -> QCheck.Test.fail_reportf "accepted; oracle: %s" e
      | Error e, Ok _ -> QCheck.Test.fail_reportf "oracle accepted; %s" e)

let test_trace_instantiate_fresh () =
  let gen = Ec.Txn.Id_gen.create () in
  let item = List.hd sample_trace in
  let a = Ec.Trace.instantiate gen item and b = Ec.Trace.instantiate gen item in
  check_bool "distinct ids" true (a.Ec.Trace.txn.Ec.Txn.id <> b.Ec.Trace.txn.Ec.Txn.id);
  check_bool "distinct data arrays" true
    (a.Ec.Trace.txn.Ec.Txn.data != b.Ec.Trace.txn.Ec.Txn.data)

let test_trace_totals () =
  check_int "txns" 4 (Ec.Trace.total_txns sample_trace);
  check_int "beats" 7 (Ec.Trace.total_beats sample_trace)

let test_trace_file_roundtrip () =
  let path = Filename.temp_file "trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ec.Trace.save path sample_trace;
      let back = Ec.Trace.load path in
      check_int "length" 4 (List.length back))

(* Port helpers *)

let test_port_take_retires () =
  let retired = ref [] in
  let state = Hashtbl.create 4 in
  Hashtbl.replace state 1 Ec.Port.Done;
  let port =
    {
      Ec.Port.try_submit = (fun _ -> true);
      poll =
        (fun id ->
          match Hashtbl.find_opt state id with
          | Some outcome -> outcome
          | None -> Ec.Port.Pending);
      retire = (fun id -> retired := id :: !retired);
    }
  in
  check_bool "pending passes through" true (Ec.Port.take port 2 = Ec.Port.Pending);
  check_bool "done" true (Ec.Port.take port 1 = Ec.Port.Done);
  Alcotest.(check (list int)) "retired once" [ 1 ] !retired

let suite =
  [
    Alcotest.test_case "txn single read" `Quick test_txn_single_read;
    Alcotest.test_case "txn burst beats" `Quick test_txn_burst_beats;
    Alcotest.test_case "txn byte enables" `Quick test_txn_byte_enables;
    Alcotest.test_case "txn validation" `Quick test_txn_validation;
    Alcotest.test_case "txn categories" `Quick test_txn_category;
    Alcotest.test_case "txn data masking" `Quick test_txn_data_masking;
    Alcotest.test_case "txn id generator" `Quick test_txn_id_gen;
    Alcotest.test_case "cfg contains" `Quick test_cfg_contains;
    Alcotest.test_case "cfg access rights" `Quick test_cfg_rights;
    Alcotest.test_case "cfg validation" `Quick test_cfg_validation;
    Alcotest.test_case "cfg overlap" `Quick test_cfg_overlap;
    Alcotest.test_case "decoder find" `Quick test_decoder_find;
    Alcotest.test_case "decoder rejects overlap" `Quick test_decoder_overlap_rejected;
    Alcotest.test_case "decoder rights and unmapped" `Quick test_decoder_check_rights;
    Alcotest.test_case "decoder burst straddle" `Quick test_decoder_burst_straddle;
    Alcotest.test_case "signal count" `Quick test_signals_count;
    Alcotest.test_case "signal index roundtrip" `Quick test_signals_index_roundtrip;
    Alcotest.test_case "signal index dense+unique" `Quick test_signals_index_dense_unique;
    Alcotest.test_case "signal names" `Quick test_signals_names;
    Alcotest.test_case "timing zero wait" `Quick test_timing_zero_wait;
    Alcotest.test_case "timing with waits" `Quick test_timing_waits;
    Alcotest.test_case "trace text roundtrip" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace comments" `Quick test_trace_comments_skipped;
    Alcotest.test_case "trace malformed" `Quick test_trace_malformed;
    Alcotest.test_case "trace instantiate fresh" `Quick test_trace_instantiate_fresh;
    Alcotest.test_case "trace totals" `Quick test_trace_totals;
    Alcotest.test_case "trace file roundtrip" `Quick test_trace_file_roundtrip;
    Alcotest.test_case "port take retires" `Quick test_port_take_retires;
    QCheck_alcotest.to_alcotest prop_trace_lines_oracle;
  ]
