(* Power analysis on simulated traces (the paper's second motivation:
   "Estimation of power consumption over time is important to reduce the
   probability of a successful power analysis attack").

   The cycle-accurate layer-1 profile stands in for an oscilloscope: we
   encrypt random plaintexts on the crypto coprocessor, record one power
   trace per run, mount a correlation power analysis against the S-box
   output, and then show how a masked read-out protocol changes the
   picture — including the pitfall of reading mask and masked data
   back-to-back.

   Run with:  dune exec examples/dpa_attack.exe *)

let secret_key = 0x5A

(* One encryption on a fresh card; returns its per-cycle energy trace. *)
let encrypt_and_measure ~seed ~masked ~careless pt =
  let system =
    Core.System.create ~level:Core.Level.L1 ~record_profile:true ~seed ()
  in
  let kernel = Core.System.kernel system in
  let port = Core.System.port system in
  let ids = Ec.Txn.Id_gen.create () in
  let transact txn =
    ignore (Ec.Port.transact ~kernel port txn);
    txn.Ec.Txn.data.(0)
  in
  let base = Soc.Platform.Map.crypto_base in
  let write addr v =
    ignore
      (transact (Ec.Txn.single_write ~id:(Ec.Txn.Id_gen.fresh ids) addr ~value:v))
  in
  let read addr =
    transact (Ec.Txn.single_read ~id:(Ec.Txn.Id_gen.fresh ids) addr)
  in
  write (base + 0x00) secret_key;
  write (base + 0x04) pt;
  write (base + 0x08) (if masked then 0b11 else 0b01);
  let rec wait () = if read (base + 0x0C) land 2 = 0 then wait () in
  wait ();
  let ct = read (base + 0x10) in
  let ct =
    if masked then begin
      if not careless then
        (* Break the Hamming-distance chain between masked data and mask. *)
        ignore (read (base + 0x0C));
      ct lxor read (base + 0x14)
    end
    else ct
  in
  ignore ct;
  match Core.System.profile system with
  | Some p -> Power.Profile.to_array p
  | None -> assert false

let collect ~masked ~careless ~n =
  let rng = Sim.Rng.create ~seed:0xA77AC4 in
  let inputs = List.init n (fun _ -> Sim.Rng.bits rng 8) in
  let traces =
    List.mapi
      (fun i pt -> encrypt_and_measure ~seed:(i + 1) ~masked ~careless pt)
      inputs
  in
  (inputs, traces)

(* Leakage hypothesis: Hamming weight of the S-box output byte. *)
let model ~key ~input =
  float_of_int (Power.Dpa.hamming_weight (Soc.Crypto.sbox (input lxor key)))

let attack name (inputs, traces) =
  let scores =
    Power.Dpa.cpa_attack ~traces ~inputs ~model ~guesses:(List.init 256 Fun.id)
  in
  (match scores with
  | (best, s0) :: (second, s1) :: _ ->
    Printf.printf "%-28s best guess 0x%02X (r=%.3f), runner-up 0x%02X (r=%.3f)" name
      best s0 second s1;
    if best = secret_key && s0 > 1.5 *. s1 then
      print_endline "  -> KEY RECOVERED"
    else if best = secret_key then print_endline "  -> key first but not distinct"
    else print_endline "  -> attack failed"
  | _ -> ());
  scores

let () =
  Printf.printf "secret key byte: 0x%02X (the attacker does not know this)\n" secret_key;
  Printf.printf "collecting %d traces per scenario...\n\n" 150;

  print_endline "== 1. Unprotected read-out ==";
  print_endline
    "The ciphertext crosses the read-data bus in the clear; its Hamming\n\
     weight modulates the wire energy of that cycle.";
  ignore (attack "unprotected:" (collect ~masked:false ~careless:false ~n:150));
  print_newline ();

  print_endline "== 2. Masked read-out done WRONG ==";
  print_endline
    "DOUT returns ct^m and MASK returns m - but read back-to-back, the\n\
     read bus transitions from ct^m to m, and HD(ct^m, m) = HW(ct): the\n\
     mask cancels itself on the wires.";
  ignore (attack "masked, back-to-back:" (collect ~masked:true ~careless:true ~n:150));
  print_newline ();

  print_endline "== 3. Masked read-out done right ==";
  print_endline
    "Interposing a constant STATUS read between DOUT and MASK breaks the\n\
     Hamming-distance chain; every bus value is now blinded.";
  ignore (attack "masked, interposed:" (collect ~masked:true ~careless:false ~n:150));
  print_newline ();

  print_endline
    "Lesson: the hierarchical energy model is accurate enough at layer 1\n\
     to evaluate power-analysis countermeasures before RTL exists."
