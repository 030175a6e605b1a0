let () =
  Alcotest.run "smartcard-energy"
    [
      ("sim", Suite_sim.suite);
      ("ec", Suite_ec.suite);
      ("bus", Suite_bus.suite);
      ("levels", Suite_levels.suite);
      ("tlm3", Suite_tlm3.suite);
      ("power", Suite_power.suite);
      ("soc", Suite_soc.suite);
      ("isa-cpu", Suite_isa.suite);
      ("jcvm", Suite_jcvm.suite);
      ("core", Suite_core.suite);
      ("iso7816", Suite_iso7816.suite);
      ("hier", Suite_hier.suite);
      ("fabric", Suite_fabric.suite);
      ("explore", Suite_explore.suite);
      ("obs", Suite_obs.suite);
      ("integration", Suite_integration.suite);
      ("parallel", Suite_parallel.suite);
      ("serve", Suite_serve.suite);
      ("properties", Suite_props.suite);
      ("ledger", Suite_ledger.suite);
      ("iface", Suite_iface.suite);
    ]
