type limit = { name : string; max_current_ma : float; supply_v : float }

let gsm_contact = { name = "GSM 11.11 (contact)"; max_current_ma = 10.0; supply_v = 5.0 }

let contactless_rf =
  { name = "contactless RF field"; max_current_ma = 5.0; supply_v = 3.0 }

type verdict = {
  limit : limit;
  average_current_ma : float;
  average_power_mw : float;
  headroom_pct : float;
  within : bool;
}

let average_current_ma ~energy_pj ~cycles ~clock_hz ~supply_v =
  if cycles = 0 || supply_v = 0.0 then 0.0
  else begin
    let seconds = float_of_int cycles /. clock_hz in
    let watts = energy_pj *. 1e-12 /. seconds in
    watts /. supply_v *. 1e3
  end

let check limit ~energy_pj ~cycles =
  let average_current_ma =
    average_current_ma ~energy_pj ~cycles ~clock_hz:10e6
      ~supply_v:limit.supply_v
  in
  let average_power_mw = average_current_ma *. limit.supply_v in
  {
    limit;
    average_current_ma;
    average_power_mw;
    headroom_pct =
      (if limit.max_current_ma = 0.0 then 0.0
       else
         (limit.max_current_ma -. average_current_ma)
         /. limit.max_current_ma *. 100.0);
    within = average_current_ma <= limit.max_current_ma;
  }

let pp_verdict ppf v =
  Format.fprintf ppf "%s: %.3f mA avg (%.2f mW) vs %.1f mA limit -> %s"
    v.limit.name v.average_current_ma v.average_power_mw
    v.limit.max_current_ma
    (if v.within then
       Format.asprintf "OK (%.1f%% headroom)" v.headroom_pct
     else "OVER BUDGET")
