type applet = { aid : int list; process : Apdu.command -> Apdu.response }

let applet ~aid process =
  let n = List.length aid in
  if n < 5 || n > 16 then invalid_arg "Iso7816.Card.applet: AID length";
  List.iter
    (fun b -> if b < 0 || b > 0xFF then invalid_arg "Iso7816.Card.applet: AID byte")
    aid;
  { aid; process }

type t = {
  applets : applet list;
  mutable current : applet option;
  mutable handled : int;
}

let create applets =
  let aids = List.map (fun a -> a.aid) applets in
  if List.length (List.sort_uniq compare aids) <> List.length aids then
    invalid_arg "Iso7816.Card.create: duplicate AIDs";
  { applets; current = None; handled = 0 }

let select t (c : Apdu.command) =
  match List.find_opt (fun a -> a.aid = c.Apdu.data) t.applets with
  | Some a ->
    t.current <- Some a;
    Apdu.response Apdu.sw_ok
  | None -> Apdu.response Apdu.sw_file_not_found

let handle t (c : Apdu.command) =
  t.handled <- t.handled + 1;
  if c.Apdu.cla = 0xFF then Apdu.response Apdu.sw_cla_not_supported
  else if c.Apdu.ins = Apdu.ins_select && c.Apdu.p1 = 0x04 then select t c
  else
    match t.current with
    | Some a -> a.process c
    | None -> Apdu.response Apdu.sw_conditions_not_satisfied

let selected t = Option.map (fun a -> a.aid) t.current
let commands_handled t = t.handled

let echo_applet =
  applet ~aid:[ 0xA0; 0x00; 0x00; 0x00; 0x01 ] (fun c ->
      Apdu.response ~data:c.Apdu.data Apdu.sw_ok)

let wallet_applet ~initial () =
  let balance = ref initial in
  applet ~aid:[ 0xA0; 0x00; 0x00; 0x00; 0x02 ] (fun c ->
      match c.Apdu.ins, c.Apdu.data with
      | 0x30, [ amount ] ->
        if !balance + amount > 0xFFFF then Apdu.response Apdu.sw_wrong_data
        else begin
          balance := !balance + amount;
          Apdu.response Apdu.sw_ok
        end
      | 0x31, [ amount ] ->
        if !balance < amount then
          Apdu.response Apdu.sw_conditions_not_satisfied
        else begin
          balance := !balance - amount;
          Apdu.response Apdu.sw_ok
        end
      | 0x32, [] ->
        Apdu.response ~data:[ (!balance lsr 8) land 0xFF; !balance land 0xFF ]
          Apdu.sw_ok
      | (0x30 | 0x31 | 0x32), _ -> Apdu.response Apdu.sw_wrong_length
      | _ -> Apdu.response Apdu.sw_ins_not_supported)
