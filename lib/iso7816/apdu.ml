type command = {
  cla : int;
  ins : int;
  p1 : int;
  p2 : int;
  data : int list;
  le : int option;
}

type response = { data : int list; sw : int }

let check_byte name v =
  if v < 0 || v > 0xFF then
    invalid_arg (Printf.sprintf "Iso7816.Apdu: %s byte %d" name v)

let command ?(cla = 0) ~ins ?(p1 = 0) ?(p2 = 0) ?(data = []) ?le () =
  check_byte "cla" cla;
  check_byte "ins" ins;
  check_byte "p1" p1;
  check_byte "p2" p2;
  List.iter (check_byte "data") data;
  if List.length data > 255 then invalid_arg "Iso7816.Apdu: data too long";
  (match le with
  | Some le when le < 0 || le > 256 -> invalid_arg "Iso7816.Apdu: le"
  | Some _ | None -> ());
  { cla; ins; p1; p2; data; le }

let response ?(data = []) sw =
  List.iter (check_byte "data") data;
  { data; sw }

let sw_ok = 0x9000
let sw_wrong_length = 0x6700
let sw_conditions_not_satisfied = 0x6985
let sw_wrong_data = 0x6A80
let sw_file_not_found = 0x6A82
let sw_ins_not_supported = 0x6D00
let sw_cla_not_supported = 0x6E00
let ins_select = 0xA4

let le_byte = function 256 -> 0 | le -> le

let encode_command c =
  let header = [ c.cla; c.ins; c.p1; c.p2 ] in
  let body =
    match c.data with
    | [] -> []
    | data -> List.length data :: data
  in
  let trailer = match c.le with None -> [] | Some le -> [ le_byte le ] in
  header @ body @ trailer

let decode_command bytes =
  match bytes with
  | cla :: ins :: p1 :: p2 :: rest -> begin
    let make data le = Ok { cla; ins; p1; p2; data; le } in
    match rest with
    | [] -> make [] None  (* case 1 *)
    | [ le ] -> make [] (Some (if le = 0 then 256 else le))  (* case 2 *)
    | lc :: body ->
      let n = List.length body in
      if n = lc then make body None  (* case 3 *)
      else if n = lc + 1 then begin
        (* case 4 *)
        let data = List.filteri (fun i _ -> i < lc) body in
        match List.rev body with
        | le :: _ -> make data (Some (if le = 0 then 256 else le))
        | [] -> assert false
      end
      else Error (Printf.sprintf "Lc %d inconsistent with %d body bytes" lc n)
  end
  | _ -> Error "short APDU header"

let encode_response r = r.data @ [ (r.sw lsr 8) land 0xFF; r.sw land 0xFF ]

let decode_response bytes =
  let rec split acc = function
    | [ sw1; sw2 ] -> Ok { data = List.rev acc; sw = (sw1 lsl 8) lor sw2 }
    | b :: rest -> split (b :: acc) rest
    | [] -> Error "response shorter than the status word"
  in
  split [] bytes

let pp_bytes ppf bytes =
  List.iter (fun b -> Format.fprintf ppf "%02X" b) bytes

let pp_command ppf c =
  Format.fprintf ppf "CLA=%02X INS=%02X P1=%02X P2=%02X" c.cla c.ins c.p1 c.p2;
  if c.data <> [] then Format.fprintf ppf " Lc=%d [%a]" (List.length c.data) pp_bytes c.data;
  match c.le with
  | Some le -> Format.fprintf ppf " Le=%d" le
  | None -> ()

let pp_response ppf r =
  if r.data <> [] then Format.fprintf ppf "[%a] " pp_bytes r.data;
  Format.fprintf ppf "SW=%04X" r.sw
