type ctrl =
  | Avalid
  | Instr
  | Write
  | Burst
  | Bfirst
  | Blast
  | Ardy
  | Rdval
  | Wdrdy
  | Rberr
  | Wberr

type id = Addr of int | Be of int | Wdata of int | Rdata of int | Ctrl of ctrl

let addr_wires = 34
let be_wires = 4
let data_wires = 32

let all_ctrl =
  [ Avalid; Instr; Write; Burst; Bfirst; Blast; Ardy; Rdval; Wdrdy; Rberr;
    Wberr ]

let ctrl_index = function
  | Avalid -> 0
  | Instr -> 1
  | Write -> 2
  | Burst -> 3
  | Bfirst -> 4
  | Blast -> 5
  | Ardy -> 6
  | Rdval -> 7
  | Wdrdy -> 8
  | Rberr -> 9
  | Wberr -> 10

let ctrl_by_index = Array.of_list all_ctrl
let ctrl_count = Array.length ctrl_by_index
let count = addr_wires + be_wires + (2 * data_wires) + ctrl_count

let index = function
  | Addr i ->
    assert (i >= 0 && i < addr_wires);
    i
  | Be i ->
    assert (i >= 0 && i < be_wires);
    addr_wires + i
  | Wdata i ->
    assert (i >= 0 && i < data_wires);
    addr_wires + be_wires + i
  | Rdata i ->
    assert (i >= 0 && i < data_wires);
    addr_wires + be_wires + data_wires + i
  | Ctrl c -> addr_wires + be_wires + (2 * data_wires) + ctrl_index c

let of_index i =
  if i < 0 || i >= count then invalid_arg "Ec.Signals.of_index";
  if i < addr_wires then Addr i
  else if i < addr_wires + be_wires then Be (i - addr_wires)
  else if i < addr_wires + be_wires + data_wires then
    Wdata (i - addr_wires - be_wires)
  else if i < addr_wires + be_wires + (2 * data_wires) then
    Rdata (i - addr_wires - be_wires - data_wires)
  else Ctrl ctrl_by_index.(i - addr_wires - be_wires - (2 * data_wires))

let ctrl_to_string = function
  | Avalid -> "EB_AValid"
  | Instr -> "EB_Instr"
  | Write -> "EB_Write"
  | Burst -> "EB_Burst"
  | Bfirst -> "EB_BFirst"
  | Blast -> "EB_BLast"
  | Ardy -> "EB_ARdy"
  | Rdval -> "EB_RdVal"
  | Wdrdy -> "EB_WDRdy"
  | Rberr -> "EB_RBErr"
  | Wberr -> "EB_WBErr"

let to_string = function
  | Addr i -> Printf.sprintf "EB_A[%d]" (i + 2)
  | Be i -> Printf.sprintf "EB_BE[%d]" i
  | Wdata i -> Printf.sprintf "EB_WData[%d]" i
  | Rdata i -> Printf.sprintf "EB_RData[%d]" i
  | Ctrl c -> ctrl_to_string c

let all = List.init count of_index

(* Effective switched capacitance per wire class.  Address wires fan out to
   every slave's decoder, data wires to the data muxes, control wires are
   short point-to-point nets. *)
let default_capacitance_ff = function
  | Addr _ -> 450.0
  | Be _ -> 300.0
  | Wdata _ -> 380.0
  | Rdata _ -> 360.0
  | Ctrl (Avalid | Ardy) -> 280.0
  | Ctrl _ -> 240.0

let vdd = 1.8
