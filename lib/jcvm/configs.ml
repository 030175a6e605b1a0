type reg_org = Dedicated | Shared_cmd_data

type t = {
  name : string;
  width : Ec.Txn.width;
  reg_org : reg_org;
  base : int;
  stride : int;
  packed32 : bool;
}

let data_reg = 0
let cmd_reg = 1
let count_reg = 2
let top_reg = 3
let cmd_push = 1
let cmd_pop = 2

let make ~name ?(width = Ec.Txn.W16) ?(reg_org = Dedicated)
    ?(base = Soc.Platform.Map.sfr_base) ?(stride = 4) ?(packed32 = false) () =
  if packed32 && width <> Ec.Txn.W32 then
    invalid_arg "Jcvm.Configs.make: packed32 needs 32-bit width";
  if stride < 4 || stride mod 4 <> 0 then
    invalid_arg "Jcvm.Configs.make: stride must be a positive word multiple";
  if base mod 4 <> 0 then invalid_arg "Jcvm.Configs.make: misaligned base";
  { name; width; reg_org; base; stride; packed32 }

let window_size t = 4 * t.stride

let standard =
  [
    make ~name:"w8-dedicated" ~width:Ec.Txn.W8 ();
    make ~name:"w16-dedicated" ();
    make ~name:"w16-cmd+data" ~reg_org:Shared_cmd_data ();
    (* Same organization, bad address map: CMD and DATA sit at addresses
       five Hamming-bits apart, so every operation toggles the address
       bus hard. *)
    make ~name:"w16-cmd+data-spread" ~reg_org:Shared_cmd_data ~stride:0xAA8 ();
    make ~name:"w32-plain" ~width:Ec.Txn.W32 ();
    make ~name:"w32-packed" ~width:Ec.Txn.W32 ~packed32:true ();
    make ~name:"w16-highbase" ~base:(Soc.Platform.Map.sfr_base + 0xAA8) ();
  ]
