type channel = { mutable data : int array; mutable len : int }

let channel () = { data = Array.make 256 0; len = 0 }

let push c v =
  if c.len = Array.length c.data then begin
    let bigger = Array.make (2 * c.len) 0 in
    Array.blit c.data 0 bigger 0 c.len;
    c.data <- bigger
  end;
  c.data.(c.len) <- v;
  c.len <- c.len + 1

let values c = Array.sub c.data 0 c.len

type t = { addr : channel; wdata : channel; rdata : channel }

let create ~kernel wires =
  let t = { addr = channel (); wdata = channel (); rdata = channel () } in
  Sim.Kernel.on_rising kernel ~name:"bus-sampler" (fun _ ->
      push t.addr wires.Wires.addr;
      push t.wdata wires.Wires.wdata;
      push t.rdata wires.Wires.rdata);
  t

let addr_values t = values t.addr
let wdata_values t = values t.wdata
let rdata_values t = values t.rdata
