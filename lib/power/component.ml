type params = {
  idle_pj_per_cycle : float;
  active_pj_per_cycle : float;
  access_pj : float;
}

let params ?(idle_pj_per_cycle = 0.0) ?(active_pj_per_cycle = 0.0)
    ?(access_pj = 0.0) () =
  if idle_pj_per_cycle < 0.0 || active_pj_per_cycle < 0.0 || access_pj < 0.0
  then invalid_arg "Power.Component.params: negative energy";
  { idle_pj_per_cycle; active_pj_per_cycle; access_pj }

(* Only active cycles are counted; idle ones are the edges elapsed at
   the component's slot minus the active ones, so an idle owner never
   runs.  [marked] is the slot edge a bus access has claimed as active
   but that has not been confirmed into [active] yet (0: none). *)
type t = {
  name : string;
  p : params;
  slot : Sim.Kernel.handle;
  mutable base : int;  (* slot edges at creation or the last reset *)
  mutable active : int;
  mutable marked : int;
  mutable accesses : int;
}

let edges t = Sim.Kernel.edges t.slot

let create ~name ~slot p =
  let t = { name; p; slot; base = 0; active = 0; marked = 0; accesses = 0 } in
  t.base <- edges t;
  t

let name t = t.name
let count_active t = t.active <- t.active + 1

(* Slot edges are numbered from 1, so the next one to reach the slot is
   [edges + 1].  An earlier pending mark has necessarily passed. *)
let mark t =
  let e = edges t + 1 in
  if t.marked <> e then begin
    if t.marked <> 0 then t.active <- t.active + 1;
    t.marked <- e
  end

let access t = t.accesses <- t.accesses + 1

let active_cycles t =
  if t.marked <> 0 && t.marked <= edges t then t.active + 1 else t.active

let idle_cycles t = edges t - t.base - active_cycles t
let accesses t = t.accesses

let energy_pj t =
  (float_of_int (active_cycles t) *. t.p.active_pj_per_cycle)
  +. (float_of_int (idle_cycles t) *. t.p.idle_pj_per_cycle)
  +. (float_of_int t.accesses *. t.p.access_pj)

let reset t =
  t.base <- edges t;
  t.active <- 0;
  t.marked <- 0;
  t.accesses <- 0

module Presets = struct
  (* Synthetic but smart-card plausible magnitudes (0.18u, 1.8 V core):
     non-volatile memories cost much more per access than SRAM; the flash
     charge pump dominates when writing; the crypto datapath burns the most
     while active. *)
  let rom = params ~idle_pj_per_cycle:0.05 ~active_pj_per_cycle:0.4 ~access_pj:6.0 ()
  let eeprom = params ~idle_pj_per_cycle:0.08 ~active_pj_per_cycle:0.9 ~access_pj:25.0 ()
  let flash = params ~idle_pj_per_cycle:0.08 ~active_pj_per_cycle:1.1 ~access_pj:18.0 ()
  let sram = params ~idle_pj_per_cycle:0.03 ~active_pj_per_cycle:0.25 ~access_pj:2.2 ()
  let uart = params ~idle_pj_per_cycle:0.02 ~active_pj_per_cycle:0.35 ~access_pj:1.5 ()
  let timer = params ~idle_pj_per_cycle:0.04 ~active_pj_per_cycle:0.12 ~access_pj:1.0 ()
  let trng = params ~idle_pj_per_cycle:0.10 ~active_pj_per_cycle:0.8 ~access_pj:3.0 ()
  let crypto = params ~idle_pj_per_cycle:0.06 ~active_pj_per_cycle:4.5 ~access_pj:2.5 ()
end
