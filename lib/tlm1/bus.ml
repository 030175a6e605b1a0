(* The layer-1 bus is the cycle-accurate engine of [Rtl.Bus] closed by
   the layer-1 estimator. *)

type t = { engine : Rtl.Bus.t; energy : Energy.t option }

let create ~kernel ~decoder ?energy () =
  { engine = Rtl.Bus.layer1 ~kernel ~decoder (Option.map Energy.end_cycle energy);
    energy }

let energy t = t.energy
let engine t = t.engine

let reset t =
  Rtl.Bus.reset t.engine;
  Option.iter Energy.reset t.energy
