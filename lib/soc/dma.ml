let src_off = 0x00
let dst_off = 0x04
let len_off = 0x08
let ctrl_off = 0x0C
let status_off = 0x10

type state =
  | Idle
  | Issue_read of Ec.Txn.t
  | Reading of Ec.Txn.t
  | Issue_write of Ec.Txn.t
  | Writing of Ec.Txn.t * int  (* chunk words *)

type t = {
  cfg : Ec.Slave_cfg.t;
  component : Power.Component.t;
  proc : Sim.Kernel.handle;  (* parked while no transfer is active *)
  done_irq : unit -> unit;
  ids : Ec.Txn.Id_gen.gen;
  mutable port : Ec.Port.t option;
  mutable src : int;
  mutable dst : int;
  mutable len : int;
  mutable use_burst : bool;
  mutable remaining : int;
  mutable cur_src : int;
  mutable cur_dst : int;
  mutable state : state;
  mutable active : bool;
  mutable done_ : bool;
  mutable error : bool;
  mutable words_copied : int;
  mutable transfers_done : int;
}

let busy t = t.active
let words_copied t = t.words_copied
let transfers_done t = t.transfers_done

let finish t ~error =
  t.active <- false;
  t.state <- Idle;
  t.error <- error;
  if not error then begin
    t.done_ <- true;
    t.transfers_done <- t.transfers_done + 1;
    t.done_irq ()
  end

let chunk_words t = if t.use_burst && t.remaining >= 4 then 4 else 1

let read_txn t chunk =
  Ec.Txn.create ~id:(Ec.Txn.Id_gen.fresh t.ids) ~kind:Ec.Txn.Data
    ~dir:Ec.Txn.Read ~width:Ec.Txn.W32 ~addr:t.cur_src ~burst:chunk ()

let write_txn t chunk data =
  Ec.Txn.create ~id:(Ec.Txn.Id_gen.fresh t.ids) ~kind:Ec.Txn.Data
    ~dir:Ec.Txn.Write ~width:Ec.Txn.W32 ~addr:t.cur_dst ~burst:chunk ~data ()

let advance t =
  match t.port with
  | None -> if t.active then finish t ~error:true
  | Some port -> begin
    match t.state with
    | Idle ->
      if t.active then begin
        if t.remaining = 0 then finish t ~error:false
        else begin
          match read_txn t (chunk_words t) with
          | txn -> t.state <- Issue_read txn
          | exception Invalid_argument _ -> finish t ~error:true
        end
      end
    | Issue_read txn ->
      if port.Ec.Port.try_submit txn then t.state <- Reading txn
    | Reading txn -> begin
      match Ec.Port.take port txn.Ec.Txn.id with
      | Ec.Port.Pending -> ()
      | Ec.Port.Failed -> finish t ~error:true
      | Ec.Port.Done -> begin
        let chunk = txn.Ec.Txn.burst in
        match write_txn t chunk (Array.copy txn.Ec.Txn.data) with
        | wtxn -> t.state <- Issue_write wtxn
        | exception Invalid_argument _ -> finish t ~error:true
      end
    end
    | Issue_write txn ->
      if port.Ec.Port.try_submit txn then
        t.state <- Writing (txn, txn.Ec.Txn.burst)
    | Writing (txn, chunk) -> begin
      match Ec.Port.take port txn.Ec.Txn.id with
      | Ec.Port.Pending -> ()
      | Ec.Port.Failed -> finish t ~error:true
      | Ec.Port.Done ->
        t.remaining <- t.remaining - chunk;
        t.cur_src <- t.cur_src + (4 * chunk);
        t.cur_dst <- t.cur_dst + (4 * chunk);
        t.words_copied <- t.words_copied + chunk;
        t.state <- Idle
    end
  end

let step t _kernel =
  if t.active then begin
    Power.Component.count_active t.component;
    advance t
  end;
  if not t.active then Sim.Kernel.park t.proc

let create ~kernel ?(done_irq = fun () -> ()) cfg =
  let name = cfg.Ec.Slave_cfg.name in
  let proc = Sim.Kernel.slot kernel ~name:(name ^ "-engine") in
  let t =
    {
      cfg;
      component =
        Power.Component.create ~name ~slot:proc
          (Power.Component.params ~idle_pj_per_cycle:0.04
             ~active_pj_per_cycle:0.9 ~access_pj:1.2 ());
      proc;
      done_irq;
      ids = Ec.Txn.Id_gen.create ();
      port = None;
      src = 0;
      dst = 0;
      len = 0;
      use_burst = true;
      remaining = 0;
      cur_src = 0;
      cur_dst = 0;
      state = Idle;
      active = false;
      done_ = false;
      error = false;
      words_copied = 0;
      transfers_done = 0;
    }
  in
  Sim.Kernel.bind proc (step t);
  t

let connect t port = t.port <- Some port

let read t ~addr ~width:_ =
  Power.Component.access t.component;
  match addr - t.cfg.Ec.Slave_cfg.base with
  | off when off = src_off -> t.src
  | off when off = dst_off -> t.dst
  | off when off = len_off -> t.len
  | off when off = ctrl_off -> if t.use_burst then 2 else 0
  | off when off = status_off ->
    (if t.active then 1 else 0)
    lor (if t.done_ then 2 else 0)
    lor if t.error then 4 else 0
  | _ -> 0

let write t ~addr ~width:_ ~value =
  Power.Component.access t.component;
  match addr - t.cfg.Ec.Slave_cfg.base with
  | off when off = src_off -> t.src <- value
  | off when off = dst_off -> t.dst <- value
  | off when off = len_off -> t.len <- value
  | off when off = ctrl_off ->
    t.use_burst <- value land 2 = 2;
    if value land 1 = 1 && not t.active then begin
      t.remaining <- t.len;
      t.cur_src <- t.src;
      t.cur_dst <- t.dst;
      t.active <- true;
      t.done_ <- false;
      t.error <- false;
      t.state <- Idle;
      Sim.Kernel.unpark t.proc
    end
  | _ -> ()

let slave t = Ec.Slave.make ~cfg:t.cfg ~read:(read t) ~write:(write t)
let component t = t.component

(* The bus connection belongs to the session wiring, so [reset] keeps
   [port]. *)
let reset t =
  Ec.Txn.Id_gen.reset t.ids;
  t.src <- 0;
  t.dst <- 0;
  t.len <- 0;
  t.use_burst <- true;
  t.remaining <- 0;
  t.cur_src <- 0;
  t.cur_dst <- 0;
  t.state <- Idle;
  t.active <- false;
  t.done_ <- false;
  t.error <- false;
  t.words_copied <- 0;
  t.transfers_done <- 0;
  Sim.Kernel.park t.proc;
  Power.Component.reset t.component

let descriptor_trace ~src ~dst ~words =
  if words < 0 then invalid_arg "Soc.Dma.descriptor_trace: words < 0";
  if src mod 4 <> 0 || dst mod 4 <> 0 then
    invalid_arg "Soc.Dma.descriptor_trace: unaligned descriptor";
  let rec go off left acc =
    if left = 0 then List.rev acc
    else if left >= 4 then
      let rd = Ec.Txn.burst_read ~id:0 (src + off) in
      let wr =
        Ec.Txn.burst_write ~id:0 (dst + off)
          ~values:(Array.make 4 0xD0D0_D0D0)
      in
      go (off + 16) (left - 4)
        (Ec.Trace.item ~gap:0 wr :: Ec.Trace.item ~gap:0 rd :: acc)
    else
      let rd = Ec.Txn.single_read ~id:0 (src + off) in
      let wr = Ec.Txn.single_write ~id:0 (dst + off) ~value:0xD0D0_D0D0 in
      go (off + 4) (left - 1)
        (Ec.Trace.item ~gap:0 wr :: Ec.Trace.item ~gap:0 rd :: acc)
  in
  go 0 words []
