type t = {
  kernel : Sim.Kernel.t;
  port : Ec.Port.t;
  config : Configs.t;
  ids : Ec.Txn.Id_gen.gen;
  mutable pending_push : int option;  (* packed32: buffered pushed short *)
  mutable pending_pop : int option;  (* packed32: prefetched popped short *)
  mutable depth : int;  (* logical stack depth including buffers *)
  mutable transactions : int;
}

let create ~kernel ~port config =
  {
    kernel;
    port;
    config;
    ids = Ec.Txn.Id_gen.create ();
    pending_push = None;
    pending_pop = None;
    depth = 0;
    transactions = 0;
  }

let reg_addr t reg = t.config.Configs.base + (reg * t.config.Configs.stride)

(* One blocking transaction; the result is the read word (ignored for
   writes). *)
let transact t txn =
  t.transactions <- t.transactions + 1;
  ignore (Ec.Port.transact ~kernel:t.kernel t.port txn);
  txn.Ec.Txn.data.(0)

let write t ~reg ~lane ~width value =
  let txn =
    Ec.Txn.create ~id:(Ec.Txn.Id_gen.fresh t.ids) ~kind:Ec.Txn.Data
      ~dir:Ec.Txn.Write ~width
      ~addr:(reg_addr t reg + lane)
      ~burst:1 ~data:[| value |] ()
  in
  ignore (transact t txn)

let read t ~reg ~lane ~width =
  let txn =
    Ec.Txn.create ~id:(Ec.Txn.Id_gen.fresh t.ids) ~kind:Ec.Txn.Data
      ~dir:Ec.Txn.Read ~width
      ~addr:(reg_addr t reg + lane)
      ~burst:1 ()
  in
  transact t txn

let flush t =
  match t.pending_push with
  | None -> ()
  | Some v ->
    (* No partner short arrived: use the packed configuration's
       single-push register. *)
    write t ~reg:Configs.top_reg ~lane:0 ~width:Ec.Txn.W32 (v land 0xFFFF);
    t.pending_push <- None

let hw_push t v =
  let v16 = v land 0xFFFF in
  match t.config.Configs.width, t.config.Configs.reg_org with
  | _, Configs.Shared_cmd_data ->
    write t ~reg:Configs.data_reg ~lane:0 ~width:t.config.Configs.width v16;
    write t ~reg:Configs.cmd_reg ~lane:0 ~width:t.config.Configs.width
      Configs.cmd_push
  | Ec.Txn.W8, Configs.Dedicated ->
    write t ~reg:Configs.data_reg ~lane:0 ~width:Ec.Txn.W8 (v16 land 0xFF);
    write t ~reg:Configs.data_reg ~lane:1 ~width:Ec.Txn.W8 (v16 lsr 8)
  | Ec.Txn.W16, Configs.Dedicated ->
    write t ~reg:Configs.data_reg ~lane:0 ~width:Ec.Txn.W16 v16
  | Ec.Txn.W32, Configs.Dedicated ->
    if t.config.Configs.packed32 then begin
      match t.pending_push with
      | None -> t.pending_push <- Some v16
      | Some first ->
        (* Low half is pushed first (deeper), the newer short on top. *)
        write t ~reg:Configs.data_reg ~lane:0 ~width:Ec.Txn.W32
          (first lor (v16 lsl 16));
        t.pending_push <- None
    end
    else write t ~reg:Configs.data_reg ~lane:0 ~width:Ec.Txn.W32 v16

let to_short v =
  let v = v land 0xFFFF in
  if v > 32767 then v - 65536 else v

let hw_pop t ~hw_depth =
  match t.config.Configs.width, t.config.Configs.reg_org with
  | _, Configs.Shared_cmd_data ->
    write t ~reg:Configs.cmd_reg ~lane:0 ~width:t.config.Configs.width
      Configs.cmd_pop;
    to_short (read t ~reg:Configs.data_reg ~lane:0 ~width:t.config.Configs.width)
  | Ec.Txn.W8, Configs.Dedicated ->
    let lo = read t ~reg:Configs.data_reg ~lane:0 ~width:Ec.Txn.W8 in
    let hi = read t ~reg:Configs.data_reg ~lane:1 ~width:Ec.Txn.W8 in
    to_short ((hi lsl 8) lor (lo land 0xFF))
  | Ec.Txn.W16, Configs.Dedicated ->
    to_short (read t ~reg:Configs.data_reg ~lane:0 ~width:Ec.Txn.W16)
  | Ec.Txn.W32, Configs.Dedicated ->
    if t.config.Configs.packed32 then begin
      (* The hardware pops two shorts when it has them; keep the second
         (deeper) one prefetched for the next pop. *)
      let word = read t ~reg:Configs.data_reg ~lane:0 ~width:Ec.Txn.W32 in
      if hw_depth >= 2 then t.pending_pop <- Some (to_short (word lsr 16));
      to_short word
    end
    else to_short (read t ~reg:Configs.data_reg ~lane:0 ~width:Ec.Txn.W32)

(* Invariant: pending_push and pending_pop are never both set; both are
   only used in packed mode. *)
let push t v =
  (match t.pending_pop with
  | Some prefetched ->
    (* The prefetched short is the element just below the new top; it can
       become the buffered half of the next packed write. *)
    assert (t.pending_push = None);
    t.pending_pop <- None;
    t.pending_push <- Some (prefetched land 0xFFFF)
  | None -> ());
  hw_push t v;
  t.depth <- t.depth + 1

let pop t =
  if t.depth <= 0 then raise Stack_intf.Underflow;
  let v =
    match t.pending_push with
    | Some buffered ->
      (* The buffered push is the logical top; serve it locally. *)
      t.pending_push <- None;
      to_short buffered
    | None -> begin
      match t.pending_pop with
      | Some prefetched ->
        t.pending_pop <- None;
        prefetched
      | None -> hw_pop t ~hw_depth:t.depth
    end
  in
  t.depth <- t.depth - 1;
  v

let ops t =
  {
    Stack_intf.push = push t;
    pop = (fun () -> pop t);
    depth = (fun () -> t.depth);
    reset =
      (fun () ->
        t.pending_push <- None;
        t.pending_pop <- None;
        t.depth <- 0);
  }

let transactions t = t.transactions
