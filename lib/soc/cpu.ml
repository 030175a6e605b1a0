type fault =
  | Bus_error of int
  | Misaligned of int
  | Illegal_instruction of int

(* What to do when the pending data transaction completes. *)
type continuation =
  | Writeback of Isa.reg * (int -> int)  (* destination, extension *)
  | Writeback4 of Isa.reg
  | Store_done

type state =
  | Issue_fetch
  | Fetch_pending of Ec.Txn.t
  | Issue_mem of Ec.Txn.t * continuation * [ `Load | `Store ]
  | Mem_pending of Ec.Txn.t * continuation
  | Wait_for_interrupt
  | Draining  (* halt seen, store buffer not yet empty *)
  | Halted

type t = {
  port : Ec.Port.t;
  ids : Ec.Txn.Id_gen.gen;
  regs : int array;
  store_buffer : bool;
  irq : unit -> bool;
  mutable pending_store : Ec.Txn.t option;
  mutable pc : int;
  mutable epc : int;
  mutable irq_enabled : bool;
  mutable in_irq : bool;
  mutable interrupts_taken : int;
  mutable state : state;
  mutable fault : fault option;
  mutable instructions : int;
  mutable loads : int;
  mutable stores : int;
}

let mask32 v = v land 0xFFFFFFFF
let sext8 v = if v land 0x80 <> 0 then mask32 (v - 0x100) else v land 0xFF
let sext16 v = if v land 0x8000 <> 0 then mask32 (v - 0x10000) else v land 0xFFFF

(* Signed view of a 32-bit value, for comparisons. *)
let signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

let get t r = if r = 0 then 0 else t.regs.(r)
let set t r v = if r <> 0 then t.regs.(r) <- mask32 v

let stop_with_fault t f =
  t.fault <- Some f;
  t.state <- Halted

let rec try_issue t =
  match t.state with
  | Issue_fetch ->
    if t.pc mod 4 <> 0 then stop_with_fault t (Misaligned t.pc)
    else begin
      let txn =
        Ec.Txn.single_read ~id:(Ec.Txn.Id_gen.fresh t.ids)
          ~kind:Ec.Txn.Instruction t.pc
      in
      if t.port.Ec.Port.try_submit txn then t.state <- Fetch_pending txn
    end
  | Issue_mem (txn, continuation, `Load) ->
    (* Conservative load-after-store ordering: the read bus is independent
       of the write bus, so a load could overtake a buffered store; drain
       the buffer first. *)
    if t.pending_store = None && t.port.Ec.Port.try_submit txn then begin
      t.loads <- t.loads + 1;
      t.state <- Mem_pending (txn, continuation)
    end
  | Issue_mem (txn, continuation, `Store) ->
    if t.store_buffer then begin
      (* One-entry store buffer: the store is posted and the core moves on
         to the next fetch in the same cycle (write traffic overlaps
         instruction reads, as on the real core's write buffer). *)
      if t.pending_store = None && t.port.Ec.Port.try_submit txn then begin
        t.stores <- t.stores + 1;
        t.pending_store <- Some txn;
        t.state <- Issue_fetch;
        try_issue t
      end
    end
    else if t.port.Ec.Port.try_submit txn then begin
      t.stores <- t.stores + 1;
      t.state <- Mem_pending (txn, continuation)
    end
  | Fetch_pending _ | Mem_pending _ | Wait_for_interrupt | Draining
  | Halted ->
    ()

(* Builds the data transaction of a load/store; Error is a misaligned
   address. *)
let mem_txn t ~dir ~width ~addr ?data () =
  match
    Ec.Txn.create ~id:(Ec.Txn.Id_gen.fresh t.ids) ~kind:Ec.Txn.Data ~dir ~width
      ~addr ~burst:1 ?data ()
  with
  | txn -> Ok txn
  | exception Invalid_argument _ -> Error addr

let burst_txn t ~dir ~addr ?data () =
  match
    Ec.Txn.create ~id:(Ec.Txn.Id_gen.fresh t.ids) ~kind:Ec.Txn.Data ~dir
      ~width:Ec.Txn.W32 ~addr ~burst:4 ?data ()
  with
  | txn -> Ok txn
  | exception Invalid_argument _ -> Error addr

let start_mem t kind result continuation =
  match result with
  | Ok txn ->
    t.state <- Issue_mem (txn, continuation, kind);
    try_issue t
  | Error addr -> stop_with_fault t (Misaligned addr)

let take_interrupt t =
  t.epc <- t.pc;
  t.pc <- 0x40 (* the interrupt vector *);
  t.in_irq <- true;
  t.interrupts_taken <- t.interrupts_taken + 1

(* Instruction boundary: pending interrupts preempt the next fetch. *)
let next_fetch t =
  if t.irq_enabled && (not t.in_irq) && t.irq () then take_interrupt t;
  t.state <- Issue_fetch;
  try_issue t

let execute t instr =
  let load ~width ~addr ext =
    start_mem t `Load (mem_txn t ~dir:Ec.Txn.Read ~width ~addr ()) ext
  in
  let store ~width ~addr value =
    start_mem t `Store
      (mem_txn t ~dir:Ec.Txn.Write ~width ~addr ~data:[| value |] ())
      Store_done
  in
  t.instructions <- t.instructions + 1;
  t.pc <- t.pc + 4;
  match instr with
  | Isa.Nop -> next_fetch t
  | Isa.Halt ->
    t.state <- (if t.pending_store = None then Halted else Draining)
  | Isa.Add (d, s, r) -> set t d (get t s + get t r); next_fetch t
  | Isa.Sub (d, s, r) -> set t d (get t s - get t r); next_fetch t
  | Isa.And (d, s, r) -> set t d (get t s land get t r); next_fetch t
  | Isa.Or (d, s, r) -> set t d (get t s lor get t r); next_fetch t
  | Isa.Xor (d, s, r) -> set t d (get t s lxor get t r); next_fetch t
  | Isa.Slt (d, s, r) ->
    set t d (if signed (get t s) < signed (get t r) then 1 else 0);
    next_fetch t
  | Isa.Sll (d, s, sh) -> set t d (get t s lsl sh); next_fetch t
  | Isa.Srl (d, s, sh) -> set t d (get t s lsr sh); next_fetch t
  | Isa.Mul (d, s, r) -> set t d (get t s * get t r); next_fetch t
  | Isa.Addi (d, s, i) -> set t d (get t s + i); next_fetch t
  | Isa.Andi (d, s, i) -> set t d (get t s land i); next_fetch t
  | Isa.Ori (d, s, i) -> set t d (get t s lor i); next_fetch t
  | Isa.Xori (d, s, i) -> set t d (get t s lxor i); next_fetch t
  | Isa.Lui (d, i) -> set t d (i lsl 16); next_fetch t
  | Isa.Slti (d, s, i) ->
    set t d (if signed (get t s) < i then 1 else 0);
    next_fetch t
  | Isa.Lw (d, off, b) -> load ~width:Ec.Txn.W32 ~addr:(get t b + off) (Writeback (d, mask32))
  | Isa.Lh (d, off, b) -> load ~width:Ec.Txn.W16 ~addr:(get t b + off) (Writeback (d, sext16))
  | Isa.Lhu (d, off, b) ->
    load ~width:Ec.Txn.W16 ~addr:(get t b + off) (Writeback (d, fun v -> v land 0xFFFF))
  | Isa.Lb (d, off, b) -> load ~width:Ec.Txn.W8 ~addr:(get t b + off) (Writeback (d, sext8))
  | Isa.Lbu (d, off, b) ->
    load ~width:Ec.Txn.W8 ~addr:(get t b + off) (Writeback (d, fun v -> v land 0xFF))
  | Isa.Sw (d, off, b) -> store ~width:Ec.Txn.W32 ~addr:(get t b + off) (get t d)
  | Isa.Sh (d, off, b) ->
    store ~width:Ec.Txn.W16 ~addr:(get t b + off) (get t d land 0xFFFF)
  | Isa.Sb (d, off, b) ->
    store ~width:Ec.Txn.W8 ~addr:(get t b + off) (get t d land 0xFF)
  | Isa.Lw4 (d, off, b) ->
    if d > 28 then stop_with_fault t (Illegal_instruction (Isa.encode instr))
    else
      start_mem t `Load
        (burst_txn t ~dir:Ec.Txn.Read ~addr:(get t b + off) ())
        (Writeback4 d)
  | Isa.Sw4 (d, off, b) ->
    if d > 28 then stop_with_fault t (Illegal_instruction (Isa.encode instr))
    else begin
      let data = Array.init 4 (fun i -> get t (d + i)) in
      start_mem t `Store
        (burst_txn t ~dir:Ec.Txn.Write ~addr:(get t b + off) ~data ())
        Store_done
    end
  | Isa.Beq (a, b, off) ->
    if get t a = get t b then t.pc <- t.pc + (4 * off);
    next_fetch t
  | Isa.Bne (a, b, off) ->
    if get t a <> get t b then t.pc <- t.pc + (4 * off);
    next_fetch t
  | Isa.Blt (a, b, off) ->
    if signed (get t a) < signed (get t b) then t.pc <- t.pc + (4 * off);
    next_fetch t
  | Isa.Bge (a, b, off) ->
    if signed (get t a) >= signed (get t b) then t.pc <- t.pc + (4 * off);
    next_fetch t
  | Isa.J target -> t.pc <- target lsl 2; next_fetch t
  | Isa.Jal target ->
    set t 31 t.pc;
    t.pc <- target lsl 2;
    next_fetch t
  | Isa.Jr s -> t.pc <- get t s; next_fetch t
  | Isa.Ei ->
    t.irq_enabled <- true;
    next_fetch t
  | Isa.Di ->
    t.irq_enabled <- false;
    next_fetch t
  | Isa.Eret ->
    t.pc <- t.epc;
    t.in_irq <- false;
    next_fetch t
  | Isa.Wfi -> t.state <- Wait_for_interrupt

let writeback t continuation (txn : Ec.Txn.t) =
  (match continuation with
  | Writeback (d, ext) -> set t d (ext txn.Ec.Txn.data.(0))
  | Writeback4 d ->
    for i = 0 to 3 do
      set t (d + i) txn.Ec.Txn.data.(i)
    done
  | Store_done -> ());
  next_fetch t

let sweep_store_buffer t =
  match t.pending_store with
  | None -> ()
  | Some txn -> begin
    match Ec.Port.take t.port txn.Ec.Txn.id with
    | Ec.Port.Pending -> ()
    | Ec.Port.Done -> t.pending_store <- None
    | Ec.Port.Failed ->
      t.pending_store <- None;
      stop_with_fault t (Bus_error txn.Ec.Txn.addr)
  end

(* A fetch stalled on bus back-pressure is also an instruction boundary. *)
let maybe_take_interrupt t =
  match t.state with
  | Issue_fetch when t.irq_enabled && (not t.in_irq) && t.irq () ->
    take_interrupt t
  | Issue_fetch | Fetch_pending _ | Issue_mem _ | Mem_pending _
  | Wait_for_interrupt | Draining | Halted ->
    ()

let step t _kernel =
  sweep_store_buffer t;
  maybe_take_interrupt t;
  match t.state with
  | Halted -> ()
  | Draining -> if t.pending_store = None then t.state <- Halted
  | Wait_for_interrupt ->
    (* Wake on the request wire regardless of the core's enable bit;
       next_fetch vectors when interrupts are enabled. *)
    if t.irq () then next_fetch t
  | Issue_fetch | Issue_mem _ -> try_issue t
  | Fetch_pending txn -> begin
    match Ec.Port.take t.port txn.Ec.Txn.id with
    | Ec.Port.Pending -> ()
    | Ec.Port.Failed -> stop_with_fault t (Bus_error txn.Ec.Txn.addr)
    | Ec.Port.Done -> begin
      match Isa.decode txn.Ec.Txn.data.(0) with
      | instr -> execute t instr
      | exception Failure _ ->
        stop_with_fault t (Illegal_instruction txn.Ec.Txn.data.(0))
    end
  end
  | Mem_pending (txn, continuation) -> begin
    match Ec.Port.take t.port txn.Ec.Txn.id with
    | Ec.Port.Pending -> ()
    | Ec.Port.Failed -> stop_with_fault t (Bus_error txn.Ec.Txn.addr)
    | Ec.Port.Done -> writeback t continuation txn
  end

let create ~kernel ~port ?(pc = 0) ?(store_buffer = true)
    ?(irq = fun () -> false) () =
  let t =
    {
      port;
      ids = Ec.Txn.Id_gen.create ();
      regs = Array.make 32 0;
      store_buffer;
      irq;
      pending_store = None;
      pc;
      epc = 0;
      irq_enabled = false;
      in_irq = false;
      interrupts_taken = 0;
      state = Issue_fetch;
      fault = None;
      instructions = 0;
      loads = 0;
      stores = 0;
    }
  in
  Sim.Kernel.on_rising kernel ~name:"cpu" (step t);
  t

let halted t =
  match t.state with
  | Halted -> true
  | Issue_fetch | Fetch_pending _ | Issue_mem _ | Mem_pending _
  | Wait_for_interrupt | Draining ->
    false
let fault t = t.fault
let reg t r = get t r
let instructions t = t.instructions
let loads t = t.loads
let stores t = t.stores

let run_to_halt t ~kernel ?(max_cycles = 2_000_000) () =
  Sim.Kernel.run_until kernel ~max_cycles (fun () -> halted t)

let interrupts_taken t = t.interrupts_taken
let in_interrupt t = t.in_irq
let reset t ~pc =
  Ec.Txn.Id_gen.reset t.ids;
  Array.fill t.regs 0 (Array.length t.regs) 0;
  t.pending_store <- None;
  t.pc <- pc;
  t.epc <- 0;
  t.irq_enabled <- false;
  t.in_irq <- false;
  t.interrupts_taken <- 0;
  t.state <- Issue_fetch;
  t.fault <- None;
  t.instructions <- 0;
  t.loads <- 0;
  t.stores <- 0
