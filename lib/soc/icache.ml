let line_bytes = 16
let words_per_line = line_bytes / 4

type fill = {
  outer : Ec.Txn.t;  (* the core's fetch *)
  inner_txn : Ec.Txn.t;  (* the line-fill burst *)
}

type t = {
  inner : Ec.Port.t;
  component : Power.Component.t;
  proc : Sim.Kernel.handle;  (* parked unless a line fill is in flight *)
  lines : int;
  tags : int array;
  valid : bool array;
  data : int array;  (* lines * words_per_line *)
  ids : Ec.Txn.Id_gen.gen;
  done_tbl : (int, Ec.Port.poll) Hashtbl.t;
  fills : (int, fill) Hashtbl.t;  (* outer id -> in-flight fill *)
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable busy_fill : bool;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ~kernel ~lines ~inner () =
  if not (is_power_of_two lines) then
    invalid_arg "Soc.Icache.create: lines must be a power of two";
  let proc = Sim.Kernel.slot kernel ~name:"icache-power" in
  let t =
    {
      inner;
      component =
        Power.Component.create ~name:"icache" ~slot:proc
          (Power.Component.params ~idle_pj_per_cycle:0.02
             ~active_pj_per_cycle:0.3 ~access_pj:0.9 ());
      proc;
      lines;
      tags = Array.make lines 0;
      valid = Array.make lines false;
      data = Array.make (lines * words_per_line) 0;
      ids = Ec.Txn.Id_gen.create ();
      done_tbl = Hashtbl.create 16;
      fills = Hashtbl.create 4;
      hits = 0;
      misses = 0;
      invalidations = 0;
      busy_fill = false;
    }
  in
  Sim.Kernel.bind proc (fun _ ->
      if t.busy_fill then Power.Component.count_active t.component
      else Sim.Kernel.park proc);
  t

let line_index t addr = addr / line_bytes mod t.lines
let line_tag t addr = addr / line_bytes / t.lines
let line_base addr = addr land lnot (line_bytes - 1)

let lookup t addr =
  let idx = line_index t addr in
  if t.valid.(idx) && t.tags.(idx) = line_tag t addr then Some idx else None

let invalidate_on_write t addr =
  match lookup t addr with
  | Some idx ->
    t.valid.(idx) <- false;
    t.invalidations <- t.invalidations + 1
  | None -> ()

(* A plain single-word instruction fetch is cacheable. *)
let cacheable (txn : Ec.Txn.t) =
  txn.Ec.Txn.kind = Ec.Txn.Instruction
  && txn.Ec.Txn.dir = Ec.Txn.Read
  && txn.Ec.Txn.burst = 1
  && txn.Ec.Txn.width = Ec.Txn.W32

let try_submit t (txn : Ec.Txn.t) =
  if cacheable txn then begin
    Power.Component.access t.component;
    let addr = txn.Ec.Txn.addr in
    match lookup t addr with
    | Some idx ->
      t.hits <- t.hits + 1;
      let word = (addr land (line_bytes - 1)) / 4 in
      Ec.Txn.set_beat txn 0 t.data.((idx * words_per_line) + word);
      Hashtbl.replace t.done_tbl txn.Ec.Txn.id Ec.Port.Done;
      true
    | None -> begin
      let fill_txn =
        Ec.Txn.create ~id:(Ec.Txn.Id_gen.fresh t.ids) ~kind:Ec.Txn.Instruction
          ~dir:Ec.Txn.Read ~width:Ec.Txn.W32 ~addr:(line_base addr)
          ~burst:words_per_line ()
      in
      if t.inner.Ec.Port.try_submit fill_txn then begin
        t.misses <- t.misses + 1;
        t.busy_fill <- true;
        Sim.Kernel.unpark t.proc;
        Hashtbl.replace t.fills txn.Ec.Txn.id { outer = txn; inner_txn = fill_txn };
        true
      end
      else false
    end
  end
  else begin
    (match txn.Ec.Txn.dir with
    | Ec.Txn.Write ->
      for beat = 0 to txn.Ec.Txn.burst - 1 do
        invalidate_on_write t (Ec.Txn.beat_addr txn beat)
      done
    | Ec.Txn.Read -> ());
    t.inner.Ec.Port.try_submit txn
  end

let finish_fill t outer_id (fill : fill) outcome =
  (match outcome with
  | Ec.Port.Done ->
    let inner_txn = fill.inner_txn in
    let base = inner_txn.Ec.Txn.addr in
    let idx = line_index t base in
    for w = 0 to words_per_line - 1 do
      t.data.((idx * words_per_line) + w) <- inner_txn.Ec.Txn.data.(w)
    done;
    t.tags.(idx) <- line_tag t base;
    t.valid.(idx) <- true;
    let word = (fill.outer.Ec.Txn.addr land (line_bytes - 1)) / 4 in
    Ec.Txn.set_beat fill.outer 0 inner_txn.Ec.Txn.data.(word);
    Hashtbl.replace t.done_tbl outer_id Ec.Port.Done
  | Ec.Port.Failed -> Hashtbl.replace t.done_tbl outer_id Ec.Port.Failed
  | Ec.Port.Pending -> assert false);
  t.inner.Ec.Port.retire fill.inner_txn.Ec.Txn.id;
  Hashtbl.remove t.fills outer_id;
  t.busy_fill <- Hashtbl.length t.fills > 0

let poll t id =
  match Hashtbl.find_opt t.done_tbl id with
  | Some outcome -> outcome
  | None -> begin
    match Hashtbl.find_opt t.fills id with
    | Some fill -> begin
      match t.inner.Ec.Port.poll fill.inner_txn.Ec.Txn.id with
      | Ec.Port.Pending -> Ec.Port.Pending
      | (Ec.Port.Done | Ec.Port.Failed) as outcome ->
        finish_fill t id fill outcome;
        (match Hashtbl.find_opt t.done_tbl id with
        | Some o -> o
        | None -> assert false)
    end
    | None -> t.inner.Ec.Port.poll id
  end

let retire t id =
  if Hashtbl.mem t.done_tbl id then Hashtbl.remove t.done_tbl id
  else t.inner.Ec.Port.retire id

let port t =
  { Ec.Port.try_submit = try_submit t; poll = poll t; retire = retire t }

let component t = t.component
let hits t = t.hits
let misses t = t.misses
let invalidations t = t.invalidations

let flush t =
  Array.fill t.valid 0 t.lines false

let reset t =
  Array.fill t.tags 0 t.lines 0;
  Array.fill t.valid 0 t.lines false;
  Array.fill t.data 0 (Array.length t.data) 0;
  Ec.Txn.Id_gen.reset t.ids;
  Hashtbl.reset t.done_tbl;
  Hashtbl.reset t.fills;
  t.hits <- 0;
  t.misses <- 0;
  t.invalidations <- 0;
  t.busy_fill <- false;
  Sim.Kernel.park t.proc;
  Power.Component.reset t.component
