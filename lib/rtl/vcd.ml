(* Per-signal value history, compressed as change lists.  A track is a
   wire group or one control wire, read off the committed wire words. *)
type track = {
  name : string;
  width : int;
  read : Wires.t -> int;
  code : string;  (* VCD identifier *)
  mutable last : int option;  (* last recorded value *)
  mutable changes : (int * int) list;  (* (cycle, value), newest first *)
}

type t = {
  tracks : track list;
  mutable cycles : int;
}

(* Buses, then the control wires in Ec.Signals order, then the select
   lines. *)
let signals wires =
  let ctrl c =
    let i = Ec.Signals.ctrl_index c in
    ( Ec.Signals.to_string (Ec.Signals.Ctrl c),
      1,
      fun (w : Wires.t) -> (w.Wires.ctrl lsr i) land 1 )
  in
  [
    ("EB_A", Ec.Signals.addr_wires, fun (w : Wires.t) -> w.Wires.addr);
    ("EB_BE", Ec.Signals.be_wires, fun w -> w.Wires.be);
    ("EB_WData", Ec.Signals.data_wires, fun w -> w.Wires.wdata);
    ("EB_RData", Ec.Signals.data_wires, fun w -> w.Wires.rdata);
  ]
  @ List.map ctrl Ec.Signals.all_ctrl
  @ [ ("SEL", wires.Wires.sel_width, fun w -> w.Wires.sel) ]

(* Printable VCD identifier codes starting at the exclamation mark. *)
let code_of_index i =
  let base = Char.code '!' in
  let range = 94 in
  if i < range then String.make 1 (Char.chr (base + i))
  else
    String.make 1 (Char.chr (base + (i / range)))
    ^ String.make 1 (Char.chr (base + (i mod range)))

let create ~kernel wires =
  let tracks =
    List.mapi
      (fun i (name, width, read) ->
        { name; width; read; code = code_of_index i; last = None; changes = [] })
      (signals wires)
  in
  let t = { tracks; cycles = 0 } in
  (* The bus process runs first (registration order) and commits the
     wires; this sampler then sees the settled cycle values. *)
  Sim.Kernel.on_falling kernel ~name:"vcd-sampler" (fun kernel ->
      let now = Sim.Kernel.now kernel in
      List.iter
        (fun track ->
          let v = track.read wires in
          if track.last <> Some v then begin
            track.last <- Some v;
            track.changes <- (now, v) :: track.changes
          end)
        t.tracks;
      t.cycles <- t.cycles + 1);
  t

let binary_string width v =
  String.init width (fun i ->
      if v land (1 lsl (width - 1 - i)) <> 0 then '1' else '0')

let render_value track v =
  let width = track.width in
  if width = 1 then Printf.sprintf "%d%s" (v land 1) track.code
  else Printf.sprintf "b%s %s" (binary_string width v) track.code

let to_string t =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "$date reproduced smart-card bus trace $end";
  line "$version smartcard-energy VCD dumper $end";
  line "$timescale 1 ns $end";
  line "$scope module ec_bus $end";
  List.iter
    (fun track ->
      line "$var wire %d %s %s $end" track.width track.code
        (* VCD identifiers must not contain brackets; flatten the name. *)
        (String.map
           (fun c -> match c with '[' | ']' -> '_' | c -> c)
           track.name))
    t.tracks;
  line "$upscope $end";
  line "$enddefinitions $end";
  (* Merge all change lists by cycle. *)
  let events = Hashtbl.create 64 in
  List.iter
    (fun track ->
      List.iter
        (fun (cycle, v) ->
          let cur = try Hashtbl.find events cycle with Not_found -> [] in
          Hashtbl.replace events cycle (render_value track v :: cur))
        track.changes)
    t.tracks;
  let cycles = Hashtbl.fold (fun c _ acc -> c :: acc) events [] in
  List.iter
    (fun cycle ->
      line "#%d" cycle;
      List.iter (fun s -> line "%s" s) (Hashtbl.find events cycle))
    (List.sort compare cycles);
  line "#%d" t.cycles;
  Buffer.contents buf

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))
