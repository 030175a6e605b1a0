type item = { gap : int; txn : Txn.t }
type t = item list

let item ?(gap = 0) txn =
  if gap < 0 then invalid_arg "Ec.Trace.item: negative gap";
  { gap; txn }

let instantiate gen it =
  let txn = it.txn in
  let data =
    match txn.Txn.dir with
    | Txn.Write -> Some (Array.copy txn.Txn.data)
    | Txn.Read -> None
  in
  let txn =
    Txn.create ~id:(Txn.Id_gen.fresh gen) ~kind:txn.Txn.kind ~dir:txn.Txn.dir
      ~width:txn.Txn.width ~addr:txn.Txn.addr ~burst:txn.Txn.burst ?data ()
  in
  { it with txn }

let total_txns t = List.length t
let total_beats t = List.fold_left (fun acc it -> acc + it.txn.Txn.burst) 0 t

let dir_char = function Txn.Read -> 'R' | Txn.Write -> 'W'
let kind_char = function Txn.Instruction -> 'I' | Txn.Data -> 'D'

let width_code = function Txn.W8 -> 8 | Txn.W16 -> 16 | Txn.W32 -> 32

let width_of_code = function
  | 8 -> Txn.W8
  | 16 -> Txn.W16
  | 32 -> Txn.W32
  | w -> failwith (Printf.sprintf "bad width %d" w)

let item_to_line it =
  let txn = it.txn in
  let buf = Buffer.create 48 in
  Buffer.add_string buf
    (Printf.sprintf "%d %c%c %d 0x%x %d" it.gap (dir_char txn.Txn.dir)
       (kind_char txn.Txn.kind) (width_code txn.Txn.width) txn.Txn.addr
       txn.Txn.burst);
  if txn.Txn.dir = Txn.Write then
    Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf " 0x%x" v))
      txn.Txn.data;
  Buffer.contents buf

let to_lines t = List.map item_to_line t

(* Raises [Failure] or, for a transaction or gap the constructors refuse,
   [Invalid_argument]; [of_lines] turns both into one [Failure]. *)
let item_of_line line =
  match String.split_on_char ' ' line with
  | gap :: dk :: width :: addr :: burst :: rest when String.length dk = 2 ->
    let int s =
      match int_of_string_opt s with
      | Some v -> v
      | None -> failwith (Printf.sprintf "bad number %S" s)
    in
    let dir =
      match dk.[0] with
      | 'R' -> Txn.Read
      | 'W' -> Txn.Write
      | _ -> failwith "bad direction"
    in
    let kind =
      match dk.[1] with
      | 'I' -> Txn.Instruction
      | 'D' -> Txn.Data
      | _ -> failwith "bad kind"
    in
    let data =
      match dir with
      | Txn.Read -> if rest <> [] then failwith "payload on read" else None
      | Txn.Write -> Some (Array.of_list (List.map int rest))
    in
    item ~gap:(int gap)
      (Txn.create ~id:0 ~kind ~dir ~width:(width_of_code (int width))
         ~addr:(int addr) ~burst:(int burst) ?data ())
  | _ -> failwith "malformed line"

let of_lines lines =
  let rec parse n acc = function
    | [] -> List.rev acc
    | line :: rest ->
      let text = String.trim line in
      if text = "" || text.[0] = '#' then parse (n + 1) acc rest
      else
        match item_of_line text with
        | it -> parse (n + 1) (it :: acc) rest
        | exception (Failure msg | Invalid_argument msg) ->
          failwith (Printf.sprintf "Ec.Trace: line %d: %s in %S" n msg text)
  in
  parse 1 [] lines

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        (to_lines t))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop acc =
        match input_line ic with
        | line -> loop (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      of_lines (loop []))
