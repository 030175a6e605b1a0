type item = { gap : int; txn : Txn.t }
type t = item list

let item ?(gap = 0) txn =
  if gap < 0 then invalid_arg "Ec.Trace.item: negative gap";
  { gap; txn }

let instantiate gen it =
  { it with txn = Txn.renumber ~id:(Txn.Id_gen.fresh gen) it.txn }

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

(* One left-to-right scan per line.  A cursor walks the trimmed line;
   each token is summed as it is crossed when it is a plain decimal or
   [0x]-hex literal of at most 15 digits, and only any other token
   ([0b1], [1_0], [+0], [-1], longer hex) goes through
   [int_of_string_opt].  The checks run in the order of the old
   split-and-convert parser, so a bad line fails with the same text:
   the line shape, direction, kind, the write payload left to right,
   then burst, address, width, {!Txn.create}, gap and {!item}. *)

type cursor = {
  mutable line : string;
  mutable stop : int;  (** end of the trimmed line *)
  mutable pos : int;
  mutable start : int;  (** first byte of the token just read *)
  mutable value : int;  (** its plain value, or -1 *)
}

let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* [digit_of.[c]]: the value of hex digit [c], 16 for any other byte. *)
let digit_of =
  String.init 256 (fun i ->
      Char.chr
        (match Char.chr i with
        | '0' .. '9' -> i - Char.code '0'
        | 'a' .. 'f' -> i - Char.code 'a' + 10
        | 'A' .. 'F' -> i - Char.code 'A' + 10
        | _ -> 16))

let[@inline] digit ch = Char.code (String.unsafe_get digit_of (Char.code ch))

let rec skip c i =
  if i = c.stop || String.unsafe_get c.line i = ' ' then begin
    c.pos <- i;
    c.value <- -1
  end
  else skip c (i + 1)

let rec sum c base first i acc =
  if i = c.stop || String.unsafe_get c.line i = ' ' then begin
    c.pos <- i;
    c.value <- (if i > first && i - first <= 15 then acc else -1)
  end
  else
    let d = digit (String.unsafe_get c.line i) in
    if d < base then sum c base first (i + 1) ((acc * base) + d)
    else skip c (i + 1)

(* Reads the token at the cursor up to the next space or the line's end. *)
let[@inline] token c =
  let p = c.pos in
  c.start <- p;
  if p + 1 < c.stop && c.line.[p] = '0' && c.line.[p + 1] = 'x' then
    sum c 16 (p + 2) (p + 2) 0
  else sum c 10 p p 0

let malformed () = failwith "malformed line"

(* Reads the next of the five fixed fields: a space must precede it. *)
let[@inline] field c =
  if c.pos = c.stop then malformed ();
  c.pos <- c.pos + 1;
  token c

let[@inline] int_of c ~start ~stop ~value =
  if value >= 0 then value
  else
    let s = String.sub c.line start (stop - start) in
    match int_of_string_opt s with
    | Some v -> v
    | None -> failwith (Printf.sprintf "bad number %S" s)

(* The write payload, token by token, into an array grown by doubling. *)
let rec payload c data n =
  if c.pos = c.stop then if n = Array.length data then data else Array.sub data 0 n
  else begin
    c.pos <- c.pos + 1;
    token c;
    let v = int_of c ~start:c.start ~stop:c.pos ~value:c.value in
    let data =
      if n < Array.length data then data
      else Array.append data (Array.make (max 4 n) 0)
    in
    data.(n) <- v;
    payload c data (n + 1)
  end

(* Raises [Failure] or, for a transaction or gap the constructors refuse,
   [Invalid_argument]; [of_lines] turns both into one [Failure]. *)
let item_of_cursor c =
  token c;
  let gap_start = c.start and gap_stop = c.pos and gap = c.value in
  field c;
  let dk = c.start in
  if c.pos - dk <> 2 then malformed ();
  field c;
  let width_start = c.start and width_stop = c.pos and width = c.value in
  field c;
  let addr_start = c.start and addr_stop = c.pos and addr = c.value in
  field c;
  let burst_start = c.start and burst_stop = c.pos and burst = c.value in
  let dir =
    match c.line.[dk] with
    | 'R' -> Txn.Read
    | 'W' -> Txn.Write
    | _ -> failwith "bad direction"
  in
  let kind =
    match c.line.[dk + 1] with
    | 'I' -> Txn.Instruction
    | 'D' -> Txn.Data
    | _ -> failwith "bad kind"
  in
  let data =
    match dir with
    | Txn.Read -> if c.pos < c.stop then failwith "payload on read" else None
    | Txn.Write ->
      (* Sized for the burst the line announces; a longer payload grows
         it, a shorter one is cut to length. *)
      Some (payload c (Array.make (if burst >= 1 && burst <= 4 then burst else 4) 0) 0)
  in
  let burst = int_of c ~start:burst_start ~stop:burst_stop ~value:burst in
  let addr = int_of c ~start:addr_start ~stop:addr_stop ~value:addr in
  let width =
    width_of_code (int_of c ~start:width_start ~stop:width_stop ~value:width)
  in
  let txn = Txn.create ~id:0 ~kind ~dir ~width ~addr ~burst ?data () in
  item ~gap:(int_of c ~start:gap_start ~stop:gap_stop ~value:gap) txn

let of_lines lines =
  let c = { line = ""; stop = 0; pos = 0; start = 0; value = 0 } in
  let rec parse n acc = function
    | [] -> List.rev acc
    | line :: rest ->
      let stop = ref (String.length line) and first = ref 0 in
      while !first < !stop && is_blank line.[!first] do incr first done;
      while !stop > !first && is_blank line.[!stop - 1] do decr stop done;
      if !first = !stop || line.[!first] = '#' then parse (n + 1) acc rest
      else begin
        c.line <- line;
        c.stop <- !stop;
        c.pos <- !first;
        match item_of_cursor c with
        | it -> parse (n + 1) (it :: acc) rest
        | exception (Failure msg | Invalid_argument msg) ->
          failwith
            (Printf.sprintf "Ec.Trace: line %d: %s in %S" n msg
               (String.sub line !first (!stop - !first)))
      end
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
