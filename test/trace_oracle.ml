(* [Ec.Trace.of_lines] as it stood before the one-pass line scan, kept
   verbatim as the oracle of the differential property in [Suite_ec]:
   the new parser must give the same items, or fail with the same text. *)

open Ec
open Trace

let width_of_code = function
  | 8 -> Txn.W8
  | 16 -> Txn.W16
  | 32 -> Txn.W32
  | w -> failwith (Printf.sprintf "bad width %d" w)

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
