(* Prints a recorded oracle of the test suite:
     dune exec test/ledger/gen.exe > test/component_ledger.txt
     dune exec test/ledger/gen.exe -- wires > test/wire_ledger.txt
     dune exec test/ledger/gen.exe -- vcd > test/golden.vcd
     dune exec test/ledger/gen.exe -- protocol > test/protocol_golden.txt
     dune exec test/ledger/gen.exe -- events > test/event_ledger.txt
   The two ledgers print one [key<TAB>value] line per entry. *)
let print entries = List.iter (fun (k, v) -> Printf.printf "%s\t%s\n" k v) entries

let () =
  match Array.to_list Sys.argv with
  | [ _ ] -> print (Ledger.entries ())
  | [ _; "wires" ] -> print (Wire_ledger.entries ())
  | [ _; "vcd" ] -> print_string (Wire_ledger.vcd_text ())
  | [ _; "protocol" ] -> print_string (Protocol_transcript.text ())
  | [ _; "events" ] -> print_string (Event_ledger.text ())
  | _ ->
    prerr_endline "usage: gen.exe [wires | vcd | protocol | events]";
    exit 2
