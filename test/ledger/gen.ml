(* Prints the component ledger, one [key<TAB>value] line per entry:
   dune exec test/ledger/gen.exe > test/component_ledger.txt *)
let () =
  List.iter (fun (k, v) -> Printf.printf "%s\t%s\n" k v) (Ledger.entries ())
