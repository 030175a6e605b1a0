(* A fixed level schedule [(n1, l1); ...; (nk, lk)]: the first n1
   transactions at l1, the next n2 at l2, ..., and lk from then on.  As
   a policy it is one Txn_window trigger per segment over base lk, with
   windows of any length, so every segment edge is a switch. *)

let policy segments =
  let _, rev_triggers =
    List.fold_left
      (fun (lo, acc) (n, level) ->
        (lo + n, Hier.Policy.Txn_window { lo; hi = lo + n; level } :: acc))
      (0, []) segments
  in
  let base = snd (List.hd (List.rev segments)) in
  Hier.Policy.triggered ~base (List.rev rev_triggers)

let to_string segments =
  String.concat ","
    (List.map
       (fun (n, level) -> Printf.sprintf "%dx%s" n (Hier.Level.to_string level))
       segments)
