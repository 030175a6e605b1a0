let default_domains () = max 1 (Domain.recommended_domain_count ())

(* Work-stealing by atomic index: workers pull the next unclaimed item, so
   an expensive item (a gate-level run) does not serialize a whole chunk.
   Results land by index, which makes the output order — and therefore
   every reported number — independent of domain scheduling. *)
let map ?(domains = default_domains ()) f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let workers = min (max 1 domains) n in
  if workers <= 1 then List.map f xs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let rec body () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match f items.(i) with
        | v -> results.(i) <- Some v
        | exception e ->
          (* Keep the first failure; let other workers drain and exit. *)
          ignore
            (Atomic.compare_and_set failure None
               (Some (e, Printexc.get_raw_backtrace ())));
          Atomic.set next n);
        body ()
      end
    in
    let spawned = Array.init (workers - 1) (fun _ -> Domain.spawn body) in
    body ();
    Array.iter Domain.join spawned;
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.to_list
      (Array.map
         (function Some v -> v | None -> assert false (* all indices claimed *))
         results)
  end
