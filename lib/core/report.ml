let is_numberish s =
  s <> ""
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || String.contains "+-.,%xkMG " c)
       s

let table ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init cols width in
  let render_row row =
    let cell c =
      let text = Option.value (List.nth_opt row c) ~default:"" in
      let w = List.nth widths c in
      if is_numberish text then Printf.sprintf "%*s" w text
      else Printf.sprintf "%-*s" w text
    in
    "| " ^ String.concat " | " (List.init cols cell) ^ " |"
  in
  let rule =
    "|"
    ^ String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths)
    ^ "|"
  in
  String.concat "\n" (render_row header :: rule :: List.map render_row rows)

let metrics m =
  let v = Obs.Metrics.view m in
  let counter_rows =
    List.map (fun (name, n) -> [ name; string_of_int n ]) v.Obs.Metrics.counters
  in
  let counters =
    table ~header:[ "counter"; "value" ] counter_rows
  in
  let hist h =
    let rows =
      List.mapi
        (fun i count ->
          [
            Obs.Metrics.bucket_label h.Obs.Metrics.bounds i;
            string_of_int count;
          ])
        (Array.to_list h.Obs.Metrics.counts)
    in
    let rows =
      rows
      @ [
          [ "total"; string_of_int h.Obs.Metrics.total ];
          [ "mean"; Printf.sprintf "%.2f" h.Obs.Metrics.mean ];
        ]
    in
    table ~header:[ h.Obs.Metrics.name; "count" ] rows
  in
  let non_empty h = h.Obs.Metrics.total > 0 in
  String.concat "\n\n"
    (counters :: List.map hist (List.filter non_empty v.Obs.Metrics.hists))

let pool_stats p =
  let rate hits builds =
    let total = hits + builds in
    if total = 0 then "n/a"
    else Printf.sprintf "%.1f%%" (float_of_int hits /. float_of_int total *. 100.0)
  in
  let sh = Pool.hits p and sb = Pool.builds p in
  let mh = Pool.memo_hits p and mb = Pool.memo_builds p in
  let tag_rows =
    List.map
      (fun (tag, h, b) ->
        [ "plans:" ^ tag; string_of_int h; string_of_int b; rate h b ])
      (Pool.memo_tag_stats p)
  in
  table
    ~header:[ "pool"; "hits"; "builds"; "hit rate" ]
    ([
       [ "sessions"; string_of_int sh; string_of_int sb; rate sh sb ];
       [ "plans"; string_of_int mh; string_of_int mb; rate mh mb ];
     ]
    @ tag_rows)

let pct v = Printf.sprintf "%+.1f%%" v
let ratio_pct ~reference v =
  if reference = 0.0 then "n/a" else Printf.sprintf "%.1f%%" (v /. reference *. 100.0)

let pj v = Format.asprintf "%a" Power.Units.pp_pj v
