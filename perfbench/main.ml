(* The repository benchmark.

     main.exe --workload replay|sweep|serve --seed N --seconds S --trace 0|1
              [--out FILE] [--inject-mismatch]
     main.exe compare BASE.jsonl CHANGE.jsonl
     main.exe selftest

   A run prints its figures, then as the last line one JSON object with
   [correct], [attempted], [failed] and [metrics]: the end-to-end metrics
   untraced, the per-layer metrics with [--trace 1].  The full record
   (seed, digest, checks) goes to .perfbench/ and, with [--out], is
   appended to FILE as one JSON line for [compare].  A failed
   correctness check exits 1. *)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; base; change ] -> Compare.run ~benchmark:"BENCHMARK.json" base change
  | [ "selftest" ] -> Selftest.run ~seconds:0.3
  | args -> Harness.run (Harness.parse_args args)
