#!/usr/bin/env bash
# Runs the test suite N times and tallies the tests that failed:
#   bash test/repeat.sh 50
# Prints one line per failing test with its failure count, then the
# number of runs that failed; exits non-zero if any run failed.
set -uo pipefail
cd "$(dirname "$0")/.."
runs=${1:-10}
case "$runs" in
  '' | *[!0-9]*) echo "usage: $0 N" >&2; exit 2 ;;
esac
dune build 2>&1 || exit 2
log=$(mktemp)
tally=$(mktemp)
trap 'rm -f "$log" "$tally"' EXIT
failed_runs=0
for i in $(seq 1 "$runs"); do
  if dune runtest --force >"$log" 2>&1; then
    echo "run $i: ok"
  else
    failed_runs=$((failed_runs + 1))
    # Alcotest lists each failure as "[FAIL]  suite  index  name."
    names=$(grep -E '^[> ] \[FAIL\]' "$log" | sed -E 's/^[> ] \[FAIL\] +//' | tr -s ' ' | sort -u)
    if [ -z "$names" ]; then names="(run failed without a test failure)"; fi
    printf '%s\n' "$names" >>"$tally"
    echo "run $i: failed"
  fi
done
echo
echo "failures by test:"
sort "$tally" | uniq -c | sort -rn
echo "$failed_runs of $runs runs failed"
[ "$failed_runs" -eq 0 ]
