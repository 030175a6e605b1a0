#!/usr/bin/env bash
# Prints the size of the library API by the counting rules ROADMAP.md
# uses for its simplicity targets:
#   bash test/api_surface.sh
# "exported values" counts the `val` lines of lib/*/*.mli (submodule
# signatures included); "optional parameters" counts every `?name:` in
# the same files (digits included, so `?l2_params:` counts).
set -euo pipefail
cd "$(dirname "$0")/.."
values=$(grep -hE '^\s*val ' lib/*/*.mli | wc -l)
optional=$(grep -ohE '\?[a-z_0-9]+:' lib/*/*.mli | wc -l)
echo "exported values: $values"
echo "optional parameters: $optional"
