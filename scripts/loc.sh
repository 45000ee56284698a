#!/usr/bin/env bash
# loc.sh prints the non-test Go lines of every package under internal/ and
# cmd/, then their total: the figures ROADMAP and every simplicity issue
# quote. It counts the tree it lives in; CI's docs job runs it so each PR's
# log carries them.
#
#   bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
while read -r dir; do
	n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	printf '%6d  %s\n' "$n" "$dir"
	total=$((total + n))
done < <(find internal cmd -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u)
printf '%6d  total\n' "$total"
