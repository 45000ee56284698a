#!/usr/bin/env bash
# loc.sh prints the Go lines of every package under internal/ and cmd/ —
# non-test lines, then test lines — and their totals: the figures ROADMAP
# and every simplicity issue quote. Test lines are their own column because
# moving reference code out of _test.go files, or into them, shifts lines
# between the two without removing any. It counts the tree it lives in; CI's
# docs job runs it so each PR's log carries them.
#
#   bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# lines prints the line count of the files find selects in dir, 0 if none.
lines() {
	local dir=$1
	shift
	find "$dir" -maxdepth 1 -name '*.go' "$@" -exec cat {} + | wc -l
}

total=0
tests=0
printf '%6s  %6s  %s\n' code test package
while read -r dir; do
	n=$(lines "$dir" ! -name '*_test.go')
	m=$(lines "$dir" -name '*_test.go')
	printf '%6d  %6d  %s\n' "$n" "$m" "$dir"
	total=$((total + n))
	tests=$((tests + m))
done < <(find internal cmd -name '*.go' -exec dirname {} \; | sort -u)
printf '%6d  %6d  total\n' "$total" "$tests"
