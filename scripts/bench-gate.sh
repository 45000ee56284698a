#!/usr/bin/env bash
# Paired regression gate for pull requests: runs the repository's benchmark
# (BENCHMARK.json, bench/run.sh) on the merge base and on this checkout, three
# pairs with alternating order, and compares the per-workload medians of the
# gated end-to-end metrics against the bounds BENCHMARK.json declares.
#
#   scripts/bench-gate.sh [base-ref] [bench/run.sh arguments...]
#
# base-ref defaults to origin/main; further arguments are handed to both
# sides' bench/run.sh (e.g. --smoke for a quick local check of the script).
# Exit status: 0 inside every bound; non-zero on a breach, on a run that
# reported correct:false, and (bench/run.sh exits 1 then, which stops the
# script) on a run with a failed operation or check. The base is built from
# its own sources in a git worktree, so the two sides share nothing but the
# machine.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
base_ref="${1:-origin/main}"
shift || true
pairs=3

work="$(mktemp -d)"
trap 'git worktree remove --force "$work/base" >/dev/null 2>&1 || true; rm -rf "$work"' EXIT
git worktree add --detach "$work/base" "$(git merge-base HEAD "$base_ref")" >/dev/null

# run_side <checkout> <file> <seed> [args...]: one run of all workloads,
# appended to <file> as one JSON object per workload, tagged with its name
# (the "# <workload> end-to-end" line the harness prints before each result).
run_side() {
	local dir="$1" out="$2" seed="$3"
	shift 3
	(cd "$dir" && bash bench/run.sh --workload all --seed "$seed" "$@") |
		awk '/^# [a-z_]+ end-to-end/ { w = $2 } /^\{/ { print "{\"workload\":\"" w "\"," substr($0, 2) }' >>"$out"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run_side "$work/base" "$work/base.ndjson" "$i" "$@"
		run_side "$root" "$work/head.ndjson" "$i" "$@"
	else
		run_side "$root" "$work/head.ndjson" "$i" "$@"
		run_side "$work/base" "$work/base.ndjson" "$i" "$@"
	fi
done

jq -rn --slurpfile bm BENCHMARK.json --slurpfile base "$work/base.ndjson" --slurpfile head "$work/head.ndjson" '
	def median: sort | if length % 2 == 1 then .[(length - 1) / 2] else (.[length / 2 - 1] + .[length / 2]) / 2 end;
	def of($runs; $w): $runs | map(select(.workload == $w));
	[ $bm[0].workloads[].name as $w
	| (of($base; $w)) as $b | (of($head; $w)) as $h
	| ( if ($h | all(.correct)) | not then {line: "\($w): a run of this checkout reported correct:false", ok: false} else empty end ),
	  ( $bm[0].end_to_end[] as $m
	  | ($b | map(.metrics[$m.name].value) | median) as $bv
	  | ($h | map(.metrics[$m.name].value) | median) as $hv
	  | (if $m.better == "lower" then $hv <= $bv * (1 + $m.bound) else $hv >= $bv * (1 - $m.bound) end) as $ok
	  | {line: "\($w) \($m.name): base \($bv) head \($hv) \($m.unit), bound \($m.bound * 100)% \(if $ok then "ok" else "BREACH" end)", ok: $ok} )
	] | (.[] | .line), (if all(.ok) then "bench-gate: inside every bound" else ("bench-gate: FAILED\n" | halt_error(1)) end)
'
