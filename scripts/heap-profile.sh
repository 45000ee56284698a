#!/usr/bin/env bash
# heap-profile.sh prints where the live heap of a booted ontoserve goes: it
# builds ontoserve from this checkout, boots it on a copy of the given data
# directory with every allocation sampled (GODEBUG=memprofilerate=1) and a
# pprof listener (-pprof-addr), fetches the in-use heap after a forced
# collection (/debug/pprof/heap?gc=1) once the server serves, and prints
# `go tool pprof -top` of it. The directory itself is never written; the
# copy, the binary and the server go when the script ends.
#
#   bash scripts/heap-profile.sh <data-dir>
#
# ontoserve wants a corpus flag even when the directory holds state, which
# then seeds nothing: the script passes the directory's sibling
# corpus.triples, as the benchmark's golden directories have it
# (.bench_build/golden-*/data, bench/run.go), else an empty snapshot.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ $# -ne 1 ] || [ ! -d "$1" ]; then
	echo "usage: $0 <data-dir>" >&2
	exit 2
fi
src="$1"

work="$(mktemp -d)"
pid=""
cleanup() {
	if [ -n "$pid" ]; then
		kill "$pid" 2>/dev/null || true
		wait "$pid" 2>/dev/null || true
	fi
	rm -rf "$work"
}
trap cleanup EXIT

(cd "$root" && go build -o "$work/ontoserve" ./cmd/ontoserve)
cp -R "$src" "$work/data"

corpus="$src/../corpus.triples"
if [ ! -f "$corpus" ]; then
	corpus="$work/empty.triples"
	: >"$corpus"
fi

GODEBUG=memprofilerate=1 "$work/ontoserve" -annotations "$corpus" -data-dir "$work/data" \
	-addr 127.0.0.1:0 -pprof-addr 127.0.0.1:0 2>"$work/log" &
pid=$!

# The server logs its pprof listener first, then "serving ... on
# http://<addr>" once it has booted.
pprof=""
for _ in $(seq 600); do
	if ! kill -0 "$pid" 2>/dev/null; then
		echo "ontoserve exited before serving:" >&2
		cat "$work/log" >&2
		exit 1
	fi
	if grep -q 'serving .* on http://' "$work/log"; then
		pprof="$(sed -n 's|.*pprof on \(http://[^ ]*/debug/pprof/\).*|\1|p' "$work/log" | head -1)"
		break
	fi
	sleep 0.2
done
if [ -z "$pprof" ]; then
	echo "ontoserve did not serve within 120 s:" >&2
	cat "$work/log" >&2
	exit 1
fi

curl -sSf -o "$work/heap.pb.gz" "${pprof}heap?gc=1"
go tool pprof -top -sample_index=inuse_space "$work/ontoserve" "$work/heap.pb.gz"
