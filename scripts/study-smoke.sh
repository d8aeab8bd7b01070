#!/bin/sh
# End-to-end smoke test of the study engine, run by the study-smoke CI
# job and `make study-smoke`:
#
#   1. build smtctl and run the committed Figure 1 spec cold; assert the
#      synthesized table is byte-identical to the direct `streams -fig 1`
#      CLI output;
#   2. re-run the same spec over the same store and assert the warm run
#      simulated zero cells with identical bytes;
#   3. warm a store with the direct `kernels -table 1` CLI, then run the
#      committed Table 1 Markdown spec against that store — the study
#      must adopt every cell (zero simulations) and reproduce the CLI's
#      bytes exactly, proving the content keys line up across tools;
#   4. the same for Figure 2: warm a store with `streams -fig 2a|2b|2c`,
#      then run the committed Figure 2 spec against it — all three
#      tables byte-identical, zero simulations.
set -eu

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
bin="$work/bin"
mkdir -p "$bin"
trap 'rm -rf "$work"' EXIT

echo "== build"
go build -o "$bin/smtctl" ./cmd/smtctl
go build -o "$bin/streams" ./cmd/streams

simulated() {
	# study.json is the persisted summary; pull the simulated count.
	sed -n 's/^ *"simulated": \([0-9-]*\),*$/\1/p' "$1/study.json"
}

echo "== cold fig1 study vs direct CLI"
"$bin/smtctl" study run -f studies/fig1.study.json -dir "$work/out"
"$bin/streams" -fig 1 >"$work/fig1-direct.txt"
diff "$work/fig1-direct.txt" "$work/out/fig1/tables/fig1.txt"
cold="$(simulated "$work/out/fig1")"
if [ "$cold" != "30" ]; then
	echo "cold fig1 study simulated $cold cells, want 30" >&2
	exit 1
fi

echo "== warm fig1 re-run"
"$bin/smtctl" study run -f studies/fig1.study.json -dir "$work/out"
diff "$work/fig1-direct.txt" "$work/out/fig1/tables/fig1.txt"
warm="$(simulated "$work/out/fig1")"
if [ "$warm" != "0" ]; then
	echo "warm fig1 study simulated $warm cells, want 0" >&2
	exit 1
fi

echo "== table1 study adopts the kernels CLI's store"
go run ./cmd/kernels -table 1 -store "$work/kstore" >"$work/table1-direct.txt"
"$bin/smtctl" study run -f studies/table1.study.md -dir "$work/out" -store "$work/kstore"
diff "$work/table1-direct.txt" "$work/out/table1/tables/table1.txt"
t1="$(simulated "$work/out/table1")"
if [ "$t1" != "0" ]; then
	echo "table1 study simulated $t1 cells against a warm store, want 0" >&2
	exit 1
fi

echo "== fig2 study adopts the streams CLI's store"
for panel in 2a 2b 2c; do
	"$bin/streams" -fig "$panel" -store "$work/sstore" >"$work/fig$panel-direct.txt"
done
"$bin/smtctl" study run -f studies/fig2.study.json -dir "$work/out" -store "$work/sstore"
for panel in 2a 2b 2c; do
	diff "$work/fig$panel-direct.txt" "$work/out/fig2/tables/fig$panel.txt"
done
f2="$(simulated "$work/out/fig2")"
if [ "$f2" != "0" ]; then
	echo "fig2 study simulated $f2 cells against a warm store, want 0" >&2
	exit 1
fi

echo "== status/report read back"
"$bin/smtctl" study status -dir "$work/out" fig1 | grep -q '"state": "done"'
"$bin/smtctl" study report -dir "$work/out" fig1 | grep -q '^# Study report'

echo "study smoke OK: fig1, fig2 and table1 specs byte-identical to the CLIs, warm re-runs simulated 0 cells"
