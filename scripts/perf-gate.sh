#!/usr/bin/env bash
# Same-host performance gate: runs bench/ on BASE and on the working tree
# in alternating pairs, then judges the runs with `bench/run.sh compare`.
#
#   bash scripts/perf-gate.sh BASE
#
# The gate fails (exit 1) when either side's run fails, when
# `compare parent/ change/` finds a metric worse than its BENCHMARK.json
# bound, or when `compare change/ parent/` reads `improved` on a gated
# workload's pass_s: the parent won at least 9 of 10 pairs and the
# medians differ by more than the change's interquartile range. It skips
# (exit 0) when bench/ or BENCHMARK.json differ from BASE, since the two
# sides would then run different harnesses. The runs, their logs and
# both compare tables are left in perf-gate/.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: scripts/perf-gate.sh BASE" >&2
	exit 2
fi
base=$1
cd "$(dirname "$0")/.."
root=$(pwd)
out=$root/perf-gate
workloads="sim-fit mine-sparse mine-dense"
seconds=5

git rev-parse --verify --quiet "$base^{commit}" >/dev/null || {
	echo "perf-gate: $base is not a commit" >&2
	exit 2
}
differs=0
git diff --quiet "$base" -- bench BENCHMARK.json || differs=$?
case $differs in
0) ;;
1)
	echo "perf-gate: bench/ or BENCHMARK.json differ from $base; the sides would run different harnesses, so the gate is skipped"
	exit 0
	;;
*) exit 2 ;;
esac

tmp=$(mktemp -d)
cleanup() {
	git worktree remove --force "$tmp/parent" >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --detach --quiet "$tmp/parent" "$base"
rm -rf "$out"
mkdir -p "$out"

# run SIDE WORKLOAD SEED runs one untraced benchmark on one side's tree,
# with that side's own build directory.
run() {
	local tree=$root
	[ "$1" = parent ] && tree=$tmp/parent
	echo "perf-gate: $1 $2 seed $3"
	if ! CARGO_TARGET_DIR="$tmp/build-$1" bash "$tree/bench/run.sh" --workload "$2" \
		--seed "$3" --seconds "$seconds" --trace 0 --out "$out/$1" >>"$out/$1.log" 2>&1; then
		echo "perf-gate: the $1 failed on $2 seed $3; see $out/$1.log" >&2
		exit 1
	fi
}

for seed in $(seq 1 10); do
	for w in $workloads; do
		if [ $((seed % 2)) -eq 1 ]; then
			run parent "$w" "$seed"
			run change "$w" "$seed"
		else
			run change "$w" "$seed"
			run parent "$w" "$seed"
		fi
	done
done

compare() {
	CARGO_TARGET_DIR="$tmp/build-change" bash "$root/bench/run.sh" compare "$out/$1" "$out/$2"
}
fail=0
code=0
compare parent change >"$out/compare.txt" || code=$?
cat "$out/compare.txt"
if [ $code -ne 0 ]; then
	echo "perf-gate: compare parent/ change/ exited $code: a metric is worse than its bound" >&2
	fail=1
fi
# Swapped, `worse` means the change is much faster, so exit 1 is ignored.
code=0
compare change parent >"$out/compare-swapped.txt" || code=$?
cat "$out/compare-swapped.txt"
if [ $code -gt 1 ]; then
	echo "perf-gate: compare change/ parent/ exited $code" >&2
	fail=1
fi
for w in $workloads; do
	row=$(awk -v w="$w" '$1 == w && $2 == "pass_s"' "$out/compare-swapped.txt")
	if [ -z "$row" ]; then
		echo "perf-gate: no $w pass_s row in compare change/ parent/" >&2
		fail=1
	elif [[ $row == *" improved ("* ]]; then
		echo "perf-gate: the parent's $w pass_s is significantly better than the change's" >&2
		fail=1
	fi
done
exit $fail
