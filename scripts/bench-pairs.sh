#!/usr/bin/env bash
# Alternating parent/change runs of the repository benchmark in one command:
#
#   scripts/bench-pairs.sh PARENT_REV N [workload...]
#
# checks PARENT_REV out into a temporary git worktree — or, where `git
# worktree add` fails, unpacks `git archive PARENT_REV` into the same
# directory — runs bench/run.sh N times on it and N times on this working
# tree (seeds 101, 102, ...; the side that goes first alternates from pair
# to pair), keeps every run file under .bench_build/pairs/, and prints
# bench's -compare table followed, for each (workload, metric), by how many
# of the N same-seed pairs the change won. Without workload names every
# workload runs (-all). Exits 1 when -compare finds a metric worse than its
# bound. Needs jq.
set -euo pipefail

if [ $# -lt 2 ] || ! [ "$2" -gt 0 ] 2>/dev/null; then
	echo "usage: $0 PARENT_REV N [workload...]" >&2
	exit 2
fi
parent_rev=$1
pairs=$2
workloads=("${@:3}")

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/pairs"
tree="$out/parent"

# drop_tree removes the parent tree in either form: a registered worktree or
# a plain directory unpacked from an archive.
drop_tree() {
	git -C "$root" worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
	git -C "$root" worktree prune 2>/dev/null || true
}
drop_tree # one left behind by a killed run
trap drop_tree EXIT
trap 'exit 130' INT TERM # so that the EXIT trap runs on a signal too

mkdir -p "$out"
rm -f "$out"/parent-*.json "$out"/change-*.json
# An unpacked archive is not a checkout: go's VCS stamping finds this
# repository around it, so the parent's run files carry HEAD's commit, not
# PARENT_REV's. The table header below prints the rev in both forms.
if ! git -C "$root" worktree add --quiet --detach "$tree" "$parent_rev"; then
	echo "git worktree add failed; unpacking git archive $parent_rev instead" >&2
	drop_tree
	mkdir -p "$tree"
	git -C "$root" archive "$parent_rev" | tar -x -C "$tree"
fi

# run_side NAME CHECKOUT SEED
run_side() {
	if [ ${#workloads[@]} -eq 0 ]; then
		bash "$2/bench/run.sh" -all -seed "$3" -json "$out/$1-seed$3.json"
		return
	fi
	local w
	for w in "${workloads[@]}"; do
		bash "$2/bench/run.sh" -workload "$w" -seed "$3" -json "$out/$1-$w-seed$3.json"
	done
}

for ((i = 0; i < pairs; i++)); do
	seed=$((101 + i))
	if ((i % 2 == 0)); then
		run_side parent "$tree" "$seed"
		run_side change "$root" "$seed"
	else
		run_side change "$root" "$seed"
		run_side parent "$tree" "$seed"
	fi
done

status=0
echo
echo "A = parent ($parent_rev), B = change (working tree); $pairs pairs"
bash "$root/bench/run.sh" -compare "$out"/parent-*.json -- "$out"/change-*.json || status=$?

echo
echo "pairs the change won (same seed on both sides; ties count for neither)"
jq -rn \
	--slurpfile spec "$root/BENCHMARK.json" \
	--slurpfile a <(jq -s '[.[].runs[]]' "$out"/parent-*.json) \
	--slurpfile b <(jq -s '[.[].runs[]]' "$out"/change-*.json) '
	$spec[0].workloads[].name as $w
	| $spec[0].end_to_end[] as $m
	| [ $a[0][] | select(.workload == $w) | . as $ra
	    | $b[0][] | select(.workload == $w and .seed == $ra.seed)
	    | (.metrics[$m.name].value - $ra.metrics[$m.name].value)
	      * (if $m.better == "lower" then -1 else 1 end) ] as $gain
	| select($gain | length > 0)
	| [$w, $m.name, "\([$gain[] | select(. > 0)] | length) of \($gain | length)",
	   "ties \([$gain[] | select(. == 0)] | length)"]
	| @tsv' |
	awk -F'\t' '{ printf "%-17s %-20s %-9s %s\n", $1, $2, $3, $4 }'
exit "$status"
