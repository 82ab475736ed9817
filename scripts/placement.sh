#!/usr/bin/env bash
# Where the linker put the drain's hot functions in two builds:
#
#   scripts/placement.sh BIN_A BIN_B
#
# prints, for each hot function of the probe and of both runtimes' worker
# loops, its address mod 64 in each binary (from `go tool nm -size -sort
# address`) and marks with "*" each function whose class differs. Functions
# are aligned to 32 bytes, so the class is 0 or 32: a function that starts
# at byte 32 of its cache line in one build and at byte 0 in the other can
# read a few per cent apart with identical work. A function missing from a
# binary prints "-". The fleet's session loop is the largest closure of
# remote.HandleSessionOpts, whose number shifts when closures are added.
set -euo pipefail

if [ $# -ne 2 ]; then
	echo "usage: $0 BIN_A BIN_B" >&2
	exit 2
fi
for bin in "$@"; do
	[ -f "$bin" ] || { echo "$0: no such binary: $bin" >&2; exit 2; }
done

hot=(
	'repro/internal/bundle.(*Index).collectCandidates'
	'repro/internal/bundle.(*Index).probeBundle'
	'repro/internal/bundle.(*Index).lookup'
	'repro/internal/bundle.(*Index).Evict'
	'repro/internal/bundle.(*Index).Insert'
	'repro/internal/bundle.(*setTable).add'
	'repro/internal/bundle.(*setTable).remove'
	'repro/internal/local.(*bundledJoiner).Step'
	'repro/internal/topology.(*worker).step'
	'session-loop'
)

# classes BIN prints "name offset" for every hot function found in BIN,
# offset being its address mod 64; the session loop is printed under the
# name session-loop.
classes() {
	go tool nm -size -sort address "$1" | awk -v names="${hot[*]}" '
		BEGIN {
			n = split(names, list, " "); for (i = 1; i <= n; i++) want[list[i]] = 1
			for (i = 0; i < 16; i++) hex[substr("0123456789abcdef", i + 1, 1)] = i
		}
		$3 == "T" || $3 == "t" {
			# The last two hex digits hold the address mod 256, so mod 64 too.
			lo = substr($1, length($1) - 1)
			off = (hex[substr(lo, 1, 1)] * 16 + hex[substr(lo, 2, 1)]) % 64
			if ($4 in want) print $4, off
			if ($4 ~ /^repro\/internal\/remote\.HandleSessionOpts\.func[0-9]+$/ && $2 + 0 > loopSize) {
				loopSize = $2 + 0; loopOff = off
			}
		}
		END { if (loopSize > 0) print "session-loop", loopOff }'
}

a=$(classes "$1")
b=$(classes "$2")
printf '%-50s %6s %6s\n' function A B
for f in "${hot[@]}"; do
	oa=$(awk -v f="$f" '$1 == f { print $2 }' <<<"$a")
	ob=$(awk -v f="$f" '$1 == f { print $2 }' <<<"$b")
	mark=
	if [ "${oa:--}" != "${ob:--}" ]; then
		mark='*'
	fi
	printf '%-50s %6s %6s %s\n' "$f" "${oa:--}" "${ob:--}" "$mark"
done
