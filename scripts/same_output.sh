#!/usr/bin/env bash
# same_output.sh PARENT_DIR [CHANGE_DIR]
#
# Checks that a change alters no arithmetic by running the training and
# evaluation CLIs of two checkouts side by side. CHANGE_DIR defaults to the
# checkout this script lives in. Both sides build fltrain, flsim and
# flexperiments from their own source, then:
#
#   - fltrain -episodes 60 at -arch joint|shared x -train-workers 0|2, at
#     -arch joint|shared with -constrained and with -workers 2, and at
#     -arch shared -n 12 -workers 2 -train-workers 2: the nine saved .gob
#     agents must be byte-identical (cmp), and so must the printed
#     convergence tables;
#   - flsim -iters 60 -runs 2 -guard -cdf over the joint-tw0 (N=3) and
#     shared-n12-w2-tw2 (N=12) agents, which serves the joint and the
#     shared actor's mean action through the guard: the cost-CDF CSVs must
#     be byte-identical, and stdout must match after dropping the
#     "wrote ..." line;
#   - flexperiments -quick -out DIR: every CSV must be byte-identical, and
#     stdout must match after dropping the "wrote ..." lines and the
#     hier-sweep table's rounds/s and speedup columns, which are wall-clock
#     measurements.
#
# Exit status: 0 when everything matches, 1 on any difference, 2 on a usage
# or build error. The work directory is removed on success and kept (its
# path printed) otherwise. A run takes a few minutes, dominated by the two
# flexperiments -quick runs.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
	echo "usage: $0 PARENT_DIR [CHANGE_DIR]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "${2:-$(dirname "$0")/..}" && pwd)
work=$(mktemp -d)

fail() {
	echo "same_output: $1 (work dir $work)" >&2
	exit 2
}

build() { # side dir
	mkdir -p "$work/$1/bin"
	(cd "$2" && go build -o "$work/$1/bin/" ./cmd/fltrain ./cmd/flsim ./cmd/flexperiments) ||
		fail "build failed in $2"
}

# train runs one 60-episode fltrain of a side, saving NAME.gob and the
# printed table as fltrain-NAME.txt.
train() { # side name flags...
	local side=$1 name=$2
	shift 2
	bin/fltrain -episodes 60 "$@" -o "$name.gob" >"fltrain-$name.txt" ||
		fail "$side fltrain $* failed"
}

# simulate serves a saved agent of a side for 60 iterations x 2 runs with
# the guard on, saving the cost CDFs as flsim-NAME.csv and stdout as
# flsim-NAME.txt.
simulate() { # side name n
	bin/flsim -agent "$2.gob" -n "$3" -iters 60 -runs 2 -guard -cdf "flsim-$2.csv" >"flsim-$2.txt" ||
		fail "$1 flsim -agent $2.gob failed"
}

# run_side runs every workload of one side from inside its work directory,
# so the paths the tools print are the same relative paths on both sides.
run_side() { # side
	cd "$work/$1"
	for arch in joint shared; do
		for tw in 0 2; do
			train "$1" "$arch-tw$tw" -arch "$arch" -train-workers "$tw"
		done
		train "$1" "$arch-constrained" -arch "$arch" -constrained
		train "$1" "$arch-w2" -arch "$arch" -workers 2
	done
	train "$1" shared-n12-w2-tw2 -arch shared -n 12 -workers 2 -train-workers 2
	simulate "$1" joint-tw0 3
	simulate "$1" shared-n12-w2-tw2 12
	bin/flexperiments -quick -out csv >flexperiments.txt ||
		fail "$1 flexperiments -quick failed"
	cd - >/dev/null
}

# normalize drops the lines and columns of flexperiments stdout that
# legitimately differ between runs: "wrote ..." lines, and every column of
# the hier-sweep table from "rounds/s" on (its title ends in
# "rounds/s measured on host"; the table ends at the next blank line).
normalize() {
	awk '
		/^wrote / { next }
		/rounds\/s measured on host$/ { print; hier = 1; next }
		hier == 1 { cut = index($0, "rounds/s"); hier = 2 }
		hier == 2 && $0 == "" { hier = 0 }
		hier == 2 { print substr($0, 1, cut - 1); next }
		{ print }
	' "$1"
}

build parent "$parent"
build change "$change"
echo "same_output: running parent ($parent)"
run_side parent
echo "same_output: running change ($change)"
run_side change

status=0
differ() {
	echo "DIFFERENT: $1"
	status=1
}
for f in "$work"/parent/*.gob; do
	name=$(basename "$f")
	cmp -s "$f" "$work/change/$name" || differ "$name"
done
for f in "$work"/parent/fltrain-*.txt; do
	name=$(basename "$f")
	diff -q "$f" "$work/change/$name" >/dev/null || differ "$name"
done
for f in "$work"/parent/flsim-*.csv; do
	name=$(basename "$f")
	cmp -s "$f" "$work/change/$name" || differ "$name"
done
for f in "$work"/parent/flsim-*.txt; do
	name=$(basename "$f")
	diff -q <(grep -v '^wrote ' "$f") <(grep -v '^wrote ' "$work/change/$name") >/dev/null || differ "$name"
done
parent_csv=$(cd "$work/parent/csv" && ls)
change_csv=$(cd "$work/change/csv" && ls)
if [[ "$parent_csv" != "$change_csv" ]]; then
	differ "the set of CSV files"
fi
for name in $parent_csv; do
	[[ -f "$work/change/csv/$name" ]] || continue
	cmp -s "$work/parent/csv/$name" "$work/change/csv/$name" || differ "csv/$name"
done
if ! diff <(normalize "$work/parent/flexperiments.txt") <(normalize "$work/change/flexperiments.txt"); then
	differ "flexperiments stdout"
fi

ngob=$(ls "$work"/parent/*.gob | wc -l)
ncsv=$(echo "$parent_csv" | wc -w)
nsim=$(ls "$work"/parent/flsim-*.csv | wc -l)
if [[ $status -eq 0 ]]; then
	echo "same_output: identical ($ngob .gob files, $ncsv CSVs, $nsim flsim runs, all tables)"
	rm -rf "$work"
else
	echo "same_output: outputs differ; work dir kept at $work" >&2
fi
exit $status
