#!/usr/bin/env bash
# same_output.sh PARENT_DIR [CHANGE_DIR]
#
# Checks that a change alters no arithmetic by running the training,
# evaluation and serving CLIs of two checkouts side by side. CHANGE_DIR
# defaults to the checkout this script lives in. Both sides build fltrain,
# flsim, flexperiments and flserver from their own source, then:
#
#   - fltrain -episodes 60 at -arch joint|shared x -train-workers 0|2, at
#     -arch joint|shared with -constrained and with -workers 2, and at
#     -arch shared -n 12 -workers 2 -train-workers 2: the nine saved .json
#     agent files must be byte-identical (cmp), and so must the printed
#     convergence tables;
#   - flsim -iters 60 -runs 2 -guard -cdf over the joint-tw0 (N=3) and
#     shared-n12-w2-tw2 (N=12) agents, which serves the joint and the
#     shared actor's mean action through the guard: the cost-CDF CSVs must
#     be byte-identical, and stdout must match after dropping the
#     "wrote ..." line;
#   - flexperiments -quick -out DIR: every CSV must be byte-identical, and
#     stdout must match after dropping the "wrote ..." lines and the
#     hier-sweep table's rounds/s and speedup columns, which are wall-clock
#     measurements;
#   - flserver -agent joint-tw0.json -record-plans -audit-dir -snapshot on
#     127.0.0.1:PORT (SAME_OUTPUT_PORT, default 8702), with a fresh-actor,
#     a heuristic and a loaded-agent ("drl", on the agent's training
#     system) N=3 tenant, one fixed serial curl sequence (pinned clock,
#     last_bw, down and observed_cost, a 4-decision batch, a wrong-length
#     last_bw, five 1024-decision batches that take the fresh tenant's
#     audit past its 4,096-record cap, and an unknown tenant) and a
#     SIGTERM drain: every response (body and status), every .audit file
#     and the registry snapshot must be byte-identical. stats.json holds
#     the uptime and is not compared.
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
	(cd "$2" && go build -o "$work/$1/bin/" ./cmd/fltrain ./cmd/flsim ./cmd/flexperiments ./cmd/flserver) ||
		fail "build failed in $2"
}

# train runs one 60-episode fltrain of a side, saving NAME.json and the
# printed table as fltrain-NAME.txt.
train() { # side name flags...
	local side=$1 name=$2
	shift 2
	bin/fltrain -episodes 60 "$@" -o "$name.json" >"fltrain-$name.txt" ||
		fail "$side fltrain $* failed"
}

# simulate serves a saved agent of a side for 60 iterations x 2 runs with
# the guard on, saving the cost CDFs as flsim-NAME.csv and stdout as
# flsim-NAME.txt.
simulate() { # side name n
	bin/flsim -agent "$2.json" -n "$3" -iters 60 -runs 2 -guard -cdf "flsim-$2.csv" >"flsim-$2.txt" ||
		fail "$1 flsim -agent $2.json failed"
}

# serve boots a side's flserver with the joint-tw0 agent, sends the fixed
# request sequence, one curl at a time, saving each response body and
# status as serve/NN.txt, and drains the daemon with SIGTERM, which writes
# serve/audits/*.audit and serve/flserver.snap.json.
server_pid=
trap '[[ -n $server_pid ]] && kill -9 "$server_pid" 2>/dev/null' EXIT
serve() { # side
	local port=${SAME_OUTPUT_PORT:-8702} n=0 i tenant
	local base=http://127.0.0.1:$port
	mkdir -p serve
	bin/flserver -addr "127.0.0.1:$port" -agent joint-tw0.json -record-plans -audit-dir serve/audits \
		-snapshot serve/flserver.snap.json >serve/flserver.log 2>&1 &
	server_pid=$!
	for i in $(seq 100); do
		kill -0 "$server_pid" 2>/dev/null || fail "$1 flserver exited at boot (port $port taken?)"
		curl -sf "$base/v1/healthz" >/dev/null 2>&1 && break
		[[ $i -eq 100 ]] && fail "$1 flserver did not come up on port $port"
		sleep 0.1
	done
	post() { # path body
		n=$((n + 1))
		curl -s -w '%{http_code}\n' -H 'Content-Type: application/json' --data "$2" \
			"$base$1" >"serve/$(printf %02d $n).txt" || fail "curl $1 failed"
	}
	post /v1/tenants '{"name": "fresh3", "n": 3, "seed": 5, "primary": "fresh"}'
	post /v1/tenants '{"name": "heur3", "n": 3, "seed": 6, "primary": "heuristic"}'
	post /v1/tenants '{"name": "drl3", "n": 3, "seed": 1, "primary": "drl"}'
	for tenant in fresh3 heur3 drl3; do
		post /v1/decide '{"tenant": "'$tenant'", "clock": 0}'
		post /v1/decide '{"tenant": "'$tenant'", "clock": 10, "last_bw": [1.5e6, 2e6, 2.5e6], "observed_cost": 40.5}'
		post /v1/decide '{"tenant": "'$tenant'", "clock": 20, "down": [false, true, false], "observed_cost": 38}'
		post /v1/decide '{"tenant": "'$tenant'", "clock": 30, "count": 4, "observed_cost": 1e12}'
		post /v1/decide '{"tenant": "'$tenant'", "last_bw": [1e6, 2e6]}'
		post /v1/decide '{"tenant": "'$tenant'", "observed_cost": 41}'
	done
	# 8 + 5 x 1024 decisions: the drained audit keeps k = 1032 ... 5127, a
	# wrapped ring, and the fifth batch's observed cost is written into the
	# newest record after the wrap.
	for i in 1 2 3 4 5; do
		post /v1/decide '{"tenant": "fresh3", "clock": '$((i * 20000))', "count": 1024, "observed_cost": '$((38 + i))'.5}'
	done
	post /v1/decide '{"tenant": "nobody"}'
	kill -TERM "$server_pid"
	wait "$server_pid" || fail "$1 flserver drain failed"
	server_pid=
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
	serve "$1"
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
for f in "$work"/parent/*.json; do
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
serve_files=$(cd "$work/parent" && ls serve/*.txt serve/audits/*.audit serve/flserver.snap.json)
if [[ "$serve_files" != "$(cd "$work/change" && ls serve/*.txt serve/audits/*.audit serve/flserver.snap.json)" ]]; then
	differ "the set of serving files"
fi
for name in $serve_files; do
	[[ -f "$work/change/$name" ]] || continue
	cmp -s "$work/parent/$name" "$work/change/$name" || differ "$name"
done

nagents=$(ls "$work"/parent/*.json | wc -l)
ncsv=$(echo "$parent_csv" | wc -w)
nsim=$(ls "$work"/parent/flsim-*.csv | wc -l)
nserve=$(echo "$serve_files" | wc -w)
if [[ $status -eq 0 ]]; then
	echo "same_output: identical ($nagents agent files, $ncsv CSVs, $nsim flsim runs, all tables, $nserve serving files)"
	rm -rf "$work"
else
	echo "same_output: outputs differ; work dir kept at $work" >&2
fi
exit $status
