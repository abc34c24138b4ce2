#!/bin/sh
# End-to-end smoke test of the psld command line.
#
# Usage: scripts/smoke.sh COMMAND...
#   scripts/smoke.sh psld               # the installed console script
#   scripts/smoke.sh python -m psld     # a checkout, with src on PYTHONPATH
#
# Runs the given command end to end: synth, train with and without an
# adjacency file, eval with prediction dumps of an mvd and an stl/merged
# checkpoint, rss-check, and the gradient check in the separate mvd and
# the merged stl layout. One stl run has a
# trend kernel of 131 values, wider than its 12-step inputs and 6-step
# labels, so most slices its moving averages add lie wholly in the edge
# padding. It then checks that a bad flag and a negative --seed exit 1
# cleanly and that a malformed series or adjacency file exits 2 with a JSON
# error naming it. Exits non-zero on the first failed check.
set -eu

if [ "$#" -eq 0 ]; then
    echo "usage: $0 COMMAND... (for example: $0 psld, or: $0 python -m psld)" >&2
    exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$@" synth --nodes 16 --length 200 --seed 1 --out "$work/data"
printf 'l-in = 12\nl_out = 6\nn_subgraphs = 4\nhidden = 8\nepochs = 2\n' > "$work/run.cfg"
"$@" train --data "$work/data/series.csv" --adjacency "$work/data/adjacency.csv" \
    --out "$work/run" --config "$work/run.cfg" > /dev/null
"$@" train --data "$work/data/series.csv" --out "$work/stl-wide-kernel" \
    --config "$work/run.cfg" --decomposer stl --mode merged --kappa-t 131 --kappa-s 9 > /dev/null
"$@" eval --checkpoint "$work/run/checkpoint.psld" --data "$work/data/series.csv" \
    --dump-predictions "$work/preds.csv"

# a 64-node test split of 39,552 values (6,592 rows of l_out 6) runs as
# 13 uneven chunks of 507 and 508 rows in `psld eval`, whose metrics add
# the chunks' sums in chunk order: they must agree with np.mean over the
# dumped forecast within 1e-12 relative, on both scales, for an mvd
# checkpoint and for an stl/merged one, whose inference pass folds the
# decomposition into the merged head's first layer
"$@" synth --nodes 64 --length 600 --seed 2 --out "$work/wide"
"$@" train --data "$work/wide/series.csv" --out "$work/wide-mvd" \
    --config "$work/run.cfg" > /dev/null
"$@" train --data "$work/wide/series.csv" --out "$work/wide-stl-merged" \
    --config "$work/run.cfg" --decomposer stl --mode merged > /dev/null
for run in wide-mvd wide-stl-merged; do
    for scale in "" --denormalize; do
        "$@" eval --checkpoint "$work/$run/checkpoint.psld" \
            --data "$work/wide/series.csv" $scale \
            --dump-predictions "$work/wide-preds.csv" > "$work/wide-eval.json"
        python - "$work/wide-preds.csv" "$work/wide-eval.json" <<'EOF'
import csv, json, sys
import numpy as np
with open(sys.argv[1], newline="") as f:
    rows = list(csv.DictReader(f))
y = np.array([float(r["y"]) for r in rows])
err = np.array([float(r["y_hat"]) for r in rows]) - y
printed = json.load(open(sys.argv[2]))
want = {"mse": float(np.mean(err ** 2)), "mae": float(np.mean(np.abs(err)))}
assert len(rows) > 3 * 512 * 6, len(rows)
assert all(abs(printed[k] - want[k]) <= 1e-12 * abs(want[k]) for k in want), (printed, want)
EOF
    done
done

"$@" rss-check --nodes 16 --trials 2000
"$@" gradcheck
"$@" gradcheck --decomposer stl --mode merged

# expect_exit CODE ARGS...: run the command with ARGS, which must exit with
# CODE and print no traceback; its stderr is left in $work/err
expect_exit() {
    want=$1
    shift
    code=0
    "$@" 2> "$work/err" || code=$?
    cat "$work/err"
    test "$code" -eq "$want"
    if grep -q Traceback "$work/err"; then exit 1; fi
}

# the JSON error on stderr starts with the named file and its line 2
error_names_line_2() {
    python -c 'import json, sys; error = json.load(open(sys.argv[1]))["error"]; assert error.startswith(sys.argv[2] + ": line 2"), error' \
        "$work/err" "$1"
}

expect_exit 1 "$@" train --data "$work/data/series.csv" --out "$work/bad" --hidden 0

printf '0,1\n0,x\n' > "$work/bad-adjacency.csv"
expect_exit 2 "$@" train --data "$work/data/series.csv" --adjacency "$work/bad-adjacency.csv" \
    --out "$work/bad-adj"
error_names_line_2 "$work/bad-adjacency.csv"

# with a good adjacency file also given, the error names the series file
printf 'a,1,2,3\nb,4,5\n' > "$work/bad-series.csv"
expect_exit 2 "$@" train --data "$work/bad-series.csv" --adjacency "$work/data/adjacency.csv" \
    --out "$work/bad-series"
error_names_line_2 "$work/bad-series.csv"

expect_exit 1 "$@" synth --seed -1 --out "$work/negative-seed"
echo "smoke test passed"
