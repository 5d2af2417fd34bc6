#!/usr/bin/env bash
# Contract rows for the full_campaign CLI: every flag either takes effect
# on the chosen catalog (paper or --scale census) or exits 2 with a reason
# on stderr, and each run exits with the documented code and writes the
# documented files. Each row runs in its own directory under one temp root.
#
#   tests/cli/full_campaign_cli.sh path/to/full_campaign
set -u
BIN=$1
ROOT=$(mktemp -d)
trap 'rm -rf "$ROOT"' EXIT
failures=0

fail() {
  echo "FAIL [$name] $*"
  sed 's/^/  stderr: /' "$dir/err.txt" | head -5
  failures=$((failures + 1))
}

# row NAME WANT_EXIT COMMAND... — runs COMMAND in $ROOT/NAME, capturing
# out.txt/err.txt there, and checks the exit code.
row() {
  name=$1 want=$2
  shift 2
  dir=$ROOT/$name
  mkdir -p "$dir"
  (cd "$dir" && "$@" >out.txt 2>err.txt)
  local rc=$?
  [ "$rc" -eq "$want" ] || fail "exit $rc, want $want"
}
wrote() { [ -s "$dir/$1" ] || fail "$1 not written"; }
absent() { [ ! -e "$dir/$1" ] || fail "$1 written"; }
has() { grep -qF -- "$2" "$dir/$1" || fail "$1 lacks '$2'"; }
lacks() { ! grep -qF -- "$2" "$dir/$1" || fail "$1 has '$2'"; }

# Paper-only flags are refused by a census, before anything is written.
for flag in "--faults flaky" --speedtest "--trace t.json" "--metrics m.txt" \
            --trace-hops; do
  # shellcheck disable=SC2086  # $flag is a flag plus its value
  row "census-refuses${flag%% *}" 2 "$BIN" out --scale 4 $flag
  has err.txt "error: ${flag%% *} applies only to the paper catalog"
  absent out
done

# Numeric flags are read whole: a negative count, a non-number or trailing
# junk exits 2 with the reason before any work starts (a wrapped --jobs -1
# used to abort in the pool, and --jobs abc meant all cores).
for args in "--jobs -1" "--jobs abc" "--jobs 4x" "--scale -1" "--scale 4x" \
            "--max-shard-retries abc" "--max-shard-retries -1" \
            "--watchdog 5x" "--watchdog -1" "--subscribers abc"; do
  # shellcheck disable=SC2086  # $args is a flag plus its value
  row "strict${args// /}" 2 "$BIN" out $args
  has err.txt "error: ${args%% *} takes "
  has err.txt "not '${args#* }'"
  absent out
done

# Census-only flags are refused by the paper catalog.
row paper-refuses-subscribers 2 "$BIN" out --subscribers 10
has err.txt "error: --subscribers applies only to a --scale census"
absent out

# The census takes the profile, status and watchdog flags like the paper
# campaign, and its profile shows where shard-build time goes.
row census-telemetry 0 "$BIN" out --scale 8 --profile prof.txt \
    --status-file status.json --watchdog 50
wrote out/scale_census.csv
wrote out/scale_manifest.json
wrote status.json
wrote prof.txt
has prof.txt "shard.build"
# In-process census worlds are built here, so their arena is reported.
has out.txt "host arena:"

# The seed-independent world base is built once per process, before any
# shard: one world.base frame against one shard.build per shard.
row census-profile 0 "$BIN" out --scale 8 --profile prof.txt
has prof.txt "phase world.base calls=1 "
has prof.txt "phase shard.build calls=8 "

# An isolated census journals every shard; the arena line is omitted
# (worlds are built in the workers), never printed as zero.
row census-isolate 0 "$BIN" out --scale 8 --isolate --cache-dir store
wrote out/campaign.journal
has out/scale_manifest.json '"mode": "isolated"'
lacks out.txt "host arena"
has out.txt "driver peak RSS:"
cmp -s "$dir/out/scale_census.csv" "$ROOT/census-telemetry/out/scale_census.csv" ||
  fail "isolated scale_census.csv differs from the in-process one"

# --resume over the same cache dir replays every journaled shard.
row census-resume 0 "$BIN" "$ROOT/census-isolate/out" --scale 8 --resume \
    --cache-dir "$ROOT/census-isolate/store" --explain-cache
has "../census-isolate/out/scale_manifest.json" '"resumed_shards": 8'
has out.txt "cache hit"
cmp -s "$ROOT/census-isolate/out/scale_census.csv" \
    "$ROOT/census-telemetry/out/scale_census.csv" ||
  fail "resumed scale_census.csv differs from a fresh run"

# A census shard that throws every attempt in-process is a hard failure
# (exit 1), named as such — not a crash quarantine.
row census-hard-failure 1 env VPNA_CRASH_SHARD=2:throw:always "$BIN" out \
    --scale 8
has err.txt "hard failure: svp-00002 threw on all 3 attempt(s)"
lacks err.txt "crash"

# A shard whose first attempt throws is retried to the same bytes, and the
# manifest counts that one retry on either backend.
row paper-throw-inprocess 0 env VPNA_CRASH_SHARD=3:throw "$BIN" out --jobs 2
has out/run_manifest.json '"retries": 1,'
has out.txt ", 1 retries,"
row paper-throw-isolated 0 env VPNA_CRASH_SHARD=3:throw "$BIN" out --jobs 2 \
    --isolate
has out/run_manifest.json '"retries": 1,'
cmp -s "$dir/out/campaign.csv" "$ROOT/paper-throw-inprocess/out/campaign.csv" ||
  fail "isolated retried campaign.csv differs from the in-process one"

# A partially warm store (a supervisor killed after 52 shards leaves 52
# artifacts): the 52 replays settle without a wall, so the watchdog's
# median is the 10 computed shards' and no healthy shard is flagged.
row paper-warm-52 137 env VPNA_CRASH_SUPERVISOR=52:kill "$BIN" out --jobs 2 \
    --isolate --cache-dir store
row paper-partly-warm 0 "$BIN" out --jobs 1 --cache ro \
    --cache-dir "$ROOT/paper-warm-52/store" --watchdog 3 \
    --status-file status.json
has out/run_manifest.json '"watchdog": []'
has status.json '"hits": 52, "misses": 10'
lacks status.json '"median_shard_s": 0.000'

# A --resume against a journal from a different campaign is a usage error
# (exit 2 with the refusal), not an abort.
row paper-isolate 0 "$BIN" out --isolate --jobs 2
wrote out/campaign.journal
row paper-resume-refused 2 "$BIN" "$ROOT/paper-isolate/out" --resume \
    --faults flaky
has err.txt "--resume refused"

# One ground truth per process, collected only when a shard is computed:
# once for a cold pooled run, never for an all-hits replay, and once in the
# supervisor of an isolated run (its forked workers inherit it).
row paper-ground-truth-cold 0 "$BIN" out --jobs 4 --cache-dir store \
    --profile prof.txt
has prof.txt "phase runner.ground_truth calls=1 "
row paper-ground-truth-warm 0 "$BIN" out --jobs 4 \
    --cache-dir "$ROOT/paper-ground-truth-cold/store" --profile prof.txt
has out/run_manifest.json '"hits": 62,'
wrote prof.txt
lacks prof.txt "runner.ground_truth"
row paper-ground-truth-isolated 0 "$BIN" out --jobs 2 --isolate \
    --profile prof.txt
has prof.txt "phase runner.ground_truth calls=1 "

# A traced paper run writes the trace and the metrics dump (scheduling
# telemetry included) next to its artefacts, and its scorecard carries the
# instrumentation appendix: all from the one render of the artefacts.
row paper-traced 0 "$BIN" out --jobs 2 --trace t.json --metrics m.txt
wrote t.json
wrote m.txt
wrote out/campaign.csv
has m.txt "counter pool.tasks_run"
has out/scorecard.md "## Appendix: instrumentation"

if [ "$failures" -ne 0 ]; then
  echo "$failures check(s) failed"
  exit 1
fi
echo "all full_campaign CLI rows passed"
