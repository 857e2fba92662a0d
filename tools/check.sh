#!/bin/sh
# Tier-1 gate: full build + full test run, under a wall-clock budget.
#
#   tools/check.sh                      # default 900 s budget
#   CHECK_BUDGET_SECONDS=300 tools/check.sh
#
# Exits non-zero if the build fails, any test fails, or the budget is
# exceeded.  The test phase runs suite by suite against the remaining
# budget, so a hang or a blown budget names the suite that ate the time
# instead of a bare `timeout` exit 124.  For a fast edit loop use the
# quick alias instead: dune build @quick
set -eu

cd "$(dirname "$0")/.."

BUDGET="${CHECK_BUDGET_SECONDS:-900}"
START=$(date +%s)

remaining() {
  echo $((BUDGET - ($(date +%s) - START)))
}

echo "== tier-1 check (budget ${BUDGET}s) =="

left=$(remaining)
status=0
timeout "$left" dune build || status=$?
if [ "$status" -ne 0 ]; then
  if [ "$status" -eq 124 ]; then
    echo "FAIL: 'dune build' exceeded the remaining budget (${left}s)" >&2
  else
    echo "FAIL: 'dune build' exited $status" >&2
  fi
  exit "$status"
fi

# The default build is the optimised one (dune-workspace): no -opaque,
# which would stop every cross-module inlining, and dev's warnings kept
# as errors by the flags the root dune file pins.  Read the compile rule
# of one lib/core module and check both.
rules=$(dune rules _build/default/lib/core/.p2p_core.objs/native/p2p_core__Engine.cmx 2>/dev/null) || rules=""
if ! printf '%s\n' "$rules" | grep -q 'ocamlopt'; then
  echo "FAIL: could not read the build rule of lib/core/engine.ml from 'dune rules'" >&2
  exit 1
fi
if printf '%s\n' "$rules" | grep -qx ' *-opaque'; then
  echo "FAIL: the default build compiles lib/core with -opaque; it must be the release profile" >&2
  exit 1
fi
for flag in '@1..3@5..28@30..39@43@46..47@49..57@61..62-40' '-strict-sequence'; do
  if ! printf '%s\n' "$rules" | grep -qx -- " *$flag"; then
    echo "FAIL: the default build compiles lib/core without $flag (see the root dune file)" >&2
    exit 1
  fi
done

# Run each test executable separately so a timeout or a failure is
# attributed to a suite by name.  CHECK_TESTS=0 skips the loop for jobs
# that only want a smoke phase below (the tier-1 gate always runs it).
log=$(mktemp)
trap 'rm -f "$log"' EXIT
fail=""
if [ "${CHECK_TESTS:-1}" != "1" ]; then
  echo "== test suites skipped (CHECK_TESTS=0) =="
else
for exe in _build/default/test/test_*.exe; do
  name=$(basename "$exe" .exe)
  left=$(remaining)
  if [ "$left" -le 0 ]; then
    echo "FAIL: budget exhausted before test suite $name (and everything after it)" >&2
    exit 124
  fi
  status=0
  timeout "$left" "$exe" -c >"$log" 2>&1 || status=$?
  if [ "$status" -eq 124 ]; then
    echo "FAIL: test suite $name timed out with ${left}s left of the ${BUDGET}s budget" >&2
    exit 124
  elif [ "$status" -ne 0 ]; then
    echo "FAIL: test suite $name exited $status; last lines of its output:" >&2
    tail -n 25 "$log" >&2
    fail="$fail $name"
  fi
done
fi

if [ -n "$fail" ]; then
  echo "FAIL: failing suites:$fail" >&2
  exit 1
fi

# The examples are walkthroughs, so they must keep running: each of the
# four runs to completion (under a second together).  Then the single-run
# telemetry flags: with --reps > 1, --profile and --probe-interval are
# usage errors (exit 2) like --trace and the rest, not silently ignored.
for ex in quickstart missing_piece_syndrome network_coding_gift flash_crowd_drain; do
  left=$(remaining)
  timeout "$left" "_build/default/examples/$ex.exe" >/dev/null || {
    echo "FAIL: example $ex exited non-zero" >&2; exit 1; }
done
for run in "simulate -k 3 --us 1 -t 100 --reps 2 --profile" \
           "coded --sim -k 4 -t 50 --reps 2 --probe-interval 1"; do
  left=$(remaining)
  status=0
  timeout "$left" _build/default/bin/p2psim.exe $run >/dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: 'p2psim $run' exited $status, wanted 2" >&2
    exit 1
  fi
done
# `report` on a Chrome-format trace or flight dump (one JSON array, no
# schema header) is a usage error that says so, not a JSONL parse error.
chrome=$(mktemp -d)
trap 'rm -f "$log"; rm -rf "$chrome"' EXIT
left=$(remaining)
timeout "$left" _build/default/bin/p2psim.exe coded --sim -k 4 -t 50 \
  --trace "$chrome/trace.json" >/dev/null
timeout "$left" _build/default/bin/p2psim.exe simulate -k 3 --us 0.3 --gamma 1.5 -t 50 \
  --flight-recorder "$chrome/flight.json" >/dev/null
for f in trace.json flight.json; do
  status=0
  msg=$(timeout "$left" _build/default/bin/p2psim.exe report "$chrome/$f" 2>&1 >/dev/null) \
    || status=$?
  case "$status:$msg" in
    "2:"*"no schema header (Chrome-trace"*) ;;
    *) echo "FAIL: 'p2psim report' of a Chrome $f exited $status: $msg" >&2; exit 1 ;;
  esac
done

# `report` renders a probe series byte for byte as it did when the
# golden files were made: on the version 1 fixture, and on a syndrome
# series whose detector replay raises 54 alerts.
left=$(remaining)
timeout "$left" _build/default/bin/p2psim.exe simulate -k 3 --us 0.3 --mu 2 --gamma inf \
  -a none=2 -t 150 --seed 1 --probe-interval 0.05 \
  --metrics-out "$chrome/syndrome150.jsonl" >/dev/null || {
  echo "FAIL: the syndrome simulate for the report golden exited non-zero" >&2; exit 1; }
for case in "test/fixtures/probe_v1.jsonl report_probe_v1" \
            "$chrome/syndrome150.jsonl report_syndrome150"; do
  set -- $case
  left=$(remaining)
  timeout "$left" _build/default/bin/p2psim.exe report "$1" >"$chrome/$2.txt" || {
    echo "FAIL: p2psim report $1 exited non-zero" >&2; exit 1; }
  cmp -s "$chrome/$2.txt" "test/fixtures/$2.txt" || {
    echo "FAIL: p2psim report $1 differs from test/fixtures/$2.txt" >&2; exit 1; }
done

# Theorem 1 in the fluid at K = 50.  From the one-club of piece 50 the
# run must take the S_49 orbit layout (100 masses, never 2^50 densities),
# finish within a fixed 10 s, and grow at Eq. (4)'s Delta within 1%:
# both the slope `fluid` prints and the one `classify` prints beside
# Delta.
club=$(seq -s, 1 49)
SYNDROME50="-k 50 --us 0.3 --mu 2 --gamma inf -a none=2"
timeout 10 _build/default/bin/p2psim.exe fluid $SYNDROME50 --init "$club=1e6" -t 400 \
  >"$chrome/k50_fluid.txt" || {
  echo "FAIL: the K = 50 one-club fluid run did not finish within 10 s" >&2; exit 1; }
grep -q '^state layout: 100 orbit masses' "$chrome/k50_fluid.txt" || {
  echo "FAIL: the K = 50 one-club fluid run did not take the orbit layout" >&2; exit 1; }
timeout 10 _build/default/bin/p2psim.exe classify $SYNDROME50 >"$chrome/k50_classify.txt" || {
  echo "FAIL: classify at K = 50 did not finish within 10 s" >&2; exit 1; }
delta=$(sed -n 's/^ *Delta (one-club drift, Eq. 4) *: //p' "$chrome/k50_classify.txt")
for slope in "$(sed -n 's/^empirical verdict: .*(growth \(.*\)\/t)$/\1/p' "$chrome/k50_fluid.txt")" \
             "$(sed -n 's/^ *fluid one-club slope *: //p' "$chrome/k50_classify.txt")"; do
  awk -v s="$slope" -v d="$delta" \
    'BEGIN { exit !(d > 0 && s - d <= 0.01 * d && d - s <= 0.01 * d) }' || {
    echo "FAIL: K = 50 one-club slope '$slope' is not within 1% of Delta '$delta'" >&2; exit 1; }
done

# Optional bench smoke: CHECK_BENCH=1 also runs the quick perf baseline
# (bench-json-quick) and a traced single run, proving the telemetry
# plumbing end to end.  Artifacts — including BENCH_smoke.json, which is
# deliberately NOT a committed file — land under
# ${CHECK_BENCH_DIR:-_build/bench-smoke}, so a bench run never dirties
# the working tree.
if [ "${CHECK_BENCH:-0}" = "1" ]; then
  out="${CHECK_BENCH_DIR:-_build/bench-smoke}"
  mkdir -p "$out"
  left=$(remaining)
  if [ "$left" -le 0 ]; then
    echo "FAIL: budget exhausted before the bench smoke phase" >&2
    exit 124
  fi
  echo "== bench smoke (into $out) =="
  ( cd "$out" && timeout "$left" "$OLDPWD/_build/default/bench/main.exe" bench-json-quick ) || {
    echo "FAIL: bench-json-quick exited non-zero" >&2; exit 1; }
  left=$(remaining)
  timeout "$left" _build/default/bin/p2psim.exe simulate -k 3 --us 0.3 --gamma 1.5 -t 200 \
    --probe-interval 2 --metrics-out "$out/sample_probe.jsonl" \
    --trace "$out/sample_trace.json" >/dev/null || {
    echo "FAIL: traced simulate exited non-zero" >&2; exit 1; }
  # The trace and the flight recorder are two destinations of one ring.
  # This run's 2,035 events fit the 4,096-event ring, so the two files
  # must hold the same rows, byte for byte, after their header lines,
  # and `report` must render both.
  left=$(remaining)
  timeout "$left" _build/default/bin/p2psim.exe simulate -k 3 --us 0.3 --gamma 1.5 -t 200 \
    --trace "$out/rows_trace.jsonl" --flight-recorder "$out/rows_flight.jsonl" >/dev/null || {
    echo "FAIL: simulate with --trace and --flight-recorder exited non-zero" >&2; exit 1; }
  grep -q '"dropped":0' "$out/rows_flight.jsonl" || {
    echo "FAIL: the flight recorder overwrote events; the rows cannot be compared" >&2; exit 1; }
  for f in rows_trace rows_flight; do
    tail -n +2 "$out/$f.jsonl" >"$out/$f.rows"
  done
  [ -s "$out/rows_trace.rows" ] && cmp -s "$out/rows_trace.rows" "$out/rows_flight.rows" || {
    echo "FAIL: --trace and --flight-recorder disagree on the event rows" >&2; exit 1; }
  for f in rows_trace rows_flight; do
    left=$(remaining)
    timeout "$left" _build/default/bin/p2psim.exe report "$out/$f.jsonl" >/dev/null || {
      echo "FAIL: p2psim report could not render $f.jsonl" >&2; exit 1; }
  done
  left=$(remaining)
  timeout "$left" _build/default/bin/p2psim.exe report "$out/sample_probe.jsonl" >/dev/null || {
    echo "FAIL: p2psim report exited non-zero" >&2; exit 1; }
  # `report` picks its renderer from the first line alone; the probe
  # reader must still read every row.  A syndrome-regime series must
  # read as unstable, and its time-average one-club size re-read from
  # the written floats must equal the one `simulate` printed, also when
  # the last grid point falls short of the horizon (interval 7 over
  # 200): the reader closes the averages at the header's "end".  A copy
  # with a corrupt middle row, and one with a corrupt run length "r",
  # must make `report` exit 2.
  for case in "200 7" "150 0.05"; do
    set -- $case
    left=$(remaining)
    timeout "$left" _build/default/bin/p2psim.exe simulate -k 3 --us 0.3 --mu 2 --gamma inf \
      -a none=2 -t "$1" --seed 1 --probe-interval "$2" \
      --metrics-out "$out/syndrome_probe.jsonl" >"$out/syndrome_simulate.txt" || {
      echo "FAIL: syndrome-regime simulate -t $1 exited non-zero" >&2; exit 1; }
    left=$(remaining)
    timeout "$left" _build/default/bin/p2psim.exe report "$out/syndrome_probe.jsonl" \
      >"$out/syndrome_report.txt" || {
      echo "FAIL: p2psim report on the syndrome series exited non-zero" >&2; exit 1; }
    grep -q 'one-club verdict *: appears-unstable' "$out/syndrome_report.txt" || {
      echo "FAIL: report did not read the syndrome series as appears-unstable" >&2; exit 1; }
    club=$(sed -n 's/^ *time-avg one-club size *: //p' "$out/syndrome_simulate.txt")
    read_club=$(sed -n 's/^ *time-avg one-club size *: //p' "$out/syndrome_report.txt")
    if [ -z "$club" ] || [ "$club" != "$read_club" ]; then
      echo "FAIL: report read a time-avg one-club size of '$read_club' from the series; simulate printed '$club' (-t $1, interval $2)" >&2
      exit 1
    fi
  done
  middle=$(( ($(wc -l <"$out/syndrome_probe.jsonl") + 1) / 2 ))
  sed "${middle}s/.*/{\"t\":74.9,\"n\":oops}/" "$out/syndrome_probe.jsonl" \
    >"$out/syndrome_corrupt_row.jsonl"
  run_line=$(grep -n -m 1 '"r":' "$out/syndrome_probe.jsonl" | cut -d: -f1)
  [ -n "$run_line" ] || { echo "FAIL: the syndrome series has no run" >&2; exit 1; }
  sed "${run_line}s/\"r\":[0-9]*/\"r\":0/" "$out/syndrome_probe.jsonl" \
    >"$out/syndrome_corrupt_r.jsonl"
  for f in syndrome_corrupt_row syndrome_corrupt_r; do
    cmp -s "$out/syndrome_probe.jsonl" "$out/$f.jsonl" && {
      echo "FAIL: $f.jsonl is not corrupt" >&2; exit 1; }
    left=$(remaining)
    status=0
    timeout "$left" _build/default/bin/p2psim.exe report "$out/$f.jsonl" \
      >/dev/null 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
      echo "FAIL: report on $f.jsonl exited $status, wanted 2" >&2
      exit 1
    fi
  done
  # The stable K = 8 flash crowd, where ~100 piece sets are occupied at
  # once and the aggregate backend's uniform-peer and pair draws do the
  # work: both backends must run it to the horizon (no truncation
  # warning) and read it as appears-stable.
  for backend in "" "--agent"; do
    left=$(remaining)
    timeout "$left" _build/default/bin/p2psim.exe simulate $backend -k 8 --us 2 --mu 1 \
      --gamma 0.8 -a none=20 -t 600 >"$out/flash_crowd$backend.txt" || {
      echo "FAIL: K = 8 flash-crowd simulate $backend exited non-zero" >&2; exit 1; }
    if grep -q 'WARNING: max_events' "$out/flash_crowd$backend.txt"; then
      echo "FAIL: K = 8 flash-crowd simulate $backend was truncated" >&2; exit 1
    fi
    grep -q 'empirical verdict: appears-stable' "$out/flash_crowd$backend.txt" || {
      echo "FAIL: K = 8 flash-crowd simulate $backend did not read as appears-stable" >&2
      exit 1; }
  done
  # The coded swarm shares the same engine and flag families: prove its
  # telemetry plumbing end to end too.
  left=$(remaining)
  timeout "$left" _build/default/bin/p2psim.exe coded --sim -k 6 -f 0.3 -t 150 \
    --probe-interval 5 --trace "$out/coded_trace.jsonl" >/dev/null || {
    echo "FAIL: traced coded simulate exited non-zero" >&2; exit 1; }
  # The fluid backend at headline scale: a million-peer flash crowd
  # through the CLI with probes on, round-tripped through `report`, and
  # a hybrid run that actually crosses its thresholds.  A second run
  # probes 20x more densely: grid points are read from the integrator's
  # dense output, so it must take exactly the unprobed run's steps.
  left=$(remaining)
  timeout "$left" _build/default/bin/p2psim.exe fluid -k 8 --us 1 --gamma 2 \
    --arrive none=100 --init none=1e6 -t 100 \
    --metrics-out "$out/fluid_probe.jsonl" >"$out/fluid.txt" || {
    echo "FAIL: million-peer fluid run exited non-zero" >&2; exit 1; }
  grep -q '^state layout: 16 orbit masses' "$out/fluid.txt" || {
    echo "FAIL: the symmetric million-peer fluid run did not take the orbit layout" >&2; exit 1; }
  left=$(remaining)
  timeout "$left" _build/default/bin/p2psim.exe report "$out/fluid_probe.jsonl" >/dev/null || {
    echo "FAIL: p2psim report on fluid probes exited non-zero" >&2; exit 1; }
  left=$(remaining)
  timeout "$left" _build/default/bin/p2psim.exe fluid -k 8 --us 1 --gamma 2 \
    --arrive none=100 --init none=1e6 -t 100 --probe-interval 0.05 \
    --metrics-out "$out/fluid_dense_probe.jsonl" >"$out/fluid_dense.txt" || {
    echo "FAIL: densely probed million-peer fluid run exited non-zero" >&2; exit 1; }
  left=$(remaining)
  timeout "$left" _build/default/bin/p2psim.exe report "$out/fluid_dense_probe.jsonl" \
    >/dev/null || {
    echo "FAIL: p2psim report on dense fluid probes exited non-zero" >&2; exit 1; }
  steps=$(grep 'accepted steps' "$out/fluid.txt")
  dense_steps=$(grep 'accepted steps' "$out/fluid_dense.txt")
  if [ -z "$steps" ] || [ "$steps" != "$dense_steps" ]; then
    echo "FAIL: probing at 0.05 changed the fluid run's steps ($steps vs $dense_steps)" >&2
    exit 1
  fi
  # The same on the 2^K layout: a stream of {1,2} arrivals breaks the
  # S_7 symmetry, so these runs integrate all 256 type densities.
  for interval in 0.5 0.05; do
    left=$(remaining)
    timeout "$left" _build/default/bin/p2psim.exe fluid -k 8 --us 1 --gamma 2 \
      --arrive none=100 --arrive 1,2=1 --init none=1e6 -t 100 --probe-interval "$interval" \
      --metrics-out "$out/fluid_types_$interval.jsonl" >"$out/fluid_types_$interval.txt" || {
      echo "FAIL: 2^K million-peer fluid run (probe step $interval) exited non-zero" >&2; exit 1; }
    if grep -q '^state layout:' "$out/fluid_types_$interval.txt"; then
      echo "FAIL: a fluid run with {1,2} arrivals took the orbit layout" >&2; exit 1
    fi
  done
  steps=$(grep 'accepted steps' "$out/fluid_types_0.5.txt")
  dense_steps=$(grep 'accepted steps' "$out/fluid_types_0.05.txt")
  if [ -z "$steps" ] || [ "$steps" != "$dense_steps" ]; then
    echo "FAIL: probing at 0.05 changed the 2^K fluid run's steps ($steps vs $dense_steps)" >&2
    exit 1
  fi
  left=$(remaining)
  timeout "$left" _build/default/bin/p2psim.exe fluid -k 2 --us 50 --gamma inf \
    --arrive none=40 -t 50 --hybrid --switch-up 95 --switch-down 80 --seed 7 \
    >/dev/null || {
    echo "FAIL: hybrid fluid run exited non-zero" >&2; exit 1; }
  # Peer classes run on the per-peer backend (simulate --agent --class):
  # a mixed-mu two-class swarm inside the heuristic region must read as
  # stable, and a class with mu = 0 must be refused as a usage error
  # (exit 124), not a crash.
  left=$(remaining)
  timeout "$left" _build/default/bin/p2psim.exe simulate --agent -k 3 --us 0.4 \
    -c fast=3,6,0.3 -c slow=0.3,0.6,0.3 -t 500 >"$out/classes.txt" || {
    echo "FAIL: mixed-mu class run exited non-zero" >&2; exit 1; }
  grep -q 'empirical verdict: appears-stable' "$out/classes.txt" || {
    echo "FAIL: the mixed-mu class run did not read as appears-stable" >&2; exit 1; }
  left=$(remaining)
  status=0
  timeout "$left" _build/default/bin/p2psim.exe simulate --agent -c x=0,1,1 \
    >/dev/null 2>&1 || status=$?
  if [ "$status" -ne 124 ]; then
    echo "FAIL: simulate --agent with a mu = 0 class exited $status, wanted 124" >&2
    exit 1
  fi
  # Regression gate: the fresh quick-bench throughput (events/s, or
  # simulated time per second for sim_markov; all three simulators)
  # plus the fluid stepper's steps/s and million-peer wall clock must
  # stay within bounds of the committed BENCH_PR9.json baseline (skips
  # the ratio checks when the baseline is absent).
  left=$(remaining)
  BENCH_GATE_BASELINE="${BENCH_GATE_BASELINE:-BENCH_PR9.json}" \
  BENCH_GATE_NEW="${BENCH_GATE_NEW:-$out/BENCH_smoke.json}" \
  timeout "$left" _build/default/bench/main.exe bench-gate || {
    echo "FAIL: bench-gate reported a throughput regression" >&2; exit 1; }
  echo "== bench smoke OK =="
fi

# Optional campaign smoke: CHECK_CAMPAIGN=1 proves the crash-safe sweep
# layer end to end — run a small campaign, kill a second copy mid-flight,
# tear the last record's bytes as SIGKILL would, resume, and require the
# merged store to be byte-identical to the uninterrupted run.
if [ "${CHECK_CAMPAIGN:-0}" = "1" ]; then
  out="${CHECK_CAMPAIGN_DIR:-/tmp/p2p_campaign_smoke}"
  rm -rf "$out"
  mkdir -p "$out"
  echo "== campaign smoke (into $out) =="
  cat >"$out/spec.json" <<'EOF'
{"schema":"p2p-campaign-spec","version":1,"name":"ci-smoke","hypothesis":"H-CI: the crash-safe store survives a mid-flight kill and a torn write","k":2,"mu":1.0,"gamma":"inf","horizon":40.0,"reps":1,"master_seed":11,"policy":"random","mode":{"type":"grid","lambda":{"lo":0.3,"hi":2.7,"steps":4},"us":{"lo":0.3,"hi":1.8,"steps":4}}}
EOF
  P2PSIM=_build/default/bin/p2psim.exe
  left=$(remaining)
  timeout "$left" "$P2PSIM" campaign run "$out/spec.json" \
    --dir "$out/clean" --checkpoint-every 3 >/dev/null || {
    echo "FAIL: clean campaign run exited non-zero" >&2; exit 1; }
  # Kill a second copy at its 5th cell (exit 99 is the hook's signature),
  # then tear the active segment's tail as a power cut mid-append would.
  left=$(remaining)
  status=0
  timeout "$left" "$P2PSIM" campaign run "$out/spec.json" \
    --dir "$out/crashy" --checkpoint-every 3 --crash-after 5 >/dev/null 2>&1 || status=$?
  if [ "$status" -ne 99 ]; then
    echo "FAIL: --crash-after 5 exited $status, wanted 99" >&2; exit 1
  fi
  active="$out/crashy/active.jsonl"
  size=$(wc -c <"$active")
  if [ "$size" -le 5 ]; then
    echo "FAIL: active segment unexpectedly small (${size}B); nothing to tear" >&2; exit 1
  fi
  head -c $((size - 5)) "$active" >"$active.torn" && mv "$active.torn" "$active"
  left=$(remaining)
  timeout "$left" "$P2PSIM" campaign resume --dir "$out/crashy" >/dev/null || {
    echo "FAIL: campaign resume exited non-zero" >&2; exit 1; }
  cmp "$out/clean/results.jsonl" "$out/crashy/results.jsonl" || {
    echo "FAIL: resumed store is not byte-identical to the clean run" >&2; exit 1; }
  [ "$(ls "$out/crashy/quarantine" | wc -l)" -eq 1 ] || {
    echo "FAIL: torn tail was not quarantined" >&2; exit 1; }
  left=$(remaining)
  timeout "$left" "$P2PSIM" campaign status --dir "$out/crashy" >/dev/null || {
    echo "FAIL: campaign status exited non-zero" >&2; exit 1; }
  # The coded backend drives the same crash-safe store: a small GF(4)
  # grid must complete and reproduce byte-identically across two clean
  # runs (the coded backend's determinism contract).
  cat >"$out/coded_spec.json" <<'EOF'
{"schema":"p2p-campaign-spec","version":1,"name":"ci-smoke-coded","hypothesis":"H-CI: the coded backend sweeps a grid deterministically","k":3,"mu":1.0,"gamma":2.0,"horizon":30.0,"reps":1,"master_seed":11,"policy":"random","backend":"coded","q":4,"mode":{"type":"grid","lambda":{"lo":0.3,"hi":2.7,"steps":3},"us":{"lo":0.3,"hi":1.8,"steps":3}}}
EOF
  left=$(remaining)
  timeout "$left" "$P2PSIM" campaign run "$out/coded_spec.json" \
    --dir "$out/coded" --checkpoint-every 3 >/dev/null || {
    echo "FAIL: coded campaign run exited non-zero" >&2; exit 1; }
  left=$(remaining)
  timeout "$left" "$P2PSIM" campaign run "$out/coded_spec.json" \
    --dir "$out/coded2" --checkpoint-every 3 >/dev/null || {
    echo "FAIL: second coded campaign run exited non-zero" >&2; exit 1; }
  cmp "$out/coded/results.jsonl" "$out/coded2/results.jsonl" || {
    echo "FAIL: coded campaign store is not reproducible" >&2; exit 1; }
  echo "== campaign smoke OK =="
fi

# Optional observability smoke: CHECK_OBS=1 proves the live-telemetry
# layer end to end — a Theorem-1-unstable run must raise a
# missing-piece-syndrome alert and leave a flight dump, a trace, a
# histogram file, and an alert timeline that `p2psim report` all
# render; then a SIGKILL mid-run must still leave a parseable
# auto-snapshot behind.
if [ "${CHECK_OBS:-0}" = "1" ]; then
  out="${CHECK_OBS_DIR:-/tmp/p2p_obs_smoke}"
  rm -rf "$out"
  mkdir -p "$out"
  echo "== observability smoke (into $out) =="
  P2PSIM=_build/default/bin/p2psim.exe
  # λ = 2.0 > U_s = 0.3 with instant departures: the missing-piece
  # syndrome must develop and the online monitor must catch it live.
  left=$(remaining)
  timeout "$left" "$P2PSIM" simulate -k 3 --us 0.3 --mu 2.0 --gamma inf \
    -a none=2.0 --horizon 60 --seed 5 \
    --flight-recorder "$out/flight.jsonl" --hist-out "$out/hists.json" \
    --alerts-out "$out/alerts.jsonl" --trace "$out/trace.jsonl" >/dev/null || {
    echo "FAIL: monitored unstable simulate exited non-zero" >&2; exit 1; }
  for f in flight.jsonl hists.json alerts.jsonl trace.jsonl; do
    [ -s "$out/$f" ] || { echo "FAIL: $f missing or empty" >&2; exit 1; }
  done
  grep -q missing_piece_syndrome "$out/alerts.jsonl" || {
    echo "FAIL: no missing-piece-syndrome alert on the unstable side" >&2; exit 1; }
  for f in flight.jsonl hists.json alerts.jsonl trace.jsonl; do
    left=$(remaining)
    timeout "$left" "$P2PSIM" report "$out/$f" >/dev/null || {
      echo "FAIL: p2psim report could not render $f" >&2; exit 1; }
  done
  # SIGKILL survival: the flight recorder republishes the ring as a
  # rate-limited auto-snapshot, so even an uncatchable kill leaves the
  # last complete dump behind.  The unstable swarm keeps the event loop
  # busy for far longer than the 2 s we let it live.
  "$P2PSIM" simulate -k 3 --us 0.3 --mu 2.0 --gamma inf \
    -a none=2.0 --horizon 100000 --seed 5 \
    --flight-recorder "$out/killed.jsonl" >/dev/null 2>&1 &
  victim=$!
  sleep 2
  kill -9 "$victim" 2>/dev/null || true
  wait "$victim" 2>/dev/null || true
  [ -s "$out/killed.jsonl" ] || {
    echo "FAIL: SIGKILL left no flight-recorder snapshot" >&2; exit 1; }
  left=$(remaining)
  timeout "$left" "$P2PSIM" report "$out/killed.jsonl" >/dev/null || {
    echo "FAIL: post-SIGKILL snapshot is not parseable" >&2; exit 1; }
  echo "== observability smoke OK =="
fi

# Optional jobs smoke: CHECK_JOBS=1 checks end to end through the CLI
# that the replication runner, the one multicore path, gives the same
# statistics for any --jobs: a run at --jobs 1 and at --jobs 2 must
# print identical output apart from the "wall ..." timing line.  It
# covers the aggregate backend, the per-peer backend on the complete
# graph, the per-peer backend on a degree-4 overlay (whose table adds
# the silent-contact and overlay-degree columns), and the coded
# backend twice: at GF(16), K = 4, whose packed rows fit one word, and
# at GF(256), K = 8, whose rows span two.  Then the replication watchdog:
# one row per jump backend (aggregate, per-peer, coded) runs two
# replications of a growing swarm whose unwatched sweep takes 20 s or
# more, under --rep-timeout 0.05.  The engine loop must stop both
# mid-run: the command exits 0 within 10 s and lists both replications
# as Rep_timeout.
if [ "${CHECK_JOBS:-0}" = "1" ]; then
  out=_build/jobs-smoke
  rm -rf "$out"
  mkdir -p "$out"
  echo "== jobs smoke (into $out) =="
  P2PSIM=_build/default/bin/p2psim.exe
  ARGS="-k 3 --arrive none=2.0 --gamma 2 --abort-rate 0.05 --horizon 150 --seed 11 --reps 8"
  CODED_ARGS="--gamma 2 --abort-rate 0.05 --horizon 150 --seed 11 --reps 8"
  for run in "simulate $ARGS" "simulate --agent $ARGS" "simulate --agent --degree 4 $ARGS" \
             "coded --sim -k 4 $CODED_ARGS" "coded --sim -q 256 -k 8 $CODED_ARGS"; do
    tag=$(echo "$run" | cut -d' ' -f1-3 | tr -c 'a-z0-9\n' '_')
    for j in 1 2; do
      left=$(remaining)
      timeout "$left" $P2PSIM $run --jobs "$j" >"$out/$tag.jobs$j.txt" || {
        echo "FAIL: '$run' at --jobs $j exited non-zero" >&2; exit 1; }
      grep -v '^wall ' "$out/$tag.jobs$j.txt" >"$out/$tag.jobs$j.norm.txt"
    done
    cmp "$out/$tag.jobs1.norm.txt" "$out/$tag.jobs2.norm.txt" || {
      echo "FAIL: --jobs 2 changed the replication statistics of '$run'" >&2
      diff "$out/$tag.jobs1.txt" "$out/$tag.jobs2.txt" >&2 || true
      exit 1; }
  done
  WATCH="--reps 2 --rep-timeout 0.05 --on-error skip"
  SYNDROME="-k 3 --us 0.3 --mu 2 -a none=2"
  for run in "simulate $SYNDROME -t 4000000" "simulate --agent $SYNDROME -t 10000" \
             "coded -q 16 -k 8 -f 0.05 --us 0 -t 10000"; do
    tag=watchdog_$(echo "$run" | cut -d' ' -f1-2 | tr -c 'a-z0-9\n' '_')
    timeout 10 $P2PSIM $run $WATCH >"$out/$tag.txt" || {
      echo "FAIL: '$run $WATCH' did not exit 0 within 10 s" >&2; exit 1; }
    if [ "$(grep -c 'replication [01]: P2p_runner.Runner.Rep_timeout' "$out/$tag.txt")" != 2 ]; then
      echo "FAIL: '$run $WATCH' did not list both replications as Rep_timeout" >&2
      cat "$out/$tag.txt" >&2
      exit 1
    fi
  done
  echo "== jobs smoke OK =="
fi

echo "== tier-1 check OK =="
