#!/usr/bin/env bash
# Tier-1 verification, exactly as the driver runs it. The workspace is
# hermetic (path-only dependencies), so every step runs --offline: a
# reappearing registry dependency fails here instead of at first use on an
# air-gapped machine.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline --workspace
cargo test -q --offline --workspace
# Coverage asserts must hold at any case count: the sweep-pair twin test
# forces its scenarios with a fixed case ahead of the random ones.
MEE_PROP_CASES=1 cargo test -q --offline -p mee-machine --lib sweep_matches
cargo clippy --workspace --all-targets --offline -- -D warnings
# Formatting gate over the whole workspace: crates, tests and examples.
cargo fmt --all -- --check

# Every example must run end to end (quick payloads, release build).
for example in quickstart covert_channel noisy_channel prime_probe_failure \
               reverse_engineer wide_channel faulty_channel; do
  echo "== example: ${example}"
  cargo run --release --offline --example "${example}" >/dev/null
done

# The invariant registry: exhaustive model-checking-lite tier at the full
# budget, then the fixed-seed property tier. Any counterexample prints a
# one-line replay recipe and exits 1, failing CI here. The machine has one
# actor scheduler; the differential tier (tests/engine_equivalence.rs, part
# of the workspace tests above) holds its hook-schedule skipping
# bit-identical to calling the hook before every step.
echo "== spec: exhaustive tier"
cargo run --release --offline -p mee-spec -- --tier exhaustive --budget full
echo "== spec: property tier"
cargo run --release --offline -p mee-spec -- --tier property

# Scratch space for the artifact smokes below, removed on exit.
SMOKE_TMP=$(mktemp -d)
trap 'rm -rf "${SMOKE_TMP}"' EXIT

# Smoke-run the resilience bench (2 sessions, off/light/heavy fault plans
# with the full raw/robust/ARQ phase stack) and hold BENCH_resilience.json
# to its schema. The artifact carries no host-side field, so a serial run
# must be byte-identical to the 2-thread one.
echo "== bench-resilience smoke"
cargo run --release --offline -p mee-bench --bin bench-resilience -- 2019 1 --threads 2 >/dev/null
cargo run --release --offline -p mee-bench --bin bench-resilience -- 2019 1 --threads 1 \
  --out "${SMOKE_TMP}/resilience_serial.json" >/dev/null
cmp BENCH_resilience.json "${SMOKE_TMP}/resilience_serial.json" ||
  { echo "bench-resilience: --threads 1 artifact differs from --threads 2" >&2; exit 1; }
for key in name root_seed sessions bits_per_session raw_ber_off \
           raw_ber_light raw_ber_heavy degradation_x residual_worst \
           retransmissions_heavy window_escalations_heavy goodput_heavy_kbps; do
  grep -q "\"${key}\":" BENCH_resilience.json ||
    { echo "BENCH_resilience.json schema drift: missing key '${key}'" >&2; exit 1; }
done

# The crash-safe campaign smoke: run a reference campaign, kill a second
# one mid-flight with deterministic crash injection (exit 3), resume it at
# a different thread count, and require the resumed artifact to be
# byte-identical to the uninterrupted reference — the kill/resume
# determinism contract, enforced with cmp on every CI run. Then hold
# BENCH_campaign.json to its schema like the other artifacts.
echo "== bench-campaign kill/resume smoke"
cargo run --release --offline -p mee-bench --bin bench-campaign -- 2019 1 --threads 2 \
  --dir "${SMOKE_TMP}/ref" --out BENCH_campaign.json >/dev/null
if cargo run --release --offline -p mee-bench --bin bench-campaign -- 2019 1 --threads 2 \
  --dir "${SMOKE_TMP}/kill" --abort-after 2 \
  --out "${SMOKE_TMP}/aborted.json" >/dev/null 2>&1; then
  echo "bench-campaign: injected abort did not fail the process" >&2; exit 1
else
  status=$?
  [ "${status}" -eq 3 ] ||
    { echo "bench-campaign: expected exit 3 on injected abort, got ${status}" >&2; exit 1; }
fi
cargo run --release --offline -p mee-bench --bin bench-campaign -- 2019 1 --threads 4 \
  --dir "${SMOKE_TMP}/kill" --resume --out "${SMOKE_TMP}/resumed.json" >/dev/null
cmp BENCH_campaign.json "${SMOKE_TMP}/resumed.json" ||
  { echo "bench-campaign: resumed artifact differs from uninterrupted reference" >&2; exit 1; }
# A malformed campaign knob is a usage error (exit 2), like a bad flag.
status=0
MEE_CAMPAIGN_SHARDS=0 cargo run --release --offline -p mee-bench --bin bench-campaign -- 2019 1 \
  --out "${SMOKE_TMP}/bad_knob.json" >/dev/null 2>&1 || status=$?
[ "${status}" -eq 2 ] ||
  { echo "bench-campaign: expected exit 2 on MEE_CAMPAIGN_SHARDS=0, got ${status}" >&2; exit 1; }
# So is a malformed MEE_SWEEP_THREADS, in both pool binaries, with the
# strict-knob message printed verbatim on its own stderr line.
threads_msg='invalid MEE_SWEEP_THREADS value "0" (must be a positive integer, e.g. MEE_SWEEP_THREADS=4)'
for bin in bench-campaign bench-resilience; do
  status=0
  MEE_SWEEP_THREADS=0 cargo run -q --release --offline -p mee-bench --bin "${bin}" -- 2019 1 \
    --out "${SMOKE_TMP}/bad_threads.json" >/dev/null 2>"${SMOKE_TMP}/bad_threads.err" || status=$?
  [ "${status}" -eq 2 ] ||
    { echo "${bin}: expected exit 2 on MEE_SWEEP_THREADS=0, got ${status}" >&2; exit 1; }
  grep -qxF "${threads_msg}" "${SMOKE_TMP}/bad_threads.err" ||
    { echo "${bin}: MEE_SWEEP_THREADS=0 message drifted:" >&2;
      cat "${SMOKE_TMP}/bad_threads.err" >&2; exit 1; }
done
# bench-trace reads MEE_TRACE once and rejects a malformed value the same
# way; `--trace` is bench-trace's own flag, so the pool binaries reject it.
trace_msg='invalid MEE_TRACE value "abc" (must be an unsigned integer, e.g. MEE_TRACE=42)'
status=0
MEE_TRACE=abc cargo run -q --release --offline -p mee-bench --bin bench-trace -- 2019 1 \
  --out "${SMOKE_TMP}/bad_trace.json" >/dev/null 2>"${SMOKE_TMP}/bad_trace.err" || status=$?
[ "${status}" -eq 2 ] ||
  { echo "bench-trace: expected exit 2 on MEE_TRACE=abc, got ${status}" >&2; exit 1; }
grep -qxF "${trace_msg}" "${SMOKE_TMP}/bad_trace.err" ||
  { echo "bench-trace: MEE_TRACE=abc message drifted:" >&2;
    cat "${SMOKE_TMP}/bad_trace.err" >&2; exit 1; }
for bin in bench-campaign bench-resilience; do
  status=0
  cargo run -q --release --offline -p mee-bench --bin "${bin}" -- 2019 1 --trace 64 \
    --out "${SMOKE_TMP}/bad_flag.json" >/dev/null 2>&1 || status=$?
  [ "${status}" -eq 2 ] ||
    { echo "${bin}: expected exit 2 on --trace, got ${status}" >&2; exit 1; }
done
for key in name root_seed sessions_planned shards sessions_aggregated \
           quarantined_shards missing_sessions series count mean var min max \
           p10 p50 p90 p95; do
  grep -q "\"${key}\":" BENCH_campaign.json ||
    { echo "BENCH_campaign.json schema drift: missing key '${key}'" >&2; exit 1; }
done

# Smoke-run the traced-session exporter (seed 2019, light fault plan) and
# hold BENCH_trace.json to its schema. The binary itself exits non-zero if
# the four event categories are not all present or if the traced metrics
# do not reconcile exactly with the engine's end-of-run statistics, so
# this also gates the observability invariants.
echo "== bench-trace smoke"
cargo run --release --offline -p mee-bench --bin bench-trace -- 2019 1 >/dev/null
for key in traceEvents displayTimeUnit meta meeMetrics hostProfile; do
  grep -q "\"${key}\":" BENCH_trace.json ||
    { echo "BENCH_trace.json schema drift: missing key '${key}'" >&2; exit 1; }
done

# Run every experiment EXPERIMENTS.md is generated from (seed 2019,
# scale 1); any experiment that fails exits non-zero here. The output has
# no host-time field, so it must equal the committed golden byte for byte.
echo "== repro all"
cargo run --release --offline -p mee-bench --bin repro -- all 2019 1 \
  >"${SMOKE_TMP}/repro_all.txt"
cmp tests/golden/repro_all.txt "${SMOKE_TMP}/repro_all.txt" ||
  { echo "repro all: output differs from tests/golden/repro_all.txt" >&2; exit 1; }

# perfbench is a package of its own (kept out of the workspace): run its
# tests and lints, then one short untraced run of every workload. The run
# exits non-zero if any simulated result drifts from the committed
# perfbench/fingerprints.txt, so this gates simulated behaviour too.
echo "== perfbench"
cargo test -q --offline --manifest-path perfbench/Cargo.toml
cargo clippy --all-targets --offline --manifest-path perfbench/Cargo.toml -- -D warnings
python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 0 >/dev/null
# The traced run exits non-zero if a traced pass diverges from the untraced
# passes or a replayed hit/miss disagrees with the recording, so tracing
# on/off identity is checked on the workloads production runs.
python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 1 >/dev/null
echo "ci.sh: all checks passed"
