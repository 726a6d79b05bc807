#!/usr/bin/env bash
# Local CI gate: build, test, format, lint. Run from the repo root.
# Mirrored by .github/workflows/ci.yml — keep the steps in sync.
set -euo pipefail
cd "$(dirname "$0")/.."

banner() { printf '\n==== %s ====\n' "$1"; }

banner "Build (release)"
cargo build --release

banner "Test"
cargo test -q

banner "Test (whole workspace: every crate's unit, property and oracle tests)"
cargo test --workspace -q

banner "Test (benchmark harness: BENCHMARK.json and manifest.json agree)"
cargo test --manifest-path perfbench/Cargo.toml --offline -q

banner "Repo benchmark smoke (each workload once; exit 1 on a failed statement or check)"
# Catches an engine change that breaks the benchmark's correctness checks
# or its use of the engine API. Records go to the gitignored perfbench/out/.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
for workload in train_clustered predict_serve ingest_continuous; do
  cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1
done

banner "Format check"
cargo fmt --check

banner "Clippy"
cargo clippy --workspace --all-targets -- -D warnings

banner "Docs (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

banner "Concurrency stress (N sessions over one engine, bit-identical)"
cargo test --release --test concurrent_sessions

banner "Crash matrix (kill at every WAL write site, recover, bit-identical)"
cargo test --release --test crash_recovery

# Smoke-scale bench artifacts go to target/bench-smoke, so the gate never
# overwrites the committed full-scale BENCH_*.json files or results/.
SMOKE=target/bench-smoke
mkdir -p "$SMOKE"
export CORGI_BENCH_ROOT="$SMOKE" CORGI_RESULTS_DIR="$SMOKE/results"

banner "Pipeline bench (smoke scale)"
# Completes-and-emits-valid-JSON check only — no performance gating in CI.
CORGI_PIPELINE_TUPLES=1500 CORGI_PIPELINE_EPOCHS=2 \
  cargo run --release -p corgipile-bench --bin corgi-bench -- pipeline
python3 -c "import json; json.load(open('$SMOKE/BENCH_pipeline.json'))" \
  || { echo "$SMOKE/BENCH_pipeline.json is not valid JSON"; exit 1; }

banner "Concurrency bench (smoke scale)"
CORGI_CONCURRENCY_TUPLES=2000 CORGI_CONCURRENCY_EPOCHS=1 \
  cargo run --release -p corgipile-bench --bin corgi-bench -- concurrency
python3 -c "import json; json.load(open('$SMOKE/BENCH_concurrency.json'))" \
  || { echo "$SMOKE/BENCH_concurrency.json is not valid JSON"; exit 1; }

banner "Pushdown bench (smoke scale)"
CORGI_PUSHDOWN_TUPLES=2000 CORGI_PUSHDOWN_EPOCHS=1 \
  cargo run --release -p corgipile-bench --bin corgi-bench -- pushdown
python3 -c "import json; json.load(open('$SMOKE/BENCH_pushdown.json'))" \
  || { echo "$SMOKE/BENCH_pushdown.json is not valid JSON"; exit 1; }

banner "Recovery bench (smoke scale)"
CORGI_RECOVERY_TUPLES=2000 CORGI_RECOVERY_EPOCHS=2 \
  cargo run --release -p corgipile-bench --bin corgi-bench -- recovery
python3 -c "import json; json.load(open('$SMOKE/BENCH_recovery.json'))" \
  || { echo "$SMOKE/BENCH_recovery.json is not valid JSON"; exit 1; }

banner "Serving hot-reload (predictors racing durable trains, bit-identical)"
cargo test --release --test serving_hot_reload

banner "Serving bench (smoke scale)"
CORGI_SERVING_TUPLES=2000 CORGI_SERVING_RUNS=1 CORGI_SERVING_BATCH_ROWS=128 \
  cargo run --release -p corgipile-bench --bin corgi-bench -- serving
python3 -c "
import json
d = json.load(open('$SMOKE/BENCH_serving.json'))
assert all(s['predictions_per_sec'] > 0 for s in d['sessions']), d['sessions']
assert d['bit_identical_all'], 'concurrent serving diverged from the serial reference'
" || { echo "$SMOKE/BENCH_serving.json failed the serving gate"; exit 1; }

banner "Vectorize bench (smoke scale)"
# Gated: the fused pipeline must beat the interpreted tree by >= 1.3x
# simulated compute on every grid cell and stay bit-identical.
CORGI_VECTORIZE_TUPLES=2000 CORGI_VECTORIZE_EPOCHS=1 \
  cargo run --release -p corgipile-bench --bin corgi-bench -- vectorize
python3 -c "
import json
d = json.load(open('$SMOKE/BENCH_vectorize.json'))
assert d['speedup'] >= 1.3, f\"fused speedup {d['speedup']} < 1.3x\"
assert d['bit_identical_all'], 'fused pipeline diverged from the interpreted oracle'
" || { echo "$SMOKE/BENCH_vectorize.json failed the vectorize gate"; exit 1; }

banner "Planner bench (smoke scale)"
# Gated: the cost-based chooser must move off plain CorgiPile on
# clustered data, keep it on pre-shuffled data, and the bounded
# RECLUSTER pass must stay within its declared io_budget. The
# convergence-frontier check is only meaningful at full bench scale.
CORGI_PLANNER_TUPLES=2000 CORGI_PLANNER_EPOCHS=20 \
  cargo run --release -p corgipile-bench --bin corgi-bench -- planner
python3 -c "
import json
d = json.load(open('$SMOKE/BENCH_planner.json'))
assert d['choice_clustered'] in ('corgi2', 'block_reversal'), d['choice_clustered']
assert d['choice_shuffled'] == 'corgipile', d['choice_shuffled']
assert d['recluster_within_budget'], d
" || { echo "$SMOKE/BENCH_planner.json failed the planner gate"; exit 1; }

banner "Ingest + continuous training (concurrent INSERT/TRAIN, table-WAL crash matrix)"
cargo test --release --test ingest_train

banner "Ingest bench (smoke scale)"
# Gated: TRAIN … CONTINUOUS must reach the retrain-from-scratch arm's
# final loss with measurably less device I/O on the same drift schedule,
# and the continuous rerun must stay bit-identical.
CORGI_INGEST_TUPLES=2000 CORGI_INGEST_EPOCHS=3 CORGI_INGEST_ROWS=2000 CORGI_INGEST_BATCH=100 \
  cargo run --release -p corgipile-bench --bin corgi-bench -- ingest
python3 -c "
import json
d = json.load(open('$SMOKE/BENCH_ingest.json'))
assert d['drift']['continuous_io_bytes'] < d['drift']['retrain_io_bytes'], d['drift']
assert d['continuous_reaches_target'], d['drift']
assert d['bit_identical_all'], 'continuous rerun diverged'
" || { echo "$SMOKE/BENCH_ingest.json failed the ingest gate"; exit 1; }

banner "CI gate passed"
