#!/bin/sh
# CI gate for the CSCNN reproduction. Mirrors the verify ritual described
# in README.md: format check (when rustfmt is installed), the workspace
# invariant linter (docs/static_analysis.md), release build, test suite,
# and a warning-free rustdoc build. Fails fast on the first broken stage.
set -eu

cd "$(dirname "$0")"

if cargo fmt --version >/dev/null 2>&1; then
    echo "== cargo fmt --check"
    cargo fmt --all --check
else
    echo "== cargo fmt not installed; skipping format check"
fi

echo "== cscnn-lint"
cargo run -q -p cscnn-lint -- --format json

echo "== cargo build --release"
cargo build --workspace --release

echo "== benches compile (cargo test does not build them)"
cargo build --release --benches -p cscnn-bench

echo "== cargo test"
cargo test --workspace -q

echo "== property suites across fixed seeds"
for seed in 1 17 4242; do
    echo "-- CSCNN_PROP_SEED=$seed"
    CSCNN_PROP_SEED="$seed" cargo test -q -p cscnn \
        --test property_ir_topology \
        --test property_simulator \
        --test property_invariants \
        --test property_kernels
done

echo "== kernel determinism across thread counts"
for threads in 1 4; do
    echo "-- CSCNN_NUM_THREADS=$threads"
    CSCNN_NUM_THREADS="$threads" cargo test -q -p cscnn \
        --test property_kernels
done

echo "== suite pool determinism across thread counts"
for threads in 1 4; do
    echo "-- CSCNN_NUM_THREADS=$threads"
    CSCNN_NUM_THREADS="$threads" cargo test -q -p cscnn-sim --lib runner
    CSCNN_NUM_THREADS="$threads" cargo test -q -p cscnn-sim --lib batch
    CSCNN_NUM_THREADS="$threads" cargo test -q -p cscnn --test integration_sim
    CSCNN_NUM_THREADS="$threads" cargo test -q -p cscnn --test integration_batch
    CSCNN_NUM_THREADS="$threads" cargo test -q -p cscnn --test golden_eval
done

echo "== kernels bench smoke run (schema check)"
cargo run -q --release -p cscnn-bench --bin kernels -- --smoke

echo "== perfbench smoke test"
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "== perfbench Fig. 7 suite against the committed digests"
for seed in 42 7; do
    echo "-- seed $seed"
    cargo run -q --release --manifest-path perfbench/Cargo.toml --bin perfbench -- \
        --workload eval_suite --seed "$seed" --seconds 0 --trace 0
done

echo "== perfbench mobile_cnn training against the committed digests"
for seed in 42 7; do
    echo "-- seed $seed"
    cargo run -q --release --manifest-path perfbench/Cargo.toml --bin perfbench -- \
        --workload train_mobile --seed "$seed" --seconds 0 --trace 0
done

echo "== cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== ci.sh: all stages passed"
