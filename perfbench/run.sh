#!/usr/bin/env bash
# Builds the benchmark and the program binaries it drives from source,
# then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the result object. Build products land in
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --manifest-path Cargo.toml \
    -p clre --bin clre-exec-worker -p clre-serve --bin clre-server 1>&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml 1>&2
export PERFBENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
# Never look above the checkout for a repository that is not this one.
export PERFBENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/clre-perfbench" "$@"
