#!/usr/bin/env bash
# Stage: perfbench — compiles the repository benchmark (perfbench/, a
# workspace of its own built through path dependencies) and runs its
# tests. No other stage builds it, so without this stage a workspace
# change that deletes or renames an API the benchmark imports would go
# unnoticed until the benchmark itself is run.
#
# The build goes to .bench_build, the target directory perfbench/run.py
# uses, so a later benchmark run reuses it.
set -euo pipefail
cd "$(dirname "$0")/../.."

CARGO_TARGET_DIR=.bench_build \
  cargo test --release --offline --manifest-path perfbench/Cargo.toml
