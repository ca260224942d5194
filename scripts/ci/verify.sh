#!/usr/bin/env bash
# Staged offline verification driver for the hermetic APOTS workspace.
#
# Every stage is a standalone script in scripts/ci/ (stage `foo-bar` →
# scripts/ci/foo_bar.sh) that can also be run directly. This driver runs
# them in order with per-stage wall-clock timing, stops at the first
# failure (fail-fast), and always prints a stage summary table.
#
# Usage:
#   scripts/ci/verify.sh                 # run every stage
#   scripts/ci/verify.sh --stage lint    # run one stage (repeatable)
#   scripts/ci/verify.sh --list-stages   # list stage names (alias: --list)
#
# Besides the human-readable summary table, the driver writes the
# per-stage timings as strict JSON (schema apots-ci-timings) to
# results/ci_timings.json via `apots ci-timings`, so CI can upload them
# as an artifact next to the BENCH_*.json files.
#
# The workspace carries zero external dependencies (DESIGN.md §6), so
# everything here must succeed with the network disabled.

set -uo pipefail
cd "$(dirname "$0")/../.."

STAGES=(build test-serial test-parallel determinism robustness faults memory serve scenario perfbench bench-smoke bench-gate lint hermeticity)

usage() {
  echo "usage: scripts/ci/verify.sh [--stage NAME]... [--list-stages]"
  echo "stages: ${STAGES[*]}"
}

selected=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --stage)
      [[ $# -ge 2 ]] || { echo "--stage needs a name" >&2; exit 2; }
      selected+=("$2"); shift 2 ;;
    --list-stages|--list) printf '%s\n' "${STAGES[@]}"; exit 0 ;;
    -h|--help) usage; exit 0 ;;
    *) echo "unknown option $1" >&2; usage >&2; exit 2 ;;
  esac
done
[[ ${#selected[@]} -eq 0 ]] && selected=("${STAGES[@]}")

for s in "${selected[@]}"; do
  if [[ ! -f "scripts/ci/${s//-/_}.sh" ]]; then
    echo "unknown stage ${s@Q} (see --list)" >&2
    exit 2
  fi
done

names=(); times=(); stats=()
overall=0
for s in "${selected[@]}"; do
  echo
  echo "== stage: $s =="
  start=$SECONDS
  if bash "scripts/ci/${s//-/_}.sh"; then
    st=ok
  else
    st=FAIL
    overall=1
  fi
  names+=("$s"); times+=($((SECONDS - start))); stats+=("$st")
  if [[ $st == FAIL ]]; then
    echo "stage $s failed — stopping (fail-fast)" >&2
    break
  fi
done

echo
echo "── stage summary ──────────────────"
printf '%-14s %8s  %s\n' "stage" "seconds" "status"
for i in "${!names[@]}"; do
  printf '%-14s %8d  %s\n' "${names[$i]}" "${times[$i]}" "${stats[$i]}"
done

# Machine-readable per-stage timings (schema apots-ci-timings), written
# through the CLI's apots-serde emitter so CI can upload them as an
# artifact. Stage lines accumulate in results/ci_timings.log across
# invocations (CI runs one stage per step, same workspace), keeping the
# latest entry per stage, so the JSON always covers every stage run so
# far. Best-effort: a summary-write failure must not mask (or fabricate)
# a stage result.
if [[ ${#names[@]} -gt 0 ]]; then
  mkdir -p results
  for i in "${!names[@]}"; do
    st=ok; [[ ${stats[$i]} == FAIL ]] && st=fail
    echo "${names[$i]}:${times[$i]}:${st}" >> results/ci_timings.log
  done
  mapfile -t entries < <(tac results/ci_timings.log | awk -F: '!seen[$1]++' | tac)
  if cargo build -p apots-cli --release --offline >/dev/null 2>&1 &&
     target/release/apots ci-timings "${entries[@]}" --out results/ci_timings.json; then
    :
  else
    echo "warning: could not write results/ci_timings.json" >&2
  fi
fi

if [[ $overall -ne 0 ]]; then
  echo "verify: FAILED" >&2
  exit 1
fi
echo "verify: all selected stages green"
