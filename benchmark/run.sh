#!/usr/bin/env bash
# The benchmark's one entry point for people. Builds the package (release,
# offline) and runs it from the repository root.
#
#   benchmark/run.sh                   same as `all`
#   benchmark/run.sh all               every workload: untraced (end to end), then traced (per layer)
#   benchmark/run.sh <workload>        one of live_locate_steady, live_move_mix, live_rehash_churn, sim_scale
#   benchmark/run.sh probes            the layer probes alone (a few seconds)
#   benchmark/run.sh --quick           smoke test of everything at a tenth of the size, about 20 s
#   benchmark/run.sh --repeat 2        two full sets, printed side by side with each metric's bound;
#                                      exits non-zero if an end-to-end metric disagrees beyond it
#   benchmark/run.sh manifest          BENCHMARK.json as generated from the metric tables
#
# Options after the command: --seed <n> (default 4606), --seconds <s>, --quick, --repeat <n>.
# The acceptance driver's form works too:
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Exit code: 0 all correct, 1 a wrong answer or a broken invariant or a
# disagreement between repeated sets, 2 the run itself failed.
set -euo pipefail
cd "$(dirname "$0")/.."

args=("$@")
case "${1:-}" in
  "") args=(all) ;;
  --workload) ;;
  -*) args=(all "$@") ;;
esac

exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "${args[@]}"
