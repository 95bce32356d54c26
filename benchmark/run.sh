#!/usr/bin/env bash
# The one command. Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh                      full set: every workload in its own process,
#                                         both trace modes; writes benchmark/results/latest.json
#   benchmark/run.sh --seed 7             … from another seed (default 42)
#   benchmark/run.sh --check              two full sets; fails unless they agree
#   benchmark/run.sh component            the component pass alone, at a longer budget
#   benchmark/run.sh manifest             prints BENCHMARK.json
#   benchmark/run.sh interactions         prints benchmark/interactions.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run of one workload (the builder contract):
#                                         metric lines, then one JSON object as the last line
#
# Exits non-zero if the build fails, an op fails or is wrong, repetitions
# of one seed differ, or --check finds a disagreement.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the caller's directory, for
# cargo and for us alike.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/mirage-benchmark" --out "$here/results" "$@"
