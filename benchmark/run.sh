#!/usr/bin/env bash
# Build the benchmark and print every metric of every workload by name, with
# its unit and kind (host/model), under a header naming commit, rustc, core
# count and seed. Arguments go to `sqo-benchmark suite`:
#   benchmark/run.sh                      the full suite (about two minutes)
#   benchmark/run.sh --smoke              wiring check, whole suite < 10 s
#   benchmark/run.sh --seed 4242          the hold-out seed
#   benchmark/run.sh --out base.json      keep a document for `compare`
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
exec cargo run --release --quiet --offline --manifest-path "$here/Cargo.toml" -- suite "$@"
