#!/usr/bin/env bash
# Smoke of the benchmark harness: the self-tests, then every workload
# with a 2 s window, untraced and traced. Checks that the harness runs,
# that every operation succeeds and every output check holds — not the
# timings (a 2 s window resolves nothing). Not wired into ci.yml yet:
# ISSUE 11 may only add files under benchmark/.
#
# Run from the repository root: bash benchmark/ci.sh
set -euo pipefail

cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

target="${CARGO_TARGET_DIR:-benchmark/target}"
for workload in flow_cold soc_ingest serve_warm cluster_resume; do
    for trace in 0 1; do
        last="$("$target/release/asicgap-benchmark" \
            --workload "$workload" --seed 11 --seconds 2 --trace "$trace" | tail -n 1)"
        case "$last" in
        '{"correct":true,'*'"failed":0,'*) echo "ok   $workload trace=$trace" ;;
        *)
            echo "FAIL $workload trace=$trace: $last" >&2
            exit 1
            ;;
        esac
    done
done
if pgrep -x served >/dev/null || pgrep -x router >/dev/null; then
    echo "FAIL a served/router child is still running" >&2
    exit 1
fi
echo "benchmark smoke: PASS"
