#!/usr/bin/env bash
# Verify the workspace builds and tests fully offline and depends on nothing
# outside the tree: Cargo.lock and the resolved dependency graph must contain
# only sentinel-* packages. See README.md "Building" for the policy.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== offline release build =="
cargo build --release --offline

echo "== offline test suite (every workspace test target) =="
cargo test -q --offline

echo "== abort property in release: the run-by-run abort matches the per-page reference =="
# The suite above runs this property in debug at the harness's 96 cases. In
# release, 200,000 cases take about 10 s on a 2-vCPU host.
SENTINEL_PROP_CASES=200000 cargo test --release --offline -q -p sentinel-mem \
    --test access_equivalence_prop abort_matches_the_per_page_reference

echo "== rustdoc: public docs build without warnings (dangling links fail) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== clippy: every workspace target lints without warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

repo_root=$PWD
trace_tmp=$(mktemp -d)
trap 'rm -rf "$trace_tmp"' EXIT

echo "== chaos smoke: fixed-seed faulty run reproduces results/chaos.json =="
# Run from a scratch cwd: the runner writes a relative results/ directory,
# which must not touch the committed results.
( cd "$trace_tmp" && SENTINEL_FAULT_SEED=0xFA17 SENTINEL_FAULT_PROFILE=light \
    "$repo_root/target/release/run_experiments" --fast --jobs 2 chaos )
if ! cmp "$trace_tmp/results/chaos.json" results/chaos.json; then
    echo "FAIL: the chaos smoke did not reproduce results/chaos.json" >&2
    exit 1
fi

echo "== full-mode goldens: a full run reproduces the committed results =="
# The committed results/*.json and EXPERIMENTS_GENERATED.md are the
# behaviour contract, and perfbench's gate covers fast mode only. A full run
# in its own scratch cwd must rewrite each file it writes byte-identically.
golden_tmp="$trace_tmp/golden"
mkdir "$golden_tmp"
( cd "$golden_tmp" && "$repo_root/target/release/run_experiments" --jobs 2 > /dev/null )
for out in "$golden_tmp"/results/*.json "$golden_tmp/EXPERIMENTS_GENERATED.md"; do
    committed=${out#"$golden_tmp"/}
    if ! cmp "$out" "$committed"; then
        echo "FAIL: the full run changed $committed" >&2
        exit 1
    fi
done

echo "== trace smoke: --trace-dir emits Chrome trace files =="
( cd "$trace_tmp" && \
    "$repo_root/target/release/run_experiments" --fast --jobs 2 --trace-dir traces fig7 )
trace_count=$(find "$trace_tmp/traces" -name '*.trace.json' | wc -l)
if [[ "$trace_count" -lt 1 ]]; then
    echo "FAIL: --trace-dir produced no trace files" >&2
    exit 1
fi

echo "== cluster smoke: seeded 3-tenant trace under quota pressure =="
# Scratch cwd again: fast-mode results must not clobber the committed ones.
( cd "$trace_tmp" && "$repo_root/target/release/run_experiments" --fast --jobs 2 cluster )
if [[ ! -s "$trace_tmp/results/cluster.json" ]]; then
    echo "FAIL: cluster smoke wrote no results/cluster.json" >&2
    exit 1
fi

echo "== runner flags: an unknown flag exits 2 instead of becoming a filter =="
flag_status=0
( cd "$trace_tmp" && "$repo_root/target/release/run_experiments" --tenants 3 cluster ) \
    > /dev/null 2>&1 || flag_status=$?
if [[ "$flag_status" -ne 2 ]]; then
    echo "FAIL: run_experiments --tenants 3 cluster exited $flag_status, expected 2" >&2
    exit 1
fi

echo "== adaptive smoke: mid-run co-tenant arrival, all three arms =="
# Scratch cwd again: fast-mode results must not clobber the committed ones.
( cd "$trace_tmp" && \
    "$repo_root/target/release/run_experiments" --fast --jobs 2 adaptive )
if [[ ! -s "$trace_tmp/results/adaptive.json" ]]; then
    echo "FAIL: adaptive smoke wrote no results/adaptive.json" >&2
    exit 1
fi

echo "== daemon smoke: ephemeral port, plan query, streamed run, clean exit =="
daemon_log="$trace_tmp/sentineld.log"
"$repo_root/target/release/sentineld" --addr 127.0.0.1:0 --workers 2 \
    > "$daemon_log" 2>&1 &
daemon_pid=$!
daemon_addr=""
for _ in $(seq 1 100); do
    daemon_addr=$(sed -n 's/^sentineld listening on //p' "$daemon_log")
    [[ -n "$daemon_addr" ]] && break
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
        echo "FAIL: sentineld died before binding:" >&2
        cat "$daemon_log" >&2
        exit 1
    fi
    sleep 0.1
done
if [[ -z "$daemon_addr" ]]; then
    echo "FAIL: sentineld never reported its address" >&2
    kill "$daemon_pid" 2>/dev/null || true
    exit 1
fi
query="$repo_root/target/release/sentinel_query"
body='{"model":{"family":"resnet","depth":32,"batch":8,"scale":4},"machine":{"fast_fraction":0.2},"steps":4}'
plan_out=$("$query" "$daemon_addr" plan "$body")
if [[ "$plan_out" != *'"type":"plan"'* || "$plan_out" != *'"mil":'* ]]; then
    echo "FAIL: plan query returned: $plan_out" >&2
    kill "$daemon_pid" 2>/dev/null || true
    exit 1
fi
run_out=$("$query" "$daemon_addr" run "$body")
step_count=$(grep -c '"type":"step"' <<< "$run_out" || true)
if [[ "$step_count" -ne 4 || "$run_out" != *'"type":"run_complete"'* ]]; then
    echo "FAIL: streamed run returned $step_count step frames: $run_out" >&2
    kill "$daemon_pid" 2>/dev/null || true
    exit 1
fi
"$query" "$daemon_addr" shutdown > /dev/null
# A clean `wait` proves every worker thread was joined — the scoped pool
# cannot return with threads still alive, so exit 0 == no stray threads.
if ! wait "$daemon_pid"; then
    echo "FAIL: sentineld did not shut down cleanly:" >&2
    cat "$daemon_log" >&2
    exit 1
fi

echo "== perfbench unit tests =="
# perfbench is a package of its own, so the workspace test run above does not
# build it; --release reuses the build the gate below runs.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== perfbench gate: simulated output matches the stored references =="
# One short run per workload. The last line of perfbench's output is its
# result; every operation must match perfbench/refs.json. The traced
# sentineld-mix run also sends every streamed step frame through the codec
# and back (each must decode equal to what was written), and requires its
# traced training reports to equal the untraced ones. The traced deep-plan
# run rebuilds `Schedule::new` on its own, checks `solve_mil` against the
# run's plan, and requires its hook-wrapped training reports to equal the
# untraced ones. The traced zoo-steady run drives the steps that the cache
# filter replays through the same hook wrapper, and requires its reports to
# equal untraced `SentinelRuntime::train`.
for run in zoo-steady:0 deep-plan:0 sentineld-mix:0 experiments-fast:0 sentineld-mix:1 deep-plan:1 zoo-steady:1; do
    workload=${run%:*}
    trace=${run#*:}
    if ! bench_out=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml \
            -- --workload "$workload" --seed 0 --seconds 1 --trace "$trace"); then
        echo "FAIL: perfbench $workload --trace $trace exited with an error" >&2
        exit 1
    fi
    result=$(tail -n 1 <<< "$bench_out")
    if [[ "$result" != *'"correct":true'* || "$result" != *'"failed":0,'* ]]; then
        echo "FAIL: perfbench $workload --trace $trace: $result" >&2
        exit 1
    fi
    echo "$workload --trace $trace: ${result%%,\"metrics\"*}}"
done

echo "== dependency closure is sentinel-* only =="
bad_lock=$(grep '^name = ' Cargo.lock | grep -v '"sentinel' || true)
if [[ -n "$bad_lock" ]]; then
    echo "FAIL: non-sentinel packages in Cargo.lock:" >&2
    echo "$bad_lock" >&2
    exit 1
fi
bad_tree=$(cargo tree --workspace --offline --prefix none | awk '{print $1}' \
    | sort -u | grep -v '^sentinel' || true)
if [[ -n "$bad_tree" ]]; then
    echo "FAIL: non-sentinel packages in cargo tree:" >&2
    echo "$bad_tree" >&2
    exit 1
fi

echo "OK: hermetic (build + tests offline, sentinel-* packages only)"
