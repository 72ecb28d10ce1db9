#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, and the full test suite.
#
# Offline-safe by construction — every cargo invocation passes
# --offline, so the script never reaches for the network. All
# dependencies are either workspace crates or the vendored stubs in
# third_party/; nothing needs to be downloaded.
#
# Usage: scripts/ci.sh [--no-clippy]
#   --no-clippy   skip the lint pass (useful on toolchains without
#                 the clippy component)

set -euo pipefail
cd "$(dirname "$0")/.."

run_clippy=1
for arg in "$@"; do
    case "$arg" in
        --no-clippy) run_clippy=0 ;;
        *)
            echo "unknown option: $arg" >&2
            exit 2
            ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

if [ "$run_clippy" -eq 1 ]; then
    if cargo clippy --version >/dev/null 2>&1; then
        echo "==> cargo clippy (workspace, all targets, -D warnings)"
        cargo clippy --offline --workspace --all-targets -- -D warnings
    else
        echo "==> cargo clippy unavailable on this toolchain; skipping" >&2
    fi
fi

echo "==> cargo test (workspace)"
# Property suites run on a pinned stream: a CI failure log then names
# the exact case stream, reproducible locally with the same seed.
# (0x9e3779b97f4a7c15 is also the stub's built-in default.)
export PROPTEST_SEED=0x9e3779b97f4a7c15
cargo test --offline --workspace -q

echo "==> perfbench: build and test the benchmark against the library API"
# perfbench/ is a package of its own (not a workspace member), so the
# workspace build above does not see it. Building it here makes a cut
# to the public library surface that breaks the benchmark fail the
# gate; --locked keeps its lock file unchanged.
cargo test --release --offline --locked -q --manifest-path perfbench/Cargo.toml

echo "==> telemetry smoke: table2 --quick --json --jobs 2"
smoke_json="target/ci_smoke_report.json"
smoke_trace="target/ci_smoke_trace.jsonl"
cargo build --offline -q -p nvff-bench --bin table2 -p telemetry --example validate
# --jobs 2 exercises the parallel sweep path: the run report gains its
# parallel.* section and the JSONL trace carries per-worker job spans.
NVFF_TRACE="jsonl:$smoke_trace" \
    cargo run --offline -q -p nvff-bench --bin table2 -- --quick --json "$smoke_json" --jobs 2 \
    >/dev/null
# Validate both outputs with the telemetry crate's own JSON reader — no
# external JSON tooling, keeping the gate offline-safe.
cargo run --offline -q -p telemetry --example validate -- "$smoke_json"
cargo run --offline -q -p telemetry --example validate -- "$smoke_trace"

echo "==> metrics smoke: table2 --quick --jobs 2 --serve 127.0.0.1:0"
# The /metrics sidecar and the chrome trace exporter, end to end: run
# table2 with an OS-assigned port, scrape /healthz and /metrics with the
# serve crate's own zero-dependency client, check the exposition carries
# the solver counters and the closed root span, then release the linger
# via /quitquitquit. The chrome trace must parse as one JSON document.
chrome_trace="target/ci_smoke_chrome.json"
serve_addr_file="target/ci_smoke_serve_addr"
metrics_out="target/ci_smoke_metrics.txt"
rm -f "$serve_addr_file"
cargo build --offline -q -p nvff-bench --bin table2 -p serve --example scrape
NVFF_TRACE="chrome:$chrome_trace" \
    cargo run --offline -q -p nvff-bench --bin table2 -- --quick --jobs 2 \
    --serve 127.0.0.1:0 --serve-addr-file "$serve_addr_file" --serve-linger 60 \
    >/dev/null 2>&1 &
serve_pid=$!
for _ in $(seq 1 300); do
    [ -s "$serve_addr_file" ] && break
    sleep 0.1
done
[ -s "$serve_addr_file" ] || {
    echo "serve sidecar never wrote its bound address" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
}
serve_addr="$(cat "$serve_addr_file")"
cargo run --offline -q -p serve --example scrape -- "$serve_addr" /healthz \
    | grep -qx "ok" || {
    echo "/healthz did not answer ok" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
}
# Poll until the root span has closed — i.e. the run is done and only
# lingering for us — so the scrape sees the final counter totals.
scraped=0
for _ in $(seq 1 600); do
    if cargo run --offline -q -p serve --example scrape -- "$serve_addr" /metrics \
        > "$metrics_out" 2>/dev/null \
        && grep -q 'nvff_span_seconds_count{path="table2"}' "$metrics_out"; then
        scraped=1
        break
    fi
    sleep 0.2
done
[ "$scraped" -eq 1 ] || {
    echo "metrics scrape never showed the closed table2 root span" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
}
grep -q '^nvff_wall_seconds ' "$metrics_out" || {
    echo "scrape is missing the nvff_wall_seconds gauge" >&2
    exit 1
}
grep -q '^nvff_sweep_jobs_total ' "$metrics_out" || {
    echo "scrape is missing the sweep job counter" >&2
    exit 1
}
grep -q '^nvff_spice_newton_delta_bucket{' "$metrics_out" || {
    echo "scrape is missing the Newton-delta histogram" >&2
    exit 1
}
grep -q '_bucket{le="+Inf"} ' "$metrics_out" || {
    echo "scrape has no terminal +Inf histogram bucket" >&2
    exit 1
}
cargo run --offline -q -p serve --example scrape -- "$serve_addr" /quitquitquit >/dev/null
wait "$serve_pid"
# The chrome trace is finalized by the binary's telemetry::finish().
cargo run --offline -q -p telemetry --example validate -- "$chrome_trace"
grep -q '"traceEvents"' "$chrome_trace" || {
    echo "chrome trace is missing the traceEvents array" >&2
    exit 1
}

echo "==> family smoke: family --quick --json (n = 1, 2, 4)"
# The cell-family bench characterizes the generator's n-bit words and
# flattens each word's subcircuit twice, so the validated report must
# carry the shared-StampPlan counters (spice.subckt.plan_reuses > 0).
family_json="target/ci_family_report.json"
cargo run --offline -q -p nvff-bench --bin family -- --quick --json "$family_json" \
    >/dev/null
cargo run --offline -q -p telemetry --example validate -- "$family_json"
grep -q '"spice.subckt.plan_reuses"' "$family_json" || {
    echo "family report is missing the shared-plan counters" >&2
    exit 1
}

echo "==> solver smoke: table2 --quick, sparse vs dense agreement"
# The same characterization under both LU engines must print the same
# physics. Newton-iteration counts may legitimately differ by an ulp of
# convergence, so solver-work lines are filtered before the diff.
sparse_out="target/ci_smoke_sparse.txt"
dense_out="target/ci_smoke_dense.txt"
cargo run --offline -q -p nvff-bench --bin table2 -- --quick --jobs 2 \
    | grep -iv "newton\|iterations" > "$sparse_out"
NVFF_SOLVER=dense \
    cargo run --offline -q -p nvff-bench --bin table2 -- --quick --jobs 2 \
    | grep -iv "newton\|iterations" > "$dense_out"
if ! diff -u "$dense_out" "$sparse_out"; then
    echo "sparse and dense solver engines disagree on table2 --quick" >&2
    exit 1
fi

echo "==> service smoke: nvff-serve, cached characterization round trip"
# The characterization service end to end over a real socket: boot
# nvff-serve on an OS-assigned port, post the same request twice, and
# require (a) byte-identical response bodies — the content-addressed
# cache contract — and (b) the serve.cache.hits counter advancing in
# /metrics between the two calls. Same zero-dependency client as the
# metrics smoke (the serve crate's scrape example grows a POST mode).
ch_addr_file="target/ci_chserve_addr"
ch_request="target/ci_chserve_request.json"
ch_first="target/ci_chserve_first.json"
ch_second="target/ci_chserve_second.json"
ch_metrics="target/ci_chserve_metrics.txt"
rm -f "$ch_addr_file"
cargo build --offline -q -p serve --bin nvff-serve --example scrape
printf '{"variant": "standard", "analysis": "read"}\n' > "$ch_request"
cargo run --offline -q -p serve --bin nvff-serve -- 127.0.0.1:0 \
    --addr-file "$ch_addr_file" >/dev/null 2>&1 &
ch_pid=$!
for _ in $(seq 1 300); do
    [ -s "$ch_addr_file" ] && break
    sleep 0.1
done
[ -s "$ch_addr_file" ] || {
    echo "nvff-serve never wrote its bound address" >&2
    kill "$ch_pid" 2>/dev/null || true
    exit 1
}
ch_addr="$(cat "$ch_addr_file")"
cargo run --offline -q -p serve --example scrape -- "$ch_addr" /v1/characterize "$ch_request" \
    > "$ch_first"
hits_before="$(cargo run --offline -q -p serve --example scrape -- "$ch_addr" /metrics \
    | awk '/^nvff_serve_cache_hits_total /{print $2}')"
cargo run --offline -q -p serve --example scrape -- "$ch_addr" /v1/characterize "$ch_request" \
    > "$ch_second"
hits_after="$(cargo run --offline -q -p serve --example scrape -- "$ch_addr" /metrics \
    > "$ch_metrics"; awk '/^nvff_serve_cache_hits_total /{print $2}' "$ch_metrics")"
cargo run --offline -q -p serve --example scrape -- "$ch_addr" /quitquitquit >/dev/null
wait "$ch_pid"
if ! cmp -s "$ch_first" "$ch_second"; then
    echo "cached characterization response is not byte-identical to the first" >&2
    diff "$ch_first" "$ch_second" >&2 || true
    exit 1
fi
grep -q '"schema":"nvff-characterize/1"' "$ch_first" || {
    echo "characterize response is missing the schema marker" >&2
    exit 1
}
[ "${hits_after:-0}" -gt "${hits_before:-0}" ] || {
    echo "serve.cache.hits did not advance across the repeated request" >&2
    exit 1
}

echo "==> step-control smoke: table2 --quick, adaptive vs fixed agreement"
# The LTE-controlled default and the legacy uniform grid must report the
# same physics on the quick characterization. Waveform-derived numbers
# (threshold-crossing delays, energy integrals, latencies quantized by
# the sample grid) legitimately move by a few percent between
# discretizations, so numeric tokens compare with a 5 % relative
# tolerance while all non-numeric text — table structure, restore/store
# outcomes, pass/fail verdicts — must match exactly.
adaptive_out="target/ci_smoke_adaptive.txt"
fixed_out="target/ci_smoke_fixed.txt"
cargo run --offline -q -p nvff-bench --bin table2 -- --quick --jobs 2 \
    | grep -iv "newton\|iterations\|steps" > "$adaptive_out"
NVFF_TRANSIENT=fixed \
    cargo run --offline -q -p nvff-bench --bin table2 -- --quick --jobs 2 \
    | grep -iv "newton\|iterations\|steps" > "$fixed_out"
if ! awk '
    function isnum(s) { return s ~ /^-?[0-9]+([.][0-9]+)?$/ }
    { a_line = $0
      if ((getline b_line < fixed) <= 0) { print "fixed output shorter at line " NR; exit 1 }
      na = split(a_line, at, /[[:space:]]+/); nb = split(b_line, bt, /[[:space:]]+/)
      if (na != nb) { print "token count differs on line " NR ": [" a_line "] vs [" b_line "]"; exit 1 }
      for (i = 1; i <= na; i++) {
          if (isnum(at[i]) && isnum(bt[i])) {
              d = at[i] - bt[i]; if (d < 0) d = -d
              m = at[i] < 0 ? -at[i] : at[i]; n = bt[i] < 0 ? -bt[i] : bt[i]
              if (n > m) m = n
              if (d > 0.05 * m + 1e-9) {
                  print "numeric drift beyond 5% on line " NR ": " at[i] " vs " bt[i]; exit 1
              }
          } else if (at[i] != bt[i]) {
              print "text differs on line " NR ": [" at[i] "] vs [" bt[i] "]"; exit 1
          }
      }
    }
    END { if ((getline b_line < fixed) > 0) { print "fixed output longer"; exit 1 } }
' fixed="$fixed_out" "$adaptive_out"; then
    echo "adaptive and fixed transient engines disagree on table2 --quick" >&2
    exit 1
fi

echo "==> step-control bench: adaptive_transient recorded in BENCH_report.json"
# The report binary times the proposed-latch restore under both step
# policies and records the step-count ratio. CI runs the report so
# BENCH_report.json always carries the adaptive_transient section.
cargo run --offline -q --release -p nvff-bench --bin report -- --json target/BENCH_report.json \
    >/dev/null
cargo run --offline -q -p telemetry --example validate -- target/BENCH_report.json
# The report also drives the characterization service over loopback;
# its section must record the cold/warm/coalesced phases.
grep -q '"warm_over_cold"' target/BENCH_report.json || {
    echo "BENCH report is missing the chserve section" >&2
    exit 1
}
# And the lane-batched Monte-Carlo comparison: the simd_mc section
# carries the lanes-vs-threads speedup and the bit-identity verdict.
grep -q '"speedup_vs_threads"' target/BENCH_report.json || {
    echo "BENCH report is missing the simd_mc section" >&2
    exit 1
}
# And the rare-event shmoo: the rare_event section carries the deep-tail
# estimate with its samples-to-target-variance comparison against brute
# force, plus the shallow-regime cross-check verdict.
grep -q '"rare_event"' target/BENCH_report.json || {
    echo "BENCH report is missing the rare_event section" >&2
    exit 1
}
grep -q '"bf_equivalent_trials"' target/BENCH_report.json || {
    echo "rare_event section is missing the brute-force-equivalence metric" >&2
    exit 1
}

echo "==> lane-batched WER smoke: every lane width x jobs diffs exactly against scalar"
# The differential mode reruns the WER grid for every supported lane
# width x worker count (lanes=1 vs lanes=N included) and exits nonzero
# on any divergence from the scalar serial reference.
cargo run --offline -q --release -p nvff-bench --bin simd_mc -- --check

echo "==> rare-event smoke: mini shmoo with brute-force cross-check"
# The differential mode runs the quick surface (shallow cross-check
# regime + deep tail), requires the variation-aware brute-force point to
# land inside the importance sampler's 99% confidence interval, the deep
# tail to resolve inside its sample budget, and the tilted sampler to
# stay bit-identical across a jobs x lanes sweep. The statistically
# verified differential suite itself (tests/rare_event.rs, plus the
# proptested weight/ESS laws in tests/properties.rs) already ran above
# under the pinned PROPTEST_SEED.
cargo run --offline -q --release -p nvff-bench --bin shmoo -- --quick --check
shmoo_json="target/ci_shmoo_report.json"
cargo run --offline -q --release -p nvff-bench --bin shmoo -- --quick --json "$shmoo_json" \
    >/dev/null
cargo run --offline -q -p telemetry --example validate -- "$shmoo_json"
grep -q '"rare_event"' "$shmoo_json" || {
    echo "shmoo report is missing the rare_event section" >&2
    exit 1
}
grep -q '"crosscheck_agrees":1' "$shmoo_json" || {
    echo "shmoo cross-check did not agree with brute force" >&2
    exit 1
}

echo "==> tier-1 gate passed"
