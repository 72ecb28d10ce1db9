#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, docs, and the full test suite.
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

echo "==> cargo doc (workspace, rustdoc warnings denied)"
# Broken, ambiguous or redundant intra-doc links and public docs that
# link private items fail here. RUSTDOCFLAGS reaches rustdoc only, so
# the rustc warning about the config's prefer-256-bit target feature
# stays a warning.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace -q

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

echo "==> ISA independence: table2, table3, table3 --full, fig9, ablations, shmoo --quick and margins, x86-64 baseline build vs native build"
# .cargo/config.toml builds for the host CPU and lets the autovectorizer
# turn the batched MOSFET kernel into SIMD. The kernel is IEEE f64
# arithmetic without FP contraction or libm calls, so a build for the
# SSE2 baseline must print the same Table II bytes over all 9 corners
# (a release run takes about a tenth of a second). The same holds for
# Table III's measured flow (generate, place, merge at the 40k-gate
# cap, and uncapped with --full, whose b18 and b19 are the largest
# netlists the repository builds) and its replay, for the merge
# ablations (threshold sweep and degree-aware pairing over the same
# candidate sweep), for fig9 (which reads the generated names back through
# the merge transform), for the rare-event shmoo, whose tilted-draw
# and brute-force kernels run the same libm-free lane passes, and for
# margins, whose WER cross-check runs that brute force at zero
# variation. RUSTFLAGS
# replaces the config's rustflags; the separate target dir keeps the
# two builds apart.
isa_check() {
    local bin="$1"
    shift
    local native_out="target/ci_${bin}_native.txt"
    local baseline_out="target/ci_${bin}_x86-64.txt"
    cargo run --offline -q --release -p nvff-bench --bin "$bin" -- "$@" > "$native_out"
    RUSTFLAGS="-C target-cpu=x86-64" \
        cargo run --offline -q --release --target-dir target/x86-64-baseline \
        -p nvff-bench --bin "$bin" -- "$@" > "$baseline_out"
    if ! cmp -s "$native_out" "$baseline_out"; then
        echo "$bin $* differs between the native and the x86-64 baseline build" >&2
        diff "$native_out" "$baseline_out" >&2 || true
        exit 1
    fi
}
isa_check table2
isa_check table3
isa_check table3 --full
isa_check fig9
isa_check ablations
isa_check shmoo --quick
isa_check margins

echo "==> margins: the WER cross-check is the same at --jobs 1 and --jobs 2"
# The brute-force counts must not depend on the worker split. margins
# prints no worker count, so the whole output is compared.
margins_serial="target/ci_margins_jobs1.txt"
margins_split="target/ci_margins_jobs2.txt"
cargo run --offline -q --release -p nvff-bench --bin margins -- --jobs 1 >"$margins_serial"
cargo run --offline -q --release -p nvff-bench --bin margins -- --jobs 2 >"$margins_split"
if ! cmp -s "$margins_serial" "$margins_split"; then
    echo "margins differs between --jobs 1 and --jobs 2" >&2
    diff "$margins_serial" "$margins_split" >&2 || true
    exit 1
fi

echo "==> 512-bit codegen: the native release shmoo is built on zmm registers"
# .cargo/config.toml asks for full-width vectors with -prefer-256-bit,
# a target feature rustc does not list (every build warns about it).
# On an AVX-512 host the lane kernels in the release shmoo binary must
# then run on zmm registers. A few zmm instructions appear even without
# the flag (58 on a 2-vCPU AVX-512 Xeon, against 32,183 with it), so the
# gate is a floor well between the two rather than "any zmm at all".
# Skipped where objdump or AVX-512 is missing.
if command -v objdump >/dev/null 2>&1 && grep -qw avx512f /proc/cpuinfo 2>/dev/null; then
    zmm="$(objdump -d --no-show-raw-insn target/release/shmoo | grep -c zmm || true)"
    if [ "${zmm:-0}" -lt 1000 ]; then
        echo "release shmoo has only ${zmm:-0} zmm instructions on an AVX-512 host:" \
            "-prefer-256-bit no longer reaches the code generator" >&2
        exit 1
    fi
    echo "    $zmm zmm instructions"
fi

echo "==> Table III trace smoke: NVFF_TRACE=summary table3"
# The measured flow's per-layer spans and counters. The flow reads no
# instance or net name, so it must build none of a generated netlist's
# names (netlist.names_built stays 0), and tracing must not change its
# stdout.
table3_plain="target/ci_table3_plain.txt"
table3_traced="target/ci_table3_traced.txt"
table3_summary="target/ci_table3_summary.txt"
cargo run --offline -q --release -p nvff-bench --bin table3 > "$table3_plain" 2>/dev/null
NVFF_TRACE=summary cargo run --offline -q --release -p nvff-bench --bin table3 \
    > "$table3_traced" 2> "$table3_summary"
cmp -s "$table3_plain" "$table3_traced" || {
    echo "table3 stdout changes under NVFF_TRACE=summary" >&2
    exit 1
}
for span in netlist.generate place.place merge.plan; do
    grep -q "^  $span " "$table3_summary" || {
        echo "table3 trace is missing the $span span" >&2
        exit 1
    }
done
grep -Eq '^netlist\.names_built +0$' "$table3_summary" || {
    echo "the measured Table III flow built generated names" >&2
    exit 1
}

echo "==> Fig. 6 smoke: fig6 and fig6 --explicit"
# Drives both restore controllers of the proposed latch through
# restore_traces and store_traces from a binary, which no test suite
# does. Each run renders the waveforms and writes the CSVs.
cargo run --offline -q --release -p nvff-bench --bin fig6 >/dev/null
cargo run --offline -q --release -p nvff-bench --bin fig6 -- --explicit >/dev/null

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
# The cell-family bench characterizes the generator's n-bit words, so
# the validated report must carry the widest quick point's values.
family_json="target/ci_family_report.json"
cargo run --offline -q -p nvff-bench --bin family -- --quick --json "$family_json" \
    >/dev/null
cargo run --offline -q -p telemetry --example validate -- "$family_json"
grep -q '"n4.total_transistors":58' "$family_json" || {
    echo "family report is missing the 4-bit word's transistor count" >&2
    exit 1
}

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

echo "==> reproduction report: report --json"
# The report binary reruns the reproduction sections (table2, table3,
# robustness, family, rare_event) behind the committed
# BENCH_report.json; the output must validate as JSON.
cargo run --offline -q --release -p nvff-bench --bin report -- --json target/BENCH_report.json \
    >/dev/null
cargo run --offline -q -p telemetry --example validate -- target/BENCH_report.json
# The rare-event shmoo: the rare_event section carries the deep-tail
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

echo "==> rare-event smoke: mini shmoo with brute-force cross-check"
# The quick surface (shallow cross-check regime + deep tail) must report
# the variation-aware brute-force point inside the importance sampler's
# 99% confidence interval. The differential suite itself
# (tests/rare_event.rs, plus the proptested weight/ESS laws in
# tests/properties.rs) already ran above under the pinned PROPTEST_SEED.
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
# The sampler's worker split and lane width change no digit: a serial
# run at the default width and a two-worker 8-lane run print the same
# surface and cross-check. Line 1 names the worker count, so the comparison starts
# at line 2.
quick_serial="target/ci_shmoo_quick_jobs1.txt"
quick_split="target/ci_shmoo_quick_jobs2_lanes8.txt"
cargo run --offline -q --release -p nvff-bench --bin shmoo -- --quick --jobs 1 >"$quick_serial"
cargo run --offline -q --release -p nvff-bench --bin shmoo -- --quick --jobs 2 --lanes 8 \
    >"$quick_split"
if ! cmp <(tail -n +2 "$quick_serial") <(tail -n +2 "$quick_split"); then
    echo "shmoo --quick differs between --jobs 1 and --jobs 2 --lanes 8" >&2
    diff "$quick_serial" "$quick_split" >&2 || true
    exit 1
fi

echo "==> tier-1 gate passed"
