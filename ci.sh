#!/usr/bin/env bash
# Repository CI gate: build, tests, lints, formatting.
#
#   ./ci.sh          # run everything
#   ./ci.sh analyze  # run only the static-analysis gate
#
# Workspace tests run in release because the embedding acceptance tests
# (crates/bench/tests/embedding_cache.rs) route on a C16 Chimera graph
# and are painfully slow unoptimized.
set -euo pipefail
cd "$(dirname "$0")"

# Golden tests rewrite their fixture and pass when QAC_UPDATE_GOLDEN is
# set (even to an empty value), so a run under it would bless any diff.
if [ -n "${QAC_UPDATE_GOLDEN+set}" ]; then
    echo "ERROR: QAC_UPDATE_GOLDEN is set; unset it so golden tests check their fixtures" >&2
    exit 1
fi

analyze_gate() {
    echo "==> analyze gate (static analyzer over the paper workloads)"
    # QAC_ANALYZE_STRICT=1 turns any Error-severity diagnostic into a
    # nonzero exit; the JSON export is then schema-checked.
    QAC_ANALYZE_STRICT=1 cargo run --release -q -p qac-bench --bin experiments -- \
        analyze --diagnostics-json "$tmpdir/diagnostics.json" > /dev/null
    cargo run --release -q -p qac-bench --bin telemetry_check -- \
        --diagnostics "$tmpdir/diagnostics.json"
}

if [ "${1:-}" = "analyze" ]; then
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' EXIT
    analyze_gate
    echo "==> ci.sh analyze: passed"
    exit 0
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1, root package)"
cargo test -q

echo "==> cargo test -q --workspace --release"
cargo test -q --workspace --release

echo "==> e2e benchmark tests (answer oracle, determinism, smoke)"
cargo test --release --offline --manifest-path e2e/Cargo.toml

echo "==> telemetry export smoke (JSONL + Prometheus round-trip)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cargo run --release -q -p qac-bench --bin experiments -- \
    figure2_3 --trace-json "$tmpdir/trace.jsonl" --metrics "$tmpdir/metrics.prom" \
    > /dev/null
# The routing-work budgets are machine-independent: the counters are
# deterministic per seed (figure2_3 currently routes with ~308k heap
# pops / ~1.8M edge relaxations / 11 rip-up iterations), so they only
# trip when the router algorithmically regresses, never because the CI
# host is slow. Budgets carry ~30% headroom over today's values.
cargo run --release -q -p qac-bench --bin telemetry_check -- \
    "$tmpdir/trace.jsonl" "$tmpdir/metrics.prom" \
    --counter-max qac_embed_heap_pops_total=400000 \
    --counter-max qac_embed_edge_relaxations_total=2400000 \
    --counter-max qac_route_iterations_total=20

echo "==> topology gate (per-fabric routing-work and embedding-size budgets)"
cargo run --release -q -p qac-bench --bin experiments -- \
    topology --trace-json "$tmpdir/topology.jsonl" --metrics "$tmpdir/topology.prom" \
    > /dev/null
# Same machine-independence argument as above, but per hardware family:
# the topology experiment routes figure2, circsat, australia and
# australia-unary on every supported fabric with seed 11 (australia is
# skipped on king), and each fabric gets its own labeled budgets, so a
# regression is pinned to the topology that regressed. Budgets carry
# ~30% headroom over today's values, chimera / pegasus / zephyr / king:
#   heap pops          7,388,323 / 1,111,696 / 979,967 / 75,351,550
#   edge relaxations   43,274,227 / 14,875,405 / 17,218,160 / 578,382,188
#   route iterations   114 / 42 / 38 / 667
#   physical qubits    593 / 263 / 241 / 295 (summed over the workloads)
#   max chain          15 / 5 / 6 / 24 (longest chain of any workload)
# Physical qubits and max chain are the §6 cost of a program on a
# fabric; the max-chain caps are floor(1.30 x today). The unlabeled
# route-iteration budget is the sum of the four labeled ones; since
# telemetry_check fails on a missing sample, it also checks that the
# topology experiment exports the unlabeled total.
cargo run --release -q -p qac-bench --bin telemetry_check -- \
    "$tmpdir/topology.jsonl" "$tmpdir/topology.prom" \
    --counter-max 'qac_embed_heap_pops_total{topology="chimera"}=9600000' \
    --counter-max 'qac_embed_edge_relaxations_total{topology="chimera"}=56000000' \
    --counter-max 'qac_route_iterations_total{topology="chimera"}=150' \
    --counter-max 'qac_embed_physical_qubits_total{topology="chimera"}=770' \
    --counter-max 'qac_embed_max_chain{topology="chimera"}=19' \
    --counter-max 'qac_embed_heap_pops_total{topology="pegasus"}=1500000' \
    --counter-max 'qac_embed_edge_relaxations_total{topology="pegasus"}=19000000' \
    --counter-max 'qac_route_iterations_total{topology="pegasus"}=55' \
    --counter-max 'qac_embed_physical_qubits_total{topology="pegasus"}=340' \
    --counter-max 'qac_embed_max_chain{topology="pegasus"}=6' \
    --counter-max 'qac_embed_heap_pops_total{topology="zephyr"}=1300000' \
    --counter-max 'qac_embed_edge_relaxations_total{topology="zephyr"}=22000000' \
    --counter-max 'qac_route_iterations_total{topology="zephyr"}=50' \
    --counter-max 'qac_embed_physical_qubits_total{topology="zephyr"}=315' \
    --counter-max 'qac_embed_max_chain{topology="zephyr"}=7' \
    --counter-max 'qac_embed_heap_pops_total{topology="king"}=98000000' \
    --counter-max 'qac_embed_edge_relaxations_total{topology="king"}=750000000' \
    --counter-max 'qac_route_iterations_total{topology="king"}=870' \
    --counter-max 'qac_embed_physical_qubits_total{topology="king"}=385' \
    --counter-max 'qac_embed_max_chain{topology="king"}=31' \
    --counter-max qac_route_iterations_total=1125

echo "==> topology gate self-test (a budget one below today's value must fail)"
for topology in chimera pegasus zephyr king; do
    for metric in qac_embed_physical_qubits_total qac_embed_max_chain; do
        sample="$metric{topology=\"$topology\"}"
        value="$(grep -F "$sample " "$tmpdir/topology.prom" | cut -d' ' -f2)"
        if cargo run --release -q -p qac-bench --bin telemetry_check -- \
            "$tmpdir/topology.jsonl" "$tmpdir/topology.prom" \
            --counter-max "$sample=$((value - 1))" > /dev/null 2>&1; then
            echo "ERROR: $sample = $value passed a budget of $((value - 1))" >&2
            exit 1
        fi
    done
done

echo "==> samplers gate (deterministic sweep/flip work budgets)"
cargo run --release -q -p qac-bench --bin experiments -- \
    samplers --trace-json "$tmpdir/samplers.jsonl" --metrics "$tmpdir/samplers.prom" \
    > /dev/null
# The sweep and flip counters are deterministic per seed (the packed
# kernel's RNG streams are fixed by the seed families), so these are
# machine-independent budgets like the routing-work ones above: they
# trip only when a sampler algorithmically does more work — an extra
# descent pass, a widened ladder, a resampling loop that stops
# converging — never because the runner was slow. ~30% headroom over
# today's values (sa/pa 3072 word sweeps, pt 24576; sa flips ~4.41M,
# pa ~4.41M, pt ~34.5M; pt attempts 172k swaps; pa resamples 93 times).
cargo run --release -q -p qac-bench --bin telemetry_check -- \
    "$tmpdir/samplers.jsonl" "$tmpdir/samplers.prom" \
    --counter-max 'qac_sampler_sweeps_total{sampler="pa"}=4000' \
    --counter-max 'qac_sampler_sweeps_total{sampler="pt"}=32000' \
    --counter-max 'qac_sampler_sweeps_total{sampler="sa"}=4000' \
    --counter-max 'qac_sampler_flips_total{sampler="pa"}=5800000' \
    --counter-max 'qac_sampler_flips_total{sampler="pt"}=45000000' \
    --counter-max 'qac_sampler_flips_total{sampler="sa"}=5800000' \
    --counter-max 'qac_sampler_pt_swaps_total=225000' \
    --counter-max 'qac_sampler_pa_resamples_total=130'

echo "==> incremental gate (edit turnaround: skip/splice budgets + speedup floor)"
cargo run --release -q -p qac-bench --bin experiments -- \
    edit --trace-json "$tmpdir/edit.jsonl" --metrics "$tmpdir/edit.prom" \
    > /dev/null
# The stage-miss and embedding-cache counters are deterministic: the
# canonical one-gate edit re-runs exactly 9 stages per workload (18
# across the two, certify included), so one extra miss means a stage
# lost its incrementality. Each workload warms its own embedding cache
# with the pre-edit embedding (one miss) and then looks the edited
# program up in it (one hit), so both lookup counters are pinned at
# exactly 2 from both sides (--gauge-min floors read any Prometheus
# sample): a third miss, or fewer than 2 hits, means a warm embed
# routed instead of reusing the pre-edit embedding. The speedup floors
# are same-machine ratios: warm-vs-cold on the same host, so they hold
# on slow CI runners too (today: ~170x on australia, ~20x on figure2).
# The certify counters
# pin the warm re-proof work exactly: the dirty cones across the two
# edits re-prove 39 obligations while fingerprint reuse splices exactly
# 9 — a skipped count above 9 means certification is reusing proofs for
# cones the edit dirtied, and below 9 (the --gauge-min floor) means the
# splice path stopped reusing clean-cone proofs.
cargo run --release -q -p qac-bench --bin telemetry_check -- \
    "$tmpdir/edit.jsonl" "$tmpdir/edit.prom" \
    --counter-max qac_incr_stage_miss_total=18 \
    --counter-max qac_embed_cache_hits_total=2 \
    --gauge-min qac_embed_cache_hits_total=2 \
    --counter-max qac_embed_cache_misses_total=2 \
    --gauge-min qac_embed_cache_misses_total=2 \
    --counter-max qac_cert_obligations_skipped_total=9 \
    --gauge-min qac_cert_obligations_skipped_total=9 \
    --gauge-min 'qac_bench_incremental_speedup{workload="australia"}=10' \
    --gauge-min 'qac_bench_incremental_speedup{workload="figure2"}=2'

echo "==> incremental gate self-test (an impossible floor must fail)"
if cargo run --release -q -p qac-bench --bin telemetry_check -- \
    "$tmpdir/edit.jsonl" "$tmpdir/edit.prom" \
    --gauge-min 'qac_bench_incremental_speedup{workload="australia"}=100000' \
    > /dev/null 2>&1; then
    echo "ERROR: the file-mode gauge floor passed at an impossible threshold" >&2
    exit 1
fi

analyze_gate

echo "==> certify gate (translation validation over the workload corpus)"
# Every workload certificate must verify, and the obligation counters
# are deterministic (the corpus and its cone widths are fixed): today
# the corpus proves 48 obligations and skips 0, so the budgets carry
# headroom for new obligations but trip if certification silently stops
# proving (proved collapses toward 0 is caught by --gauge-min on the
# Prometheus sample) or starts skipping wide/undriven cones.
cargo run --release -q -p qac-bench --bin experiments -- \
    certify --cert-dir "$tmpdir/certs" \
    --trace-json "$tmpdir/certify.jsonl" --metrics "$tmpdir/certify.prom" \
    > /dev/null
cargo run --release -q -p qac-bench --bin telemetry_check -- \
    "$tmpdir/certify.jsonl" "$tmpdir/certify.prom" \
    --counter-max qac_cert_obligations_proved_total=65 \
    --counter-max qac_cert_obligations_skipped_total=5 \
    --gauge-min qac_cert_obligations_proved_total=48
# The written certificates must re-verify offline through the
# independent checker (the `certify verify` CLI path users run).
cargo run --release -q -p qac-bench --bin experiments -- \
    certify verify "$tmpdir"/certs/*.cert.json

echo "==> unsafe-code gate (#![forbid(unsafe_code)] in every crate)"
# Every crate must forbid unsafe at the crate root so a stray unsafe
# block is a compile error, not a review nit.
for lib in crates/*/src/lib.rs; do
    if ! grep -q '#!\[forbid(unsafe_code)\]' "$lib"; then
        echo "ERROR: $lib is missing #![forbid(unsafe_code)]" >&2
        exit 1
    fi
done

echo "==> rustdoc gate (cargo doc --no-deps, warnings denied)"
# A doc link to a renamed, deleted or private item is a rustdoc warning;
# deny it for the root package and every crates/* package (the vendor/
# stand-ins are left out).
doc_packages=(-p qac)
for manifest in crates/*/Cargo.toml; do
    doc_packages+=(-p "$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -n 1)")
done
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps "${doc_packages[@]}"

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> ci.sh: all checks passed"
