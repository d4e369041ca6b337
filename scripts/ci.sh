#!/usr/bin/env bash
# Offline CI gate: formatting, lints, release build, full test suite.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace --offline

echo "== cargo test =="
cargo test -q --workspace --offline

echo "== benchmark package (outside the workspace) =="
# The seeded benchmark is its own package, so the workspace build above
# cannot see an API break in it: build and test it through its manifest.
cargo build --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml
cargo test --release -q --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

echo "== benchmark output checks (contract workloads, 1 s each) =="
# Each contract workload checks its own outputs against the digests it pins
# (PIN_T2, PIN_CHAIN512, PIN_SCENARIOS) and exits non-zero on a mismatch,
# so a planner- or simulator-side bit change fails here too. The chain's
# peak RSS is about 11 MB with the segment DP storing no per-step choice
# planes (about 31 MB when it did): its result line must read <= 16 MB.
chain_rss_ceiling_mb=16
for workload in plan-t2 plan-chain512 replan-harsh; do
    result="$(cargo run --release --quiet --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
        --workload "$workload" --seed 42 --seconds 1 --trace 0 | tail -n 1)" \
        || { echo "benchmark workload $workload failed its output checks" >&2; exit 1; }
    if [ "$workload" = plan-chain512 ]; then
        rss="$(echo "$result" | sed -n 's/.*"peak_rss_mb":{"value":\([0-9.e+-]*\),.*/\1/p')"
        awk -v rss="$rss" -v cap="$chain_rss_ceiling_mb" 'BEGIN { exit !(rss != "" && rss + 0 <= cap) }' \
            || { echo "plan-chain512 peak_rss_mb ${rss:-missing} > $chain_rss_ceiling_mb MB" >&2; exit 1; }
        echo "plan-chain512 peak_rss_mb: $rss (ceiling $chain_rss_ceiling_mb)"
    fi
done

echo "== planner smoke timing (OPT-6.7B, 16 devices) =="
# The memoized planner finishes this point in well under a second; the 60 s
# budget is a generous regression tripwire, not a tight perf gate. The edge
# stage's counts are exact: the layout-keyed cache builds 25 side profiles
# and sweeps 180,144 cells on this point, and the device-major sweep builds
# 2,341,231 term-row entries for them; any rise means some dedup was lost.
smoke_metrics="$(mktemp)"
timeout 60 ./target/release/primepar plan --model opt-6.7b --devices 16 --batch 8 --seq 2048 \
    --metrics-json "$smoke_metrics" \
    >/dev/null || { echo "planner smoke run failed or exceeded 60 s" >&2; exit 1; }
edge_cells="$(sed -n 's/^ *"planner.edge_evaluations": *\([0-9]*\),*$/\1/p' "$smoke_metrics")"
term_rows="$(sed -n 's/^ *"planner.edge_term_rows": *\([0-9]*\),*$/\1/p' "$smoke_metrics")"
profile_builds="$(sed -n 's/^ *"planner.cache.profile.misses": *\([0-9]*\),*$/\1/p' "$smoke_metrics")"
# Informational, not gated: this cold plan's prune and edge-prepare stage
# times.
stage_seconds() {
    sed -n "/\"planner.stage.$1_seconds\"/,/}/s/^ *\"seconds\": *\([0-9.e+-]*\),*$/\1/p" "$smoke_metrics"
}
echo "planner smoke stages: prune_seconds $(stage_seconds prune)," \
    "edge_prepare_seconds $(stage_seconds edge_prepare)"
rm -f "$smoke_metrics"
[ -n "$edge_cells" ] && [ "$edge_cells" -le 180144 ] \
    || { echo "planner.edge_evaluations ${edge_cells:-missing} > 180144 on the Table-2 point" >&2; exit 1; }
[ -n "$term_rows" ] && [ "$term_rows" -le 2341231 ] \
    || { echo "planner.edge_term_rows ${term_rows:-missing} > 2341231 on the Table-2 point" >&2; exit 1; }
[ -n "$profile_builds" ] && [ "$profile_builds" -le 25 ] \
    || { echo "planner.cache.profile.misses ${profile_builds:-missing} > 25 on the Table-2 point" >&2; exit 1; }

echo "== planner scaling contracts (512-device chain, Table-2 slab) =="
# The exact plan of the 512-device chain is pinned to its digest and must
# round-trip through the plan parser; beam(8) must never beat the exact
# optimum, must run >=6x faster on the chain and must land within 5% on the
# Table-2 slab. The test runs with --nocapture so its measured
# beam(8)/exact speedup line lands in this log: each run records its margin
# over the 6x floor.
scale_out="$(cargo test --release -q --offline -p primepar-bench --test scale_chain -- --nocapture 2>&1)" \
    || { echo "$scale_out" >&2; echo "scale_chain failed" >&2; exit 1; }
echo "$scale_out" | grep -o 'scale_chain: beam(8)/exact speedup.*' \
    || { echo "scale_chain printed no beam(8)/exact speedup line" >&2; exit 1; }

echo "== serve-loop ordering tripwire (100 release runs) =="
# The logical-clock event log must be ordered by the input alone, however a
# worker's completion races the reader's next line; and a cheap response
# must overtake an expensive one the test holds behind it. Both races show
# under load, so the 100 runs go four at a time; one failure fails the gate.
events_test="$(cargo test --release --offline -p primepar-service --lib --no-run 2>&1 \
    | sed -n 's/.*Executable .*(\(.*\))$/\1/p')"
events_case=protocol::tests::event_log_captures_the_request_lifecycle_deterministically
overtake_case=protocol::tests::cheap_responses_overtake_expensive_ones
[ "$("$events_test" --list --exact "$events_case" "$overtake_case" | grep -c ': test$')" -eq 2 ] \
    || { echo "serve-loop test $events_case or $overtake_case not found" >&2; exit 1; }
for batch in $(seq 1 25); do
    for _ in 1 2 3 4; do
        "$events_test" -q --exact "$events_case" "$overtake_case" >/dev/null 2>&1 &
    done
    for _ in 1 2 3 4; do
        wait -n || { echo "serve-loop order depended on scheduling (batch $batch)" >&2; exit 1; }
    done
done

echo "== artifact validation (strict metrics/trace re-parse) =="
# Regenerate one plan's artifacts into a scratch dir and re-parse them with
# the strict obs parsers; also sweep results/ if previous figure runs left
# artifacts behind.
artifacts="$(mktemp -d)"
trap 'rm -rf "$artifacts"' EXIT
./target/release/primepar plan --model opt-6.7b --devices 2 --seq 512 \
    --metrics-json "$artifacts/plan.metrics.json" \
    --chrome-trace "$artifacts/plan.trace.json" >/dev/null
./target/release/primepar validate --dir "$artifacts"
if [ -d results ]; then
    ./target/release/primepar validate --dir results
fi

echo "== artifact rejection (untagged, bare-array and oversized documents) =="
# Pre-versioning documents and files over service::MAX_ARTIFACT_BYTES
# (16 MiB) are protocol errors (exit 4), never warnings. Each case gets its
# own directory so each must fail on its own.
for case in untagged bare oversized; do mkdir -p "$artifacts/reject-$case"; done
printf '{"x": 1}\n' >"$artifacts/reject-untagged/old.metrics.json"
printf '[]\n' >"$artifacts/reject-bare/old.trace.json"
truncate -s $((16 * 1024 * 1024 + 1)) "$artifacts/reject-oversized/big.trace.json"
for case in untagged bare oversized; do
    status=0
    ./target/release/primepar validate --dir "$artifacts/reject-$case" 2>/dev/null || status=$?
    [ "$status" -eq 4 ] \
        || { echo "validate must reject the $case artifact (exit $status, want 4)" >&2; exit 1; }
done

echo "== drift audit smoke (Fig. 9 workload: OPT-175B MLP block, 8 GPUs) =="
# Must be deterministic: two runs, identical bytes.
./target/release/primepar audit --model opt-175b --devices 8 --mlp-block \
    >"$artifacts/audit1.txt"
./target/release/primepar audit --model opt-175b --devices 8 --mlp-block \
    >"$artifacts/audit2.txt"
cmp "$artifacts/audit1.txt" "$artifacts/audit2.txt" \
    || { echo "audit output is not deterministic" >&2; exit 1; }
grep -q "conservation: breakdown total = layer time: ok" \
    "$artifacts/audit1.txt" \
    || { echo "audit conservation check violated" >&2; exit 1; }

echo "== robustness determinism smoke (Fig. 9 workload, seeded variance sweep) =="
# Same seed twice must give byte-identical console output, metrics JSON and
# robustness-report JSON, and the console output matches
# results/cli_robustness.txt.
for run in 1 2; do
    ./target/release/primepar robustness --model opt-175b --devices 8 --mlp-block \
        --perturb-scenarios 6 --perturb-seed 42 \
        --metrics-json "$artifacts/robustness$run.metrics.json" \
        --report-json "$artifacts/robustness$run.report.json" \
        | grep -v ' written to ' >"$artifacts/robustness$run.txt"
done
cmp "$artifacts/robustness1.metrics.json" "$artifacts/robustness2.metrics.json" \
    || { echo "robustness metrics are not deterministic" >&2; exit 1; }
cmp "$artifacts/robustness1.report.json" "$artifacts/robustness2.report.json" \
    || { echo "robustness report is not deterministic" >&2; exit 1; }
cmp "$artifacts/robustness1.txt" "$artifacts/robustness2.txt" \
    || { echo "robustness output is not deterministic" >&2; exit 1; }
cmp "$artifacts/robustness1.txt" results/cli_robustness.txt \
    || { echo "robustness output differs from results/cli_robustness.txt" >&2; exit 1; }
./target/release/primepar validate --dir "$artifacts"

echo "== service smoke (Table 2 point: OPT-6.7B, 16 devices) =="
# Two identical requests through one `primepar serve` session: the second
# must be answered from the whole-plan memo, and both served plans must be
# byte-identical to a `plan --save` of the same point. Both sides are one
# producer (`plan` plans through `PlanRequest::run`), so this pins the
# served frames against the CLI; the pin against a direct `Planner` call is
# crates/service/tests/concurrency.rs. Every serve
# session here runs under `timeout 120`: the serve loop blocks on one inbox
# until each request's reply arrives, so a lost reply fails CI, not hangs it.
./target/release/primepar plan --model opt-6.7b --devices 16 \
    --save "$artifacts/direct.plan.txt" >/dev/null
frame='{"schema_version":"primepar.service.v2","type":"plan","id":"ID","model":"opt-6.7b","devices":16,"batch":8,"seq":2048}'
{
    printf '%s\n' "${frame/ID/r1}"
    printf '%s\n' "${frame/ID/r2}"
    printf '{"schema_version":"primepar.service.v2","type":"shutdown"}\n'
} | timeout 120 ./target/release/primepar serve --workers 1 --plan-dir "$artifacts/served" \
    >"$artifacts/serve.out" 2>"$artifacts/serve.err"
cmp "$artifacts/direct.plan.txt" "$artifacts/served/r1.plan.txt" \
    || { echo "served r1 plan differs from direct optimize()" >&2; exit 1; }
cmp "$artifacts/direct.plan.txt" "$artifacts/served/r2.plan.txt" \
    || { echo "served r2 plan differs from direct optimize()" >&2; exit 1; }
r1_line="$(sed -n 1p "$artifacts/serve.out")"
r2_line="$(sed -n 2p "$artifacts/serve.out")"
echo "$r1_line" | grep -q '"plan_cache_hit":false' \
    || { echo "first request should plan cold" >&2; exit 1; }
echo "$r2_line" | grep -q '"plan_cache_hit":true' \
    || { echo "repeat request did not hit the plan memo" >&2; exit 1; }
r1_us="$(echo "$r1_line" | sed 's/.*"elapsed_us":\([0-9]*\).*/\1/')"
r2_us="$(echo "$r2_line" | sed 's/.*"elapsed_us":\([0-9]*\).*/\1/')"
[ "$r1_us" -ge $((r2_us * 2)) ] \
    || { echo "warm repeat not >=2x faster (cold ${r1_us}us, warm ${r2_us}us)" >&2; exit 1; }
echo "cold ${r1_us}us, warm ${r2_us}us (memo hit)"

echo "== cache persistence smoke (warm memo across serve restarts) =="
# Session 1 plans cold and dumps the memo; session 2 restores it and must
# answer the same request as a memo hit with a byte-identical plan artifact.
frame='{"schema_version":"primepar.service.v2","type":"plan","id":"ID","model":"opt-6.7b","devices":4,"seq":512,"layers":2}'
printf '%s\n' "${frame/ID/c1}" \
    | timeout 120 ./target/release/primepar serve --workers 1 --plan-dir "$artifacts/persist1" \
        --cache-file "$artifacts/warm.cache.json" >"$artifacts/persist1.out"
printf '%s\n' "${frame/ID/c2}" \
    | timeout 120 ./target/release/primepar serve --workers 1 --plan-dir "$artifacts/persist2" \
        --cache-file "$artifacts/warm.cache.json" >"$artifacts/persist2.out"
grep -q '"plan_cache_hit":true' "$artifacts/persist2.out" \
    || { echo "restored cache did not serve a memo hit" >&2; exit 1; }
cmp "$artifacts/persist1/c1.plan.txt" "$artifacts/persist2/c2.plan.txt" \
    || { echo "restored plan differs from the original" >&2; exit 1; }
./target/release/primepar validate --dir "$artifacts"

echo "== observability smoke (events, stats frame, Chrome trace, determinism) =="
# One traced serve session: a client-tagged plan, a live `stats` probe, and a
# shutdown. The event log, Chrome trace and shutdown stats snapshot must all
# re-parse under `validate`, the response must echo the client trace id, and
# the stats frame must answer with a tagged snapshot. `--slow-ms 0` makes
# every request slow, so the log `validate` re-parses holds a `request.slow`
# stage breakdown.
frame='{"schema_version":"primepar.service.v2","type":"plan","id":"t1","model":"opt-6.7b","devices":4,"seq":512,"layers":2,"trace_id":"ci-trace-1"}'
{
    printf '%s\n' "$frame"
    printf '{"schema_version":"primepar.service.v2","type":"stats","trace_id":"ci-stats-1"}\n'
    printf '{"schema_version":"primepar.service.v2","type":"shutdown"}\n'
} | timeout 120 ./target/release/primepar serve --workers 1 --slow-ms 0 \
    --plan-dir "$artifacts/traced" \
    --event-log "$artifacts/serve.events.jsonl" \
    --trace-out "$artifacts/serve.trace.json" \
    --stats-out "$artifacts/serve.stats.json" >"$artifacts/traced.out"
grep -q '"trace_id":"ci-trace-1"' "$artifacts/traced.out" \
    || { echo "response did not echo the client trace id" >&2; exit 1; }
grep '"request.slow"' "$artifacts/serve.events.jsonl" | grep -q '"trace_id":"ci-trace-1"' \
    || { echo "--slow-ms 0 logged no request.slow breakdown for ci-trace-1" >&2; exit 1; }
# Tracing is inert: the traced session's plan (same point as the persistence
# smoke, which ran untraced) must be byte-identical.
cmp "$artifacts/persist1/c1.plan.txt" "$artifacts/traced/t1.plan.txt" \
    || { echo "traced serve produced a different plan" >&2; exit 1; }
grep -q '"schema_version":"primepar.stats.v1"' "$artifacts/traced.out" \
    || { echo "stats frame did not answer with a tagged snapshot" >&2; exit 1; }
grep -q '"peak_rss_bytes"' "$artifacts/traced.out" \
    || { echo "responses must carry peak_rss_bytes" >&2; exit 1; }
./target/release/primepar validate --dir "$artifacts"

# Determinism: two same-input logical-clock single-worker sessions write
# byte-identical event logs (counter trace ids, sequence timestamps).
det_frame='{"schema_version":"primepar.service.v2","type":"plan","id":"d1","model":"opt-6.7b","devices":4,"seq":512,"layers":2}'
for run in 1 2; do
    {
        printf '%s\n' "$det_frame"
        printf '{"schema_version":"primepar.service.v2","type":"shutdown"}\n'
    } | timeout 120 ./target/release/primepar serve --workers 1 --logical-clock \
        --event-log "$artifacts/det$run.events.jsonl" >/dev/null
done
cmp "$artifacts/det1.events.jsonl" "$artifacts/det2.events.jsonl" \
    || { echo "logical-clock event log is not deterministic" >&2; exit 1; }

echo "== warm cache smoke (replans on perturbed clusters share one shape's planes) =="
# The planner warm cache keys volume planes by layout, never by the cluster:
# a session answering 20 harsh replans with distinct seeds on one shape
# (OPT-6.7B, 8 devices, seq 512) must hold exactly as many warm entries and
# warm bytes as a session answering one. The cache holds only side profiles
# and volume planes; the bytes ceiling is its reading on this shape since
# every side build numbers its holdings in device order, so a backward side
# equal to its forward twin shares that profile (183,024 bytes, down from
# 199,392 when copied and freshly built rows were numbered in different
# orders, 376,288 with 128-byte dense holdings and 864,224 with the factor
# rows cached), so a tier that creeps back into the warm cache trips it.
warm_bytes_ceiling=183024
for frames in 1 20; do
    {
        for seed in $(seq 1 "$frames"); do
            printf '{"schema_version":"primepar.service.v2","type":"replan","id":"w%s","model":"opt-6.7b","devices":8,"seq":512,"profile":"harsh","seed":%s}\n' \
                "$seed" "$seed"
        done
        printf '{"schema_version":"primepar.service.v2","type":"shutdown"}\n'
    } | timeout 120 ./target/release/primepar serve --workers 1 \
        --stats-out "$artifacts/warm$frames.stats.json" >/dev/null
done
warm_field() {
    sed -n "/\"warm\": {/,/}/s/^ *\"$2\": *\([0-9]*\),*\$/\1/p" "$1"
}
warm1="$(warm_field "$artifacts/warm1.stats.json" entries)"
warm20="$(warm_field "$artifacts/warm20.stats.json" entries)"
[ -n "$warm1" ] && [ "$warm1" -gt 0 ] && [ "$warm1" = "$warm20" ] \
    || { echo "warm entries grew with scenarios: ${warm1:-missing} after 1 replan, ${warm20:-missing} after 20" >&2; exit 1; }
echo "warm entries: $warm1 after 1 replan, $warm20 after 20"
bytes1="$(warm_field "$artifacts/warm1.stats.json" bytes)"
bytes20="$(warm_field "$artifacts/warm20.stats.json" bytes)"
[ -n "$bytes1" ] && [ "$bytes1" = "$bytes20" ] \
    || { echo "warm bytes grew with scenarios: ${bytes1:-missing} after 1 replan, ${bytes20:-missing} after 20" >&2; exit 1; }
[ "$bytes1" -le "$warm_bytes_ceiling" ] \
    || { echo "warm bytes $bytes1 exceed the ceiling $warm_bytes_ceiling" >&2; exit 1; }
echo "warm bytes: $bytes1 after 1 replan, $bytes20 after 20 (ceiling $warm_bytes_ceiling)"
./target/release/primepar validate --dir "$artifacts"

echo "== strategy smoke (beam(inf)==exact, anytime under deadline, determinism) =="
# A beam wide enough to cover every interior space is a literal no-op, so its
# plan must be byte-identical to the exact sweep on the Table-2 point; an
# anytime run under a 100 ms deadline must still exit 0 with a non-empty
# plan. Both modes are deterministic: each runs twice and is byte-compared.
./target/release/primepar plan --model opt-6.7b --devices 16 \
    --strategy exact --save "$artifacts/exact.plan.txt" >/dev/null
for run in 1 2; do
    ./target/release/primepar plan --model opt-6.7b --devices 16 \
        --strategy beam:1000000 --save "$artifacts/beaminf$run.plan.txt" \
        >/dev/null \
        || { echo "beam(inf) plan failed" >&2; exit 1; }
    ./target/release/primepar plan --model opt-6.7b --devices 4 --seq 512 \
        --strategy anytime:100ms --save "$artifacts/anytime$run.plan.txt" \
        >/dev/null \
        || { echo "anytime plan under deadline failed" >&2; exit 1; }
done
cmp "$artifacts/exact.plan.txt" "$artifacts/beaminf1.plan.txt" \
    || { echo "beam(inf) plan differs from exact" >&2; exit 1; }
cmp "$artifacts/beaminf1.plan.txt" "$artifacts/beaminf2.plan.txt" \
    || { echo "beam plan is not deterministic" >&2; exit 1; }
cmp "$artifacts/anytime1.plan.txt" "$artifacts/anytime2.plan.txt" \
    || { echo "anytime plan is not deterministic" >&2; exit 1; }
[ -s "$artifacts/anytime1.plan.txt" ] \
    || { echo "anytime plan file is empty" >&2; exit 1; }

echo "== elastic smoke (replan decision + degradation timeline, determinism) =="
# The costed replan decision and the seeded degradation-timeline study must
# both be bit-reproducible: two same-seed runs write byte-identical decision
# transcripts, decision metrics, and results/replan.metrics.json, and the
# transcript matches results/cli_replan.txt. The
# `figures replan` study itself asserts the elastic loop strictly beats both
# static extremes.
for run in 1 2; do
    ./target/release/primepar replan --model opt-6.7b --devices 8 \
        --batch 8 --seq 256 --layers 2 \
        --perturb-profile harsh --perturb-seed 13 --horizon 390 \
        --metrics-json "$artifacts/replan$run.metrics.json" \
        | grep -v ' written to ' >"$artifacts/replan$run.txt" \
        || { echo "replan smoke run failed" >&2; exit 1; }
done
cmp "$artifacts/replan1.txt" "$artifacts/replan2.txt" \
    || { echo "replan decision transcript is not deterministic" >&2; exit 1; }
cmp "$artifacts/replan1.txt" results/cli_replan.txt \
    || { echo "replan decision transcript differs from results/cli_replan.txt" >&2; exit 1; }
cmp "$artifacts/replan1.metrics.json" "$artifacts/replan2.metrics.json" \
    || { echo "replan decision metrics are not deterministic" >&2; exit 1; }
grep -q 'decision: replan' "$artifacts/replan1.txt" \
    || { echo "harsh seed 13 must decide a full replan" >&2; exit 1; }
for run in 1 2; do
    mkdir -p "$artifacts/elastic$run"
    ./target/release/figures replan --out-dir "$artifacts/elastic$run" \
        | grep -v ' written to ' >"$artifacts/elastic$run.txt" \
        || { echo "elastic timeline study failed (loop must beat both extremes)" >&2; exit 1; }
done
cmp "$artifacts/elastic1.txt" "$artifacts/elastic2.txt" \
    || { echo "elastic timeline decisions are not deterministic" >&2; exit 1; }
./target/release/primepar validate --dir "$artifacts"
./target/release/primepar validate --dir "$artifacts/elastic1"

echo "== committed artifacts (figures reproduce results/ byte for byte) =="
# Any bit a simulator or planner change moves in the committed robustness
# study, elastic timeline or figure tables fails here; regenerate results/
# deliberately.
mkdir -p "$artifacts/robustness"
./target/release/figures robustness --out-dir "$artifacts/robustness" >/dev/null \
    || { echo "robustness study failed" >&2; exit 1; }
cmp "$artifacts/robustness/robustness.metrics.json" results/robustness.metrics.json \
    || { echo "robustness.metrics.json differs from results/" >&2; exit 1; }
for run in 1 2; do
    cmp "$artifacts/elastic$run/replan.metrics.json" results/replan.metrics.json \
        || { echo "replan.metrics.json (run $run) differs from results/" >&2; exit 1; }
done
# The work ledger: the planner's thread-invariant counters on the contract
# runs. `figures work` exits non-zero if 0 and 4 threads count differently;
# a change that moves counted work re-blesses results/work.metrics.json.
mkdir -p "$artifacts/work"
./target/release/figures work --out-dir "$artifacts/work" >/dev/null \
    || { echo "work ledger differs between thread counts" >&2; exit 1; }
cmp "$artifacts/work/work.metrics.json" results/work.metrics.json \
    || { echo "work.metrics.json differs from results/" >&2; exit 1; }
# The deterministic figure tables (stdout minus the "written to" lines).
# table2_opt_time.txt carries wall-clock timings, so it is not pinned.
mkdir -p "$artifacts/figures"
for name in fig2_motivation fig7_throughput fig8_memory fig9_ablation fig10_3d; do
    ./target/release/figures "$name" --out-dir "$artifacts/figures" \
        | grep -v ' written to ' >"$artifacts/figures/$name.txt" \
        || { echo "figure $name failed" >&2; exit 1; }
    cmp "$artifacts/figures/$name.txt" "results/$name.txt" \
        || { echo "$name output differs from results/$name.txt" >&2; exit 1; }
done
# ablations.txt is pinned minus its wall-clock rows: the Ablation E block
# (search ms and the host's core count) and the "written to" line. Every
# other row, the straggler rows of Ablation F included, is deterministic.
drop_wall_clock() {
    grep -v ' written to ' "$1" | sed '/^Ablation E/,/^Ablation F/{/^Ablation F/!d}'
}
./target/release/figures ablations --out-dir "$artifacts/figures" \
    >"$artifacts/figures/ablations.txt" \
    || { echo "figure ablations failed" >&2; exit 1; }
cmp <(drop_wall_clock "$artifacts/figures/ablations.txt") <(drop_wall_clock results/ablations.txt) \
    || { echo "ablations output differs from results/ablations.txt" >&2; exit 1; }

echo "== functional equivalence through the CLI (P_{4x4}, 16 devices) =="
# Eight SGD iterations of a two-linear model under P_{4x4} on 16 simulated
# devices must match serial training: `primepar verify` exits non-zero on a
# weight divergence, and it must print its `OK:` line.
verify_out="$(./target/release/primepar verify --k 2 --iters 8)" \
    || { echo "primepar verify --k 2 --iters 8 failed" >&2; exit 1; }
grep -q '^OK: ' <<<"$verify_out" \
    || { echo "primepar verify --k 2 --iters 8 printed no OK: line" >&2; exit 1; }

echo "== CLI transcripts (plan, sweep and audit stdout pinned in results/) =="
# The CLI's stdout on the Table-2 point and on a small scaling sweep, with
# the wall-clock `(… search)` label masked, must match the committed
# transcripts: any change to how the CLI resolves, plans or prints a
# workload shows here.
./target/release/primepar plan --model opt-6.7b --devices 16 \
    | sed -E 's/\([^()]* search\)/(… search)/' >"$artifacts/cli_plan_t2.txt"
cmp "$artifacts/cli_plan_t2.txt" results/cli_plan_t2.txt \
    || { echo "plan transcript differs from results/cli_plan_t2.txt" >&2; exit 1; }
./target/release/primepar sweep --model opt-6.7b --devices 2,4,8 >"$artifacts/cli_sweep.txt"
cmp "$artifacts/cli_sweep.txt" results/cli_sweep.txt \
    || { echo "sweep transcript differs from results/cli_sweep.txt" >&2; exit 1; }
# The drift audit on the Table-2 point and on the OPT-175B MLP block under
# Megatron: its simulated column is the walk's per-operator and per-edge
# record, so a change to what the walk records or how it is charged shows here.
{
    ./target/release/primepar audit --model opt-6.7b --devices 16
    ./target/release/primepar audit --model opt-175b --mlp-block --devices 4 --system megatron
} >"$artifacts/cli_audit.txt"
cmp "$artifacts/cli_audit.txt" results/cli_audit.txt \
    || { echo "audit transcript differs from results/cli_audit.txt" >&2; exit 1; }

echo "== cargo doc (whole workspace, -D warnings) =="
# Broken or private intra-doc links anywhere in the workspace fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline >/dev/null
# Again over private items: a link from an internal doc to a deleted or
# test-only item fails here too.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --document-private-items --offline >/dev/null

echo "CI gate passed."
