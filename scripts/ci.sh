#!/usr/bin/env bash
# Offline CI gate for the PokeEMU-rs workspace. The workspace has zero
# external dependencies, so everything here must pass with no network.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== lock files name no registry package"
# Every package is a path dependency inside the repository (DESIGN.md §5);
# a `source = ` line means something came from a registry or a git remote.
for lock in Cargo.lock liftbench/Cargo.lock; do
    if grep -n '^source = ' "$lock"; then
        echo "ERROR: $lock has a package with a source (see above)" >&2
        exit 1
    fi
done

echo "== cargo build --release (all targets; any warning fails)"
# Cargo replays the cached warnings of up-to-date crates, so a warm build
# still reports every warning in the workspace, tests and examples included.
mkdir -p target
cargo build --workspace --release --offline --all-targets 2>&1 | tee target/build.log
if grep -q '^warning:' target/build.log; then
    echo "ERROR: the build has warnings (see above)" >&2
    exit 1
fi

echo "== cargo clippy (all targets; any lint fails)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test"
cargo test --workspace --offline -q

echo "== solver, Lo-Fi, ISA and fork tests in release (no debug assertions, release arithmetic)"
# The SAT core's brute-force tests and the search fingerprint again, built
# the way the pipeline runs them: clause-arena offsets and watch invariants
# are then checked by the answers alone, with no debug_assert to lean on.
# Likewise Lo-Fi's page table and the snapshot pages: their page-number and
# wrap arithmetic runs without overflow checks in release builds. The fork
# tests run every target's forks, which share the templates' pages, as
# liftbench runs them.
cargo test --release --offline -q -p pokemu-solver -p pokemu-lofi -p pokemu-isa
cargo test --release --offline -q -p pokemu-harness --test fork_equivalence

echo "== liftbench tests (the lifted-test benchmark of BENCHMARK.json)"
cargo test --offline -q --manifest-path liftbench/Cargo.toml

echo "== experiments driver (every EXPERIMENTS.md row, quick scale)"
# Fails on a non-zero exit, e.g. a panic in one experiment. The rows are
# printed, not gated.
POKEMU_SCALE=quick cargo run --release --offline --example regen_experiments

echo "== trace + profile smoke (both pokemu_rt::trace sinks end to end)"
# Run the smoke bench with span events, the folded profile, and the run
# manifest on: the pipeline exports a Chrome trace + the run's metrics, a
# collapsed-stack .folded profile, the hot-TB table, and
# target/run/smoke/manifest.json. pokemu-report --check gates on the trace
# parsing, all five Fig.1 stage spans being present, and zero dropped trace
# events; perf --check (below) gates on ≥95% of the pipeline.run span being
# attributed to its four top-level stage spans and on the e3 inversion.
POKEMU_TRACE=1 POKEMU_PROF=1 POKEMU_RUN_MANIFEST=1 POKEMU_RUN_ID=smoke \
    cargo run --release --offline -p pokemu-bench --bin smoke-bench
cargo run --release --offline -p pokemu-bench --bin pokemu-report -- --check --top 5
test -s target/prof/cross_validation.folded \
    || { echo "ERROR: POKEMU_PROF=1 run left no .folded profile" >&2; exit 1; }

echo "== trace export carries the run's metrics (vs the run manifest)"
# Both files come from the one smoke run above and both counters are
# deterministic, so they must agree. smoke-bench runs nothing before the
# pipeline, so here the run's delta equals the process's totals; the
# trace_export_delta test checks that an export holds only its own run.
for counter in target.lofi.runs solver.queries; do
    pattern="${counter//./\\.}"
    exported=$(grep -o "\"name\":\"$pattern\",\"value\":[0-9]*" \
        target/trace/cross_validation.metrics.jsonl | grep -o '[0-9]*$' || true)
    recorded=$(grep -o "\"$pattern\":[0-9]*" target/run/smoke/manifest.json \
        | head -n 1 | grep -o '[0-9]*$' || true)
    if [ -z "$exported" ] || [ "$exported" != "$recorded" ]; then
        echo "ERROR: $counter is ${exported:-missing} in the trace export but" \
            "${recorded:-missing} in the run manifest" >&2
        exit 1
    fi
    echo "$counter: $exported in both"
done

echo "== invalid path-end models (solver.model_invalid must be 0)"
# Exploration re-evaluates each path condition under its path-end model
# while minimizing it and counts every model that violates it: a blaster or
# SAT-core bug caught in a production run. A missing counter means the
# check did not run.
invalid=$(grep -o '"solver\.model_invalid":[0-9]*' target/run/smoke/manifest.json \
    | head -n 1 | grep -o '[0-9]*$' || true)
if [ "$invalid" != "0" ]; then
    echo "ERROR: solver.model_invalid is ${invalid:-missing} in the smoke manifest" >&2
    exit 1
fi
echo "solver.model_invalid: 0"

echo "== perf attribution and e3 inversion gate"
# perf --check fails if the run's stage spans cover less than 95% of
# pipeline.run, or if the median target.lofi span is longer than the
# median target.hifi span (the e3 inversion: the DBT slower than the
# interpreter per lifted test). The median hifi/lofi reads 1.43-1.82 on
# the smoke run (21 runs, 10 of them beside two busy loops on a 2-vCPU
# VM): forks share the templates' pages, so neither target pays a fixed
# fork or snapshot cost that hides the other's execution. Means are not
# gated, since one template build stalled by a few ms moves a 17-run mean
# past 1.
cargo run --release --offline -p pokemu-bench --bin pokemu-report -- perf --check --top 5

echo "== attribution below the top level (explore.state_space self time)"
# Per-path exploration work sits in named spans (explore.mem_template,
# explore.symbolic_machine, explore.clobbers, explore.minimize, symx.*,
# solver.check). Fail if explore.state_space's own time is more than 15% of
# the time of all the stacks that contain it, i.e. if exploration work has
# gone unattributed again.
awk -v frame=explore.state_space -v limit=15 '
    { n = split($1, f, ";")
      for (i = 1; i <= n; i++) if (f[i] == frame) { total += $2; if (i == n) self += $2; break } }
    END {
      if (total == 0) { print "ERROR: no " frame " frame in the profile" > "/dev/stderr"; exit 1 }
      pct = 100 * self / total
      printf "%s self time: %d of %d us (%.1f%%, limit %d%%)\n", frame, self, total, pct, limit
      if (pct > limit) { print "ERROR: " frame " self time above the limit" > "/dev/stderr"; exit 1 }
    }' target/prof/cross_validation.folded

echo "== coverage gate (run manifest vs committed baseline)"
# The smoke run above emitted a manifest with the run's coverage bitmaps,
# work counts, metrics counters and deviations; the gate fails if any
# coverage bit present in the committed baseline is missing from this run,
# the counts differ, a deterministic baseline counter has another value,
# or the deviation list differs. Refresh the baseline with
# scripts/refresh-baseline.sh after an intentional change.
cargo run --release --offline -p pokemu-bench --bin pokemu-report -- \
    diff --baseline tests/baselines/smoke-manifest.json \
    --manifest target/run/smoke/manifest.json --check

echo "== coverage gate self-test (a coverage-blind run must fail the gate)"
# Prove the gate actually gates: with coverage recording disabled the
# manifest records empty bitmaps, which the diff must reject with exit 1,
# naming the opcode map among the violations.
POKEMU_COVERAGE=0 POKEMU_RUN_MANIFEST=1 POKEMU_RUN_ID=smoke-nocov \
    cargo run --release --offline -p pokemu-bench --bin smoke-bench >/dev/null
status=0
cargo run --release --offline -p pokemu-bench --bin pokemu-report -- \
    diff --baseline tests/baselines/smoke-manifest.json \
    --manifest target/run/smoke-nocov/manifest.json --check \
    >target/run/smoke-nocov/diff.out 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
    echo "ERROR: coverage gate exited $status on a coverage-blind run (want 1):" >&2
    cat target/run/smoke-nocov/diff.out >&2
    exit 1
fi
grep -q '^\[pokemu-report\] diff violation: coverage\.opcode:' target/run/smoke-nocov/diff.out \
    || { echo "ERROR: coverage gate failed without naming coverage.opcode:" >&2; \
         cat target/run/smoke-nocov/diff.out >&2; exit 1; }
echo "coverage gate correctly rejected the coverage-blind run, naming coverage.opcode"

echo "== deviation gate self-test (a changed path id must fail the gate)"
# Prove the deviation rule gates: copy the committed baseline, change the
# first deviation's path id, and require the diff of the healthy smoke run
# against it to exit 1 naming that deviation's test.
rm -rf target/deviation-selftest
mkdir -p target/deviation-selftest
sed '0,/"path_id":[0-9]*/s//"path_id":1/' tests/baselines/smoke-manifest.json \
    >target/deviation-selftest/baseline.json
tampered=$(grep -m1 -o '"test":"[^"]*","insn":"[^"]*","path_id":1,' \
    target/deviation-selftest/baseline.json | cut -d'"' -f4 || true)
[ -n "$tampered" ] \
    || { echo "ERROR: the smoke baseline has no deviation to tamper with" >&2; exit 1; }
status=0
cargo run --release --offline -p pokemu-bench --bin pokemu-report -- \
    diff --baseline target/deviation-selftest/baseline.json \
    --manifest target/run/smoke/manifest.json --check \
    >target/deviation-selftest/out.log 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
    echo "ERROR: diff gate exited $status on a changed deviation (want 1):" >&2
    cat target/deviation-selftest/out.log >&2
    exit 1
fi
grep -qF "$tampered path_id" target/deviation-selftest/out.log \
    || { echo "ERROR: gate failed without naming the changed deviation ($tampered):" >&2; \
         cat target/deviation-selftest/out.log >&2; exit 1; }
echo "diff gate correctly rejected the changed deviation ($tampered)"

echo "== conformance gate (chained corpus vs committed tests/roms/)"
# Rebuild the conformance corpus and compare every program's behavior
# against the committed expected-deviation baselines: any new deviation,
# vanished deviation, path-id change, or generated-code change fails with
# the violating program names printed. Refresh with
# scripts/refresh-baseline.sh after an intentional change.
cargo run --release --offline -p pokemu-bench --bin pokemu-report -- \
    conformance --roms tests/roms

echo "== conformance gate self-test (a tampered baseline must fail the gate)"
# Prove the gate actually gates: copy the committed baselines, corrupt one
# program's expected deviations, and require the gate to reject exactly
# that program (exit 1, name printed).
rm -rf target/conformance-selftest
mkdir -p target/conformance-selftest
cp tests/roms/*.json target/conformance-selftest/
sed -i 's/"deviations":\[\]/"deviations":[{"target":"lofi","test":"tampered","insn":"90","path_id":1,"cause":"tampered","components":[]}]/' \
    target/conformance-selftest/chain-reload-baseline.json
if cargo run --release --offline -p pokemu-bench --bin pokemu-report -- \
    conformance --roms target/conformance-selftest \
    >target/conformance-selftest/out.log 2>&1; then
    echo "ERROR: conformance gate passed a tampered baseline" >&2
    exit 1
fi
grep -q 'chain/reload-baseline' target/conformance-selftest/out.log \
    || { echo "ERROR: gate failed without naming the tampered program:" >&2; \
         cat target/conformance-selftest/out.log >&2; exit 1; }
echo "conformance gate correctly rejected the tampered baseline"

echo "== chaos smoke (fault injection end to end)"
# Arm a deterministic worker panic on work item 1: the campaign must still
# finish (exit 0), attribute exactly one quarantine record in the manifest,
# and keep its "completed" flag — a finished run with failures attributed
# is a completed run.
POKEMU_FAULT=pool.item:panic:1 POKEMU_RUN_MANIFEST=1 POKEMU_RUN_ID=chaos \
    cargo run --release --offline -p pokemu-bench --bin smoke-bench >/dev/null
grep -q '"completed":true' target/run/chaos/manifest.json \
    || { echo "ERROR: chaos run did not complete" >&2; exit 1; }
grep -q '"quarantined":1' target/run/chaos/manifest.json \
    || { echo "ERROR: chaos run did not quarantine the faulted item" >&2; exit 1; }
echo "chaos run completed with the faulted item quarantined"

echo "== run-deadline smoke (graceful partial run)"
# A 1 ms whole-run deadline: the pipeline must stop dispatching, exit
# cleanly, and write a partial manifest that says so.
POKEMU_RUN_DEADLINE_MS=1 POKEMU_RUN_MANIFEST=1 POKEMU_RUN_ID=deadline \
    cargo run --release --offline -p pokemu-bench --bin smoke-bench >/dev/null
grep -q '"completed":false' target/run/deadline/manifest.json \
    || { echo "ERROR: deadline-cut run claims completion" >&2; exit 1; }
echo "deadline-cut run wrote an honest partial manifest"

echo "== robustness gate self-test (a quarantine regression must fail the gate)"
# The chaos manifest above carries one quarantine; the committed baseline
# carries none, so the diff gate must reject it — and for the quarantine
# regression specifically, not some unrelated violation.
if cargo run --release --offline -p pokemu-bench --bin pokemu-report -- \
    diff --baseline tests/baselines/smoke-manifest.json \
    --manifest target/run/chaos/manifest.json --check \
    >target/run/chaos/diff.out 2>&1; then
    echo "ERROR: diff gate passed a run with a quarantine regression" >&2
    exit 1
fi
grep -q 'robustness.quarantined grew' target/run/chaos/diff.out \
    || { echo "ERROR: gate failed for the wrong reason:" >&2; \
         cat target/run/chaos/diff.out >&2; exit 1; }
echo "diff gate correctly rejected the quarantined run"

echo "== fleet gate (crash-safe sharded exploration, DESIGN.md §12)"
# A healthy 2-shard fleet run over the 0xf7 group must reproduce the
# committed merged-manifest baseline (coverage bits, clusters, no poisoned
# shards). Refresh with scripts/refresh-baseline.sh after intentional change.
rm -rf target/fleet/ci
cargo run --release --offline -p pokemu-bench --bin pokemu-fleet -- \
    run --run-id ci --root target/fleet/ci --shards 2 --first-byte 0xf7 \
    --max-paths 64 --backoff-ms 10
cargo run --release --offline -p pokemu-bench --bin pokemu-report -- \
    diff --baseline tests/baselines/fleet-merged.json \
    --manifest target/fleet/ci/merged.json --check
echo "fleet merged manifest matches the committed baseline"
# A shard manifest (also the shard's checkpoint) is the same run document
# as a run manifest and the merge: the one reader must open it.
cargo run --release --offline -p pokemu-bench --bin pokemu-report -- \
    coverage --manifest target/fleet/ci/shard-0/manifest.json >/dev/null \
    || { echo "ERROR: pokemu-report cannot read a fleet shard manifest" >&2; exit 1; }
echo "pokemu-report reads the shard manifest"

echo "== fleet kill-one-worker self-test (SIGKILL mid-shard must be survivable)"
# Arm a SIGKILL after every worker's first checkpoint: the coordinator must
# retry each shard (attributed by name in fleet-events.jsonl), finish with
# no poisoned shards, and the resumed merge must be byte-identical to the
# healthy run above.
rm -rf target/fleet/ci-kill
POKEMU_FAULT='fleet.checkpoint:kill:1' \
    cargo run --release --offline -p pokemu-bench --bin pokemu-fleet -- \
    run --run-id ci --root target/fleet/ci-kill --shards 2 --first-byte 0xf7 \
    --max-paths 64 --backoff-ms 10
grep -q '"shard":"shard-[01]","event":"retry"' target/fleet/ci-kill/fleet-events.jsonl \
    || { echo "ERROR: no retry event attributed to a shard by name" >&2; \
         cat target/fleet/ci-kill/fleet-events.jsonl >&2; exit 1; }
cmp target/fleet/ci/merged.json target/fleet/ci-kill/merged.json \
    || { echo "ERROR: merged manifest after SIGKILL + resume differs from the uninterrupted run" >&2; exit 1; }
echo "SIGKILLed workers resumed from checkpoints; merge byte-identical"

echo "== fleet poisoned-shard gate self-test (exhausted retries must fail diff)"
# Starve every spawn of shard-0: after --max-attempts the shard is demoted
# to a poisoned record, the run itself still exits 0 (failures attributed,
# other shards unaffected), and the diff gate must reject the merge naming
# the shard.
rm -rf target/fleet/ci-poison
POKEMU_FAULT='fleet.spawn:unknown:0' \
    cargo run --release --offline -p pokemu-bench --bin pokemu-fleet -- \
    run --run-id ci --root target/fleet/ci-poison --shards 2 --first-byte 0xf7 \
    --max-paths 64 --max-attempts 2 --backoff-ms 10
if cargo run --release --offline -p pokemu-bench --bin pokemu-report -- \
    diff --baseline tests/baselines/fleet-merged.json \
    --manifest target/fleet/ci-poison/merged.json --check \
    >target/fleet/poison-selftest.out 2>&1; then
    echo "ERROR: diff gate passed a run with a poisoned shard" >&2
    exit 1
fi
grep -q 'fleet.poisoned grew.*shard-0' target/fleet/poison-selftest.out \
    || { echo "ERROR: diff gate failed without naming the poisoned shard:" >&2; \
         cat target/fleet/poison-selftest.out >&2; exit 1; }
echo "diff gate correctly rejected the poisoned-shard run, naming shard-0"

echo "CI OK"
