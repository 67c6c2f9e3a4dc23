//! The CI smoke run: one miniature end-to-end pipeline run (two
//! instructions of opcode 0x80, two workers) that takes about a second.
//! The observers switched on by its environment (`POKEMU_TRACE`,
//! `POKEMU_PROF`, `POKEMU_RUN_MANIFEST`, `POKEMU_FAULT`, ...) export what
//! `scripts/ci.sh` gates on. Exits non-zero if a run that claims
//! completion did no work.

use pokemu::harness::{run_cross_validation, PipelineConfig};

fn main() {
    // Under POKEMU_TRACE=1 the run also exports
    // target/trace/cross_validation.{trace.json,metrics.jsonl}, which the
    // `trace-smoke` CI step feeds to `pokemu-report --check`.
    let cv = run_cross_validation(PipelineConfig {
        first_byte: Some(0x80),
        max_instructions: 2,
        max_paths_per_insn: 16,
        threads: 2,
        ..Default::default()
    });
    // A deadline-cut run (POKEMU_RUN_DEADLINE_MS) may legitimately have
    // dispatched nothing; only a run claiming completion must show work.
    if cv.completed && cv.quarantined.is_empty() {
        assert!(cv.total_paths > 0, "pipeline explored no paths: {cv:?}");
    }
    println!(
        "[smoke-bench] pipeline: {} insns, {} paths, {} solver queries, {} workers",
        cv.unique_instructions,
        cv.total_paths,
        cv.stages.solver_queries,
        cv.stages.workers.len()
    );
    println!(
        "[smoke-bench] robustness: completed={} quarantined={} skipped={} unknown={} infeasible={}",
        cv.completed,
        cv.quarantined.len(),
        cv.skipped_instructions,
        cv.unknown_queries,
        cv.infeasible_paths
    );
}
