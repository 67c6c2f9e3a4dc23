//! A trace export carries its own run's metrics delta, not the process's
//! totals. This binary holds a single test so that it can turn on
//! `POKEMU_TRACE` before anything in the process reads it.

use pokemu::harness::{run_cross_validation, PipelineConfig};
use pokemu_rt::metrics::{self, MetricsSnapshot};
use pokemu_rt::trace;

/// One small pipeline call, which exports its trace and metrics delta.
fn small_run() {
    let cv = run_cross_validation(PipelineConfig {
        first_byte: Some(0x50),
        max_paths_per_insn: 8,
        threads: 1,
        ..PipelineConfig::default()
    });
    assert!(cv.total_paths > 0);
}

#[test]
fn trace_export_holds_only_its_own_run() {
    std::env::set_var(trace::TRACE_ENV, "1");
    assert!(
        trace::env_enabled(),
        "POKEMU_TRACE was read before the test set it"
    );
    let start = metrics::snapshot();
    small_run();
    let before = metrics::snapshot();
    small_run();
    let after = metrics::snapshot();
    let own = after.since(&before);
    let both = after.since(&start);
    let path = trace::trace_dir().join("cross_validation.metrics.jsonl");
    let text = std::fs::read_to_string(&path).expect("the second run's metrics export");
    let exported = MetricsSnapshot::from_jsonl(&text).expect("parseable metrics export");
    for name in ["solver.queries", "target.lofi.runs"] {
        let n = exported.counter(name);
        assert!(n > 0, "{name} missing from {}", path.display());
        assert_eq!(
            n,
            own.counter(name),
            "{name}: export vs the second run's delta"
        );
        assert!(
            n < both.counter(name),
            "{name}: export vs the two-run total"
        );
    }
}
