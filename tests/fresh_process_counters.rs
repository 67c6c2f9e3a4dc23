//! Counter determinism from a fresh process. The first pipeline call in a
//! process builds the execution targets' post-baseline templates, so any
//! counter the build billed would show up in the first call's dump and in
//! no later one. This binary holds a single test so that it always runs
//! in a process of its own, with no earlier test having built the
//! templates.

use pokemu::harness::{run_cross_validation, PipelineConfig};

/// The counter lines of one small pipeline call's metrics delta.
fn counter_dump() -> String {
    let before = pokemu_rt::metrics::snapshot();
    let cv = run_cross_validation(PipelineConfig {
        first_byte: Some(0x50),
        max_paths_per_insn: 8,
        threads: 2,
        ..PipelineConfig::default()
    });
    assert!(cv.total_paths > 0);
    let delta = pokemu_rt::metrics::snapshot().since(&before);
    delta
        .to_jsonl()
        .lines()
        .filter(|l| l.starts_with("{\"kind\":\"counter\""))
        .fold(String::new(), |mut acc, l| {
            acc.push_str(l);
            acc.push('\n');
            acc
        })
}

#[test]
fn first_pipeline_call_bills_the_same_counters_as_the_second() {
    let first = counter_dump();
    let second = counter_dump();
    for name in ["lofi.insns", "lofi.tb_lookup.hits", "target.lofi.runs"] {
        assert!(
            first.contains(&format!("\"name\":\"{name}\"")),
            "{name} missing from counter dump:\n{first}"
        );
    }
    assert_eq!(first, second, "first vs second counter dump in one process");
}
