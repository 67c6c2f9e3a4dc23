//! The work one conformance pass over the committed chained corpus does,
//! pinned exactly: Lo-Fi's instructions, block lookups and block and run
//! exits, and the runs billed to each target. A change that makes the
//! corpus cheaper must leave every count where it is, so "the same work in
//! less time" is a checked claim rather than a reading of the timings.
//!
//! The counts are read from the process-wide metrics registry, so this
//! binary holds a single test: no other test's runs can move them.

use pokemu::harness::{build_corpus, run_conformance};
use pokemu_rt::metrics;

#[test]
fn one_corpus_pass_bills_pinned_target_work() {
    let corpus = build_corpus();
    assert_eq!(corpus.len(), 24);
    let before = metrics::snapshot();
    let run = run_conformance(&corpus, 1);
    let delta = metrics::snapshot().since(&before);
    assert_eq!(run.results.len(), 24);
    let expected: [(&str, u64); 13] = [
        ("lofi.insns", 782_616),
        ("lofi.tb_lookup.misses", 97_858),
        ("lofi.tb_lookup.hits", 0),
        ("lofi.tb.invalidations", 0),
        ("lofi.tb_exit.next", 97_836),
        ("lofi.tb_exit.halt", 20),
        ("lofi.tb_exit.fault", 2),
        ("lofi.run_exit.halted", 20),
        ("lofi.run_exit.exception", 2),
        ("lofi.run_exit.step_limit", 2),
        ("target.hardware.runs", 24),
        ("target.hifi.runs", 24),
        ("target.lofi.runs", 24),
    ];
    let got: Vec<(&str, u64)> = expected
        .iter()
        .map(|&(name, _)| (name, delta.counter(name)))
        .collect();
    assert_eq!(got, expected, "one corpus pass's work counts");
}
