//! Run-ledger contract: the history records the pipeline appends after each
//! run (DESIGN.md §12) obey the repo's determinism guarantees, survive a
//! serialize/parse round trip bit-for-bit, detect tampering by content
//! hash, and support causal attribution of an injected performance
//! regression down to the responsible subsystem by name.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use pokemu::harness::record::{build_record, hot_tb_delta};
use pokemu::harness::{run_cross_validation, CrossValidation, PipelineConfig};
use pokemu_rt::history::{self, RunRecord};
use pokemu_rt::{fault, metrics, prof, trace};

/// The metrics registry, coverage bitmaps, profiler, and fault plan are all
/// process-global; tests that run the pipeline serialize on this lock so a
/// concurrent test's counters cannot leak into a record under comparison.
fn ledger_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Scratch ledger path under cargo's per-target test tmpdir, namespaced by
/// test so parallel tests in this binary never share a file.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("run_ledger");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// Runs the pipeline once and folds the outcome into a ledger record the
/// same way `pipeline::run_cross_validation` does when history is armed.
fn record_run(run_id: &str, config: PipelineConfig) -> (RunRecord, CrossValidation) {
    let before = metrics::snapshot();
    let hot_before: BTreeMap<u32, u64> = pokemu::lofi::hot_tbs().into_iter().collect();
    let cv = run_cross_validation(config.clone());
    let delta = metrics::snapshot().since(&before);
    let hot_delta = hot_tb_delta(&hot_before, &pokemu::lofi::hot_tbs());
    let record = build_record(
        run_id,
        &config,
        &cv,
        &delta,
        &pokemu_rt::coverage::snapshot(),
        &hot_delta,
    );
    (record, cv)
}

fn small_config(threads: usize) -> PipelineConfig {
    PipelineConfig {
        first_byte: Some(0x80),
        max_paths_per_insn: 16,
        threads,
        ..PipelineConfig::default()
    }
}

/// The `det` section of a ledger record — work counts, coverage
/// populations, deviation clusters, delta counters, hot-TB execution
/// deltas — and the config fingerprint must be byte-identical at 1, 2, and
/// 8 worker threads, and every record must round-trip through its ledger
/// line with the content hash intact.
#[test]
fn det_fields_are_thread_count_invariant_and_round_trip() {
    let _serial = ledger_lock();
    pokemu_rt::coverage::set_enabled(true);
    // Warm-up: saturate the sticky caches (coverage bits) so all three
    // recorded runs see identical steady-state behavior.
    let _ = record_run("warmup", small_config(2));

    let records: Vec<RunRecord> = [1usize, 2, 8]
        .iter()
        .map(|&t| record_run("ledger-det", small_config(t)).0)
        .collect();

    let first = &records[0];
    assert!(first.det["count.total_paths"] > 0, "run explored no paths");
    assert!(
        first.det.keys().any(|k| k.starts_with("cov.")),
        "coverage populations missing from det section: {:?}",
        first.det.keys().collect::<Vec<_>>()
    );
    assert!(
        first.det.keys().any(|k| k.starts_with("hot_tb.")),
        "hot-TB execution deltas missing from det section"
    );
    assert!(
        first.det.keys().any(|k| k.starts_with("cluster.lofi.")),
        "0x80 must produce lo-fi deviation clusters"
    );
    for (i, r) in records.iter().enumerate().skip(1) {
        let threads = [1, 2, 8][i];
        assert_eq!(first.det, r.det, "det section differs at {threads} threads");
        assert_eq!(
            first.config_fp, r.config_fp,
            "config fingerprint must not depend on the thread count"
        );
    }

    // Round trip: serialize → parse must preserve the deterministic
    // sections exactly and re-derive the same content hash.
    for r in &records {
        let (parsed, hash_ok) = RunRecord::parse_line(&r.to_line()).expect("line parses");
        assert!(hash_ok, "freshly written record must verify");
        assert_eq!(parsed.det, r.det);
        assert_eq!(parsed.run_id, r.run_id);
        assert_eq!(parsed.config_fp, r.config_fp);
        assert_eq!(
            parsed.timing.keys().collect::<Vec<_>>(),
            r.timing.keys().collect::<Vec<_>>()
        );
    }
}

/// Flipping one digit inside a stored record body must be caught by
/// `history::verify`, which names the file, line, and run id of the
/// tampered record — the integrity half of the `history verify` CLI gate.
#[test]
fn verify_names_the_tampered_record() {
    let path = scratch("tamper.jsonl");
    let mut a = RunRecord::new("pipeline", "good-run", "feedc0dedeadbeef".into());
    a.det("count.total_paths", 41);
    let mut b = RunRecord::new("pipeline", "tampered-run", "feedc0dedeadbeef".into());
    b.det("count.total_paths", 41);
    history::append_to(&path, a).expect("append a");
    history::append_to(&path, b).expect("append b");
    assert_eq!(
        history::verify(&path).expect("readable"),
        Vec::<String>::new(),
        "untouched ledger must verify clean"
    );

    // Tamper with the second record's body without touching its hash.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    lines[1] = lines[1].replace("\"count.total_paths\":41", "\"count.total_paths\":14");
    assert_ne!(lines[1], text.lines().nth(1).unwrap(), "tamper must apply");
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();

    let violations = history::verify(&path).expect("readable");
    assert_eq!(violations.len(), 1, "exactly one record was tampered");
    assert!(
        violations[0].contains(":2:") && violations[0].contains("tampered-run"),
        "violation must name line and run id: {}",
        violations[0]
    );
    // Strict loading refuses nothing (the line still parses) but the
    // record no longer round-trips its hash.
    let records = history::load(&path).expect("parseable");
    let (_, hash_ok) = RunRecord::parse_line(&records[1].to_line()).unwrap();
    assert!(hash_ok, "re-serialized record is self-consistent again");
}

/// Injecting a 2 ms latency fault into every solver `check` call must show
/// up in `compare`'s causal attribution as a `wall.parallel` regression
/// whose children name a `solver.ns.<origin>` subsystem — the exact output
/// the CI gate self-test greps for.
#[test]
fn attribution_names_injected_solver_latency_by_origin() {
    let _serial = ledger_lock();
    trace::set_profiling(true);
    let (baseline, _) = record_run("attr-baseline", small_config(2));
    fault::arm("solver.check:latency=2:*").expect("fault plan parses");
    let (faulted, cv) = record_run("attr-faulted", small_config(2));
    fault::disarm();
    trace::set_profiling(false);
    let _ = prof::take();
    assert!(cv.total_paths > 0, "faulted run still completes");

    // The fault is timing-pure apart from its own injection counter: the
    // deterministic work counts must match the baseline record.
    assert_eq!(
        baseline.det["count.total_paths"],
        faulted.det["count.total_paths"]
    );
    assert!(faulted.det.get("ctr.fault.injected").copied().unwrap_or(0) > 0);

    let att = history::attribute(&baseline, &faulted);
    assert!(
        att.total_delta_ns > 0.0,
        "injected latency must slow the run: {:?}",
        att.total_delta_ns
    );
    // The fault slows every solver call, so both the serial explore stage
    // and the parallel stage regress; the parallel entry is the one that
    // subdivides down to solver origins.
    let top = att.entries.first().expect("attribution is non-empty");
    assert!(
        top.delta_ns > 0.0,
        "top-ranked stage must be a regression: {top:?}"
    );
    let parallel = att
        .entries
        .iter()
        .find(|e| e.name == "wall.parallel")
        .expect("parallel stage must be attributed");
    assert!(parallel.delta_ns > 0.0, "{parallel:?}");
    let solver_child = parallel
        .children
        .iter()
        .find(|(name, delta)| name.starts_with("solver.ns.") && *delta > 0.0);
    assert!(
        solver_child.is_some(),
        "attribution must name a solver origin: {:?}",
        parallel.children
    );
}

/// Trend gating over real pipeline records: a group of identical runs is
/// quiet, and a single deterministic-field drift is flagged by metric name
/// (MAD 0 ⇒ any change violates).
#[test]
fn trend_flags_deterministic_drift_by_metric_name() {
    let _serial = ledger_lock();
    pokemu_rt::coverage::set_enabled(true);
    let _ = record_run("warmup", small_config(2));
    let mut group: Vec<RunRecord> = (0..3)
        .map(|i| {
            let (mut r, _) = record_run(&format!("trend-{i}"), small_config(2));
            r.seq = i + 1;
            r
        })
        .collect();

    let quiet = history::trend_stats(&group, history::DEFAULT_TREND_WINDOW);
    let noisy: Vec<&str> = quiet
        .iter()
        .filter(|s| s.deterministic && s.violation.is_some())
        .map(|s| s.name.as_str())
        .collect();
    assert!(noisy.is_empty(), "identical runs must not drift: {noisy:?}");

    // Simulate a lost deviation in the newest run — the exact failure the
    // CI trend gate exists to catch.
    let latest = group.last_mut().unwrap();
    let count = latest.det["count.deviations"];
    latest.det("count.deviations", count + 3);
    let stats = history::trend_stats(&group, history::DEFAULT_TREND_WINDOW);
    let flagged = stats
        .iter()
        .find(|s| s.name == "count.deviations")
        .expect("metric present");
    assert!(
        flagged
            .violation
            .as_deref()
            .is_some_and(|v| v.contains("drifted")),
        "drift must be flagged: {:?}",
        flagged.violation
    );
}

/// Seq numbering survives garbage collection: after `gc` truncates the
/// ledger, the next append continues the sequence instead of restarting,
/// so run ids stay totally ordered across retention windows.
#[test]
fn gc_preserves_seq_continuity() {
    let path = scratch("gc.jsonl");
    for i in 0..6 {
        let mut r = RunRecord::new("bench", &format!("run-{i}"), "0123456789abcdef".into());
        r.det("count.x", i);
        history::append_to(&path, r).expect("append");
    }
    let (kept, dropped) = history::gc(&path, 2).expect("gc");
    assert_eq!((kept, dropped), (2, 4));
    let records = history::load(&path).expect("load");
    assert_eq!(records.len(), 2);
    assert_eq!(records.last().unwrap().seq, 6);

    let mut next = RunRecord::new("bench", "run-after-gc", "0123456789abcdef".into());
    next.det("count.x", 99);
    let seq = history::append_to(&path, next).expect("append after gc");
    assert_eq!(seq, 7, "seq must continue past the collected records");
}
