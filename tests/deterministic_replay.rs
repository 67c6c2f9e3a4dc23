//! Determinism guarantees: the pipeline and the property-test harness
//! reproduce byte-for-byte identical results from the same seeds.
//!
//! Reproducibility is load-bearing for the methodology: the paper's counts
//! (§6) are only meaningful if re-running the experiment yields the same
//! numbers, and a reported property-test failure is only debuggable if the
//! seed replays the exact failing input.

use std::sync::{Mutex, MutexGuard, OnceLock};

use pokemu::harness::{run_cross_validation, run_random_baseline, PipelineConfig, RandomConfig};
use pokemu_rt::prop::{run_report, Gen, SEED_ENV, SIZE_ENV};

/// The metrics registry is process-global, so tests that run the pipeline
/// (and therefore bump `explore.*` / `solver.*` / `testgen.*` counters)
/// serialize on this lock; otherwise a concurrent test's counts would leak
/// into [`metrics_counters_are_byte_identical_across_thread_counts`]'s
/// snapshot windows.
fn metrics_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Two identical pipeline runs — including one with a different worker
/// count, so thread scheduling provably cannot leak into the results —
/// must agree on every counter, every cluster, and every solver-query
/// count.
#[test]
fn pipeline_counters_are_deterministic_across_runs_and_thread_counts() {
    let _metrics = metrics_lock();
    let config = |threads| PipelineConfig {
        first_byte: Some(0x80),
        max_paths_per_insn: 64,
        threads,
        ..PipelineConfig::default()
    };
    let a = run_cross_validation(config(2));
    let b = run_cross_validation(config(2));
    let c = run_cross_validation(config(4));
    for r in [&b, &c] {
        assert_eq!(a.candidates, r.candidates);
        assert_eq!(a.unique_instructions, r.unique_instructions);
        assert_eq!(a.fully_explored, r.fully_explored);
        assert_eq!(a.total_paths, r.total_paths);
        assert_eq!(a.lofi_differences, r.lofi_differences);
        assert_eq!(a.hifi_differences, r.hifi_differences);
        assert_eq!(a.lofi_filtered, r.lofi_filtered);
        assert_eq!(a.hifi_filtered, r.hifi_filtered);
        assert_eq!(a.lofi_clusters, r.lofi_clusters);
        assert_eq!(a.hifi_clusters, r.hifi_clusters);
        assert_eq!(a.stages.solver_queries, r.stages.solver_queries);
    }
    // The observability layer accounts for all the work: every explored
    // instruction passed through exactly one worker.
    let worker_items: usize = a.stages.workers.iter().map(|w| w.items).sum();
    assert_eq!(worker_items, a.unique_instructions);
    assert!(
        a.stages.solver_queries > 0,
        "state exploration must query the solver"
    );
}

/// The observability layer obeys the same determinism contract as the
/// pipeline results: every *counter* metric the run emits — path counts,
/// solver verdicts, fork/prune decisions, generated programs — must be
/// byte-for-byte identical whether the run used 1, 2, or 8 worker threads,
/// and whether span recording was on. Timers and latency histograms measure
/// wall time and are excluded; that split is exactly why the registry keeps
/// them in separate namespaces.
#[test]
fn metrics_counters_are_byte_identical_across_thread_counts() {
    let _metrics = metrics_lock();
    let run = |threads| {
        let before = pokemu_rt::metrics::snapshot();
        let cv = run_cross_validation(PipelineConfig {
            first_byte: Some(0x80),
            max_paths_per_insn: 64,
            threads,
            trace: true, // span recording must not perturb the counts
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
    };
    let one = run(1);
    let two = run(2);
    let eight = run(8);
    pokemu_rt::trace::set_enabled(false);
    for name in [
        "explore.insns",
        "explore.paths",
        "solver.queries",
        "symx.paths",
        "testgen.programs",
    ] {
        assert!(
            one.contains(&format!("\"name\":\"{name}\"")),
            "{name} missing from counter dump:\n{one}"
        );
    }
    assert_eq!(one, two, "1-thread vs 2-thread counter dumps differ");
    assert_eq!(one, eight, "1-thread vs 8-thread counter dumps differ");
}

/// The span sinks must be pure observers: running the identical pipeline
/// with both sinks off on 2 threads, with the profile on on 8 threads and
/// with the profile and events on on 1 thread must produce byte-identical
/// counter dumps. This extends the byte-identity contract to the
/// performance-observatory counters — the per-origin solver billing, the
/// lo-fi dispatch-loop attribution, and the per-target run counts all live
/// in the deterministic counter namespace, while every wall-time sample
/// the spans take lands in timers, which the contract excludes by
/// construction.
#[test]
fn profiler_does_not_perturb_counter_determinism() {
    let _metrics = metrics_lock();
    let run = |prof: bool, events: bool, threads: usize| {
        pokemu_rt::trace::set_profiling(prof);
        pokemu_rt::trace::set_enabled(events);
        let before = pokemu_rt::metrics::snapshot();
        let cv = run_cross_validation(PipelineConfig {
            first_byte: Some(0x80),
            max_paths_per_insn: 64,
            threads,
            ..PipelineConfig::default()
        });
        pokemu_rt::trace::set_profiling(false);
        pokemu_rt::trace::set_enabled(false);
        assert!(cv.total_paths > 0);
        pokemu_rt::metrics::snapshot()
            .since(&before)
            .to_jsonl()
            .lines()
            .filter(|l| l.starts_with("{\"kind\":\"counter\""))
            .fold(String::new(), |mut acc, l| {
                acc.push_str(l);
                acc.push('\n');
                acc
            })
    };
    let off = run(false, false, 2);
    let on = run(true, false, 8);
    let both = run(true, true, 1);
    // The new attribution counters are part of the deterministic surface.
    for name in [
        "solver.queries.feasibility",
        "solver.queries.model",
        "lofi.tb_lookup.hits",
        "lofi.insns",
        "target.lofi.runs",
        "target.hifi.runs",
    ] {
        assert!(
            off.contains(&format!("\"name\":\"{name}\"")),
            "{name} missing from counter dump:\n{off}"
        );
    }
    assert_eq!(
        off, on,
        "profiling (or the thread count under it) changed a counter"
    );
    assert_eq!(off, both, "span events (or one thread) changed a counter");
    // Drop what the sinks collected so later tests in the process start
    // clean.
    let _ = pokemu_rt::prof::take();
    let _ = pokemu_rt::trace::drain();
}

/// `StageStats` covers its own run only: two runs executing at once on two
/// threads each report worker-summed stage time within their own workers'
/// busy time, however the runs overlap.
#[test]
fn concurrent_runs_report_only_their_own_stage_time() {
    let _metrics = metrics_lock();
    let config = PipelineConfig {
        first_byte: Some(0x80),
        max_paths_per_insn: 16,
        threads: 2,
        ..PipelineConfig::default()
    };
    let runs: Vec<_> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..2)
            .map(|_| s.spawn(move || run_cross_validation(config)))
            .collect();
        runs.into_iter().map(|r| r.join().unwrap()).collect()
    });
    for cv in &runs {
        let s = &cv.stages;
        let busy: std::time::Duration = s.workers.iter().map(|w| w.busy).sum();
        assert!(
            s.generate + s.execute <= busy,
            "generate {:?} + execute {:?} exceed the run's worker busy time {busy:?}",
            s.generate,
            s.execute
        );
    }
}

/// Coverage bitmaps and the manifest's deviation list obey the same
/// thread-count-invariance contract as the counters: the accounting the CI
/// gate compares against a committed baseline must not depend on worker
/// scheduling. Coverage maps are *cumulative* (set-only bits), so the
/// snapshot after each of three identical runs — at 1, 2, and 8 worker
/// threads — must be byte-identical, and so must each run's full
/// [`DeviationRecord`] list (name, instruction bytes, path-id, cause, and
/// components per deviation).
#[test]
fn coverage_and_deviations_are_thread_count_invariant() {
    let _metrics = metrics_lock();
    pokemu_rt::coverage::set_enabled(true);
    let run = |threads| {
        let cv = run_cross_validation(PipelineConfig {
            first_byte: Some(0x80),
            max_paths_per_insn: 64,
            threads,
            ..PipelineConfig::default()
        });
        (cv, pokemu_rt::coverage::snapshot())
    };
    let (cv1, cov1) = run(1);
    let (cv2, cov2) = run(2);
    let (cv8, cov8) = run(8);

    // The run produced real deviations with provenance attached.
    assert!(!cv1.deviations.is_empty(), "0x80 must deviate on Lo-Fi");
    assert_eq!(cv1.deviations.len(), cv1.lofi_filtered + cv1.hifi_filtered);
    assert!(
        cv1.deviations.iter().all(|d| !d.insn_hex.is_empty()),
        "every deviation must carry its instruction bytes"
    );
    assert!(
        cv1.deviations.iter().any(|d| d.path_id != 0),
        "explored-path deviations must carry non-zero path ids"
    );

    // Byte-identical deviation lists across thread counts...
    assert_eq!(cv1.deviations, cv2.deviations, "1 vs 2 worker threads");
    assert_eq!(cv1.deviations, cv8.deviations, "1 vs 8 worker threads");

    // ...and byte-identical coverage bitmaps, including the JSONL export
    // the manifest and baseline diff are built from.
    for name in [
        "coverage.opcode",
        "coverage.path",
        "coverage.uop",
        "coverage.exception",
    ] {
        let m = cov1.map(name).unwrap_or_else(|| panic!("{name} missing"));
        assert!(m.set_count() > 0, "{name} must be non-empty");
    }
    assert_eq!(cov1, cov2, "1 vs 2 worker threads coverage");
    assert_eq!(cov1, cov8, "1 vs 8 worker threads coverage");
    assert_eq!(cov1.to_jsonl(), cov8.to_jsonl());
}

/// The random baseline is a function of its seed.
#[test]
fn random_baseline_is_a_function_of_its_seed() {
    let _metrics = metrics_lock();
    let config = RandomConfig {
        tests: 40,
        seed: 0x5EED5EED,
        ..RandomConfig::default()
    };
    let a = run_random_baseline(config);
    let b = run_random_baseline(config);
    assert_eq!(a.tests, b.tests);
    assert_eq!(a.lofi_differences, b.lofi_differences);
    assert_eq!(a.lofi_clusters, b.lofi_clusters);
}

/// Chained test programs obey the replay contract: a chain whose segment
/// picks are drawn from an `rt::prop` generator regenerates *byte-for-byte
/// identical* code when the failure is replayed through `POKEMU_PROP_SEED`
/// / `POKEMU_PROP_SIZE` — the chainer itself adds no nondeterminism on top
/// of the seed.
#[test]
fn prop_seed_replays_chained_programs_byte_for_byte() {
    use pokemu::explore::{explore_state_space, to_chain_segments, StateSpaceConfig};
    use pokemu::testgen::TestProgram;

    let _metrics = metrics_lock();
    let baseline = pokemu::harness::baseline_snapshot();
    let config = StateSpaceConfig {
        max_paths: 64,
        ..StateSpaceConfig::default()
    };
    // A pool of chainable segments from three small families.
    let mut segments = Vec::new();
    for (key, insn) in [
        ("clc", &[0xf8][..]),
        ("jz", &[0x74, 0x02][..]),
        ("push", &[0x50][..]),
    ] {
        let space = explore_state_space(insn, &baseline, config);
        segments.extend(to_chain_segments(&space, key));
    }
    assert!(segments.len() >= 4);

    let built: Mutex<(Vec<u8>, u64)> = Mutex::new((Vec::new(), 0));
    let property = |g: &mut Gen| {
        let k = g.range(2..=4usize);
        let picks: Vec<_> = (0..k).map(|_| g.choose(&segments).clone()).collect();
        let prog = TestProgram::chain("prop/chain".into(), &picks).expect("chains assemble");
        *built.lock().unwrap() = (prog.code.clone(), prog.path_id);
        panic!("forced failure to capture the seed");
    };

    let fail = run_report("chain_replay", 16, property).expect_err("property must fail");
    let first = built.lock().unwrap().clone();
    assert!(!first.0.is_empty());

    std::env::set_var(SEED_ENV, format!("{:#x}", fail.seed));
    std::env::set_var(SIZE_ENV, fail.size.to_string());
    let replayed = run_report("chain_replay", 16, property);
    std::env::remove_var(SEED_ENV);
    std::env::remove_var(SIZE_ENV);
    replayed.expect_err("replay must reproduce the failure");

    let second = built.lock().unwrap().clone();
    assert_eq!(
        first.0, second.0,
        "replayed chain code must be byte-identical"
    );
    assert_eq!(first.1, second.1, "replayed chain path id must match");
}

/// The conformance corpus obeys the same thread-count-invariance contract
/// as the pipeline: the rendered baseline documents — chain path ids, code
/// hashes, segment provenance, and deviations — are byte-identical whether
/// the corpus ran on 1, 2, or 8 worker threads.
#[test]
fn conformance_corpus_results_are_thread_count_invariant() {
    use pokemu::harness::conformance::{build_corpus, program_json, run_conformance};

    let _metrics = metrics_lock();
    let corpus = build_corpus();
    let render = |threads| {
        let run = run_conformance(&corpus, threads);
        assert!(run.quarantined.is_empty(), "{threads} threads");
        assert_eq!(run.results.len(), corpus.len(), "{threads} threads");
        run.results
            .iter()
            .map(program_json)
            .collect::<Vec<_>>()
            .join("\n")
    };
    let one = render(1);
    let two = render(2);
    let eight = render(8);
    assert_eq!(one, two, "1 vs 2 worker threads");
    assert_eq!(one, eight, "1 vs 8 worker threads");
}

/// Forces an `rt::prop` failure, then replays it via `POKEMU_PROP_SEED` /
/// `POKEMU_PROP_SIZE` and checks the generator draws byte-for-byte the same
/// input that failed.
#[test]
fn prop_seed_env_replays_the_failing_case_byte_for_byte() {
    let drawn: Mutex<Vec<u8>> = Mutex::new(Vec::new());
    let property = |g: &mut Gen| {
        let v = g.bytes(0, 64);
        *drawn.lock().unwrap() = v.clone();
        assert!(v.len() < 5, "forced failure: {} bytes", v.len());
    };

    // First run: find and shrink a failure (no env vars involved).
    let fail = run_report("forced_failure", 64, property).expect_err("property must fail");

    // The reported (seed, size) pair must regenerate the counterexample.
    let mut g = Gen::new(fail.seed, fail.size);
    let expected = g.bytes(0, 64);
    assert!(
        expected.len() >= 5,
        "reported (seed, size) must generate a failing input"
    );

    // Replay through the env-var path, as a user following the panic
    // message would.
    std::env::set_var(SEED_ENV, format!("{:#x}", fail.seed));
    std::env::set_var(SIZE_ENV, fail.size.to_string());
    let replayed = run_report("forced_failure", 64, property);
    std::env::remove_var(SEED_ENV);
    std::env::remove_var(SIZE_ENV);

    let replay_fail = replayed.expect_err("replay must reproduce the failure");
    assert_eq!(replay_fail.seed, fail.seed);
    assert_eq!(replay_fail.size, fail.size);
    assert_eq!(
        *drawn.lock().unwrap(),
        expected,
        "replay must draw identical bytes"
    );
}
