//! Chaos tests: the deterministic fault layer armed against the real
//! pipeline.
//!
//! Each test arms one `pokemu_rt::fault` point — a worker panic, a starved
//! solver, an injected stall — and checks the degradation contract from
//! DESIGN.md §8: the campaign finishes, the failure is *attributed* (a
//! quarantine record, an `unknown_queries` count, a `completed: false`
//! flag) rather than fatal, and every instruction the fault did not name
//! produces byte-identical results to a fault-free run, independent of the
//! worker-thread count.

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use pokemu::harness::{run_cross_validation, CrossValidation, PipelineConfig};
use pokemu::solver::origin::ORIGINS;
use pokemu::solver::{BvSolver, SatResult, TermPool};
use pokemu_rt::{fault, metrics, prof, trace};

/// The armed fault set (and the metrics/coverage registries the pipeline
/// writes to) is process-global, so chaos tests serialize on this lock.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Disarms every fault on drop, so a failing assertion cannot leak an
/// armed fault into the next test.
struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        fault::disarm();
    }
}

/// The standard small pipeline run (same shape as
/// `tests/deterministic_replay.rs`): the 0x80 ALU-group opcodes, enough to
/// produce several work items and real deviations in well under a second.
fn small_run(threads: usize) -> CrossValidation {
    run_cross_validation(PipelineConfig {
        first_byte: Some(0x80),
        max_paths_per_insn: 64,
        threads,
        ..PipelineConfig::default()
    })
}

/// The instructions (by hex) that produced at least one deviation.
fn deviating_hexes(cv: &CrossValidation) -> BTreeSet<String> {
    cv.deviations.iter().map(|d| d.insn_hex.clone()).collect()
}

/// `faulted`'s deviations must be exactly `clean`'s minus (at most) the one
/// instruction the fault named — same records, same order, nothing else
/// perturbed.
fn assert_only_one_instruction_lost(clean: &CrossValidation, faulted: &CrossValidation) {
    let missing: BTreeSet<String> = deviating_hexes(clean)
        .difference(&deviating_hexes(faulted))
        .cloned()
        .collect();
    assert!(
        missing.len() <= 1,
        "only the faulted instruction may lose deviations, got {missing:?}"
    );
    let expected: Vec<_> = clean
        .deviations
        .iter()
        .filter(|d| !missing.contains(&d.insn_hex))
        .collect();
    let got: Vec<_> = faulted.deviations.iter().collect();
    assert_eq!(
        got, expected,
        "unaffected instructions must be byte-identical to the fault-free run"
    );
}

/// A worker panic on one item becomes exactly one quarantine record; the
/// run completes, the other instructions' deviations and coverage are
/// byte-identical to a fault-free run, on 1, 2, and 8 worker threads.
#[test]
fn worker_panic_is_quarantined_and_the_rest_stays_byte_identical() {
    let _g = chaos_lock();
    let _d = Disarm;
    pokemu_rt::coverage::set_enabled(true);

    fault::arm("pool.item:panic:1").unwrap();
    let run = |threads| {
        let cv = small_run(threads);
        let cov = pokemu_rt::coverage::snapshot();
        (cv, cov)
    };
    let (cv1, cov1) = run(1);
    let (cv2, cov2) = run(2);
    let (cv8, cov8) = run(8);

    for (cv, threads) in [(&cv1, 1), (&cv2, 2), (&cv8, 8)] {
        assert!(
            cv.unique_instructions >= 2,
            "need several work items for a targeted fault"
        );
        assert!(
            cv.completed,
            "a quarantined item must not clear the completion flag ({threads} threads)"
        );
        assert_eq!(cv.quarantined.len(), 1, "{threads} threads");
        let q = &cv.quarantined[0];
        assert_eq!(
            q.item,
            Some(1),
            "the fault named item 1 ({threads} threads)"
        );
        assert!(
            q.message.contains("pool.item"),
            "panic payload names the fault point: {}",
            q.message
        );
        assert!(
            !q.flight.is_empty(),
            "quarantine carries a flight-recorder snapshot"
        );
        assert_eq!(cv.skipped_instructions, 0, "{threads} threads");
        let done: usize = cv.stages.workers.iter().map(|w| w.items).sum();
        assert_eq!(
            done + 1,
            cv.unique_instructions,
            "every item but the quarantined one succeeded ({threads} threads)"
        );
    }

    // Degradation is thread-invariant: same deviations, same coverage.
    assert_eq!(cv1.deviations, cv2.deviations, "1 vs 2 worker threads");
    assert_eq!(cv1.deviations, cv8.deviations, "1 vs 8 worker threads");
    assert_eq!(cov1, cov2, "1 vs 2 worker threads coverage");
    assert_eq!(cov1, cov8, "1 vs 8 worker threads coverage");

    // Against a fault-free run, only the quarantined instruction differs.
    fault::disarm();
    let clean = small_run(2);
    assert!(clean.quarantined.is_empty());
    assert!(
        clean.total_paths >= cv1.total_paths,
        "the quarantined item can only remove paths"
    );
    assert_only_one_instruction_lost(&clean, &cv1);
}

/// A solver starved by an `unknown` fault scoped to one work item degrades
/// that item alone: its queries count as unknown, it is not fully explored,
/// and every other instruction's results are untouched.
#[test]
fn starved_solver_degrades_one_instruction_not_the_run() {
    let _g = chaos_lock();
    let _d = Disarm;

    fault::arm("solver.check:unknown:0").unwrap();
    let cv1 = small_run(1);
    let cv8 = small_run(8);
    fault::disarm();
    let clean = small_run(2);

    for (cv, threads) in [(&cv1, 1), (&cv8, 8)] {
        assert!(cv.completed, "{threads} threads");
        assert!(cv.quarantined.is_empty(), "{threads} threads");
        assert!(
            cv.unknown_queries > 0,
            "item 0's queries must degrade to Unknown ({threads} threads)"
        );
        assert!(
            cv.fully_explored < cv.unique_instructions,
            "the starved instruction cannot count as fully explored"
        );
    }
    assert_eq!(
        cv1.deviations, cv8.deviations,
        "degradation is thread-invariant"
    );
    assert_eq!(cv1.unknown_queries, cv8.unknown_queries);

    assert_eq!(clean.unknown_queries, 0, "fault-free run must not degrade");
    assert!(
        cv1.total_paths < clean.total_paths,
        "the starved instruction contributes no paths ({} vs {})",
        cv1.total_paths,
        clean.total_paths
    );
    assert_only_one_instruction_lost(&clean, &cv1);
}

/// Quarantine isolation extends to the conformance corpus: a worker panic
/// on one corpus program (the same `pool.item` fault point `POKEMU_FAULT`
/// arms from the environment) removes exactly that program's result, and
/// every other program's rendered baseline document stays byte-identical
/// to a fault-free run — on 1 and 8 worker threads alike.
#[test]
fn quarantined_corpus_program_leaves_the_rest_byte_identical() {
    use pokemu::harness::conformance::{build_corpus, program_json, run_conformance};
    use std::collections::BTreeMap;

    let _g = chaos_lock();
    let _d = Disarm;

    let corpus = build_corpus();
    let render = |run: &pokemu::harness::ConformanceRun| -> BTreeMap<String, String> {
        run.results
            .iter()
            .map(|r| (r.name.clone(), program_json(r)))
            .collect()
    };

    fault::arm("pool.item:panic:1").unwrap();
    let faulted1 = run_conformance(&corpus, 1);
    let faulted8 = run_conformance(&corpus, 8);
    fault::disarm();
    let clean = run_conformance(&corpus, 2);

    assert!(clean.quarantined.is_empty());
    assert_eq!(clean.results.len(), corpus.len());

    let clean_docs = render(&clean);
    for (faulted, threads) in [(&faulted1, 1), (&faulted8, 8)] {
        assert_eq!(faulted.quarantined.len(), 1, "{threads} threads");
        assert_eq!(
            faulted.quarantined[0].item,
            Some(1),
            "the fault named corpus item 1 ({threads} threads)"
        );
        assert_eq!(
            faulted.results.len(),
            corpus.len() - 1,
            "exactly the faulted program is missing ({threads} threads)"
        );
        let docs = render(faulted);
        assert!(
            !docs.contains_key(&corpus[1].name),
            "the quarantined program must not report a result"
        );
        for (name, doc) in &docs {
            assert_eq!(
                Some(doc),
                clean_docs.get(name),
                "{name} must be byte-identical to the fault-free run \
                 ({threads} threads)"
            );
        }
    }
}

/// A latency fault that stalls a query past the solver's own deadline
/// degrades that query to `Unknown`; the next query (fault disarmed, fresh
/// per-query deadline) answers normally — learned state intact.
#[test]
fn latency_fault_past_the_solver_deadline_degrades_to_unknown() {
    let _g = chaos_lock();
    let _d = Disarm;

    let mut pool = TermPool::new();
    let x = pool.var(8, "x");
    let five = pool.constant(8, 5);
    let c = pool.eq(x, five);

    let mut s = BvSolver::new();
    s.set_deadline(Some(Duration::from_millis(5)));
    fault::arm("solver.check:latency=30:*").unwrap();
    let t = Instant::now();
    assert_eq!(
        s.check(&pool, &[c]),
        SatResult::Unknown,
        "the stall must consume the whole per-query budget"
    );
    assert!(
        t.elapsed() >= Duration::from_millis(30),
        "the latency fault really slept"
    );

    fault::disarm();
    assert_eq!(
        s.check(&pool, &[c]),
        SatResult::Sat,
        "the solver recovers as soon as the stall clears"
    );
}

/// An injected `solver.check` latency is billed to the origin that issued
/// the query: with profiling on, every origin's `solver.ns.<origin>` timer
/// holds at least the 2 ms each of its queries stalled. liftbench's
/// `explore.solver.ms.*` layers read these timers.
#[test]
fn injected_solver_latency_is_billed_to_each_query_origin() {
    let _g = chaos_lock();
    let _d = Disarm;

    trace::set_profiling(true);
    fault::arm("solver.check:latency=2:*").unwrap();
    let before = metrics::snapshot();
    let cv = run_cross_validation(PipelineConfig {
        first_byte: Some(0x80),
        max_instructions: 1,
        max_paths_per_insn: 4,
        threads: 1,
        ..PipelineConfig::default()
    });
    let delta = metrics::snapshot().since(&before);
    fault::disarm();
    trace::set_profiling(false);
    let _ = prof::take();

    assert!(cv.total_paths > 0, "the stalled run still completes");
    let stall_ns = Duration::from_millis(2).as_nanos() as u64;
    let mut queries = 0;
    for origin in ORIGINS {
        let q = delta.counter(&format!("solver.queries.{origin}"));
        let ns = delta.timer_ns(&format!("solver.ns.{origin}"));
        assert!(
            ns >= q * stall_ns,
            "solver.ns.{origin} holds {ns} ns for {q} queries stalled 2 ms each"
        );
        queries += q;
    }
    assert!(queries > 0, "the run issued no solver queries");
}

/// A run deadline under injected per-item stalls stops dispatch cleanly:
/// in-flight items finish, the rest are counted as skipped, and the run
/// reports `completed: false` instead of hanging or aborting.
#[test]
fn run_deadline_stops_dispatch_and_marks_the_run_incomplete() {
    let _g = chaos_lock();
    let _d = Disarm;

    // Every claimed item stalls 60 ms at the pool fault point; the whole
    // run gets 20 ms. Each worker claims one item (well before the
    // deadline), finishes it slowly, then finds the budget spent — so at
    // most `threads` items complete and the remainder is skipped.
    fault::arm("pool.item:latency=60:*").unwrap();
    let cv = run_cross_validation(PipelineConfig {
        first_byte: Some(0x80),
        max_paths_per_insn: 64,
        threads: 2,
        run_deadline: Some(Duration::from_millis(20)),
        ..PipelineConfig::default()
    });

    assert!(!cv.completed, "a deadline-cut run must say so");
    assert!(cv.quarantined.is_empty());
    let done: usize = cv.stages.workers.iter().map(|w| w.items).sum();
    assert!(
        done <= 2,
        "no worker claims a second item past the deadline"
    );
    assert_eq!(
        done + cv.skipped_instructions,
        cv.unique_instructions,
        "every instruction is accounted for: finished or skipped"
    );
    assert!(
        cv.skipped_instructions >= cv.unique_instructions - 2,
        "the queue tail must be skipped, not silently dropped"
    );
}
