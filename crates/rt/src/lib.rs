//! `pokemu-rt` — self-contained runtime support for the PokeEMU-rs
//! workspace, replacing every external crate the repo once pulled from
//! crates.io so that `cargo build && cargo test` work with no network
//! access:
//!
//! | was | now |
//! |---|---|
//! | `rand` | [`rng`]: seedable SplitMix64 / xoshiro256** with the small `Rng` surface the repo uses |
//! | `crossbeam` (scoped threads) | [`pool`]: `std::thread::scope` work queue with per-worker stats |
//! | `proptest` | [`prop`]: the [`prop!`] macro — N cases, PRNG generators, shrink-by-halving, `POKEMU_PROP_SEED` replay |
//! | `tracing` + `metrics` + `serde_json` | [`trace`]: scoped spans with two sinks, Chrome `trace_event` events and a folded `.folded` profile for flamegraph tooling ([`prof`] holds the folded table and its export); [`metrics`]: counters / timers / log-scale histograms with snapshot-diff; [`json`]: the matching zero-dep JSON reader |
//!
//! On top of the replacements, observability primitives with no external
//! equivalent in the old dependency set: [`coverage`] (fixed-size atomic
//! bitmaps recording opcode / path / µop / exception-class coverage,
//! snapshot-diffable and JSONL-exportable for the run manifest and the CI
//! coverage gate), [`flight`] (a per-thread ring buffer of recent events,
//! dumped post-hoc on panic or cross-validation deviation), [`fault`]
//! (named deterministic fault-injection points, armed via `POKEMU_FAULT`,
//! that chaos-test the quarantine and budget layers), and [`history`] (an
//! append-only, content-hashed cross-run ledger under
//! `target/history/` — the substrate for `pokemu-report compare`, `trend`,
//! and the CI trend gate).
//!
//! Determinism is the point, not just offline builds: the same seeds produce
//! the same exploration choices, the same random-baseline tests (E5), and
//! the same property-test cases on every machine, so experiment results and
//! failures are exactly reproducible.

#![warn(missing_docs)]

pub mod coverage;
pub mod fault;
pub mod flight;
pub mod history;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod prof;
pub mod prop;
pub mod rng;
pub mod trace;

pub use coverage::{CoverageMap, CoverageSnapshot, MapSnapshot};
pub use fault::FaultKind;
pub use flight::FlightEvent;
pub use history::RunRecord;
pub use metrics::{Counter, Histogram, MetricsSnapshot, Timer};
pub use pool::{for_each, PoolRun, QuarantineRecord, WorkerStats};
pub use prof::FrameStat;
pub use prop::Gen;
pub use rng::{mix64, Rng, SplitMix64};
pub use trace::{SpanEvent, SpanGuard, TracePaths};

use std::path::PathBuf;

/// The workspace `target/` directory: `$CARGO_TARGET_DIR` if set, else the
/// nearest ancestor `target/` of the current directory, else `./target`.
pub fn target_dir() -> PathBuf {
    if let Ok(d) = std::env::var("CARGO_TARGET_DIR") {
        return PathBuf::from(d);
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = cwd.as_path();
    loop {
        let cand = dir.join("target");
        if cand.is_dir() {
            return cand;
        }
        match dir.parent() {
            Some(p) => dir = p,
            None => return cwd.join("target"),
        }
    }
}
