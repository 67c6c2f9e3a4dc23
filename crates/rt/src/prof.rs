//! The profile sink's store: the folded table that [`crate::trace`]'s
//! recorder fills, and its collapsed-stack export.
//!
//! This module keeps no stack and opens no scopes. With the profile on
//! (`POKEMU_PROF=1` or [`crate::trace::set_profiling`]), every closing
//! [`span!`](crate::span) or [`crate::trace::timed`] scope folds its calls,
//! total time and **self time** (total minus the time in profiled child
//! scopes) into its thread's table under the scope's `a;b;c` stack path.
//! Thread tables merge into the process-global table here when the thread
//! flushes ([`crate::trace::flush_thread`]; pool workers flush on exit), and
//! [`export`] writes the merged table as a `.folded` file under
//! `target/prof/` — the format `inferno`, speedscope and `flamegraph.pl`
//! all consume (one line per stack: `frame;frame;frame <self-µs>`).
//!
//! Self time is wall-clock nanoseconds; the export rounds it to
//! microseconds because that is what flamegraph tooling expects as integer
//! sample counts.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// What the profile accumulated for one stack path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStat {
    /// Number of times a scope closed on this exact stack path.
    pub calls: u64,
    /// Total wall nanoseconds of those scopes, children included.
    pub total_ns: u64,
    /// Wall nanoseconds not spent in profiled child scopes — the
    /// collapsed-stack "sample count".
    pub self_ns: u64,
}

impl FrameStat {
    pub(crate) fn add(&mut self, other: FrameStat) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }
}

static TABLE: Mutex<BTreeMap<String, FrameStat>> = Mutex::new(BTreeMap::new());

/// Merges a thread's folded table into the global one, emptying it.
pub(crate) fn merge(local: &mut BTreeMap<String, FrameStat>) {
    if local.is_empty() {
        return;
    }
    let mut g = TABLE.lock().unwrap_or_else(|e| e.into_inner());
    for (path, stat) in std::mem::take(local) {
        g.entry(path).or_default().add(stat);
    }
}

/// Flushes the current thread and takes the merged profile collected so
/// far, leaving the global table empty.
pub fn take() -> BTreeMap<String, FrameStat> {
    crate::trace::flush_thread();
    std::mem::take(&mut *TABLE.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Renders a profile in collapsed-stack format: one line per stack path,
/// `frame;frame;frame <self-µs>`, sorted by path. Paths whose self time
/// rounds to zero microseconds are kept with count 0 so the call structure
/// stays visible.
fn render_folded(table: &BTreeMap<String, FrameStat>) -> String {
    let mut out = String::new();
    for (path, stat) in table {
        out.push_str(&format!("{path} {}\n", stat.self_ns / 1_000));
    }
    out
}

/// Takes the merged profile and writes it to `target/prof/<run>.folded`
/// (collapsed-stack format — feed it to `inferno-flamegraph`, speedscope,
/// or `flamegraph.pl`). Returns the path written.
///
/// # Errors
///
/// Propagates filesystem errors creating or writing the output file.
pub fn export(run: &str) -> std::io::Result<PathBuf> {
    let table = take();
    let dir = crate::target_dir().join("prof");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{run}.folded"));
    std::fs::write(&path, render_folded(&table))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::{serialize, with_sinks};
    use crate::trace::{active, profile_env_enabled, timed};
    use std::time::Duration;

    /// With the profile off no frame is folded: `span!` returns `None`
    /// when events are off too, and an events-only span leaves the table
    /// without its path.
    #[test]
    fn disabled_frame_returns_none() {
        let _g = serialize();
        if profile_env_enabled() {
            return; // cannot observe the disabled path under POKEMU_PROF=1
        }
        with_sinks(false, false, || {
            if !active() {
                assert!(crate::span!("test.disabled").is_none());
            }
        });
        with_sinks(true, false, || {
            let _s = crate::span!("test.disabled");
        });
        assert!(
            !take().keys().any(|p| p.contains("test.disabled")),
            "a span opened with the profile off folds nothing"
        );
    }

    #[test]
    fn frames_aggregate_under_their_stack_path() {
        let _g = serialize();
        with_sinks(false, true, || {
            let _outer = crate::span!("outer");
            std::thread::sleep(Duration::from_millis(4));
            for _ in 0..2 {
                let _inner = crate::span!("inner");
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let table = take();
        let outer = table["outer"];
        let inner = table["outer;inner"];
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 2, "two inner entries aggregate on one path");
        assert!(
            inner.total_ns >= 4_000_000,
            "inner total covers both sleeps"
        );
        assert_eq!(
            outer.total_ns,
            outer.self_ns + inner.total_ns,
            "outer self excludes exactly its child time"
        );
        assert!(
            outer.self_ns >= 4_000_000,
            "outer keeps its own 4 ms: {}",
            outer.self_ns
        );
    }

    #[test]
    fn folded_export_is_sorted_and_parseable() {
        let _g = serialize();
        with_sinks(false, true, || {
            let _a = crate::span!("pipeline");
            {
                let _b = crate::span!("stage_b");
                std::thread::sleep(Duration::from_millis(2));
            }
            let _c = crate::span!("stage_a");
            std::thread::sleep(Duration::from_millis(2));
        });
        let path = export("rt-prof-selftest").expect("export succeeds");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "three stack paths: {text:?}");
        // Every line is `path <integer-µs>` and lines are sorted by path.
        let mut paths = Vec::new();
        for line in &lines {
            let (p, count) = line.rsplit_once(' ').expect("folded line shape");
            count.parse::<u64>().expect("integer self-µs");
            paths.push(p.to_owned());
        }
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(paths, sorted, "folded output is path-sorted");
        assert!(paths.iter().any(|p| p == "pipeline;stage_a"));
        assert!(paths.iter().any(|p| p == "pipeline;stage_b"));
    }

    /// `trace::timed` runs its closure and hands back the result with both
    /// sinks off, folding nothing.
    #[test]
    fn framed_runs_the_closure_when_disabled() {
        let _g = serialize();
        with_sinks(false, false, || {
            assert_eq!(timed("test.closure", || 41 + 1).0, 42);
        });
        if !profile_env_enabled() {
            assert!(!take().contains_key("test.closure"));
        }
    }
}
