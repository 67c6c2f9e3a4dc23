//! Scoped spans: the workspace's one timing recorder, with two sinks.
//!
//! A [`span!`](crate::span) or [`timed`] site opens a [`SpanGuard`] on the
//! current thread's scope stack and closes it when the guard drops. The
//! clock is read once on open and once on close, and the closed scope goes
//! to the sinks that were on when it opened:
//!
//! * **Events** (`POKEMU_TRACE=1` or [`set_enabled`]): one [`SpanEvent`]
//!   per scope — begin timestamp, duration, parent span id and `key=value`
//!   attributes — for timelines. Each thread appends to a bounded buffer;
//!   when it is full, new events are *dropped and counted* in the
//!   `trace.dropped_events` metric rather than blocking the instrumented
//!   code. Buffers drain to the global collector in batches with
//!   `try_lock` at the half-full mark, and with a blocking flush only at
//!   sync points ([`flush_thread`], pool-worker exit, [`drain`]).
//! * **Profile** (`POKEMU_PROF=1` or [`set_profiling`]): calls, total time
//!   and self time (total minus the time in profiled child scopes) folded
//!   into a per-thread table under the scope's `a;b;c` stack path, for
//!   flamegraphs. The table allocates only for a path it has not seen, and
//!   merges into the process-global table in [`crate::prof`] at the same
//!   sync points.
//!
//! Both sinks are off by default. With both off a site costs one relaxed
//! atomic load, and attribute expressions are evaluated only when events
//! are on. Neither sink feeds counters or exploration decisions, so counter
//! determinism does not depend on them.
//!
//! [`export`] writes the collected events to
//! `target/trace/<run>.trace.json` (Chrome `trace_event` JSON, loadable in
//! `chrome://tracing` or <https://ui.perfetto.dev>) together with a run's
//! metrics as `target/trace/<run>.metrics.jsonl` (see
//! [`crate::metrics::MetricsSnapshot::to_jsonl`]); [`crate::prof::export`]
//! writes the folded table as `target/prof/<run>.folded`.
//!
//! Timestamps are relative to a process-wide epoch fixed at first use, so
//! they are monotonic and comparable across threads but carry no wall-clock
//! meaning — golden comparisons must only ever look at metric *counters*,
//! never at timestamps.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::json::escape;
use crate::metrics::{self, MetricsSnapshot};
use crate::prof::{self, FrameStat};

/// Environment variable that turns span events on (any non-empty value
/// other than `0`) and makes the pipeline export a trace when it finishes.
pub const TRACE_ENV: &str = "POKEMU_TRACE";

/// Environment variable that turns the folded profile on (any non-empty
/// value other than `0`) and makes the pipeline export a `.folded` profile
/// when it finishes.
pub const PROF_ENV: &str = "POKEMU_PROF";

/// Per-thread event-buffer capacity (events, not bytes).
pub const DEFAULT_BUFFER_CAPACITY: usize = 65_536;

const EVENTS: u8 = 1;
const PROFILE: u8 = 2;
/// Set in [`SINKS`] until the environment has been read into it.
const UNREAD: u8 = 4;

static SINKS: AtomicU8 = AtomicU8::new(UNREAD);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

/// The sinks the environment turns on; they stay on whatever the setters say.
fn env_sinks() -> u8 {
    static ENV: OnceLock<u8> = OnceLock::new();
    *ENV.get_or_init(|| {
        let on = |var| {
            std::env::var(var)
                .map(|v| !v.is_empty() && v != "0")
                .unwrap_or(false)
        };
        (if on(TRACE_ENV) { EVENTS } else { 0 }) | (if on(PROF_ENV) { PROFILE } else { 0 })
    })
}

/// The sinks that are on: one relaxed load once the environment is read.
#[inline]
fn sinks() -> u8 {
    let s = SINKS.load(Ordering::Relaxed);
    if s & UNREAD == 0 {
        s
    } else {
        read_env()
    }
}

#[cold]
fn read_env() -> u8 {
    let _ = SINKS.compare_exchange(UNREAD, env_sinks(), Ordering::Relaxed, Ordering::Relaxed);
    SINKS.load(Ordering::Relaxed)
}

fn set_sink(sink: u8, on: bool) {
    sinks();
    if on {
        SINKS.fetch_or(sink, Ordering::Relaxed);
    } else if env_sinks() & sink == 0 {
        SINKS.fetch_and(!sink, Ordering::Relaxed);
    }
}

/// `true` when `POKEMU_TRACE` was set in the environment at first check.
pub fn env_enabled() -> bool {
    env_sinks() & EVENTS != 0
}

/// `true` when `POKEMU_PROF` was set in the environment at first check.
pub fn profile_env_enabled() -> bool {
    env_sinks() & PROFILE != 0
}

/// Whether span events are being recorded.
#[inline]
pub fn enabled() -> bool {
    sinks() & EVENTS != 0
}

/// Whether either sink is on. Instrumentation that reads the clock outside
/// a span (per-origin solver timers, the symx time split) gates on this, so
/// a counters-only run pays no timestamp reads.
#[inline]
pub fn active() -> bool {
    sinks() != 0
}

/// Turns span events on or off process-wide. The environment variable
/// [`TRACE_ENV`] wins over `set_enabled(false)`.
pub fn set_enabled(on: bool) {
    set_sink(EVENTS, on);
}

/// Turns the folded profile on or off process-wide. The environment
/// variable [`PROF_ENV`] wins over `set_profiling(false)`.
pub fn set_profiling(on: bool) {
    set_sink(PROFILE, on);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One completed span, as stored in the collector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (static: instrumentation sites name their spans in code).
    pub name: &'static str,
    /// Unique span id (process-wide).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for a root span.
    pub parent: u64,
    /// Trace thread id (small dense integers assigned at first use).
    pub tid: u64,
    /// Begin timestamp, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// `key=value` attributes captured at span entry.
    pub attrs: Vec<(&'static str, String)>,
}

/// One open scope on a thread's stack.
struct Open {
    /// Its span id, or 0 when it records no event.
    id: u64,
    /// Time its profiled children have taken so far.
    child_ns: u64,
}

/// A thread's recorder: the scope stack and both sinks' local buffers.
struct Recorder {
    tid: u64,
    stack: Vec<Open>,
    /// The profiled open scopes' names joined by `;`.
    path: String,
    events: Vec<SpanEvent>,
    cap: usize,
    folded: BTreeMap<String, FrameStat>,
}

thread_local! {
    static THREAD: RefCell<Recorder> = RefCell::new(Recorder {
        tid: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        path: String::new(),
        events: Vec::new(),
        cap: DEFAULT_BUFFER_CAPACITY,
        folded: BTreeMap::new(),
    });
}

impl Recorder {
    fn push_event(&mut self, ev: SpanEvent) {
        if self.events.len() >= self.cap {
            // Buffer full and the collector is busy: drop rather than block
            // or reallocate. The count makes the loss visible (CI fails a
            // traced run with any drops).
            if let Ok(mut g) = COLLECTOR.try_lock() {
                g.append(&mut self.events);
            } else {
                metrics::counter("trace.dropped_events").inc();
                return;
            }
        }
        self.events.push(ev);
        if self.events.len() * 2 >= self.cap {
            // High-water mark: drain opportunistically, never blocking.
            if let Ok(mut g) = COLLECTOR.try_lock() {
                g.append(&mut self.events);
            }
        }
    }
}

static COLLECTOR: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());
static THREAD_NAMES: Mutex<BTreeMap<u64, String>> = Mutex::new(BTreeMap::new());

/// Names the current thread in exported traces (e.g. `worker-3`).
pub fn set_thread_name(name: impl Into<String>) {
    let tid = THREAD.with(|t| t.borrow().tid);
    THREAD_NAMES
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(tid, name.into());
}

/// Moves the current thread's events into the global collector and merges
/// its profile into the global table (blocking). Pool workers call this as
/// they exit; call it manually on long-lived threads before [`export`] or
/// [`prof::export`].
pub fn flush_thread() {
    THREAD.with(|t| {
        let mut t = t.borrow_mut();
        if !t.events.is_empty() {
            COLLECTOR
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .append(&mut t.events);
        }
        prof::merge(&mut t.folded);
    });
}

/// Flushes the current thread and takes every event collected so far.
pub fn drain() -> Vec<SpanEvent> {
    flush_thread();
    std::mem::take(&mut *COLLECTOR.lock().unwrap_or_else(|e| e.into_inner()))
}

/// RAII guard for one scope: records it in the sinks that were on when it
/// opened, when it drops or [`finish`](SpanGuard::finish)es.
///
/// Create guards through the [`span!`](crate::span) macro (or
/// [`span_with`]); they return `None` when both sinks are off, so the
/// instrumented code pays only that check.
#[derive(Debug)]
#[must_use = "dropping the guard immediately records a zero-length span"]
pub struct SpanGuard {
    name: &'static str,
    /// The sinks this scope records in; 0 once it has closed.
    sinks: u8,
    /// Its span id, or 0 when it records no event.
    id: u64,
    parent: u64,
    /// Its index on the thread's stack.
    depth: usize,
    /// The length of the thread's path before this scope's name.
    path_len: usize,
    start_ns: u64,
    attrs: Vec<(&'static str, String)>,
}

impl SpanGuard {
    fn open(name: &'static str, sinks: u8, attrs: Vec<(&'static str, String)>) -> SpanGuard {
        let (id, parent, depth, path_len) = THREAD.with(|t| {
            let t = &mut *t.borrow_mut();
            let parent = t.stack.last().map_or(0, |o| o.id);
            let id = if sinks & EVENTS != 0 {
                NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
            } else {
                0
            };
            let path_len = t.path.len();
            if sinks & PROFILE != 0 {
                if path_len > 0 {
                    t.path.push(';');
                }
                t.path.push_str(name);
            }
            t.stack.push(Open { id, child_ns: 0 });
            (id, parent, t.stack.len() - 1, path_len)
        });
        SpanGuard {
            name,
            sinks,
            id,
            parent,
            depth,
            path_len,
            start_ns: now_ns(),
            attrs,
        }
    }

    /// Closes the scope now and returns how long it was open.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        if self.sinks == 0 {
            return Duration::ZERO;
        }
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        THREAD.with(|t| {
            let t = &mut *t.borrow_mut();
            // Guards close in LIFO order per thread; a leaked inner guard
            // is popped along with this one.
            if t.stack.len() > self.depth {
                t.stack.truncate(self.depth + 1);
                let open = t.stack.pop().expect("stack holds this scope");
                if self.sinks & PROFILE != 0 {
                    let stat = FrameStat {
                        calls: 1,
                        total_ns: dur_ns,
                        self_ns: dur_ns.saturating_sub(open.child_ns),
                    };
                    // Only a path seen for the first time allocates.
                    match t.folded.get_mut(t.path.as_str()) {
                        Some(s) => s.add(stat),
                        None => {
                            t.folded.insert(t.path.clone(), stat);
                        }
                    }
                    if let Some(up) = t.stack.last_mut() {
                        up.child_ns += dur_ns;
                    }
                }
                t.path.truncate(self.path_len);
            }
            if self.sinks & EVENTS != 0 {
                t.push_event(SpanEvent {
                    name: self.name,
                    id: self.id,
                    parent: self.parent,
                    tid: t.tid,
                    start_ns: self.start_ns,
                    dur_ns,
                    attrs: std::mem::take(&mut self.attrs),
                });
            }
        });
        self.sinks = 0;
        Duration::from_nanos(dur_ns)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

/// Opens a span whose attributes `attrs` builds, called only when events
/// are on; `None` when both sinks are off. The [`span!`](crate::span)
/// macro expands to this.
#[inline]
pub fn span_with(
    name: &'static str,
    attrs: impl FnOnce() -> Vec<(&'static str, String)>,
) -> Option<SpanGuard> {
    let sinks = sinks();
    if sinks == 0 {
        return None;
    }
    let attrs = if sinks & EVENTS != 0 {
        attrs()
    } else {
        Vec::new()
    };
    Some(SpanGuard::open(name, sinks, attrs))
}

/// Runs `f` under a span named `name`, returning its result *and* its
/// duration. The duration is measured whether or not a sink is on, so
/// callers such as `StageStats` get the same figure either way.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    timed_with(name, Vec::new, f)
}

/// [`timed`] with lazily-built attributes (only evaluated when events are
/// on).
pub fn timed_with<T>(
    name: &'static str,
    attrs: impl FnOnce() -> Vec<(&'static str, String)>,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    match span_with(name, attrs) {
        Some(guard) => {
            let out = f();
            (out, guard.finish())
        }
        None => {
            let t = Instant::now();
            let out = f();
            (out, t.elapsed())
        }
    }
}

/// Opens a span recording begin/end timestamps and `key = value` attributes:
///
/// ```
/// pokemu_rt::trace::set_enabled(true);
/// let insn = "push_r32";
/// let _guard = pokemu_rt::span!("explore_state_space", insn = insn, paths = 42);
/// ```
///
/// Expands to one relaxed atomic check when both sinks are off; attribute
/// expressions are evaluated only when events are on.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span_with($name, Vec::new)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::trace::span_with($name, || vec![$((stringify!($key), format!("{}", $value))),+])
    };
}

/// Paths written by [`export`].
#[derive(Debug, Clone)]
pub struct TracePaths {
    /// The Chrome `trace_event` JSON file.
    pub trace_json: PathBuf,
    /// The metrics JSONL dump.
    pub metrics_jsonl: PathBuf,
}

/// Serializes one event as a Chrome `trace_event` *complete* event object.
fn event_json(ev: &SpanEvent) -> String {
    let mut args = format!("\"span\":{},\"parent\":{}", ev.id, ev.parent);
    for (k, v) in &ev.attrs {
        args.push_str(&format!(",\"{}\":\"{}\"", escape(k), escape(v)));
    }
    format!(
        "{{\"name\":\"{}\",\"cat\":\"pokemu\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
         \"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
        escape(ev.name),
        ev.tid,
        ev.start_ns as f64 / 1000.0,
        ev.dur_ns as f64 / 1000.0,
    )
}

/// The directory trace exports land in: `target/trace/` next to the other
/// build artifacts (honors `CARGO_TARGET_DIR`). `pokemu-report` reads the
/// files back from here.
pub fn trace_dir() -> PathBuf {
    crate::target_dir().join("trace")
}

/// Drains all collected spans to `target/trace/<run>.trace.json` and writes
/// `metrics` — normally the run's delta, not the whole registry — to
/// `target/trace/<run>.metrics.jsonl`.
///
/// The trace file is a Chrome `trace_event` JSON object — open it in
/// `chrome://tracing` or drop it onto <https://ui.perfetto.dev>. Events
/// recorded by threads that are still alive and have not flushed are not
/// included; the pool flushes its workers automatically.
///
/// # Errors
///
/// Propagates filesystem errors creating or writing the output files.
pub fn export(run: &str, metrics: &MetricsSnapshot) -> std::io::Result<TracePaths> {
    let events = drain();
    let dir = trace_dir();
    std::fs::create_dir_all(&dir)?;
    let trace_json = dir.join(format!("{run}.trace.json"));
    let metrics_jsonl = dir.join(format!("{run}.metrics.jsonl"));

    let mut f = std::io::BufWriter::new(std::fs::File::create(&trace_json)?);
    write!(f, "{{\"traceEvents\":[")?;
    let mut first = true;
    for (tid, name) in THREAD_NAMES
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
    {
        if !first {
            write!(f, ",")?;
        }
        first = false;
        write!(
            f,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        )?;
    }
    for ev in &events {
        if !first {
            write!(f, ",")?;
        }
        first = false;
        write!(f, "{}", event_json(ev))?;
    }
    write!(
        f,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"run\":\"{}\"}}}}",
        escape(run)
    )?;
    f.flush()?;

    std::fs::write(&metrics_jsonl, metrics.to_jsonl())?;
    Ok(TracePaths {
        trace_json,
        metrics_jsonl,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The sinks are process-global state; tests that toggle them or
    /// inspect the collectors (here and in `prof`) serialize on this lock.
    pub(crate) fn serialize() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Empties both collectors, runs `f` with the given sinks on, then
    /// turns them off again.
    pub(crate) fn with_sinks(events: bool, profile: bool, f: impl FnOnce()) {
        drain();
        prof::take();
        set_enabled(events);
        set_profiling(profile);
        f();
        set_enabled(false);
        set_profiling(false);
    }

    #[test]
    fn disabled_span_macro_returns_none() {
        let _g = serialize();
        set_enabled(false);
        set_profiling(false);
        if active() {
            return; // cannot observe the disabled path under POKEMU_TRACE/PROF
        }
        let s = crate::span!("test.disabled", ignored = 1);
        assert!(s.is_none());
    }

    #[test]
    fn spans_nest_within_a_thread() {
        let _g = serialize();
        with_sinks(true, false, || {
            let _outer = crate::span!("test.outer");
            let _inner = crate::span!("test.inner", depth = 2);
        });
        let events = drain();
        let outer = events.iter().find(|e| e.name == "test.outer").unwrap();
        let inner = events.iter().find(|e| e.name == "test.inner").unwrap();
        assert_eq!(inner.parent, outer.id, "inner span links to outer");
        assert_eq!(outer.parent, 0, "outer span is a root");
        assert_eq!(inner.tid, outer.tid);
        assert!(inner.start_ns >= outer.start_ns);
        assert_eq!(inner.attrs, vec![("depth", "2".to_owned())]);
        // Inner drops first, so it is recorded first.
        let io = events.iter().position(|e| e.name == "test.inner").unwrap();
        let oo = events.iter().position(|e| e.name == "test.outer").unwrap();
        assert!(io < oo);
    }

    #[test]
    fn spans_on_other_threads_get_their_own_stack() {
        let _g = serialize();
        let main_tid = THREAD.with(|t| t.borrow().tid);
        with_sinks(true, false, || {
            let _outer = crate::span!("test.cross_outer");
            std::thread::spawn(|| {
                let _child = crate::span!("test.cross_child");
                drop(_child);
                flush_thread();
            })
            .join()
            .unwrap();
        });
        let events = drain();
        let child = events
            .iter()
            .find(|e| e.name == "test.cross_child")
            .unwrap();
        assert_eq!(
            child.parent, 0,
            "a span on a fresh thread is a root, not a child of another thread's span"
        );
        assert_ne!(child.tid, main_tid);
    }

    #[test]
    fn wraparound_drops_are_counted() {
        let _g = serialize();
        let dropped = metrics::counter("trace.dropped_events");
        let before = dropped.get();
        with_sinks(true, false, || {
            // Hold the collector lock so buffers cannot drain, with a tiny
            // capacity so the ring fills immediately.
            let hold = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
            THREAD.with(|t| t.borrow_mut().cap = 4);
            for _ in 0..10 {
                let _s = crate::span!("test.dropped");
            }
            drop(hold);
            THREAD.with(|t| t.borrow_mut().cap = DEFAULT_BUFFER_CAPACITY);
        });
        let kept = drain().iter().filter(|e| e.name == "test.dropped").count();
        let dropped_now = dropped.get() - before;
        assert!(dropped_now > 0, "overflow must be counted");
        assert_eq!(kept as u64 + dropped_now, 10, "kept + dropped = recorded");
    }

    #[test]
    fn export_writes_parseable_chrome_trace() {
        let _g = serialize();
        with_sinks(true, false, || {
            let _s = crate::span!("test.export", insn = "push \"eax\"");
        });
        let run_metrics = MetricsSnapshot {
            counters: [("test.export.runs".to_owned(), 3)].into(),
            ..MetricsSnapshot::default()
        };
        let paths = export("rt-trace-selftest", &run_metrics).expect("export succeeds");
        let text = std::fs::read_to_string(&paths.trace_json).unwrap();
        let v = crate::json::parse(&text).expect("trace JSON parses");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let ours = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("test.export"))
            .expect("exported span present");
        assert_eq!(ours.get("ph").and_then(|p| p.as_str()), Some("X"));
        let args = ours.get("args").unwrap();
        assert_eq!(
            args.get("insn").and_then(|i| i.as_str()),
            Some("push \"eax\""),
            "attribute quoting survives the round trip"
        );
        let metrics_text = std::fs::read_to_string(&paths.metrics_jsonl).unwrap();
        assert_eq!(
            MetricsSnapshot::from_jsonl(&metrics_text).unwrap(),
            run_metrics,
            "the metrics file holds the snapshot it was given, not the registry"
        );
    }

    #[test]
    fn timed_measures_even_when_disabled() {
        let _g = serialize();
        set_enabled(false);
        set_profiling(false);
        let ((), dur) = timed("test.timed", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(dur >= std::time::Duration::from_millis(2));
    }

    /// With both sinks on, the profile is the events folded by stack path:
    /// rebuilding each event's path from its parent links and summing gives
    /// exactly the table's calls and total time.
    #[test]
    fn profile_is_the_events_folded_by_path() {
        let _g = serialize();
        with_sinks(true, true, || {
            let workers: Vec<_> = (0..2)
                .map(|w| {
                    std::thread::spawn(move || {
                        for i in 0..3 {
                            let _outer = crate::span!("fold.outer", worker = w);
                            for _ in 0..=i {
                                let _mid = crate::span!("fold.mid");
                                let _leaf = crate::span!("fold.leaf");
                            }
                            let _leaf = crate::span!("fold.leaf");
                        }
                        flush_thread();
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
        });
        let events = drain();
        let table = prof::take();
        let by_id: BTreeMap<u64, &SpanEvent> = events.iter().map(|e| (e.id, e)).collect();
        let mut rebuilt: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for ev in events.iter().filter(|e| e.name.starts_with("fold.")) {
            let mut names = vec![ev.name];
            let mut up = ev.parent;
            while let Some(p) = by_id.get(&up) {
                names.push(p.name);
                up = p.parent;
            }
            names.reverse();
            let slot = rebuilt.entry(names.join(";")).or_default();
            slot.0 += 1;
            slot.1 += ev.dur_ns;
        }
        let folded: BTreeMap<String, (u64, u64)> = table
            .iter()
            .filter(|(path, _)| path.starts_with("fold."))
            .map(|(path, s)| (path.clone(), (s.calls, s.total_ns)))
            .collect();
        assert_eq!(
            rebuilt.len(),
            4,
            "outer, outer;mid, outer;mid;leaf, outer;leaf"
        );
        assert_eq!(rebuilt["fold.outer;fold.mid;fold.leaf"].0, 12);
        assert_eq!(folded, rebuilt);
    }

    #[test]
    fn profile_only_records_no_events() {
        let _g = serialize();
        if env_enabled() {
            return; // POKEMU_TRACE=1 keeps events on
        }
        with_sinks(false, true, || {
            let _outer = crate::span!("quiet.outer", n = 1);
            let ((), _) = timed("quiet.timed", || {});
        });
        assert!(drain().is_empty(), "the profile alone records no events");
        assert_eq!(prof::take()["quiet.outer;quiet.timed"].calls, 1);
    }
}
