//! A flight recorder: the last N events per thread, always on, dumped on
//! crash or deviation.
//!
//! [`crate::trace`] answers "what did the whole run do?" but costs a full
//! re-run under `POKEMU_TRACE=1`. The flight recorder answers the post-hoc
//! question — "what were the last things each thread did before the panic /
//! before this cross-validation deviation?" — from the run that already
//! failed. Each thread owns a fixed-capacity ring of [`FlightEvent`]s;
//! recording overwrites the oldest entry, so memory is bounded no matter
//! how long the run.
//!
//! Recording locks only the recording thread's *own* ring (uncontended in
//! steady state — other threads touch it only while taking a [`snapshot`]),
//! and events are ordered by a global relaxed sequence counter so a merged
//! dump reads as one interleaved timeline.
//!
//! The harness pipeline arms the recorder with [`set_dump_dir`] +
//! [`install_panic_hook`]; a panic then writes `flightrec-panic.jsonl` into
//! the run-manifest directory, and the pipeline itself dumps
//! `flightrec-deviations.jsonl` whenever cross-validation finds a
//! deviation. Disable with `POKEMU_FLIGHT=0` (the per-event cost is then a
//! single relaxed atomic load); size the rings with `POKEMU_FLIGHT_CAP=<n>`
//! when 256 events per thread is not enough history. Overwrites of
//! not-yet-dumped events are counted in [`dropped`] so a too-small ring is
//! diagnosable.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};

use crate::json;

/// Environment variable that disables flight recording when set to `0`.
pub const FLIGHT_ENV: &str = "POKEMU_FLIGHT";

/// Environment variable overriding the per-thread ring capacity (events;
/// parsed once at the first ring creation, minimum 1). Rings created after
/// an explicit [`set_thread_capacity`] call use that value instead.
pub const FLIGHT_CAP_ENV: &str = "POKEMU_FLIGHT_CAP";

/// Default per-thread ring capacity.
pub const DEFAULT_CAPACITY: usize = 256;

const STATE_UNINIT: u8 = 0;
const STATE_ON: u8 = 1;
const STATE_OFF: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);
static SEQ: AtomicU64 = AtomicU64::new(0);
/// 0 = not yet resolved (lazy env check); any other value is the capacity.
static CAPACITY: AtomicUsize = AtomicUsize::new(0);
/// Events overwritten before anyone snapshotted them, process-wide. Kept as
/// a plain atomic rather than a metrics counter: drop totals depend on how
/// items land on threads, so a counter would break the thread-count
/// byte-identity contract golden runs rely on.
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Parses a [`FLIGHT_CAP_ENV`] value: a positive integer event count.
fn parse_capacity(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

#[cold]
fn init_capacity_from_env() -> usize {
    let cap = std::env::var(FLIGHT_CAP_ENV)
        .ok()
        .as_deref()
        .and_then(parse_capacity)
        .unwrap_or(DEFAULT_CAPACITY);
    CAPACITY.store(cap, Ordering::Relaxed);
    cap
}

/// The capacity new rings are created with: an explicit
/// [`set_thread_capacity`] override, else `POKEMU_FLIGHT_CAP`, else
/// [`DEFAULT_CAPACITY`].
pub fn current_capacity() -> usize {
    match CAPACITY.load(Ordering::Relaxed) {
        0 => init_capacity_from_env(),
        cap => cap,
    }
}

/// Events overwritten (dropped from a full ring) so far, process-wide.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var(FLIGHT_ENV).map(|v| v != "0").unwrap_or(true);
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Whether flight recording is on (one relaxed load when off).
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

/// Turns flight recording on or off process-wide.
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Sets the ring capacity used by threads that have not recorded yet
/// (existing rings keep their size), overriding both the default and any
/// `POKEMU_FLIGHT_CAP` value.
pub fn set_thread_capacity(cap: usize) {
    CAPACITY.store(cap.max(1), Ordering::Relaxed);
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global sequence number (total order across threads).
    pub seq: u64,
    /// Nanoseconds since the process trace epoch.
    pub ns: u64,
    /// Recorder thread index (assigned on the thread's first event).
    pub tid: u64,
    /// Event name (static label, e.g. `"pipeline.deviation"`).
    pub name: &'static str,
    /// Free-form detail payload.
    pub detail: String,
}

struct Ring {
    tid: u64,
    cap: usize,
    /// Oldest-first once full; `next` is the overwrite cursor.
    events: Vec<FlightEvent>,
    next: usize,
}

impl Ring {
    fn push(&mut self, ev: FlightEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            // Overwriting loses the oldest retained event; make the loss
            // visible so "the ring was too small" is diagnosable post-hoc.
            DROPPED.fetch_add(1, Ordering::Relaxed);
            self.events[self.next] = ev;
        }
        self.next = (self.next + 1) % self.cap;
    }
}

fn registry() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();
    REGISTRY.get_or_init(Mutex::default)
}

thread_local! {
    static MY_RING: Arc<Mutex<Ring>> = {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        let ring = Arc::new(Mutex::new(Ring {
            tid: reg.len() as u64,
            cap: current_capacity(),
            events: Vec::new(),
            next: 0,
        }));
        reg.push(ring.clone());
        ring
    };
}

/// Records one event on the calling thread's ring. The detail closure runs
/// only when recording is enabled, so callers can format lazily.
pub fn note(name: &'static str, detail: impl FnOnce() -> String) {
    if !enabled() {
        return;
    }
    let detail = detail();
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let ns = crate::trace::now_ns();
    MY_RING.with(|ring| {
        let mut r = ring.lock().unwrap_or_else(|e| e.into_inner());
        let tid = r.tid;
        r.push(FlightEvent {
            seq,
            ns,
            tid,
            name,
            detail,
        });
    });
}

/// All retained events from every thread's ring, merged and ordered by
/// global sequence number.
pub fn snapshot() -> Vec<FlightEvent> {
    let rings: Vec<Arc<Mutex<Ring>>> = registry().lock().unwrap_or_else(|e| e.into_inner()).clone();
    let mut out = Vec::new();
    for ring in rings {
        let r = ring.lock().unwrap_or_else(|e| e.into_inner());
        out.extend(r.events.iter().cloned());
    }
    out.sort_by_key(|e| e.seq);
    out
}

/// Empties every ring (test hook; sequence numbers keep counting).
pub fn clear() {
    let rings: Vec<Arc<Mutex<Ring>>> = registry().lock().unwrap_or_else(|e| e.into_inner()).clone();
    for ring in rings {
        let mut r = ring.lock().unwrap_or_else(|e| e.into_inner());
        r.events.clear();
        r.next = 0;
    }
}

fn event_json(ev: &FlightEvent) -> String {
    format!(
        "{{\"kind\":\"flight\",\"seq\":{},\"ns\":{},\"tid\":{},\"name\":\"{}\",\"detail\":\"{}\"}}",
        ev.seq,
        ev.ns,
        ev.tid,
        json::escape(ev.name),
        json::escape(&ev.detail)
    )
}

/// Writes the merged ring contents to `path` as JSON lines, one event per
/// line, creating parent directories as needed.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn dump_to(path: &Path) -> std::io::Result<()> {
    dump_events_to(path, &snapshot())
}

/// Writes an explicit event list (e.g. a quarantine record's captured
/// snapshot) to `path` in the same JSONL format as [`dump_to`].
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn dump_events_to(path: &Path, events: &[FlightEvent]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for ev in events {
        writeln!(f, "{}", event_json(ev))?;
    }
    f.flush()
}

fn dump_dir_slot() -> &'static Mutex<Option<PathBuf>> {
    static DIR: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    DIR.get_or_init(Mutex::default)
}

/// Directs crash dumps to `dir` (normally the run-manifest directory).
pub fn set_dump_dir(dir: PathBuf) {
    *dump_dir_slot().lock().unwrap_or_else(|e| e.into_inner()) = Some(dir);
}

/// Where crash dumps go: the configured dump dir, else `target/run/`.
pub fn dump_dir() -> PathBuf {
    dump_dir_slot()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
        .unwrap_or_else(|| crate::target_dir().join("run"))
}

/// Installs a panic hook (once per process, chaining any existing hook)
/// that dumps the flight recorder to `<dump_dir>/flightrec-panic.jsonl`
/// before the panic propagates.
pub fn install_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if enabled() {
                let path = dump_dir().join("flightrec-panic.jsonl");
                let _ = dump_to(&path);
                eprintln!("flight recorder dumped to {}", path.display());
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Rings and the enabled flag are process-global; tests serialize.
    fn serialize() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(Mutex::default)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn records_and_orders_events() {
        let _g = serialize();
        set_enabled(true);
        clear();
        note("flight.test.a", || "first".to_owned());
        note("flight.test.b", || "second".to_owned());
        let evs: Vec<_> = snapshot()
            .into_iter()
            .filter(|e| e.name.starts_with("flight.test."))
            .collect();
        assert_eq!(evs.len(), 2);
        assert!(evs[0].seq < evs[1].seq);
        assert_eq!(evs[0].detail, "first");
        assert_eq!(evs[1].detail, "second");
    }

    #[test]
    fn ring_keeps_only_the_last_n() {
        let _g = serialize();
        set_enabled(true);
        clear();
        // This thread's ring already exists with the default capacity, so
        // overflow it: record far more than DEFAULT_CAPACITY events.
        for i in 0..(DEFAULT_CAPACITY + 10) {
            note("flight.test.ring", move || format!("ev{i}"));
        }
        let evs: Vec<_> = snapshot()
            .into_iter()
            .filter(|e| e.name == "flight.test.ring")
            .collect();
        assert!(evs.len() <= DEFAULT_CAPACITY);
        // The newest event always survives; the oldest were overwritten.
        assert_eq!(
            evs.last().unwrap().detail,
            format!("ev{}", DEFAULT_CAPACITY + 9)
        );
        assert!(evs.iter().all(|e| e.detail != "ev0"));
    }

    #[test]
    fn capacity_env_values_parse() {
        assert_eq!(parse_capacity("64"), Some(64));
        assert_eq!(parse_capacity(" 1024 "), Some(1024));
        assert_eq!(
            parse_capacity("0"),
            None,
            "a zero-capacity ring is not a ring"
        );
        assert_eq!(parse_capacity(""), None);
        assert_eq!(parse_capacity("lots"), None);
        assert_eq!(parse_capacity("-4"), None);
    }

    #[test]
    fn over_capacity_burst_keeps_newest_and_counts_drops() {
        let _g = serialize();
        set_enabled(true);
        clear();
        set_thread_capacity(8);
        let before = dropped();
        // A fresh thread creates its ring at the configured capacity, the
        // same path a POKEMU_FLIGHT_CAP-sized ring takes.
        std::thread::spawn(|| {
            for i in 0..20 {
                note("flight.test.cap", move || format!("burst{i}"));
            }
        })
        .join()
        .unwrap();
        set_thread_capacity(DEFAULT_CAPACITY);
        let evs: Vec<_> = snapshot()
            .into_iter()
            .filter(|e| e.name == "flight.test.cap")
            .collect();
        assert_eq!(evs.len(), 8, "ring retains exactly its capacity");
        let details: Vec<_> = evs.iter().map(|e| e.detail.as_str()).collect();
        let newest: Vec<String> = (12..20).map(|i| format!("burst{i}")).collect();
        assert_eq!(
            details,
            newest.iter().map(String::as_str).collect::<Vec<_>>(),
            "the newest events survive, oldest are overwritten"
        );
        // 20 events into an 8-slot ring overwrite 12. Other test threads may
        // add drops of their own concurrently, so this is a floor.
        assert!(
            dropped() - before >= 12,
            "12 overwrites must be counted, saw {}",
            dropped() - before
        );
    }

    #[test]
    fn disabled_recording_skips_detail_closure() {
        let _g = serialize();
        set_enabled(false);
        let mut ran = false;
        note("flight.test.disabled", || {
            ran = true;
            String::new()
        });
        set_enabled(true);
        assert!(!ran, "detail closure must not run while disabled");
        assert!(snapshot().iter().all(|e| e.name != "flight.test.disabled"));
    }

    #[test]
    fn dump_is_parseable_jsonl() {
        let _g = serialize();
        set_enabled(true);
        clear();
        note("flight.test.dump", || "say \"hi\"\n".to_owned());
        let path = crate::target_dir().join("run/flight-test/dump.jsonl");
        dump_to(&path).expect("dump writes");
        let text = std::fs::read_to_string(&path).expect("dump readable");
        let line = text
            .lines()
            .find(|l| l.contains("flight.test.dump"))
            .expect("dumped event present");
        let v = json::parse(line).expect("dump line parses");
        assert_eq!(v.get("kind").and_then(json::Value::as_str), Some("flight"));
        assert_eq!(
            v.get("detail").and_then(json::Value::as_str),
            Some("say \"hi\"\n")
        );
    }
}
