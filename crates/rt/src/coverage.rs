//! Fixed-size atomic coverage bitmaps — the accounting half of the
//! observability layer that turns "the pipeline ran" into "the pipeline
//! covered this much of the space".
//!
//! The paper's headline results are coverage numbers (paths explored per
//! instruction, encodings discovered, deviation classes found), so the
//! pipeline records four spaces as process-global bitmaps:
//!
//! | map | bit index | recorded by |
//! |---|---|---|
//! | `coverage.opcode` | one-/two-byte opcode | `explore::insn_space` |
//! | `coverage.path` | FNV hash of a path's branch decisions | `symx::engine` |
//! | `coverage.uop` | Lo-Fi micro-op / helper kind | `lofi::exec` |
//! | `coverage.exception` | exception vector | `isa::interp` |
//!
//! Design mirrors [`crate::metrics`]: handles ([`CoverageMap`]) are `Copy`
//! pointers into leaked registry slots, hot sites resolve them once, and a
//! [`set`](CoverageMap::set) is one relaxed `fetch_or`. Bits are *monotone*
//! — they are only ever set — so snapshots taken after identical work are
//! byte-identical regardless of worker-thread count or how many times the
//! work repeated, which is what lets CI diff a run against a committed
//! baseline manifest.
//!
//! Recording defaults to **on** (a set bit is as cheap as a counter bump)
//! but can be switched off with [`set_enabled`] or `POKEMU_COVERAGE=0`;
//! when off, the per-event cost is a single relaxed atomic load. CI uses
//! the switch to prove the coverage gate actually gates: a run with
//! coverage disabled must fail the baseline diff.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{OnceLock, RwLock};

use crate::json::{self, Value};

/// Environment variable that disables coverage recording when set to `0`.
pub const COVERAGE_ENV: &str = "POKEMU_COVERAGE";

const STATE_UNINIT: u8 = 0;
const STATE_ON: u8 = 1;
const STATE_OFF: u8 = 2;

/// Tri-state so the steady-state check is one relaxed load; the environment
/// is consulted exactly once, on the first event.
static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var(COVERAGE_ENV)
        .map(|v| v != "0")
        .unwrap_or(true);
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Whether coverage recording is on. One relaxed atomic load — the whole
/// per-event cost when recording is disabled.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

/// Turns coverage recording on or off process-wide (overrides the
/// environment from this point on).
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

#[derive(Debug)]
struct MapInner {
    bits: usize,
    words: Box<[AtomicU64]>,
}

/// Handle to a named fixed-size atomic bitmap.
///
/// Indices wrap modulo the map size, so hash-derived indices (path ids)
/// can be fed in directly.
#[derive(Debug, Clone, Copy)]
pub struct CoverageMap(&'static MapInner);

impl CoverageMap {
    /// Sets one bit (one relaxed `fetch_or`; a no-op relaxed load when
    /// recording is disabled).
    #[inline]
    pub fn set(&self, index: usize) {
        if !enabled() {
            return;
        }
        let i = index % self.0.bits;
        self.0.words[i / 64].fetch_or(1u64 << (i % 64), Ordering::Relaxed);
    }

    /// The map's size in bits.
    pub fn bits(&self) -> usize {
        self.0.bits
    }

    /// Number of bits currently set.
    pub fn set_count(&self) -> usize {
        self.0
            .words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }
}

fn registry() -> &'static RwLock<BTreeMap<&'static str, &'static MapInner>> {
    static REGISTRY: OnceLock<RwLock<BTreeMap<&'static str, &'static MapInner>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(BTreeMap::new()))
}

/// The coverage map named `name` with `bits` capacity, created on first
/// use. Re-registering the same name requires the same size.
pub fn map(name: &'static str, bits: usize) -> CoverageMap {
    let bits = bits.max(1);
    if let Some(&m) = registry()
        .read()
        .expect("coverage registry poisoned")
        .get(name)
    {
        assert_eq!(
            m.bits, bits,
            "coverage map {name} re-registered with a different size"
        );
        return CoverageMap(m);
    }
    let mut w = registry().write().expect("coverage registry poisoned");
    let inner = w.entry(name).or_insert_with(|| {
        // One leaked allocation per distinct map for the process lifetime;
        // names are compile-time constants, so this is bounded.
        Box::leak(Box::new(MapInner {
            bits,
            words: (0..bits.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
        }))
    });
    assert_eq!(
        inner.bits, bits,
        "coverage map {name} re-registered with a different size"
    );
    CoverageMap(inner)
}

/// Point-in-time copy of one bitmap.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapSnapshot {
    /// Map size in bits.
    pub bits: usize,
    /// Raw 64-bit words, little-endian bit order within each word.
    pub words: Vec<u64>,
}

impl MapSnapshot {
    /// Number of set bits.
    pub fn set_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of the space covered, in `0.0..=1.0`.
    pub fn fraction(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.set_count() as f64 / self.bits as f64
        }
    }

    /// Whether bit `i` is set.
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .map(|w| w & (1u64 << (i % 64)) != 0)
            .unwrap_or(false)
    }

    /// The set bit indices, ascending.
    pub fn indices(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.set_count());
        for (wi, &w) in self.words.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                let b = w.trailing_zeros() as usize;
                out.push(wi * 64 + b);
                w &= w - 1;
            }
        }
        out
    }

    /// Bits newly set versus an earlier snapshot (`self & !earlier`).
    pub fn since(&self, earlier: &MapSnapshot) -> MapSnapshot {
        MapSnapshot {
            bits: self.bits,
            words: self
                .words
                .iter()
                .enumerate()
                .map(|(i, &w)| w & !earlier.words.get(i).copied().unwrap_or(0))
                .collect(),
        }
    }

    /// Indices set in `self` but missing from `other` — the "coverage
    /// dropped" set when `self` is the baseline and `other` the current run.
    pub fn missing_from(&self, other: &MapSnapshot) -> Vec<usize> {
        self.since(other).indices()
    }

    /// Builds a snapshot from a bit count and explicit set indices (the
    /// export format; out-of-range indices wrap like [`CoverageMap::set`]).
    pub fn from_indices(bits: usize, indices: &[usize]) -> MapSnapshot {
        let bits = bits.max(1);
        let mut words = vec![0u64; bits.div_ceil(64)];
        for &i in indices {
            let i = i % bits;
            words[i / 64] |= 1u64 << (i % 64);
        }
        MapSnapshot { bits, words }
    }

    /// Reconstructs a snapshot from a parsed JSON object with `bits` and
    /// `indices` members (the shape [`CoverageSnapshot::to_jsonl`] and the
    /// run-manifest `coverage` section both use).
    pub fn from_value(v: &Value) -> Option<MapSnapshot> {
        let bits = v.get("bits")?.as_u64()? as usize;
        let indices: Vec<usize> = v
            .get("indices")?
            .as_array()?
            .iter()
            .filter_map(|i| i.as_u64().map(|i| i as usize))
            .collect();
        Some(MapSnapshot::from_indices(bits, &indices))
    }
}

/// Point-in-time copy of every registered coverage map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageSnapshot {
    /// name -> bitmap copy.
    pub maps: BTreeMap<String, MapSnapshot>,
}

impl CoverageSnapshot {
    /// Per-map difference versus an earlier snapshot (bits newly set).
    pub fn since(&self, earlier: &CoverageSnapshot) -> CoverageSnapshot {
        CoverageSnapshot {
            maps: self
                .maps
                .iter()
                .map(|(k, v)| {
                    let was = earlier.maps.get(k).cloned().unwrap_or_default();
                    (k.clone(), v.since(&was))
                })
                .collect(),
        }
    }

    /// One map by name, if present.
    pub fn map(&self, name: &str) -> Option<&MapSnapshot> {
        self.maps.get(name)
    }

    /// Renders one JSON line per map:
    /// `{"kind":"coverage","name":...,"bits":N,"set":K,"indices":[...]}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, m) in &self.maps {
            out.push_str(&map_json_line(name, m));
            out.push('\n');
        }
        out
    }

    /// Renders the maps as one JSON object keyed by map name — the shape
    /// embedded in the run manifest's `coverage` section.
    pub fn to_json_object(&self) -> String {
        let entries: Vec<String> = self
            .maps
            .iter()
            .map(|(name, m)| format!("\"{}\":{}", json::escape(name), map_json_body(m)))
            .collect();
        format!("{{{}}}", entries.join(","))
    }

    /// Parses a [`to_jsonl`](CoverageSnapshot::to_jsonl) dump back into a
    /// snapshot (the round-trip the report tooling and tests rely on).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_jsonl(text: &str) -> Result<CoverageSnapshot, String> {
        let mut maps = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            if v.get("kind").and_then(Value::as_str) != Some("coverage") {
                continue;
            }
            let name = v
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("line {}: no name", i + 1))?;
            let m = MapSnapshot::from_value(&v)
                .ok_or_else(|| format!("line {}: no bits/indices", i + 1))?;
            maps.insert(name.to_owned(), m);
        }
        Ok(CoverageSnapshot { maps })
    }
}

fn map_json_body(m: &MapSnapshot) -> String {
    let indices: Vec<String> = m.indices().iter().map(|i| i.to_string()).collect();
    format!(
        "{{\"bits\":{},\"set\":{},\"indices\":[{}]}}",
        m.bits,
        m.set_count(),
        indices.join(",")
    )
}

fn map_json_line(name: &str, m: &MapSnapshot) -> String {
    format!(
        "{{\"kind\":\"coverage\",\"name\":\"{}\",\"bits\":{},\"set\":{},\"indices\":[{}]}}",
        json::escape(name),
        m.bits,
        m.set_count(),
        m.indices()
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",")
    )
}

/// Copies the current state of every registered map.
pub fn snapshot() -> CoverageSnapshot {
    let maps = registry()
        .read()
        .expect("coverage registry poisoned")
        .iter()
        .map(|(&name, inner)| {
            (
                name.to_owned(),
                MapSnapshot {
                    bits: inner.bits,
                    words: inner
                        .words
                        .iter()
                        .map(|w| w.load(Ordering::Relaxed))
                        .collect(),
                },
            )
        })
        .collect();
    CoverageSnapshot { maps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The enabled flag is process-global; tests that toggle it serialize.
    fn serialize() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(Mutex::default)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn bits_set_and_wrap() {
        let _g = serialize();
        set_enabled(true);
        let m = map("test.coverage.wrap", 100);
        m.set(3);
        m.set(103); // wraps to 3
        m.set(99);
        let s = snapshot();
        let ms = s.map("test.coverage.wrap").unwrap();
        assert_eq!(ms.bits, 100);
        assert!(ms.contains(3) && ms.contains(99));
        assert_eq!(ms.indices(), vec![3, 99]);
        assert_eq!(ms.set_count(), 2);
    }

    #[test]
    fn same_name_is_the_same_map() {
        let _g = serialize();
        set_enabled(true);
        let a = map("test.coverage.same", 64);
        let b = map("test.coverage.same", 64);
        a.set(7);
        assert!(snapshot().map("test.coverage.same").unwrap().contains(7));
        assert_eq!(a.bits(), b.bits());
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = serialize();
        let m = map("test.coverage.disabled", 64);
        set_enabled(false);
        m.set(11);
        set_enabled(true);
        assert!(
            !snapshot()
                .map("test.coverage.disabled")
                .unwrap()
                .contains(11),
            "a set while disabled must not land"
        );
        m.set(11);
        assert!(snapshot()
            .map("test.coverage.disabled")
            .unwrap()
            .contains(11));
    }

    #[test]
    fn since_reports_only_new_bits() {
        let _g = serialize();
        set_enabled(true);
        let m = map("test.coverage.since", 128);
        m.set(1);
        let before = snapshot();
        m.set(1);
        m.set(65);
        let d = snapshot().since(&before);
        assert_eq!(d.map("test.coverage.since").unwrap().indices(), vec![65]);
    }

    #[test]
    fn missing_from_detects_drops() {
        let base = MapSnapshot::from_indices(64, &[1, 5, 9]);
        let cur = MapSnapshot::from_indices(64, &[1, 9, 20]);
        assert_eq!(base.missing_from(&cur), vec![5]);
        assert!(cur.missing_from(&cur).is_empty());
    }

    /// Snapshot -> JSONL -> `pokemu_rt::json` parse -> snapshot must be the
    /// identity, and diffing the round-tripped copy against the original
    /// must be empty — this is the contract the run manifest, the committed
    /// CI baseline, and `pokemu-report diff` all depend on.
    #[test]
    fn snapshot_roundtrip_through_json() {
        let _g = serialize();
        set_enabled(true);
        let m = map("test.coverage.roundtrip", 130);
        for i in [0usize, 63, 64, 129, 130 /* wraps to 0 */] {
            m.set(i);
        }
        let snap = snapshot();
        let text = snap.to_jsonl();
        let parsed = CoverageSnapshot::from_jsonl(&text).expect("round-trip parses");
        assert_eq!(parsed, snap, "JSONL round-trip must be the identity");
        let rt = parsed.map("test.coverage.roundtrip").unwrap();
        assert_eq!(rt.indices(), vec![0, 63, 64, 129]);
        // Diff in both directions is empty: nothing gained, nothing lost.
        let orig = snap.map("test.coverage.roundtrip").unwrap();
        assert!(rt.missing_from(orig).is_empty());
        assert!(orig.missing_from(rt).is_empty());
        // The manifest-embedded object form parses to the same maps too.
        let obj = json::parse(&snap.to_json_object()).expect("object form parses");
        let again = MapSnapshot::from_value(obj.get("test.coverage.roundtrip").unwrap()).unwrap();
        assert_eq!(&again, orig);
    }
}
