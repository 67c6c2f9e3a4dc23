//! Conformance corpus: committed chained test programs with
//! expected-deviation baselines (DESIGN.md §9).
//!
//! The corpus is a fixed set of multi-instruction test programs built by
//! [`build_corpus`]: data-driven chains that stitch explored paths of small
//! instruction families together ([`TestProgram::chain`]), plus directed
//! chains that exercise sequence-dependent state the single-shot pipeline
//! cannot reach (descriptor accessed-bit accumulation: de-access a GDT
//! descriptor in one segment, reload the segment register in a later one).
//!
//! Each program's expected behavior is committed under `tests/roms/` as one
//! JSON document per program — its chain path id, code hash, per-segment
//! provenance, and the exact deviations (in the run-manifest interchange
//! format) the three-target comparison produces. `pokemu-report
//! conformance` re-runs the corpus and fails when any program drifts: a new
//! deviation, a vanished deviation, a path-id change, or any byte of the
//! generated program changing. The gate is *string equality* of the
//! rendered document, so it cannot be fooled by lossy number parsing; the
//! parse-based diagnosis only explains the drift.

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use pokemu_explore::{explore_state_space, to_chain_segments, PathEnd, StateSpaceConfig};
use pokemu_isa::snapshot::Snapshot;
use pokemu_isa::state::{Gpr, Seg};
use pokemu_lofi::Fidelity;
use pokemu_rt::json::{self, escape, Value};
use pokemu_rt::{metrics, pool, QuarantineRecord};
use pokemu_testgen::{fnv1a, gadgets::sel, layout, ChainSegment, SegmentMeta, TestProgram};
use pokemu_testgen::{StateItem, TestState};

use crate::compare::analyze_case;
use crate::pipeline::{hex, run_on_all_targets, DeviationRecord};
use crate::record::{deviation_json, parse_deviation};
use crate::targets::baseline_snapshot;

/// The corpus is validated against this Lo-Fi profile (the paper's QEMU
/// configuration); baselines are only meaningful for a fixed fidelity.
pub const CONFORMANCE_FIDELITY: Fidelity = Fidelity::QEMU_LIKE;

/// Path cap for corpus exploration: families are tiny instructions, and a
/// fixed low cap keeps corpus construction fast and deterministic.
const CORPUS_MAX_PATHS: usize = 64;

/// The instruction families the data-driven recipes draw segments from.
const FAMILIES: &[(&str, &[u8])] = &[
    ("clc", &[0xf8]),
    ("stc", &[0xf9]),
    ("cmc", &[0xf5]),
    ("jz", &[0x74, 0x02]),
    ("push_eax", &[0x50]),
    ("pop_eax", &[0x58]),
    ("shl_eax", &[0xc1, 0xe0, 0x02]),
    ("div_ecx", &[0xf7, 0xf1]),
    ("leave", &[0xc9]),
    ("mov_moffs_al", &[0xa2, 0x00, 0x50, 0x00, 0x00]),
    ("rdmsr", &[0x0f, 0x32]),
    ("iret", &[0xcf]),
    ("mov_ds_ax", &[0x8e, 0xd8]),
    ("pushf", &[0x9c]),
    ("popf", &[0x9d]),
];

/// Which explored path of a family a recipe slot takes.
#[derive(Debug, Clone, Copy)]
enum Pick {
    /// The `n`-th (mod count) normally-retiring path.
    Retired(usize),
    /// The `n`-th (mod count) faulting path. Faulting segments halt the
    /// program through the IDT handler, so recipes place them last.
    Fault(usize),
}

/// The data-driven recipes: `(chain name, [(family, pick)])`. Together with
/// the three directed chains below this yields the committed corpus.
const RECIPES: &[(&str, &[(&str, Pick)])] = &[
    (
        "flags-clc-stc",
        &[("clc", Pick::Retired(0)), ("stc", Pick::Retired(0))],
    ),
    (
        "flags-carry-chain",
        &[
            ("clc", Pick::Retired(0)),
            ("cmc", Pick::Retired(0)),
            ("pushf", Pick::Retired(0)),
        ],
    ),
    (
        "flags-popf-branch",
        &[("popf", Pick::Retired(0)), ("jz", Pick::Retired(0))],
    ),
    (
        "branch-both-ways",
        &[("jz", Pick::Retired(0)), ("jz", Pick::Retired(1))],
    ),
    (
        "stack-push-pop",
        &[
            ("push_eax", Pick::Retired(0)),
            ("pop_eax", Pick::Retired(0)),
        ],
    ),
    (
        "stack-pop-push-pop",
        &[
            ("pop_eax", Pick::Retired(0)),
            ("push_eax", Pick::Retired(0)),
            ("pop_eax", Pick::Retired(0)),
        ],
    ),
    (
        "stack-leave",
        &[("push_eax", Pick::Retired(0)), ("leave", Pick::Retired(0))],
    ),
    (
        "shift-then-branch",
        &[("shl_eax", Pick::Retired(0)), ("jz", Pick::Retired(0))],
    ),
    (
        "shift-twice",
        &[("shl_eax", Pick::Retired(0)), ("shl_eax", Pick::Retired(0))],
    ),
    (
        "div-then-clc",
        &[("div_ecx", Pick::Retired(0)), ("clc", Pick::Retired(0))],
    ),
    (
        "div-fault-last",
        &[("clc", Pick::Retired(0)), ("div_ecx", Pick::Fault(0))],
    ),
    (
        "store-moffs-twice",
        &[
            ("mov_moffs_al", Pick::Retired(0)),
            ("mov_moffs_al", Pick::Retired(0)),
        ],
    ),
    (
        "rdmsr-then-clc",
        &[("rdmsr", Pick::Retired(0)), ("clc", Pick::Retired(0))],
    ),
    (
        "rdmsr-fault-last",
        &[("stc", Pick::Retired(0)), ("rdmsr", Pick::Fault(0))],
    ),
    (
        "iret-fault-last",
        &[("push_eax", Pick::Retired(0)), ("iret", Pick::Fault(0))],
    ),
    (
        "segreload-then-push",
        &[
            ("mov_ds_ax", Pick::Retired(0)),
            ("push_eax", Pick::Retired(0)),
        ],
    ),
    (
        "segreload-twice",
        &[
            ("mov_ds_ax", Pick::Retired(0)),
            ("mov_ds_ax", Pick::Retired(0)),
        ],
    ),
    (
        "pushf-popf-roundtrip",
        &[("pushf", Pick::Retired(0)), ("popf", Pick::Retired(0))],
    ),
    (
        "mixed-four",
        &[
            ("clc", Pick::Retired(0)),
            ("push_eax", Pick::Retired(0)),
            ("shl_eax", Pick::Retired(0)),
            ("pop_eax", Pick::Retired(0)),
        ],
    ),
    (
        "mixed-flags-four",
        &[
            ("stc", Pick::Retired(0)),
            ("jz", Pick::Retired(0)),
            ("cmc", Pick::Retired(0)),
            ("pushf", Pick::Retired(0)),
        ],
    ),
    (
        "store-then-branch",
        &[("mov_moffs_al", Pick::Retired(0)), ("jz", Pick::Retired(1))],
    ),
];

/// One family's explored material: chainable segments plus each path's end
/// (segment index `i` corresponds to path `i`).
struct FamilyPaths {
    segments: Vec<ChainSegment>,
    ends: Vec<PathEnd>,
}

fn explore_family(key: &str, insn: &[u8], baseline: &Snapshot) -> FamilyPaths {
    let space = explore_state_space(
        insn,
        baseline,
        StateSpaceConfig {
            max_paths: CORPUS_MAX_PATHS,
            ..StateSpaceConfig::default()
        },
    );
    FamilyPaths {
        segments: to_chain_segments(&space, key),
        ends: space.paths.iter().map(|p| p.end).collect(),
    }
}

/// Selects one segment of a family by pick, falling back to the full path
/// list when the preferred kind is absent (deterministic either way).
fn select(family: &FamilyPaths, pick: Pick) -> ChainSegment {
    let indices: Vec<usize> = match pick {
        Pick::Retired(_) => (0..family.ends.len())
            .filter(|&i| family.ends[i] == PathEnd::Retired)
            .collect(),
        Pick::Fault(_) => (0..family.ends.len())
            .filter(|&i| matches!(family.ends[i], PathEnd::Exception(_)))
            .collect(),
    };
    let pool: Vec<usize> = if indices.is_empty() {
        (0..family.ends.len()).collect()
    } else {
        indices
    };
    let n = match pick {
        Pick::Retired(n) | Pick::Fault(n) => n,
    };
    family.segments[pool[n % pool.len()]].clone()
}

/// A hand-built segment that rewrites one GDT descriptor's attribute byte
/// to its *non-accessed* encoding (`mov byte [gdt+idx*8+5], attrs`). The
/// baseline commits every descriptor pre-accessed, so this is the only way
/// to put the accessed-bit write-back machinery in play.
fn deaccess_segment(seg: Seg) -> ChainSegment {
    let addr = layout::GDT_BASE + layout::gdt_index(seg) as u32 * 8 + 5;
    let attrs: u8 = if seg == Seg::Cs { 0x9a } else { 0x92 };
    let mut insn = vec![0xc6, 0x05];
    insn.extend_from_slice(&addr.to_le_bytes());
    insn.push(attrs);
    let name = format!("directed/deaccess-{}", seg.name());
    ChainSegment {
        path_id: fnv1a(name.as_bytes()),
        name,
        insn,
        state: TestState::default(),
        clobbers: vec!["mem".to_owned()],
    }
}

/// A hand-built segment that reloads a data-segment register from the GDT
/// (`mov sreg, ax` with EAX holding the baseline selector). On targets that
/// maintain accessed bits the load writes the bit back into the descriptor.
fn reload_segment(seg: Seg) -> ChainSegment {
    let sreg: u8 = match seg {
        Seg::Es => 0,
        Seg::Cs => panic!("CS cannot be loaded with mov"),
        Seg::Ss => 2,
        Seg::Ds => 3,
        Seg::Fs => 4,
        Seg::Gs => 5,
    };
    let name = format!("directed/reload-{}", seg.name());
    ChainSegment {
        path_id: fnv1a(name.as_bytes()),
        name,
        insn: vec![0x8e, 0xc0 | (sreg << 3)],
        state: TestState {
            items: vec![StateItem::Gpr(Gpr::Eax, sel(layout::gdt_index(seg)) as u32)],
        },
        clobbers: vec![format!("sel_{}", seg.name()), "mem".to_owned()],
    }
}

/// Builds the committed corpus: every data-driven recipe plus the directed
/// accessed-bit chains. Deterministic for a fixed binary.
pub fn build_corpus() -> Vec<TestProgram> {
    let _span = pokemu_rt::span!("conformance.build_corpus");
    let baseline = baseline_snapshot();
    let mut cache: HashMap<&str, FamilyPaths> = HashMap::new();
    for (key, insn) in FAMILIES {
        cache.insert(key, explore_family(key, insn, &baseline));
    }
    let mut out = Vec::with_capacity(RECIPES.len() + 3);
    for (name, picks) in RECIPES {
        let segments: Vec<ChainSegment> = picks
            .iter()
            .map(|(family, pick)| select(&cache[family], *pick))
            .collect();
        let prog = TestProgram::chain(format!("chain/{name}"), &segments)
            .unwrap_or_else(|e| panic!("corpus recipe {name} must assemble: {e}"));
        out.push(prog);
    }

    // Directed chains. De-access then reload makes hardware (and Hi-Fi)
    // write the accessed bit back into the GDT while the QEMU-like Lo-Fi
    // profile does not — a deviation *only a sequence* can expose, since
    // single-shot programs always start from pre-accessed descriptors.
    let deaccess = [deaccess_segment(Seg::Ds), reload_segment(Seg::Ds)];
    out.push(TestProgram::chain("chain/deaccess-ds".into(), &deaccess).expect("directed chain"));
    let multi = [
        deaccess_segment(Seg::Ds),
        deaccess_segment(Seg::Es),
        reload_segment(Seg::Ds),
        reload_segment(Seg::Es),
    ];
    out.push(TestProgram::chain("chain/deaccess-multi".into(), &multi).expect("directed chain"));
    // Control: the same reload without de-accessing first touches nothing
    // (the descriptor is already accessed), so no target deviates.
    let control = [reload_segment(Seg::Ds), reload_segment(Seg::Es)];
    out.push(TestProgram::chain("chain/reload-baseline".into(), &control).expect("directed chain"));

    metrics::counter("conformance.corpus_programs").add(out.len() as u64);
    out
}

/// The observed behavior of one corpus program: identity, byte-exact code
/// hash, per-segment provenance, and the deviations the three-target
/// comparison produced.
#[derive(Debug, Clone)]
pub struct ProgramResult {
    /// The chained program's name.
    pub name: String,
    /// The chain path id ([`pokemu_testgen::chain_path_id`]).
    pub path_id: u64,
    /// Generated code size in bytes.
    pub code_len: usize,
    /// FNV-1a over the generated code bytes (byte-identity teeth: any
    /// change to generation shows up here even if behavior matches).
    pub code_fnv: u64,
    /// Per-segment provenance.
    pub segments: Vec<SegmentMeta>,
    /// Deviations against the hardware oracle, manifest interchange format.
    pub deviations: Vec<DeviationRecord>,
}

/// Runs one corpus program on all three targets and records its result.
pub fn result_of(prog: &TestProgram, fidelity: Fidelity) -> ProgramResult {
    // Scope hot-TB attribution to this program: corpus programs run back
    // to back (and in parallel), and without a per-program scope their TB
    // execution counts would bleed into each other and into the default
    // scope the pipeline dumps for `pokemu-report perf`.
    let _hot = pokemu_lofi::hot_scope(fnv1a(prog.name.as_bytes()));
    let case = run_on_all_targets(prog, fidelity);
    let deviations = analyze_case(&case, &prog.test_insn, prog.path_id)
        .deviations
        .iter()
        .map(|(target, d)| DeviationRecord::new(target, &prog.name, d))
        .collect();
    ProgramResult {
        name: prog.name.clone(),
        path_id: prog.path_id,
        code_len: prog.code.len(),
        code_fnv: fnv1a(&prog.code),
        segments: prog.segments.clone(),
        deviations,
    }
}

/// The outcome of running the whole corpus.
#[derive(Debug)]
pub struct ConformanceRun {
    /// One result per program that finished, in corpus order. A program
    /// whose worker panicked is absent here and present in `quarantined`.
    pub results: Vec<ProgramResult>,
    /// Programs whose worker panicked (fault injection or a real bug).
    pub quarantined: Vec<QuarantineRecord>,
}

/// Runs every corpus program on all three targets, in parallel. Results
/// are slot-indexed, so the output order (and content) is independent of
/// the thread count.
pub fn run_conformance(corpus: &[TestProgram], threads: usize) -> ConformanceRun {
    let _span = pokemu_rt::span!("conformance.run");
    let slots: Vec<OnceLock<ProgramResult>> = (0..corpus.len()).map(|_| OnceLock::new()).collect();
    let run = pool::for_each_budgeted(threads, corpus.len(), None, |i| {
        let r = result_of(&corpus[i], CONFORMANCE_FIDELITY);
        assert!(
            slots[i].set(r).is_ok(),
            "pool delivered corpus item {i} twice"
        );
    });
    let results: Vec<ProgramResult> = slots.into_iter().filter_map(OnceLock::into_inner).collect();
    metrics::counter("conformance.programs_run").add(results.len() as u64);
    ConformanceRun {
        results,
        quarantined: run.quarantined,
    }
}

/// Renders one program's baseline document. `path_id` and `code_fnv` are
/// JSON *strings*, a form the committed baselines keep from when the
/// workspace JSON reader read every number as an `f64`; deviation entries
/// use the run documents' numeric form ([`crate::record`]). The gate
/// compares rendered text either way.
pub fn program_json(r: &ProgramResult) -> String {
    let segments: Vec<String> = r
        .segments
        .iter()
        .map(|s| {
            format!(
                "\n {{\"name\":\"{}\",\"insn\":\"{}\",\"path_id\":\"{}\",\"offset\":{}}}",
                escape(&s.name),
                hex(&s.insn),
                s.path_id,
                s.insn_offset
            )
        })
        .collect();
    let deviations: Vec<String> = r.deviations.iter().map(deviation_json).collect();
    format!(
        "{{\n\"program\":\"{}\",\n\"path_id\":\"{}\",\n\"code_len\":{},\n\"code_fnv\":\"{:016x}\",\n\
         \"segments\":[{}],\n\"deviations\":[{}]\n}}\n",
        escape(&r.name),
        r.path_id,
        r.code_len,
        r.code_fnv,
        segments.join(","),
        deviations.join(","),
    )
}

/// Keeps corpus program names path-safe for baseline file names
/// (`chain/deaccess-ds` → `chain-deaccess-ds.json`).
fn file_name(program: &str) -> String {
    let safe: String = program
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '-'
            }
        })
        .collect();
    format!("{safe}.json")
}

/// Finds the committed `tests/roms/` directory by walking up from the
/// current directory (the binary runs from the repo root, integration
/// tests from their crate directory).
pub fn find_roms_dir() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let cand = dir.join("tests").join("roms");
        if cand.is_dir() {
            return Some(cand);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Writes (or rewrites) the baseline documents for `results` into `dir`,
/// removing stale `.json` files whose program no longer exists, and
/// returns the paths written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_baselines(dir: &Path, results: &[ProgramResult]) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let expected: BTreeSet<String> = results.iter().map(|r| file_name(&r.name)).collect();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".json") && !expected.contains(&name) {
            std::fs::remove_file(entry.path())?;
        }
    }
    let mut written = Vec::with_capacity(results.len());
    for r in results {
        let path = dir.join(file_name(&r.name));
        std::fs::write(&path, program_json(r))?;
        written.push(path);
    }
    Ok(written)
}

/// One conformance gate violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The violating program (or baseline file, for orphans).
    pub program: String,
    /// What drifted.
    pub reason: String,
}

/// Explains *why* a baseline mismatched: path-id drift, code drift,
/// segment-provenance drift, or new/vanished deviations. Falls back to a
/// generic reason when the texts differ in some other way (the gate itself
/// is the byte comparison, never this diagnosis).
fn diagnose(baseline_text: &str, r: &ProgramResult) -> String {
    let Ok(base) = json::parse(baseline_text) else {
        return "committed baseline is not valid JSON".to_owned();
    };
    let mut reasons = Vec::new();
    let base_pid = base.get("path_id").and_then(Value::as_str).unwrap_or("?");
    if base_pid != r.path_id.to_string() {
        reasons.push(format!(
            "chain path-id changed (baseline {base_pid}, now {})",
            r.path_id
        ));
    }
    let base_fnv = base.get("code_fnv").and_then(Value::as_str).unwrap_or("?");
    let cur_fnv = format!("{:016x}", r.code_fnv);
    if base_fnv != cur_fnv {
        reasons.push(format!(
            "generated code changed (hash baseline {base_fnv}, now {cur_fnv})"
        ));
    }
    if let Some(segs) = base.get("segments").and_then(Value::as_array) {
        let base_segs: Vec<String> = segs
            .iter()
            .map(|s| {
                format!(
                    "{}:{}",
                    s.get("name").and_then(Value::as_str).unwrap_or("?"),
                    s.get("path_id").and_then(Value::as_str).unwrap_or("?")
                )
            })
            .collect();
        let cur_segs: Vec<String> = r
            .segments
            .iter()
            .map(|s| format!("{}:{}", s.name, s.path_id))
            .collect();
        if base_segs != cur_segs {
            reasons.push("segment provenance changed".to_owned());
        }
    }
    // A deviation's identity: everything but the path id, which the
    // byte-equality gate already covers exactly.
    let key =
        |d: &DeviationRecord| format!("{} {} [{}]", d.target, d.cause, d.components.join(","));
    let base_devs: BTreeSet<String> = base
        .get("deviations")
        .and_then(Value::as_array)
        .map(|a| {
            a.iter()
                .filter_map(parse_deviation)
                .map(|d| key(&d))
                .collect()
        })
        .unwrap_or_default();
    let cur_devs: BTreeSet<String> = r.deviations.iter().map(key).collect();
    for d in cur_devs.difference(&base_devs) {
        reasons.push(format!("new deviation: {d}"));
    }
    for d in base_devs.difference(&cur_devs) {
        reasons.push(format!("vanished deviation: {d}"));
    }
    if reasons.is_empty() {
        reasons.push("baseline text drift".to_owned());
    }
    reasons.join("; ")
}

/// Gates the corpus results against the committed baselines in `dir`:
/// every program must have a baseline whose text is byte-identical to the
/// freshly rendered document, and every baseline file must correspond to a
/// current program. Returns the violations (empty = conformant).
///
/// # Errors
///
/// An unreadable baseline directory (missing-input, not a gate violation).
pub fn check_conformance(dir: &Path, results: &[ProgramResult]) -> io::Result<Vec<Violation>> {
    if !dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("baseline directory {} not found", dir.display()),
        ));
    }
    let mut violations = Vec::new();
    let mut claimed: BTreeSet<String> = BTreeSet::new();
    for r in results {
        let name = file_name(&r.name);
        claimed.insert(name.clone());
        let path = dir.join(&name);
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                if text != program_json(r) {
                    violations.push(Violation {
                        program: r.name.clone(),
                        reason: diagnose(&text, r),
                    });
                }
            }
            Err(_) => violations.push(Violation {
                program: r.name.clone(),
                reason: "no committed baseline (regenerate with \
                         `pokemu-report conformance --write`)"
                    .to_owned(),
            }),
        }
    }
    let mut orphans: Vec<String> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".json") && !claimed.contains(n))
        .collect();
    orphans.sort();
    for n in orphans {
        violations.push(Violation {
            program: n,
            reason: "baseline file has no matching corpus program".to_owned(),
        });
    }
    metrics::counter("conformance.violations").add(violations.len() as u64);
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> ProgramResult {
        ProgramResult {
            name: "chain/sample".into(),
            path_id: 0x0123_4567_89ab_cdef,
            code_len: 42,
            code_fnv: 0xfeed_face_dead_beef,
            segments: vec![SegmentMeta {
                name: "clc/path0".into(),
                insn: vec![0xf8],
                path_id: 7,
                insn_offset: 40,
            }],
            deviations: vec![DeviationRecord {
                target: "lofi".into(),
                test: "chain/sample".into(),
                insn_hex: "f8".into(),
                path_id: 0x0123_4567_89ab_cdef,
                cause: "descriptor accessed-flag maintenance".into(),
                components: vec!["mem".into()],
            }],
        }
    }

    #[test]
    fn program_json_round_trips_64_bit_ids_as_strings() {
        let doc = program_json(&sample_result());
        let v = json::parse(&doc).expect("valid JSON");
        assert_eq!(
            v.get("path_id").and_then(Value::as_str),
            Some("81985529216486895") // 0x0123456789abcdef
        );
        assert_eq!(
            v.get("code_fnv").and_then(Value::as_str),
            Some("feedfacedeadbeef")
        );
    }

    #[test]
    fn baseline_write_and_check_round_trip() {
        let dir = std::env::temp_dir().join(format!("pokemu-conf-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let results = vec![sample_result()];
        write_baselines(&dir, &results).unwrap();
        assert!(check_conformance(&dir, &results).unwrap().is_empty());

        // Tamper: change a deviation component in the committed file.
        let path = dir.join(file_name("chain/sample"));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\"mem\"", "\"eflags\"")).unwrap();
        let v = check_conformance(&dir, &results).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].program, "chain/sample");
        assert!(v[0].reason.contains("deviation"), "{}", v[0].reason);

        // A result with no baseline and an orphaned baseline both flag.
        let mut renamed = sample_result();
        renamed.name = "chain/renamed".into();
        let v = check_conformance(&dir, &[renamed]).unwrap();
        assert_eq!(v.len(), 2, "{v:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_baseline_dir_is_an_io_error_not_a_violation() {
        let dir = Path::new("/nonexistent/pokemu-roms");
        assert!(check_conformance(dir, &[]).is_err());
    }
}
