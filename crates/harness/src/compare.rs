//! Difference analysis (paper §6.2): three-way comparison, the
//! undefined-behavior filter, and root-cause clustering.
//!
//! Following the paper, differences are computed against the hardware
//! oracle ("60,770 of these programs produced distinguishable behaviors in
//! QEMU and 15,219 of them produced distinguishable behaviors in Bochs").
//! Differences caused by architecturally-undefined flag results are
//! filtered out first ("we used scripts to filter out differences due to
//! undefined behaviors"); the rest are clustered by root cause.

use std::collections::BTreeMap;

use pokemu_isa::snapshot::{Outcome, Snapshot};
use pokemu_isa::state::flags as fl;
use pokemu_isa::InstClass;
use pokemu_symx::{Concrete, Dom};

use crate::pipeline::CaseOutcome;

/// Root causes of behavior differences, matching the classes §6.2 reports.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RootCause {
    /// Segment limits/rights/presence not enforced: the reference faults
    /// with #GP/#SS where the Lo-Fi emulator proceeds.
    MissingSegmentChecks,
    /// Non-atomic execution: both fault identically but registers diverge
    /// (`leave` corrupting ESP, `cmpxchg` corrupting the accumulator).
    AtomicityViolation,
    /// `rdmsr`/`wrmsr` of an invalid MSR missing its #GP.
    MsrValidation,
    /// Memory operands fetched in a different order (`iret` pop order,
    /// far-pointer loads): visible as different exceptions or different
    /// accessed/dirty bits.
    FetchOrder,
    /// The descriptor "accessed" bit not maintained on segment loads.
    AccessedFlag,
    /// A valid encoding rejected with #UD.
    EncodingRejected,
    /// Status flags differ beyond the undefined-behavior filter.
    FlagPolicy,
    /// Anything else, keyed by the differing components.
    Other(String),
}

impl RootCause {
    /// The named paper classes.
    const NAMED: [RootCause; 7] = [
        RootCause::MissingSegmentChecks,
        RootCause::AtomicityViolation,
        RootCause::MsrValidation,
        RootCause::FetchOrder,
        RootCause::AccessedFlag,
        RootCause::EncodingRejected,
        RootCause::FlagPolicy,
    ];

    /// `true` for the named paper classes (everything except `Other`).
    pub fn is_identified(&self) -> bool {
        !matches!(self, RootCause::Other(_))
    }
}

impl std::fmt::Display for RootCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RootCause::MissingSegmentChecks => write!(f, "missing segment limit/rights checks"),
            RootCause::AtomicityViolation => write!(f, "non-atomic instruction execution"),
            RootCause::MsrValidation => write!(f, "missing invalid-MSR #GP"),
            RootCause::FetchOrder => write!(f, "operand fetch/pop order"),
            RootCause::AccessedFlag => write!(f, "descriptor accessed-flag maintenance"),
            RootCause::EncodingRejected => write!(f, "valid encoding rejected (#UD)"),
            RootCause::FlagPolicy => write!(f, "status-flag computation"),
            RootCause::Other(k) => write!(f, "other: {k}"),
        }
    }
}

/// Inverts [`Display`](std::fmt::Display), so a cause read back from a run
/// record is the typed cause that wrote it.
impl std::str::FromStr for RootCause {
    type Err = String;

    fn from_str(s: &str) -> Result<RootCause, String> {
        if let Some(k) = s.strip_prefix("other: ") {
            return Ok(RootCause::Other(k.to_owned()));
        }
        RootCause::NAMED
            .into_iter()
            .find(|c| c.to_string() == s)
            .ok_or_else(|| format!("unknown root cause {s:?}"))
    }
}

/// One confirmed behavior difference between a target and the reference.
#[derive(Debug, Clone)]
pub struct Difference {
    /// Components that differ (from [`Snapshot::diff`]).
    pub components: Vec<String>,
    /// The inferred root cause.
    pub cause: RootCause,
    /// The test-instruction bytes that exposed the difference (provenance
    /// for the run manifest and flight recorder).
    pub insn: Vec<u8>,
    /// The symbolic-exploration path the test exercises; 0 until the
    /// caller attaches the originating [`TestProgram`]'s path-id (random
    /// baseline tests have no explored path).
    ///
    /// [`TestProgram`]: pokemu_testgen::TestProgram
    pub path_id: u64,
}

/// The undefined-flag mask for one instruction class: bits of EFLAGS whose
/// value the architecture leaves undefined after this instruction.
pub fn undefined_flags_of(class: &InstClass) -> u32 {
    const ALL: u32 = fl::STATUS;
    const AF: u32 = 1 << fl::AF;
    const OF: u32 = 1 << fl::OF;
    const CF: u32 = 1 << fl::CF;
    match class.opcode {
        // Logic families: AF undefined.
        0x08..=0x0d | 0x20..=0x25 | 0x30..=0x35 | 0x84 | 0x85 | 0xa8 | 0xa9 => AF,
        0x80..=0x83 => match class.group_reg {
            Some(1) | Some(4) | Some(6) => AF, // or/and/xor
            _ => 0,
        },
        0xf6 | 0xf7 => match class.group_reg {
            Some(0) | Some(1) => AF,              // test
            Some(4) | Some(5) => ALL & !CF & !OF, // mul/imul: SF/ZF/AF/PF
            Some(6) | Some(7) => ALL,             // div/idiv: everything
            _ => 0,
        },
        0x69 | 0x6b | 0x0faf => ALL & !CF & !OF, // imul 2-op
        // Shift group: AF always undefined; OF undefined for counts != 1.
        0xc0 | 0xc1 | 0xd2 | 0xd3 => AF | OF,
        0xd0 | 0xd1 => match class.group_reg {
            Some(0..=3) => 0, // rotate by 1: CF/OF defined, others untouched
            _ => AF,          // shift by 1: OF defined
        },
        0x0fa4 | 0x0fa5 | 0x0fac | 0x0fad => AF | OF, // shld/shrd
        0x0fa3 | 0x0fab | 0x0fb3 | 0x0fbb | 0x0fba => ALL & !CF, // bt family
        0x0fbc | 0x0fbd => ALL & !(1 << fl::ZF),      // bsf/bsr
        0xd4 | 0xd5 => CF | AF | OF,                  // aam/aad
        0x27 | 0x2f => OF,                            // daa/das
        0x37 | 0x3f => OF | (1 << fl::SF) | (1 << fl::ZF) | (1 << fl::PF), // aaa/aas
        _ => 0,
    }
}

/// Additional architecturally-undefined state: `bsf`/`bsr` leave the
/// destination register undefined when the source is zero. Returns the GPR
/// index to mask, if any.
fn undefined_dest_reg(class: &InstClass) -> bool {
    matches!(class.opcode, 0x0fbc | 0x0fbd)
}

/// Decodes the class of a test instruction (for the filter).
pub fn class_of(test_insn: &[u8]) -> Option<InstClass> {
    let mut d = Concrete::new();
    let bytes = test_insn.to_vec();
    pokemu_isa::decode(&mut d, |d, i| {
        Ok(d.constant(8, *bytes.get(i as usize).unwrap_or(&0) as u64))
    })
    .ok()
    .map(|i| i.class)
}

/// Applies the undefined-behavior filter: masks undefined flag bits (and
/// the undefined `bsf`/`bsr` destination) in both snapshots.
pub fn filter_undefined(a: &mut Snapshot, b: &mut Snapshot, class: Option<&InstClass>) {
    let Some(class) = class else { return };
    let mask = undefined_flags_of(class);
    a.eflags &= !mask;
    b.eflags &= !mask;
    if undefined_dest_reg(class) {
        // Mask every GPR that differs only when the sources agree is too
        // subtle to reconstruct here; mask the likely destination instead:
        // any register where both sides wrote "a scan result or nothing".
        for i in 0..8 {
            if a.gpr[i] != b.gpr[i]
                && (a.gpr[i] == 0 || b.gpr[i] == 0 || a.gpr[i] < 32 || b.gpr[i] < 32)
            {
                a.gpr[i] = 0;
                b.gpr[i] = 0;
            }
        }
    }
}

/// Compares a target snapshot against the reference, filtering undefined
/// behavior and classifying the root cause.
pub fn compare(reference: &Snapshot, target: &Snapshot, test_insn: &[u8]) -> Option<Difference> {
    if reference == target {
        return None;
    }
    let class = class_of(test_insn);
    let mut a = reference.clone();
    let mut b = target.clone();
    filter_undefined(&mut a, &mut b, class.as_ref());
    let components = a.diff(&b);
    if components.is_empty() {
        return None;
    }
    let cause = classify(&a, &b, &components, class.as_ref());
    Some(Difference {
        components,
        cause,
        insn: test_insn.to_vec(),
        path_id: 0,
    })
}

/// One test's final states analyzed against the hardware oracle.
#[derive(Debug)]
pub(crate) struct CaseAnalysis {
    /// The raw Lo-Fi state differs from the oracle's (before the
    /// undefined-behavior filter: the paper's headline counting).
    pub lofi_differs: bool,
    /// The raw Hi-Fi state differs from the oracle's.
    pub hifi_differs: bool,
    /// The differences that survive the filter, Lo-Fi before Hi-Fi, each
    /// with its target's name (`"lofi"` or `"hifi"`).
    pub deviations: Vec<(&'static str, Difference)>,
}

/// Analyzes one test run on all three targets: raw differences, then
/// [`compare`] for Lo-Fi and for Hi-Fi, each difference stamped with the
/// test's `path_id`. The pipeline, the fleet and the conformance corpus all
/// analyze through this one function.
pub(crate) fn analyze_case(case: &CaseOutcome, test_insn: &[u8], path_id: u64) -> CaseAnalysis {
    let deviations = [("lofi", &case.lofi), ("hifi", &case.hifi)]
        .into_iter()
        .filter_map(|(target, snap)| {
            let mut d = compare(&case.hardware, snap, test_insn)?;
            d.path_id = path_id;
            Some((target, d))
        })
        .collect();
    CaseAnalysis {
        lofi_differs: !case.hardware.same_behavior(&case.lofi),
        hifi_differs: !case.hardware.same_behavior(&case.hifi),
        deviations,
    }
}

fn classify(
    reference: &Snapshot,
    target: &Snapshot,
    components: &[String],
    class: Option<&InstClass>,
) -> RootCause {
    let ref_exc = matches!(reference.outcome, Outcome::Exception { .. });
    let tgt_exc = matches!(target.outcome, Outcome::Exception { .. });
    let outcome_differs = reference.outcome != target.outcome;

    // A valid encoding rejected with #UD by the target.
    if let Outcome::Exception { vector: 6, .. } = target.outcome {
        if reference.outcome != target.outcome {
            return RootCause::EncodingRejected;
        }
    }

    let is_msr = class
        .map(|c| matches!(c.opcode, 0x0f30 | 0x0f32))
        .unwrap_or(false);
    if is_msr && outcome_differs {
        return RootCause::MsrValidation;
    }

    // Reference faults with #GP/#SS where the target proceeds: the missing
    // segment checks class.
    if outcome_differs {
        if let Outcome::Exception { vector, .. } = reference.outcome {
            if matches!(vector, 12 | 13) && !tgt_exc {
                return RootCause::MissingSegmentChecks;
            }
            // Different faults (or fault identity) on multi-read
            // instructions: fetch-order class.
            if let Outcome::Exception { .. } = target.outcome {
                if class.map(is_multi_read).unwrap_or(false) {
                    return RootCause::FetchOrder;
                }
            }
        }
        if let Outcome::Exception { vector, .. } = target.outcome {
            if matches!(vector, 12 | 13) && !ref_exc {
                return RootCause::MissingSegmentChecks;
            }
        }
    }

    // Both faulted identically but registers differ: atomicity violation.
    if ref_exc && reference.outcome == target.outcome {
        let reg_diff = components
            .iter()
            .any(|c| c.starts_with("esp") || c.starts_with("ebp") || c.starts_with("eax"));
        if reg_diff && class.map(is_rmw_multi).unwrap_or(false) {
            return RootCause::AtomicityViolation;
        }
    }

    // Only GDT accessed-bit bytes differ. Tests can raise the GDT limit and
    // load far-away selectors, so the window is the maximum addressable GDT
    // (8192 entries), not just the baseline's 16; the differing byte must be
    // a descriptor attribute byte (offset 5 of an 8-byte entry).
    let only_gdt_accessed = components.iter().all(|c| c.starts_with("mem[")) && {
        let gdt = pokemu_testgen::layout::GDT_BASE;
        reference
            .mem
            .diffs(&target.mem)
            .all(|(k, _, _)| (gdt..gdt + 8192 * 8).contains(&k) && (k - gdt) % 8 == 5)
    };
    if only_gdt_accessed && !components.is_empty() {
        return RootCause::AccessedFlag;
    }

    if components.iter().all(|c| c.starts_with("eflags")) {
        return RootCause::FlagPolicy;
    }

    // CR2 / page A-D bit differences on multi-read instructions.
    if class.map(is_multi_read).unwrap_or(false) {
        return RootCause::FetchOrder;
    }

    // Fall back to a component-kind signature (skip the "... N memory
    // bytes" truncation summary so counts don't fragment clusters).
    let mut kinds: Vec<&str> = components
        .iter()
        .filter(|c| !c.starts_with("..."))
        .map(|c| c.split([':', '[']).next().unwrap_or("?"))
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    RootCause::Other(kinds.join("+"))
}

/// Instructions with multiple data reads whose order is observable.
fn is_multi_read(class: &InstClass) -> bool {
    matches!(
        class.opcode,
        0xcf // iret
        | 0xca | 0xcb // retf
        | 0xc4 | 0xc5 | 0x0fb2 | 0x0fb4 | 0x0fb5 // lds/les/lss/lfs/lgs
        | 0x61 // popa
        | 0x62 // bound
    ) || (matches!(class.opcode, 0xff) && matches!(class.group_reg, Some(3) | Some(5)))
}

/// Read-modify-write or multi-commit instructions where partial commits are
/// observable on faults.
fn is_rmw_multi(class: &InstClass) -> bool {
    matches!(
        class.opcode,
        0xc9 | 0x0fb0 | 0x0fb1 | 0x0fc0 | 0x0fc1 | 0x8f | 0x60 | 0x61
    )
}

/// A cluster of differences sharing a root cause (paper §6.2: "we then
/// clustered the differences according to root cause").
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Clusters {
    /// cause -> (count, example test names)
    clusters: BTreeMap<RootCause, (usize, Vec<String>)>,
}

impl Clusters {
    /// Creates an empty clustering.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one difference with root cause `cause`.
    pub fn add(&mut self, test_name: &str, cause: &RootCause) {
        let entry = self.clusters.entry(cause.clone()).or_default();
        entry.0 += 1;
        if entry.1.len() < 5 {
            entry.1.push(test_name.to_owned());
        }
    }

    /// Iterates `(cause, count, examples)` sorted by cause.
    pub fn iter(&self) -> impl Iterator<Item = (&RootCause, usize, &[String])> {
        self.clusters
            .iter()
            .map(|(k, (n, ex))| (k, *n, ex.as_slice()))
    }

    /// Total differences recorded.
    pub fn total(&self) -> usize {
        self.clusters.values().map(|(n, _)| n).sum()
    }

    /// Number of distinct root causes.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// `true` when no differences were recorded.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// `true` when a cause is present.
    pub fn has(&self, cause: &RootCause) -> bool {
        self.clusters.contains_key(cause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undefined_flag_masks() {
        let mul = InstClass {
            opcode: 0xf7,
            group_reg: Some(4),
            mem_operand: Some(false),
            opsize16: false,
        };
        let m = undefined_flags_of(&mul);
        assert_ne!(m & (1 << fl::AF), 0);
        assert_eq!(m & (1 << fl::CF), 0, "CF is defined for mul");
        let div = InstClass {
            opcode: 0xf7,
            group_reg: Some(6),
            mem_operand: Some(false),
            opsize16: false,
        };
        assert_eq!(undefined_flags_of(&div), fl::STATUS);
        let add = InstClass {
            opcode: 0x01,
            group_reg: None,
            mem_operand: Some(false),
            opsize16: false,
        };
        assert_eq!(undefined_flags_of(&add), 0);
    }

    #[test]
    fn root_cause_parses_its_display_form() {
        let other = RootCause::Other("cr2+eax+eip".into());
        for cause in RootCause::NAMED.into_iter().chain([other]) {
            assert_eq!(cause.to_string().parse::<RootCause>(), Ok(cause));
        }
        assert!("status flags".parse::<RootCause>().is_err());
    }

    #[test]
    fn identical_snapshots_compare_clean() {
        let s = crate::targets::baseline_snapshot();
        assert!(compare(&s, &s, &[0x90]).is_none());
    }
}
