//! Property tests for the paged snapshot format: it must report exactly
//! what the per-byte `BTreeMap` format it replaced reported.

use std::collections::BTreeMap;

use pokemu_isa::snapshot::{Outcome, PagedMem, Snapshot, PAGE_SIZE};
use pokemu_isa::state::{Gpr, Machine, Seg};
use pokemu_lofi::{Fidelity, Lofi, RunExit};
use pokemu_rt::prop::Gen;
use pokemu_symx::{Concrete, Dom};

/// Bytes the writes land in: twelve full pages and a partial thirteenth.
const MEM_LEN: usize = 12 * PAGE_SIZE + 40;

/// The `BTreeMap` diff the paged format replaced, kept as the reference;
/// `a_mem` and `b_mem` hold each snapshot's non-zero bytes.
fn reference_diff(
    a: &Snapshot,
    a_mem: &BTreeMap<u32, u8>,
    b: &Snapshot,
    b_mem: &BTreeMap<u32, u8>,
) -> Vec<String> {
    let mut out = Vec::new();
    if a.outcome != b.outcome {
        out.push(format!("outcome: {:?} vs {:?}", a.outcome, b.outcome));
    }
    for (i, r) in Gpr::ALL.iter().enumerate() {
        if a.gpr[i] != b.gpr[i] {
            out.push(format!("{}: {:#x} vs {:#x}", r.name(), a.gpr[i], b.gpr[i]));
        }
    }
    if a.eip != b.eip {
        out.push(format!("eip: {:#x} vs {:#x}", a.eip, b.eip));
    }
    if a.eflags != b.eflags {
        out.push(format!("eflags: {:#x} vs {:#x}", a.eflags, b.eflags));
    }
    for s in Seg::ALL {
        let (x, y) = (a.segs[s as usize], b.segs[s as usize]);
        if x != y {
            out.push(format!("{}: {:?} vs {:?}", s.name(), x, y));
        }
    }
    for (name, x, y) in [
        ("cr0", a.cr0, b.cr0),
        ("cr2", a.cr2, b.cr2),
        ("cr3", a.cr3, b.cr3),
        ("cr4", a.cr4, b.cr4),
    ] {
        if x != y {
            out.push(format!("{name}: {x:#x} vs {y:#x}"));
        }
    }
    if a.gdtr != b.gdtr {
        out.push(format!("gdtr: {:?} vs {:?}", a.gdtr, b.gdtr));
    }
    if a.idtr != b.idtr {
        out.push(format!("idtr: {:?} vs {:?}", a.idtr, b.idtr));
    }
    // Memory: union of keys, zero default.
    let keys: std::collections::BTreeSet<u32> = a_mem.keys().chain(b_mem.keys()).copied().collect();
    let mut mem_diffs = 0;
    for k in keys {
        let x = a_mem.get(&k).copied().unwrap_or(0);
        let y = b_mem.get(&k).copied().unwrap_or(0);
        if x != y {
            if mem_diffs < 8 {
                out.push(format!("mem[{k:#x}]: {x:#x} vs {y:#x}"));
            }
            mem_diffs += 1;
        }
    }
    if mem_diffs >= 8 {
        out.push(format!("... {mem_diffs} memory bytes differ in total"));
    }
    out
}

/// One side of a pair: the byte writes applied to guest memory, in order
/// (a later write to the same address overrides an earlier one, and a zero
/// write clears the byte).
#[derive(Debug, Clone, Default)]
struct Writes(Vec<(u32, u8)>);

impl Writes {
    /// The reference format: the non-zero bytes in a map.
    fn map(&self) -> BTreeMap<u32, u8> {
        let mut map = BTreeMap::new();
        for &(addr, b) in &self.0 {
            if b == 0 {
                map.remove(&addr);
            } else {
                map.insert(addr, b);
            }
        }
        map
    }

    /// Captures the writes through a concrete machine, as Hi-Fi and the
    /// hardware oracle do.
    fn capture(&self) -> Snapshot {
        let mut d = Concrete::new();
        let mut m = Machine::zeroed(&mut d);
        for &(addr, b) in &self.0 {
            let v = d.constant(8, b as u64);
            m.mem.write_u8(addr, v);
        }
        Snapshot::capture(&mut d, &m, Outcome::Halted)
    }

    /// Captures the writes through Lo-Fi's paged RAM.
    fn lofi(&self) -> PagedMem {
        let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
        for &(addr, b) in &self.0 {
            emu.machine_mut().phys_write(addr, b as u32, 1);
        }
        emu.snapshot(RunExit::Halted).mem
    }
}

/// An address biased towards page edges.
fn address(g: &mut Gen) -> u32 {
    let page = g.range(0..13u32);
    let offset = match g.range(0..3u8) {
        0 => *g.choose(&[0, 1, PAGE_SIZE as u32 - 2, PAGE_SIZE as u32 - 1]),
        _ => g.range(0..PAGE_SIZE as u32),
    };
    (page * PAGE_SIZE as u32 + offset) % MEM_LEN as u32
}

/// A base image: random bytes, some of them zeros written over earlier
/// non-zero bytes.
fn base_writes(g: &mut Gen) -> Writes {
    let mut w = Writes(g.vec(0, 200, |g| (address(g), g.gen())));
    let n = w.0.len();
    for i in 0..n / 8 {
        let addr = w.0[i * 8].0;
        w.0.push((addr, 0));
    }
    w
}

/// A byte different from `old`, sometimes zero when `old` is not.
fn other_byte(g: &mut Gen, old: u8) -> u8 {
    if old != 0 && g.bool(0.3) {
        return 0;
    }
    loop {
        let b = g.range(1..=255u8);
        if b != old {
            return b;
        }
    }
}

/// Derives the second side of a pair from the first, with a drawn shape:
/// exactly 7, 8 or 9 differing bytes, some other number of them, or pages
/// present on one side only.
fn mutate(g: &mut Gen, a: &Writes) -> Writes {
    let mut b = a.clone();
    let a_map = a.map();
    match g.range(0..5u8) {
        shape @ 0..=3 => {
            let k = match shape {
                0 => 7,
                1 => 8,
                2 => 9,
                _ => g.range(0..40usize),
            };
            let mut changed = BTreeMap::new();
            let existing: Vec<u32> = a_map.keys().copied().collect();
            while changed.len() < k {
                let addr = if !existing.is_empty() && g.bool(0.5) {
                    *g.choose(&existing)
                } else {
                    address(g)
                };
                let old = a_map.get(&addr).copied().unwrap_or(0);
                changed.entry(addr).or_insert_with(|| other_byte(g, old));
            }
            b.0.extend(changed);
        }
        _ => {
            // Clear one page of `a` entirely and fill one page `a` lacks.
            if let Some(&addr) = a_map.keys().nth(g.range(0..a_map.len().max(1))) {
                let page = addr / PAGE_SIZE as u32;
                let cleared: Vec<u32> = a_map
                    .keys()
                    .copied()
                    .filter(|k| k / PAGE_SIZE as u32 == page)
                    .collect();
                b.0.extend(cleared.into_iter().map(|k| (k, 0)));
            }
            let free: Vec<u32> = (0..13u32)
                .filter(|p| !a_map.keys().any(|k| k / PAGE_SIZE as u32 == *p))
                .collect();
            if !free.is_empty() {
                let page = *g.choose(&free) * PAGE_SIZE as u32;
                for _ in 0..g.range(1..12u8) {
                    let addr = (page + g.range(0..PAGE_SIZE as u32)) % MEM_LEN as u32;
                    b.0.push((addr, g.range(1..=255u8)));
                }
            }
        }
    }
    b
}

/// Sometimes perturbs the non-memory state, so register lines precede the
/// memory lines in the diff.
fn perturb(g: &mut Gen, s: &mut Snapshot) {
    if g.bool(0.25) {
        s.gpr[g.range(0..8usize)] ^= g.range(1..=u32::MAX);
    }
    if g.bool(0.1) {
        s.outcome = Outcome::Exception {
            vector: 13,
            error: Some(0),
        };
    }
    if g.bool(0.1) {
        s.segs[g.range(0..6usize)].base ^= 0x1000;
    }
}

pokemu_rt::prop! {
    /// Both capture paths give the same canonical image, which iterates and
    /// reads exactly like the reference map.
    fn paged_image_matches_reference_map(g, cases = 256) {
        let w = base_writes(g);
        let map = w.map();
        let snap = w.capture();
        assert_eq!(snap.mem, w.lofi(), "Memory and Lo-Fi captures agree");
        let paged: Vec<(u32, u8)> = snap.mem.iter().collect();
        let reference: Vec<(u32, u8)> = map.iter().map(|(&a, &b)| (a, b)).collect();
        assert_eq!(paged, reference, "iter() yields the map's order");
        for addr in map.keys().copied().chain((0..16).map(|_| address(g))) {
            assert_eq!(snap.mem.get(addr), map.get(&addr).copied().unwrap_or(0));
        }
    }

    /// `diff` is byte-identical to the reference, and `same_behavior` is
    /// exactly an empty diff.
    fn paged_diff_matches_reference(g, cases = 256) {
        let wa = base_writes(g);
        let wb = mutate(g, &wa);
        let (mut a, mut b) = (wa.capture(), wb.capture());
        perturb(g, &mut a);
        perturb(g, &mut b);
        let (a_map, b_map) = (wa.map(), wb.map());
        let diff = a.diff(&b);
        assert_eq!(diff, reference_diff(&a, &a_map, &b, &b_map));
        assert_eq!(b.diff(&a), reference_diff(&b, &b_map, &a, &a_map));
        assert_eq!(a.same_behavior(&b), diff.is_empty());
        let walked: Vec<(u32, u8, u8)> = a.mem.diffs(&b.mem).collect();
        let expected: Vec<(u32, u8, u8)> = a_map
            .keys()
            .chain(b_map.keys())
            .copied()
            .collect::<std::collections::BTreeSet<u32>>()
            .into_iter()
            .map(|k| (k, a_map.get(&k).copied().unwrap_or(0), b_map.get(&k).copied().unwrap_or(0)))
            .filter(|(_, x, y)| x != y)
            .collect();
        assert_eq!(walked, expected);
    }
}

/// The summary line appears from the eighth differing byte on, so exactly
/// 7, 8 and 9 differences print 7, 9 and 9 lines.
#[test]
fn summary_line_starts_at_eight_differences() {
    let a = Writes::default().capture();
    for (k, lines) in [(7, 7), (8, 9), (9, 9)] {
        let b = Writes((0..k).map(|i| (i * PAGE_SIZE as u32 + 4095, 1)).collect()).capture();
        let diff = a.diff(&b);
        assert_eq!(diff.len(), lines, "{k} differences: {diff:?}");
        assert_eq!(
            diff.last().unwrap().starts_with("..."),
            k >= 8,
            "{k} differences: {diff:?}"
        );
    }
}
