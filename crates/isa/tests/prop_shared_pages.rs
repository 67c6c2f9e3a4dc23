//! Property tests for copy-on-write guest memory: a template that shares
//! its pages and two clones of it, each driven by its own random loads,
//! writes and reads, behave exactly like three independent memories. Every
//! read matches the memory's own reference, the template never changes,
//! and a byte a symbolic clone materializes appears nowhere else.

use std::collections::BTreeMap;

use pokemu_isa::snapshot::{PagedMem, PAGE_SIZE};
use pokemu_isa::state::PHYS_MEM_SIZE;
use pokemu_isa::{Memory, MissingPolicy};
use pokemu_rt::prop::Gen;
use pokemu_solver::TermId;
use pokemu_symx::{CVal, Concrete, Dom, Executor};

const PAGES: u32 = PHYS_MEM_SIZE / PAGE_SIZE as u32;

/// An address in one of `pages`, biased towards the page edges, and
/// sometimes aliased above the memory size.
fn address(g: &mut Gen, pages: &[u32]) -> u32 {
    let edge = PAGE_SIZE as u32;
    let offset = match g.range(0..3u8) {
        0 => *g.choose(&[0, 1, 2, edge - 3, edge - 2, edge - 1]),
        _ => g.range(0..edge),
    };
    let alias = if g.bool(0.2) {
        g.range(1..PAGES) * PHYS_MEM_SIZE
    } else {
        0
    };
    (g.choose(pages) * edge + offset).wrapping_add(alias)
}

/// A few pages, the first and last of memory among them now and then.
fn pages(g: &mut Gen) -> Vec<u32> {
    g.vec(1, 5, |g| match g.range(0..4u8) {
        0 => 0,
        1 => PAGES - 1,
        _ => g.range(0..PAGES),
    })
}

/// The address of byte `i` of an access at `addr`, as memory wraps it.
fn at(addr: u32, i: usize) -> u32 {
    addr.wrapping_add(i as u32) % PHYS_MEM_SIZE
}

/// A concrete memory and its reference: the non-zero bytes in a map.
#[derive(Clone)]
struct Concrete1 {
    mem: Memory<CVal>,
    map: BTreeMap<u32, u8>,
}

impl Concrete1 {
    fn store(&mut self, addr: u32, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            if b == 0 {
                self.map.remove(&at(addr, i));
            } else {
                self.map.insert(at(addr, i), b);
            }
        }
    }

    /// One random load, write or read, checked against the reference.
    fn step(&mut self, g: &mut Gen, d: &mut Concrete, pages: &[u32]) {
        let addr = address(g, pages);
        match g.range(0..6u8) {
            0 | 1 => {
                let n = *g.choose(&[1u8, 2, 4, 8]);
                let val: u64 = if g.bool(0.3) { 0 } else { g.gen() };
                let bytes = &val.to_le_bytes()[..n as usize];
                let v = d.constant(n * 8, val);
                self.mem.write(d, addr, v, n);
                self.store(addr, bytes);
            }
            2 => {
                let len = g.range(1..PAGE_SIZE + 64);
                let zero = g.bool(0.3);
                let bytes: Vec<u8> = (0..len).map(|_| if zero { 0 } else { g.gen() }).collect();
                self.mem.load_bytes(d, addr, &bytes);
                self.store(addr, &bytes);
            }
            _ => {
                let n = *g.choose(&[1u8, 2, 4, 8]);
                let v = self.mem.read(d, addr, n);
                let want = (0..n as usize).fold(0u64, |v, i| {
                    v | (self.map.get(&at(addr, i)).copied().unwrap_or(0) as u64) << (8 * i)
                });
                assert_eq!(d.as_const(v), Some(want), "{n}-byte read at {addr:#x}");
            }
        }
    }

    fn image(&self) -> PagedMem {
        self.map.iter().map(|(&a, &b)| (a, b)).collect()
    }
}

/// A symbolic memory and its reference: every byte written or
/// materialized, by address.
#[derive(Clone)]
struct Symbolic1 {
    mem: Memory<TermId>,
    known: BTreeMap<u32, TermId>,
    /// The bytes this memory materialized itself.
    materialized: Vec<u32>,
}

impl Symbolic1 {
    /// One random write or read, checked against the reference.
    fn step(&mut self, g: &mut Gen, e: &mut Executor, pages: &[u32]) {
        let addr = address(g, pages);
        if g.bool(0.4) {
            let v = e.constant(8, g.gen::<u8>() as u64);
            self.mem.write_u8(addr, v);
            self.known.insert(at(addr, 0), v);
        } else {
            let v = self.mem.read_u8(e, addr);
            match self.known.get(&at(addr, 0)) {
                Some(&want) => assert_eq!(v, want, "read at {addr:#x}"),
                None => {
                    assert!(e.pool().as_const(v).is_none(), "a fresh symbolic byte");
                    self.known.insert(at(addr, 0), v);
                    self.materialized.push(at(addr, 0));
                }
            }
        }
    }

    /// Every byte of every reference reads back from this memory exactly
    /// as this memory's own reference says, without materializing it.
    fn check(&self, addrs: impl IntoIterator<Item = u32>, who: &str) {
        for addr in addrs {
            assert_eq!(
                self.mem.get(addr),
                self.known.get(&addr).copied(),
                "{who} at {addr:#x}"
            );
        }
    }
}

pokemu_rt::prop! {
    /// A shared concrete template and two clones: reads match each one's
    /// reference, the template keeps its image and each clone's snapshot
    /// image is its reference image.
    fn concrete_clones_share_until_they_write(g, cases = 96) {
        let pages = pages(g);
        let mut d = Concrete::new();
        let mut template = Concrete1 { mem: Memory::new(), map: BTreeMap::new() };
        for _ in 0..g.range(0..24usize) {
            template.step(g, &mut d, &pages);
        }
        template.mem.share();
        let image = template.image();
        assert_eq!(template.mem.to_mem(), image);
        let mut clones = [template.clone(), template.clone()];
        for _ in 0..g.range(1..64usize) {
            let clone = &mut clones[g.range(0..2usize)];
            if g.bool(0.05) {
                // Sharing mid-run changes nothing a reader can see.
                clone.mem.share();
            }
            clone.step(g, &mut d, &pages);
        }
        assert_eq!(template.mem.to_mem(), image, "the template never changes");
        for (i, clone) in clones.iter().enumerate() {
            assert_eq!(clone.mem.to_mem(), clone.image(), "clone {i}");
        }
    }

    /// A shared symbolic template and two clones: a byte one clone
    /// materializes appears neither in the template nor in its sibling.
    fn symbolic_materialization_stays_in_its_clone(g, cases = 96) {
        let pages = pages(g);
        let mut e = Executor::new();
        let mut mem = Memory::new();
        mem.set_policy(MissingPolicy::Symbolic);
        let mut template = Symbolic1 { mem, known: BTreeMap::new(), materialized: Vec::new() };
        for _ in 0..g.range(0..24usize) {
            template.step(g, &mut e, &pages);
        }
        template.mem.share();
        template.materialized.clear();
        let before = template.mem.clone();
        let mut clones = [template.clone(), template.clone()];
        for _ in 0..g.range(1..64usize) {
            clones[g.range(0..2usize)].step(g, &mut e, &pages);
        }
        assert!(template.mem == before, "the template never changes");
        let all: Vec<u32> = clones
            .iter()
            .chain([&template])
            .flat_map(|m| m.known.keys().copied())
            .collect();
        template.check(all.iter().copied(), "template");
        for (i, clone) in clones.iter().enumerate() {
            clone.check(all.iter().copied(), &format!("clone {i}"));
            let sibling = &clones[1 - i];
            for &addr in &clone.materialized {
                assert_eq!(template.mem.get(addr), None, "template at {addr:#x}");
                if !sibling.known.contains_key(&addr) {
                    assert_eq!(sibling.mem.get(addr), None, "sibling at {addr:#x}");
                }
            }
        }
    }
}
