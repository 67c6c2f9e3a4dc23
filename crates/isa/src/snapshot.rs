//! Machine-state snapshots: the comparison format of the test harness.
//!
//! After a test program halts or raises an exception, every execution target
//! (Hi-Fi emulator, Lo-Fi emulator, hardware oracle) dumps its CPU state and
//! physical memory into this common format — the paper implements "our own
//! file format to simplify comparison" for the same reason (§5.1).
//! All targets zero-fill, so only non-zero bytes are significant: memory is
//! a [`PagedMem`] holding just the 4-KiB pages that contain one.

use std::fmt;

use pokemu_symx::{Concrete, Dom};

pub use crate::page::PAGE_SIZE;
use crate::page::{Page, Slots, PAGE_SHIFT};
use crate::state::{Machine, Seg};

static ZERO_PAGE: Slots<u8> = [0; PAGE_SIZE];

/// A snapshot's physical memory: every 4-KiB page that holds a non-zero
/// byte, sorted by page number. Bytes outside those pages read as zero.
///
/// No all-zero page is ever stored, so the image is canonical and the
/// derived equality is exact: two images are `==` exactly when every byte
/// agrees. [`PagedMem::iter`] yields the non-zero bytes in ascending address
/// order, the order exploration interns baseline constants in. A snapshot
/// holds a guest memory's shared pages without copying them.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct PagedMem {
    pages: Vec<(u32, Page<u8>)>,
}

/// Whether `page` holds a non-zero byte. Each 64-byte OR-reduce
/// vectorizes, and the scan stops at the first chunk with data.
fn has_data(page: &Slots<u8>) -> bool {
    page.chunks_exact(64)
        .any(|chunk| chunk.iter().fold(0, |acc, &b| acc | b) != 0)
}

impl PagedMem {
    /// The pages with content from `(base address, page)` pairs in
    /// ascending address order, as a paged guest memory holds them: a
    /// shared page is shared, an owned one copied.
    pub fn from_pages<'a>(pages: impl IntoIterator<Item = (u32, &'a Page<u8>)>) -> PagedMem {
        let pages = pages
            .into_iter()
            .filter(|(_, page)| has_data(page))
            .map(|(base, page)| (base >> PAGE_SHIFT, page.clone()))
            .collect::<Vec<_>>();
        debug_assert!(
            pages.windows(2).all(|w| w[0].0 < w[1].0),
            "pages must ascend"
        );
        PagedMem { pages }
    }

    /// Page number `pno`, or the zero page when absent.
    fn page(&self, pno: u32) -> &Slots<u8> {
        match self.pages.binary_search_by_key(&pno, |(p, _)| *p) {
            Ok(i) => &self.pages[i].1,
            Err(_) => &ZERO_PAGE,
        }
    }

    /// The byte at `addr`, zero when absent.
    pub fn get(&self, addr: u32) -> u8 {
        self.page(addr >> PAGE_SHIFT)[addr as usize % PAGE_SIZE]
    }

    /// The stored pages as `(base address, 4-KiB page)`, in ascending
    /// address order.
    pub fn pages(&self) -> impl Iterator<Item = (u32, &[u8])> + '_ {
        self.pages
            .iter()
            .map(|(pno, page)| (pno << PAGE_SHIFT, &page[..]))
    }

    /// The non-zero bytes as `(address, byte)`, in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u8)> + '_ {
        self.pages.iter().flat_map(|(pno, page)| {
            let base = pno << PAGE_SHIFT;
            page.iter()
                .enumerate()
                .filter(|(_, &b)| b != 0)
                .map(move |(i, &b)| (base + i as u32, b))
        })
    }

    /// The bytes in which `self` and `other` differ, as `(address, self
    /// byte, other byte)` in ascending address order. Equal pages are
    /// skipped with one comparison each.
    pub fn diffs<'a>(&'a self, other: &'a PagedMem) -> impl Iterator<Item = (u32, u8, u8)> + 'a {
        let mut pnos: Vec<u32> = self
            .pages
            .iter()
            .chain(&other.pages)
            .map(|(p, _)| *p)
            .collect();
        pnos.sort_unstable();
        pnos.dedup();
        pnos.into_iter()
            .map(move |pno| (pno, self.page(pno), other.page(pno)))
            .filter(|(_, x, y)| x != y)
            .flat_map(|(pno, x, y)| {
                let base = pno << PAGE_SHIFT;
                x.iter()
                    .zip(y)
                    .enumerate()
                    .filter(|(_, (a, b))| a != b)
                    .map(move |(i, (&a, &b))| (base + i as u32, a, b))
            })
    }
}

/// Builds the image from `(address, byte)` pairs in ascending address
/// order. Zero bytes are skipped.
impl FromIterator<(u32, u8)> for PagedMem {
    fn from_iter<I: IntoIterator<Item = (u32, u8)>>(bytes: I) -> PagedMem {
        let mut pages: Vec<(u32, Page<u8>)> = Vec::new();
        for (addr, b) in bytes.into_iter().filter(|&(_, b)| b != 0) {
            let pno = addr >> PAGE_SHIFT;
            match pages.last_mut() {
                Some((last, page)) if *last == pno => {
                    page.make_mut()[addr as usize % PAGE_SIZE] = b
                }
                last => {
                    debug_assert!(last.is_none_or(|(p, _)| *p < pno), "addresses must ascend");
                    let mut page = Page::filled(0);
                    page.make_mut()[addr as usize % PAGE_SIZE] = b;
                    pages.push((pno, page));
                }
            }
        }
        PagedMem { pages }
    }
}

/// Prints the non-zero bytes as an `{address: byte}` map.
impl fmt::Debug for PagedMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// How a test-program execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The CPU executed `hlt`.
    Halted,
    /// An exception or software interrupt was raised.
    Exception {
        /// Vector number.
        vector: u8,
        /// Error code, if the vector pushes one.
        error: Option<u16>,
    },
    /// The step budget expired without halt or exception.
    Timeout,
}

/// Snapshot of one segment register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegSnapshot {
    /// Visible selector.
    pub selector: u16,
    /// Cached base.
    pub base: u32,
    /// Cached byte-granular limit.
    pub limit: u32,
    /// Cached attribute word.
    pub attrs: u16,
}

/// A complete final machine state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// General-purpose registers.
    pub gpr: [u32; 8],
    /// Instruction pointer.
    pub eip: u32,
    /// EFLAGS.
    pub eflags: u32,
    /// Segment registers in [`Seg`] order.
    pub segs: [SegSnapshot; 6],
    /// CR0.
    pub cr0: u32,
    /// CR2.
    pub cr2: u32,
    /// CR3 (base | flags).
    pub cr3: u32,
    /// CR4.
    pub cr4: u32,
    /// GDTR (base, limit).
    pub gdtr: (u32, u16),
    /// IDTR (base, limit).
    pub idtr: (u32, u16),
    /// Physical memory.
    pub mem: PagedMem,
    /// How execution ended.
    pub outcome: Outcome,
}

impl Snapshot {
    /// Captures a snapshot from a concrete [`Machine`].
    pub fn capture(d: &mut Concrete, m: &Machine<pokemu_symx::CVal>, outcome: Outcome) -> Snapshot {
        let g = |d: &Concrete, v| d.as_const(v).expect("concrete machine") as u32;
        let mut segs = [SegSnapshot {
            selector: 0,
            base: 0,
            limit: 0,
            attrs: 0,
        }; 6];
        for s in Seg::ALL {
            let sr = &m.segs[s as usize];
            segs[s as usize] = SegSnapshot {
                selector: g(d, sr.selector) as u16,
                base: g(d, sr.cache.base),
                limit: g(d, sr.cache.limit),
                attrs: g(d, sr.cache.attrs) as u16,
            };
        }
        Snapshot {
            gpr: std::array::from_fn(|i| g(d, m.gpr[i])),
            eip: m.eip,
            eflags: g(d, m.eflags),
            segs,
            cr0: g(d, m.cr0),
            cr2: m.cr2,
            cr3: m.cr3_base | g(d, m.cr3_flags),
            cr4: g(d, m.cr4),
            gdtr: (m.gdtr.base, g(d, m.gdtr.limit) as u16),
            idtr: (m.idtr.base, g(d, m.idtr.limit) as u16),
            mem: m.mem.to_mem(),
            outcome,
        }
    }

    /// Names of the state components in which `self` and `other` differ —
    /// the difference signature used for clustering (paper §6.2).
    pub fn diff(&self, other: &Snapshot) -> Vec<String> {
        let mut out = Vec::new();
        if self.outcome != other.outcome {
            out.push(format!(
                "outcome: {:?} vs {:?}",
                self.outcome, other.outcome
            ));
        }
        for (i, r) in crate::state::Gpr::ALL.iter().enumerate() {
            if self.gpr[i] != other.gpr[i] {
                out.push(format!(
                    "{}: {:#x} vs {:#x}",
                    r.name(),
                    self.gpr[i],
                    other.gpr[i]
                ));
            }
        }
        if self.eip != other.eip {
            out.push(format!("eip: {:#x} vs {:#x}", self.eip, other.eip));
        }
        if self.eflags != other.eflags {
            out.push(format!("eflags: {:#x} vs {:#x}", self.eflags, other.eflags));
        }
        for s in Seg::ALL {
            let (a, b) = (self.segs[s as usize], other.segs[s as usize]);
            if a != b {
                out.push(format!("{}: {:?} vs {:?}", s.name(), a, b));
            }
        }
        for (name, a, b) in [
            ("cr0", self.cr0, other.cr0),
            ("cr2", self.cr2, other.cr2),
            ("cr3", self.cr3, other.cr3),
            ("cr4", self.cr4, other.cr4),
        ] {
            if a != b {
                out.push(format!("{name}: {a:#x} vs {b:#x}"));
            }
        }
        if self.gdtr != other.gdtr {
            out.push(format!("gdtr: {:?} vs {:?}", self.gdtr, other.gdtr));
        }
        if self.idtr != other.idtr {
            out.push(format!("idtr: {:?} vs {:?}", self.idtr, other.idtr));
        }
        let mut mem_diffs = 0;
        for (addr, a, b) in self.mem.diffs(&other.mem) {
            if mem_diffs < 8 {
                out.push(format!("mem[{addr:#x}]: {a:#x} vs {b:#x}"));
            }
            mem_diffs += 1;
        }
        if mem_diffs >= 8 {
            out.push(format!("... {mem_diffs} memory bytes differ in total"));
        }
        out
    }

    /// `true` when the snapshots are behaviorally identical, i.e. when
    /// [`Snapshot::diff`] is empty.
    pub fn same_behavior(&self, other: &Snapshot) -> bool {
        self == other
    }
}
