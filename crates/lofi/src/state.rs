//! Lo-Fi machine state: flat registers, lazy condition codes, fidelity
//! configuration.
//!
//! Unlike the Hi-Fi emulator, which shares the reference interpreter, the
//! Lo-Fi emulator is an entirely separate implementation in the mold of
//! QEMU: plain `u32` state, guest RAM as copy-on-write 4-KiB pages
//! allocated on first non-zero write ([`Ram`]), and EFLAGS kept *lazily*
//! as the operands/result of the last flag-setting operation, materialized
//! only when read. Lazy flags are one authentic source of the
//! undefined-flag differences the paper observes (§6.2).

use std::fmt;

use pokemu_isa::page::{Page, PAGE_SIZE};
use pokemu_isa::snapshot::PagedMem;
use pokemu_isa::state::flags as fl;
use pokemu_isa::state::PHYS_MEM_SIZE;

/// Which fidelity gaps are *fixed*. The default (all `false`) is the QEMU
/// profile whose deviations the paper's evaluation finds; the ablation
/// experiment (A1) flips fixes one at a time and re-runs cross-validation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fidelity {
    /// Enforce segment limits/rights/presence on ordinary data accesses.
    /// QEMU's fast path translates `base + offset` directly ("does not
    /// enforce segment limits and rights with the majority of
    /// instructions", §6.2).
    pub enforce_segment_checks: bool,
    /// Make `leave` atomic: check the stack read before clobbering ESP
    /// (§6.2: "corrupts the stack pointer when the page containing the top
    /// of the stack is not accessible").
    pub atomic_leave: bool,
    /// Make `cmpxchg` atomic: check the destination write before updating
    /// the accumulator (§6.2).
    pub atomic_cmpxchg: bool,
    /// Raise #GP on `rdmsr`/`wrmsr` of an invalid MSR instead of returning
    /// zero (§6.2).
    pub msr_gp_on_invalid: bool,
    /// Pop `iret` frames innermost-first (ascending addresses) like the
    /// hardware, instead of outermost-first (§6.2).
    pub iret_ascending: bool,
    /// Maintain the descriptor "accessed" bit on segment loads (§6.2).
    pub set_accessed_bit: bool,
    /// Accept the undocumented-but-real encodings (`0x82` alias, `salc`,
    /// `int1`, `f6 /1`) instead of #UD (§6.2: "QEMU does not consider valid
    /// certain instruction encodings").
    pub accept_undocumented: bool,
}

impl Fidelity {
    /// The as-shipped Lo-Fi profile (every gap present).
    pub const QEMU_LIKE: Fidelity = Fidelity {
        enforce_segment_checks: false,
        atomic_leave: false,
        atomic_cmpxchg: false,
        msr_gp_on_invalid: false,
        iret_ascending: false,
        set_accessed_bit: false,
        accept_undocumented: false,
    };

    /// Everything fixed — used to show the tests "can be used again in the
    /// future to validate the implementation" (§6.2).
    pub const ALL_FIXED: Fidelity = Fidelity {
        enforce_segment_checks: true,
        atomic_leave: true,
        atomic_cmpxchg: true,
        msr_gp_on_invalid: true,
        iret_ascending: true,
        set_accessed_bit: true,
        accept_undocumented: true,
    };
}

/// Lazy condition-code operation kinds (QEMU's `CC_OP_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcOp {
    /// Status flags are fully materialized in `dst`.
    Flags,
    /// Logical op: result in `dst`. CF=OF=AF=0 (AF is the deviation: the
    /// architecture leaves it undefined, real silicon often tracks the ALU).
    Logic,
    /// Addition: operands in `src1`/`src2`, result in `dst`.
    Add,
    /// Addition with carry-in recorded in `src3`.
    Adc,
    /// Subtraction `src1 - src2 = dst`.
    Sub,
    /// Subtraction with borrow-in recorded in `src3`.
    Sbb,
    /// Increment: result in `dst`, previous CF in `src1`.
    Inc,
    /// Decrement: result in `dst`, previous CF in `src1`.
    Dec,
}

/// The lazy condition-code record.
#[derive(Debug, Clone, Copy)]
pub struct CcState {
    /// Operation kind.
    pub op: CcOp,
    /// Operand size in bytes (1, 2, 4).
    pub size: u8,
    /// Result (or the full status-flag image for [`CcOp::Flags`]).
    pub dst: u32,
    /// First operand / auxiliary.
    pub src1: u32,
    /// Second operand.
    pub src2: u32,
    /// Carry/borrow-in for Adc/Sbb.
    pub src3: u32,
}

impl Default for CcState {
    fn default() -> Self {
        CcState {
            op: CcOp::Flags,
            size: 4,
            dst: 0,
            src1: 0,
            src2: 0,
            src3: 0,
        }
    }
}

fn parity8(v: u32) -> u32 {
    ((v as u8).count_ones() + 1) & 1
}

fn msb(v: u32, size: u8) -> u32 {
    (v >> (size * 8 - 1)) & 1
}

fn mask(size: u8) -> u64 {
    (1u64 << (size * 8)) - 1
}

impl CcState {
    /// Materializes the six status flags as an EFLAGS-positioned bitmask.
    pub fn materialize(&self) -> u32 {
        let size = self.size;
        let d = (self.dst as u64 & mask(size)) as u32;
        let s1 = (self.src1 as u64 & mask(size)) as u32;
        let s2 = (self.src2 as u64 & mask(size)) as u32;
        let set = |bit: u8, v: u32| if v != 0 { 1u32 << bit } else { 0 };
        let common = |r: u32| {
            set(fl::ZF, (r == 0) as u32) | set(fl::SF, msb(r, size)) | set(fl::PF, parity8(r))
        };
        match self.op {
            CcOp::Flags => self.dst & fl::STATUS,
            CcOp::Logic => common(d),
            CcOp::Add | CcOp::Adc => {
                let cin = if self.op == CcOp::Adc {
                    self.src3 & 1
                } else {
                    0
                };
                let full = (s1 as u64) + (s2 as u64) + cin as u64;
                let cf = ((full >> (size * 8)) & 1) as u32;
                let of = msb((s1 ^ d) & (s2 ^ d), size);
                let af = ((s1 ^ s2 ^ d) >> 4) & 1;
                common(d) | set(fl::CF, cf) | set(fl::OF, of) | set(fl::AF, af)
            }
            CcOp::Sub | CcOp::Sbb => {
                let bin = if self.op == CcOp::Sbb {
                    self.src3 & 1
                } else {
                    0
                };
                let cf = (((s1 as u64) < (s2 as u64 + bin as u64)) as u32) & 1;
                let of = msb((s1 ^ s2) & (s1 ^ d), size);
                let af = ((s1 ^ s2 ^ d) >> 4) & 1;
                common(d) | set(fl::CF, cf) | set(fl::OF, of) | set(fl::AF, af)
            }
            CcOp::Inc => {
                // CF preserved from before (src1); OF when result is the
                // minimum signed value; AF when low nibble wrapped to 0.
                let of = (d as u64 & mask(size) == (mask(size) >> 1) + 1) as u32;
                let af = ((d & 0xf) == 0) as u32;
                common(d) | set(fl::CF, self.src1 & 1) | set(fl::OF, of) | set(fl::AF, af)
            }
            CcOp::Dec => {
                let of = (d as u64 & mask(size) == (mask(size) >> 1)) as u32;
                let af = ((d & 0xf) == 0xf) as u32;
                common(d) | set(fl::CF, self.src1 & 1) | set(fl::OF, of) | set(fl::AF, af)
            }
        }
    }

    /// The carry flag alone, as 0 or 1. Exactly the CF bit
    /// [`materialize`](Self::materialize) would produce, without paying
    /// for the other five flags — the hot path for `GetCf` (every
    /// `inc`/`dec`/`adc` threads the previous CF through it).
    pub fn cf(&self) -> u32 {
        match self.op {
            CcOp::Flags => (self.dst >> fl::CF) & 1,
            CcOp::Logic => 0,
            CcOp::Add | CcOp::Adc => {
                let cin = if self.op == CcOp::Adc {
                    (self.src3 & 1) as u64
                } else {
                    0
                };
                let s1 = self.src1 as u64 & mask(self.size);
                let s2 = self.src2 as u64 & mask(self.size);
                (((s1 + s2 + cin) >> (self.size * 8)) & 1) as u32
            }
            CcOp::Sub | CcOp::Sbb => {
                let bin = if self.op == CcOp::Sbb {
                    (self.src3 & 1) as u64
                } else {
                    0
                };
                let s1 = self.src1 as u64 & mask(self.size);
                let s2 = self.src2 as u64 & mask(self.size);
                (s1 < s2 + bin) as u32
            }
            CcOp::Inc | CcOp::Dec => self.src1 & 1,
        }
    }

    /// The zero flag alone, as 0 or 1 (see [`cf`](Self::cf)).
    pub fn zf(&self) -> u32 {
        match self.op {
            CcOp::Flags => (self.dst >> fl::ZF) & 1,
            _ => (self.dst as u64 & mask(self.size) == 0) as u32,
        }
    }

    /// The sign flag alone, as 0 or 1 (see [`cf`](Self::cf)).
    pub fn sf(&self) -> u32 {
        match self.op {
            CcOp::Flags => (self.dst >> fl::SF) & 1,
            _ => msb((self.dst as u64 & mask(self.size)) as u32, self.size),
        }
    }

    /// The parity flag alone, as 0 or 1 (see [`cf`](Self::cf)).
    pub fn pf(&self) -> u32 {
        match self.op {
            CcOp::Flags => (self.dst >> fl::PF) & 1,
            _ => parity8((self.dst as u64 & mask(self.size)) as u32),
        }
    }

    /// The overflow flag alone, as 0 or 1 (see [`cf`](Self::cf)).
    pub fn of(&self) -> u32 {
        let size = self.size;
        let d = (self.dst as u64 & mask(size)) as u32;
        let s1 = (self.src1 as u64 & mask(size)) as u32;
        let s2 = (self.src2 as u64 & mask(size)) as u32;
        match self.op {
            CcOp::Flags => (self.dst >> fl::OF) & 1,
            CcOp::Logic => 0,
            CcOp::Add | CcOp::Adc => msb((s1 ^ d) & (s2 ^ d), size),
            CcOp::Sub | CcOp::Sbb => msb((s1 ^ s2) & (s1 ^ d), size),
            CcOp::Inc => (d as u64 & mask(size) == (mask(size) >> 1) + 1) as u32,
            CcOp::Dec => (d as u64 & mask(size) == (mask(size) >> 1)) as u32,
        }
    }
}

/// Pages of guest RAM.
const PAGES: usize = PHYS_MEM_SIZE as usize / PAGE_SIZE;

/// Guest RAM: copy-on-write 4-KiB pages ([`Page`]) found through a
/// directly indexed table of page numbers. A page is allocated on its first
/// non-zero write and an absent page reads as zero, so a run allocates,
/// copies and scans only the pages it touches. Cloning copies the 2-KiB
/// table and the owned pages and shares the shared ones: after
/// [`Ram::share`], a clone copies a page only when a write first changes
/// it. Addresses wrap at [`PHYS_MEM_SIZE`].
#[derive(Clone)]
pub struct Ram {
    /// Page number → 1 + the page's position in `pages`; 0 when absent.
    index: Box<[u16; PAGES]>,
    /// The allocated pages and their page numbers, in ascending order.
    pages: Vec<(u16, Page<u8>)>,
}

impl Default for Ram {
    fn default() -> Self {
        Self::new()
    }
}

/// Prints the base addresses of the allocated pages.
impl fmt::Debug for Ram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.pages().map(|(base, _)| base))
            .finish()
    }
}

impl Ram {
    /// RAM with no page allocated: every byte reads as zero.
    pub fn new() -> Self {
        Ram {
            index: Box::new([0; PAGES]),
            pages: Vec::new(),
        }
    }

    /// Page number and in-page offset of `addr`, wrapped at the RAM size.
    fn slot(addr: u32) -> (usize, usize) {
        let a = (addr % PHYS_MEM_SIZE) as usize;
        (a / PAGE_SIZE, a % PAGE_SIZE)
    }

    /// Page `pno`, if allocated.
    fn page(&self, pno: usize) -> Option<&Page<u8>> {
        match self.index[pno] {
            0 => None,
            at => Some(&self.pages[at as usize - 1].1),
        }
    }

    /// Page `pno`, allocated zero-filled if absent.
    fn page_or_insert(&mut self, pno: usize) -> &mut Page<u8> {
        if self.index[pno] == 0 {
            let at = self.pages.partition_point(|&(p, _)| (p as usize) < pno);
            self.pages.insert(at, (pno as u16, Page::filled(0)));
            for (i, &(p, _)) in self.pages.iter().enumerate().skip(at) {
                self.index[p as usize] = i as u16 + 1;
            }
        }
        &mut self.pages[self.index[pno] as usize - 1].1
    }

    /// Makes every page shared, so that clones of this RAM copy no page
    /// until they write it.
    pub fn share(&mut self) {
        for (_, page) in &mut self.pages {
            page.share();
        }
    }

    /// Reads `size` bytes little-endian; an access inside one page looks
    /// the page up once.
    pub fn read(&self, addr: u32, size: u8) -> u32 {
        let (pno, off) = Self::slot(addr);
        let end = off + size as usize;
        if end > PAGE_SIZE {
            return (0..size).fold(0, |v, i| {
                v | self.read(addr.wrapping_add(i as u32), 1) << (i * 8)
            });
        }
        match self.page(pno) {
            Some(page) => page[off..end]
                .iter()
                .rev()
                .fold(0, |v, &b| v << 8 | b as u32),
            None => 0,
        }
    }

    /// Writes the low `size` bytes of `val` little-endian. A page is
    /// allocated only when a written byte is non-zero, and a shared page is
    /// copied only when the write changes it. An access inside one page
    /// looks the page up once.
    pub fn write(&mut self, addr: u32, val: u32, size: u8) {
        let (pno, off) = Self::slot(addr);
        let end = off + size as usize;
        if end > PAGE_SIZE {
            for i in 0..size {
                self.write(addr.wrapping_add(i as u32), val >> (i * 8), 1);
            }
            return;
        }
        let bytes = &val.to_le_bytes()[..size as usize];
        match self.page(pno) {
            None if bytes.iter().all(|&b| b == 0) => return,
            Some(Page::Shared(shared)) if shared[off..end] == *bytes => return,
            _ => {}
        }
        // Byte stores rather than a slice copy: a copy of 1 to 4 bytes
        // compiles to a `memcpy` call.
        let page = self.page_or_insert(pno).make_mut();
        for (i, b) in page[off..end].iter_mut().enumerate() {
            *b = (val >> (i * 8)) as u8;
        }
    }

    /// Copies `bytes` in from `addr`, page by page, wrapping at the RAM
    /// size. An absent page is allocated only for a non-zero chunk.
    pub fn load(&mut self, addr: u32, bytes: &[u8]) {
        let mut at = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let (pno, off) = Self::slot(at);
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_SIZE - off));
            if self.index[pno] != 0 || chunk.iter().any(|&b| b != 0) {
                self.page_or_insert(pno).make_mut()[off..off + chunk.len()].copy_from_slice(chunk);
            }
            at = at.wrapping_add(chunk.len() as u32);
            rest = tail;
        }
    }

    /// The allocated pages as `(base address, page)`, in ascending address
    /// order. A page whose bytes were all written back to zero is included.
    pub fn pages(&self) -> impl Iterator<Item = (u32, &Page<u8>)> + '_ {
        self.pages
            .iter()
            .map(|(pno, page)| ((*pno as usize * PAGE_SIZE) as u32, page))
    }

    /// The canonical snapshot image: every allocated page that holds a
    /// non-zero byte, shared when the page is shared and copied when owned.
    pub fn to_mem(&self) -> PagedMem {
        PagedMem::from_pages(self.pages())
    }
}

/// One Lo-Fi segment register.
#[derive(Debug, Clone, Copy, Default)]
pub struct LofiSeg {
    /// Visible selector.
    pub selector: u16,
    /// Cached base.
    pub base: u32,
    /// Cached byte-granular limit.
    pub limit: u32,
    /// Cached attributes (same 12-bit layout as the reference).
    pub attrs: u16,
}

/// The Lo-Fi guest machine.
#[derive(Debug, Clone)]
pub struct LofiMachine {
    /// General-purpose registers.
    pub gpr: [u32; 8],
    /// Instruction pointer.
    pub eip: u32,
    /// Non-status EFLAGS bits (IF, DF, IOPL, ...); status bits live in `cc`.
    pub eflags_other: u32,
    /// Lazy condition codes.
    pub cc: CcState,
    /// Segment registers.
    pub segs: [LofiSeg; 6],
    /// CR0.
    pub cr0: u32,
    /// CR2.
    pub cr2: u32,
    /// CR3.
    pub cr3: u32,
    /// CR4.
    pub cr4: u32,
    /// GDTR (base, limit).
    pub gdtr: (u32, u16),
    /// IDTR (base, limit).
    pub idtr: (u32, u16),
    /// SYSENTER MSRs + TSC.
    pub msrs: [u32; 3],
    /// Time-stamp counter.
    pub tsc: u64,
    /// Guest RAM, paged.
    pub ram: Ram,
}

impl Default for LofiMachine {
    fn default() -> Self {
        Self::new()
    }
}

impl LofiMachine {
    /// A zeroed machine whose 4 MiB of RAM has no page allocated yet.
    pub fn new() -> Self {
        LofiMachine {
            gpr: [0; 8],
            eip: 0,
            eflags_other: fl::FIXED_ONE,
            cc: CcState::default(),
            segs: [LofiSeg::default(); 6],
            cr0: 0,
            cr2: 0,
            cr3: 0,
            cr4: 0,
            gdtr: (0, 0),
            idtr: (0, 0),
            msrs: [0; 3],
            tsc: 0,
            ram: Ram::new(),
        }
    }

    /// The fully materialized EFLAGS value.
    pub fn eflags(&self) -> u32 {
        (self.eflags_other & !fl::STATUS) | self.cc.materialize() | fl::FIXED_ONE
    }

    /// Replaces the full EFLAGS value (commits lazily-held status bits).
    pub fn set_eflags(&mut self, v: u32) {
        self.eflags_other = (v & !fl::STATUS) | fl::FIXED_ONE;
        self.cc = CcState {
            op: CcOp::Flags,
            size: 4,
            dst: v & fl::STATUS,
            src1: 0,
            src2: 0,
            src3: 0,
        };
    }

    /// Current privilege level (CS cache DPL).
    pub fn cpl(&self) -> u8 {
        ((self.segs[1].attrs >> 5) & 3) as u8
    }

    /// Reads physical memory (wrapping at the RAM size).
    pub fn phys_read(&self, addr: u32, size: u8) -> u32 {
        self.ram.read(addr, size)
    }

    /// Writes physical memory (wrapping at the RAM size).
    pub fn phys_write(&mut self, addr: u32, val: u32, size: u8) {
        self.ram.write(addr, val, size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_add_flags_match_expectations() {
        let cc = CcState {
            op: CcOp::Add,
            size: 1,
            dst: 0,
            src1: 0xff,
            src2: 1,
            src3: 0,
        };
        let f = cc.materialize();
        assert_ne!(f & (1 << fl::CF), 0);
        assert_ne!(f & (1 << fl::ZF), 0);
        assert_eq!(f & (1 << fl::OF), 0);
        assert_ne!(f & (1 << fl::AF), 0);
    }

    #[test]
    fn lazy_sub_borrow() {
        let cc = CcState {
            op: CcOp::Sub,
            size: 4,
            dst: 1u32.wrapping_sub(2),
            src1: 1,
            src2: 2,
            src3: 0,
        };
        let f = cc.materialize();
        assert_ne!(f & (1 << fl::CF), 0);
        assert_ne!(f & (1 << fl::SF), 0);
        assert_eq!(f & (1 << fl::OF), 0);
    }

    #[test]
    fn inc_preserves_cf() {
        let cc = CcState {
            op: CcOp::Inc,
            size: 4,
            dst: 0x80000000,
            src1: 1,
            src2: 0,
            src3: 0,
        };
        let f = cc.materialize();
        assert_ne!(f & (1 << fl::CF), 0, "CF carried through");
        assert_ne!(f & (1 << fl::OF), 0, "0x7fffffff + 1 overflows");
    }

    #[test]
    fn eflags_roundtrip() {
        let mut m = LofiMachine::new();
        m.set_eflags(0x246);
        assert_eq!(m.eflags(), 0x246);
        m.set_eflags(0x893); // CF | bit1 | AF | SF | ZF? (0x893 = CF+AF+SF+TF...)
        assert_eq!(m.eflags(), 0x893 | fl::FIXED_ONE);
    }

    #[test]
    fn phys_memory_wraps() {
        let mut m = LofiMachine::new();
        m.phys_write(10, 0xdeadbeef, 4);
        assert_eq!(m.phys_read(10 + PHYS_MEM_SIZE, 4), 0xdeadbeef);
    }

    /// `exec_tb` reads flags through the single-flag accessors (`GetCf`,
    /// `TestCc` and conditional branches); they must agree bit-for-bit with
    /// full materialization for every op/size/operand combination or the
    /// lazy and materialized paths drift.
    #[test]
    fn single_flag_accessors_match_materialize() {
        let ops = [
            CcOp::Flags,
            CcOp::Logic,
            CcOp::Add,
            CcOp::Adc,
            CcOp::Sub,
            CcOp::Sbb,
            CcOp::Inc,
            CcOp::Dec,
        ];
        let vals = [
            0u32,
            1,
            2,
            0x7f,
            0x80,
            0xff,
            0x100,
            0x7fff,
            0x8000,
            0xffff,
            0x1_0000,
            0x7fff_ffff,
            0x8000_0000,
            0xffff_ffff,
            0x1234_5678,
            0xdead_beef,
        ];
        let mut x = 0x9e37_79b9u32; // deterministic LCG-ish mixer
        for op in ops {
            for size in [1u8, 2, 4] {
                for i in 0..200 {
                    let pick = |x: &mut u32| {
                        *x = x.wrapping_mul(0x01000193).wrapping_add(i);
                        vals[(*x >> 11) as usize % vals.len()] ^ (*x & 0xffff)
                    };
                    let cc = CcState {
                        op,
                        size,
                        dst: pick(&mut x),
                        src1: pick(&mut x),
                        src2: pick(&mut x),
                        src3: pick(&mut x) & 1,
                    };
                    let full = cc.materialize();
                    let bit = |b: u8| (full >> b) & 1;
                    assert_eq!(cc.cf(), bit(fl::CF), "CF {cc:?}");
                    assert_eq!(cc.zf(), bit(fl::ZF), "ZF {cc:?}");
                    assert_eq!(cc.sf(), bit(fl::SF), "SF {cc:?}");
                    assert_eq!(cc.pf(), bit(fl::PF), "PF {cc:?}");
                    assert_eq!(cc.of(), bit(fl::OF), "OF {cc:?}");
                }
            }
        }
    }
}
