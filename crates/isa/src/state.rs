//! Guest machine state: registers, flags, segments, control registers.
//!
//! The state is generic over the value type `V` so the same structures hold
//! concrete words (emulator execution) or symbolic terms (exploration). The
//! symbolic/concrete split of Figure 3 is *not* encoded here — it is a
//! property of how exploration initializes the state (see `pokemu-explore`).

use pokemu_symx::{Dom, Stored};

use crate::mem::Memory;

/// Physical memory size: 4 MiB, as in the paper's baseline configuration
/// ("map the 4-GByte virtual address space linearly to a 4-MByte physical
/// memory", §4.1).
pub const PHYS_MEM_SIZE: u32 = 4 << 20;

/// General-purpose register indexes in x86 encoding order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Gpr {
    Eax = 0,
    Ecx = 1,
    Edx = 2,
    Ebx = 3,
    Esp = 4,
    Ebp = 5,
    Esi = 6,
    Edi = 7,
}

impl Gpr {
    /// All registers in encoding order.
    pub const ALL: [Gpr; 8] = [
        Gpr::Eax,
        Gpr::Ecx,
        Gpr::Edx,
        Gpr::Ebx,
        Gpr::Esp,
        Gpr::Ebp,
        Gpr::Esi,
        Gpr::Edi,
    ];

    /// Builds from a 3-bit encoding.
    ///
    /// # Panics
    ///
    /// Panics if `n > 7`.
    pub fn from_bits(n: u8) -> Gpr {
        Self::ALL[n as usize]
    }

    /// The conventional name, e.g. `"eax"`.
    pub fn name(self) -> &'static str {
        ["eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"][self as usize]
    }
}

/// Segment register indexes in x86 encoding order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Seg {
    Es = 0,
    Cs = 1,
    Ss = 2,
    Ds = 3,
    Fs = 4,
    Gs = 5,
}

impl Seg {
    /// All segment registers in encoding order.
    pub const ALL: [Seg; 6] = [Seg::Es, Seg::Cs, Seg::Ss, Seg::Ds, Seg::Fs, Seg::Gs];

    /// Builds from a 3-bit encoding.
    ///
    /// Returns `None` for encodings 6 and 7 (reserved; loading them is #UD).
    pub fn from_bits(n: u8) -> Option<Seg> {
        Self::ALL.get(n as usize).copied()
    }

    /// The conventional name, e.g. `"ss"`.
    pub fn name(self) -> &'static str {
        ["es", "cs", "ss", "ds", "fs", "gs"][self as usize]
    }
}

/// EFLAGS bit positions (x86 layout).
pub mod flags {
    /// Carry.
    pub const CF: u8 = 0;
    /// Parity.
    pub const PF: u8 = 2;
    /// Auxiliary carry.
    pub const AF: u8 = 4;
    /// Zero.
    pub const ZF: u8 = 6;
    /// Sign.
    pub const SF: u8 = 7;
    /// Trap.
    pub const TF: u8 = 8;
    /// Interrupt enable.
    pub const IF: u8 = 9;
    /// Direction.
    pub const DF: u8 = 10;
    /// Overflow.
    pub const OF: u8 = 11;
    /// I/O privilege level (2 bits).
    pub const IOPL: u8 = 12;
    /// Nested task.
    pub const NT: u8 = 14;
    /// Resume.
    pub const RF: u8 = 16;
    /// Virtual-8086 mode.
    pub const VM: u8 = 17;
    /// Alignment check.
    pub const AC: u8 = 18;
    /// Virtual interrupt flag.
    pub const VIF: u8 = 19;
    /// Virtual interrupt pending.
    pub const VIP: u8 = 20;
    /// CPUID availability.
    pub const ID: u8 = 21;

    /// Bits that always read as fixed values: bit 1 reads 1; bits 3, 5, 15
    /// and 22..31 read 0.
    pub const FIXED_ONE: u32 = 0x0000_0002;
    /// Mask of bits that are architecturally writable in our subset.
    pub const WRITABLE: u32 = 0x003f_7fd5;
    /// Mask of the arithmetic status flags.
    pub const STATUS: u32 = (1 << CF as u32)
        | (1 << PF as u32)
        | (1 << AF as u32)
        | (1 << ZF as u32)
        | (1 << SF as u32)
        | (1 << OF as u32);
}

/// CR0 bit positions.
pub mod cr0 {
    /// Protection enable.
    pub const PE: u8 = 0;
    /// Monitor coprocessor.
    pub const MP: u8 = 1;
    /// FPU emulation.
    pub const EM: u8 = 2;
    /// Task switched.
    pub const TS: u8 = 3;
    /// Extension type (reads 1).
    pub const ET: u8 = 4;
    /// Numeric error.
    pub const NE: u8 = 5;
    /// Write protect (supervisor writes honor page R/W).
    pub const WP: u8 = 16;
    /// Alignment mask.
    pub const AM: u8 = 18;
    /// Not write-through.
    pub const NW: u8 = 29;
    /// Cache disable.
    pub const CD: u8 = 30;
    /// Paging enable.
    pub const PG: u8 = 31;
}

/// CR4 bit positions.
pub mod cr4 {
    /// Virtual-8086 mode extensions.
    pub const VME: u8 = 0;
    /// Protected-mode virtual interrupts.
    pub const PVI: u8 = 1;
    /// Time-stamp disable (RDTSC requires CPL 0 when set).
    pub const TSD: u8 = 2;
    /// Debugging extensions.
    pub const DE: u8 = 3;
    /// Page-size extensions.
    pub const PSE: u8 = 4;
    /// Physical address extension (unsupported: must be 0).
    pub const PAE: u8 = 5;
    /// Machine-check enable.
    pub const MCE: u8 = 6;
    /// Global pages.
    pub const PGE: u8 = 7;
    /// Performance counter enable.
    pub const PCE: u8 = 8;
}

/// Exception vectors with their error information.
///
/// Vector numbers follow the x86 architecture. `Gp`, `Ss`, `Np`, `Ts` carry a
/// selector error code; `Pf` carries the page-fault error code and the
/// faulting linear address (CR2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Exception {
    /// #DE — divide error (vector 0).
    De,
    /// #DB — debug (vector 1).
    Db,
    /// #BP — breakpoint (vector 3, from `int3`).
    Bp,
    /// #OF — overflow (vector 4, from `into`).
    Of,
    /// #BR — bound range (vector 5).
    Br,
    /// #UD — invalid opcode (vector 6).
    Ud,
    /// #NM — device not available (vector 7).
    Nm,
    /// #DF — double fault (vector 8).
    Df,
    /// #TS — invalid TSS (vector 10).
    Ts(u16),
    /// #NP — segment not present (vector 11).
    Np(u16),
    /// #SS — stack fault (vector 12).
    Ss(u16),
    /// #GP — general protection (vector 13).
    Gp(u16),
    /// #PF — page fault (vector 14): error code and faulting linear address.
    Pf(u16, u32),
    /// Software interrupt `int n` (delivered like an exception by the
    /// baseline IDT, which halts).
    SoftInt(u8),
}

impl Exception {
    /// The x86 vector number.
    pub fn vector(self) -> u8 {
        match self {
            Exception::De => 0,
            Exception::Db => 1,
            Exception::Bp => 3,
            Exception::Of => 4,
            Exception::Br => 5,
            Exception::Ud => 6,
            Exception::Nm => 7,
            Exception::Df => 8,
            Exception::Ts(_) => 10,
            Exception::Np(_) => 11,
            Exception::Ss(_) => 12,
            Exception::Gp(_) => 13,
            Exception::Pf(..) => 14,
            Exception::SoftInt(n) => n,
        }
    }

    /// The error code pushed by the exception, if any.
    pub fn error_code(self) -> Option<u16> {
        match self {
            Exception::Ts(e) | Exception::Np(e) | Exception::Ss(e) | Exception::Gp(e) => Some(e),
            Exception::Pf(e, _) => Some(e),
            _ => None,
        }
    }
}

/// A cached segment descriptor (the "hidden part" of a segment register).
///
/// `limit` is stored pre-scaled (byte granular): when the descriptor's G bit
/// is set the limit is `(raw_limit << 12) | 0xfff`.
#[derive(Debug, Clone, Copy)]
pub struct DescCache<V> {
    /// Segment base linear address.
    pub base: V,
    /// Byte-granular limit (inclusive).
    pub limit: V,
    /// Attribute bits, laid out as in [`attrs`].
    pub attrs: V,
}

/// Layout of [`DescCache::attrs`] (12 bits used).
pub mod attrs {
    /// Type field (4 bits, includes the accessed bit at bit 0).
    pub const TYPE_LO: u8 = 0;
    /// S bit: 1 = code/data, 0 = system.
    pub const S: u8 = 4;
    /// DPL (2 bits).
    pub const DPL_LO: u8 = 5;
    /// Present.
    pub const P: u8 = 7;
    /// AVL (ignored).
    pub const AVL: u8 = 8;
    /// L (64-bit; must be 0 in our subset).
    pub const L: u8 = 9;
    /// D/B default operation size.
    pub const DB: u8 = 10;
    /// Granularity (already folded into the cached limit; kept for fidelity).
    pub const G: u8 = 11;
    /// Width of the attrs word.
    pub const WIDTH: u8 = 12;
}

/// A segment register: the visible selector plus the descriptor cache.
#[derive(Debug, Clone, Copy)]
pub struct SegReg<V> {
    /// Visible 16-bit selector (index | TI | RPL).
    pub selector: V,
    /// The cached descriptor used for every access.
    pub cache: DescCache<V>,
}

/// A descriptor-table register (GDTR/IDTR).
#[derive(Debug, Clone, Copy)]
pub struct TableReg<V> {
    /// Linear base address. Kept concrete in exploration (Fig. 3: pointers
    /// to tables are concrete).
    pub base: u32,
    /// 16-bit table limit.
    pub limit: V,
}

/// Model-specific registers supported by the subset.
#[derive(Debug, Clone, Copy)]
pub struct Msrs<V> {
    /// IA32_SYSENTER_CS (0x174).
    pub sysenter_cs: V,
    /// IA32_SYSENTER_ESP (0x175).
    pub sysenter_esp: V,
    /// IA32_SYSENTER_EIP (0x176).
    pub sysenter_eip: V,
    /// Time-stamp counter (0x10); advanced by `rdtsc`.
    pub tsc: u64,
}

/// MSR addresses implemented by the subset.
pub const VALID_MSRS: [u32; 4] = [0x10, 0x174, 0x175, 0x176];

/// The complete guest machine state.
///
/// Everything that can influence a future instruction, per the paper's
/// definition of machine state (§2): registers, flags, segment state,
/// control registers, descriptor-table registers, MSRs, and physical memory.
#[derive(Debug, Clone)]
pub struct Machine<V: Stored> {
    /// General-purpose registers, indexed by [`Gpr`].
    pub gpr: [V; 8],
    /// Instruction pointer. Concrete: tests always place the test
    /// instruction at a fixed address (Fig. 3).
    pub eip: u32,
    /// EFLAGS register.
    pub eflags: V,
    /// Segment registers, indexed by [`Seg`].
    pub segs: [SegReg<V>; 6],
    /// CR0.
    pub cr0: V,
    /// CR2 (page-fault linear address). Concrete: written on #PF.
    pub cr2: u32,
    /// CR3: page-directory base is kept concrete; PWT/PCD flag bits live in
    /// `cr3_flags`.
    pub cr3_base: u32,
    /// CR3 flag bits (PWT, PCD) as a 32-bit word with only bits 3..4 used.
    pub cr3_flags: V,
    /// CR4.
    pub cr4: V,
    /// GDTR.
    pub gdtr: TableReg<V>,
    /// IDTR.
    pub idtr: TableReg<V>,
    /// MSRs.
    pub msrs: Msrs<V>,
    /// Physical memory.
    pub mem: Memory<V>,
}

impl<V: Stored> Machine<V> {
    /// Builds a machine with every register zeroed and empty memory.
    ///
    /// Use `pokemu_testgen::baseline` for a runnable configuration; this
    /// constructor only allocates the structure.
    pub fn zeroed<D: Dom<V = V>>(d: &mut D) -> Self {
        let z32 = d.constant(32, 0);
        let z16 = d.constant(16, 0);
        let za = d.constant(attrs::WIDTH, 0);
        let seg = SegReg {
            selector: z16,
            cache: DescCache {
                base: z32,
                limit: z32,
                attrs: za,
            },
        };
        Machine {
            gpr: [z32; 8],
            eip: 0,
            eflags: d.constant(32, flags::FIXED_ONE as u64),
            segs: [seg; 6],
            cr0: z32,
            cr2: 0,
            cr3_base: 0,
            cr3_flags: z32,
            cr4: z32,
            gdtr: TableReg {
                base: 0,
                limit: z16,
            },
            idtr: TableReg {
                base: 0,
                limit: z16,
            },
            msrs: Msrs {
                sysenter_cs: z32,
                sysenter_esp: z32,
                sysenter_eip: z32,
                tsc: 0,
            },
            mem: Memory::new(),
        }
    }

    /// Reads a general-purpose register.
    pub fn reg(&self, r: Gpr) -> V {
        self.gpr[r as usize]
    }

    /// Writes a general-purpose register.
    pub fn set_reg(&mut self, r: Gpr, v: V) {
        self.gpr[r as usize] = v;
    }

    /// The current privilege level, read from the CS descriptor-cache DPL.
    pub fn cpl<D: Dom<V = V>>(&self, d: &mut D) -> V {
        let a = self.segs[Seg::Cs as usize].cache.attrs;
        d.extract(a, attrs::DPL_LO + 1, attrs::DPL_LO)
    }
}

/// Packs raw GDT descriptor halves.
///
/// These helpers are the single source of truth for the on-disk descriptor
/// layout, shared by the baseline initializer, the gadget generator, and
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawDescriptor {
    /// Segment base.
    pub base: u32,
    /// Raw 20-bit limit (before granularity scaling).
    pub limit: u32,
    /// Type (4 bits).
    pub typ: u8,
    /// S bit.
    pub s: bool,
    /// DPL.
    pub dpl: u8,
    /// Present.
    pub present: bool,
    /// AVL.
    pub avl: bool,
    /// L bit.
    pub l: bool,
    /// D/B bit.
    pub db: bool,
    /// Granularity.
    pub g: bool,
}

impl RawDescriptor {
    /// A flat 4-GiB ring-0 segment of the given type (paper §4.1 baseline).
    pub fn flat(typ: u8) -> RawDescriptor {
        RawDescriptor {
            base: 0,
            limit: 0xfffff,
            typ,
            s: true,
            dpl: 0,
            present: true,
            avl: false,
            l: false,
            db: true,
            g: true,
        }
    }

    /// Encodes to the 8-byte GDT entry format.
    pub fn encode(self) -> [u8; 8] {
        let mut b = [0u8; 8];
        b[0] = (self.limit & 0xff) as u8;
        b[1] = ((self.limit >> 8) & 0xff) as u8;
        b[2] = (self.base & 0xff) as u8;
        b[3] = ((self.base >> 8) & 0xff) as u8;
        b[4] = ((self.base >> 16) & 0xff) as u8;
        b[5] = (self.typ & 0xf)
            | ((self.s as u8) << 4)
            | ((self.dpl & 3) << 5)
            | ((self.present as u8) << 7);
        b[6] = (((self.limit >> 16) & 0xf) as u8)
            | ((self.avl as u8) << 4)
            | ((self.l as u8) << 5)
            | ((self.db as u8) << 6)
            | ((self.g as u8) << 7);
        b[7] = ((self.base >> 24) & 0xff) as u8;
        b
    }

    /// Decodes from the 8-byte GDT entry format.
    pub fn decode(b: [u8; 8]) -> RawDescriptor {
        RawDescriptor {
            base: (b[2] as u32)
                | ((b[3] as u32) << 8)
                | ((b[4] as u32) << 16)
                | ((b[7] as u32) << 24),
            limit: (b[0] as u32) | ((b[1] as u32) << 8) | (((b[6] & 0xf) as u32) << 16),
            typ: b[5] & 0xf,
            s: b[5] & 0x10 != 0,
            dpl: (b[5] >> 5) & 3,
            present: b[5] & 0x80 != 0,
            avl: b[6] & 0x10 != 0,
            l: b[6] & 0x20 != 0,
            db: b[6] & 0x40 != 0,
            g: b[6] & 0x80 != 0,
        }
    }

    /// The byte-granular limit after applying the G bit.
    pub fn scaled_limit(self) -> u32 {
        if self.g {
            (self.limit << 12) | 0xfff
        } else {
            self.limit
        }
    }
}

/// Segment selector helpers.
pub mod selector {
    /// Builds a selector from table index, TI and RPL.
    pub fn build(index: u16, ti_ldt: bool, rpl: u8) -> u16 {
        (index << 3) | ((ti_ldt as u16) << 2) | (rpl as u16 & 3)
    }

    /// The table index of a selector.
    pub fn index(sel: u16) -> u16 {
        sel >> 3
    }

    /// The RPL of a selector.
    pub fn rpl(sel: u16) -> u8 {
        (sel & 3) as u8
    }

    /// The TI bit (1 = LDT).
    pub fn ti(sel: u16) -> bool {
        sel & 4 != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_roundtrip() {
        let d = RawDescriptor {
            base: 0x0012_3456,
            limit: 0xabcde,
            typ: 0xb,
            s: true,
            dpl: 3,
            present: true,
            avl: true,
            l: false,
            db: true,
            g: true,
        };
        assert_eq!(RawDescriptor::decode(d.encode()), d);
    }

    #[test]
    fn flat_descriptor_covers_4g() {
        let d = RawDescriptor::flat(0x3);
        assert_eq!(d.scaled_limit(), 0xffff_ffff);
    }

    #[test]
    fn selector_fields() {
        let s = selector::build(10, false, 0);
        assert_eq!(s, 0x50);
        assert_eq!(selector::index(s), 10);
        assert_eq!(selector::rpl(s), 0);
        assert!(!selector::ti(s));
    }

    #[test]
    fn exception_vectors_match_x86() {
        assert_eq!(Exception::Ud.vector(), 6);
        assert_eq!(Exception::Gp(0).vector(), 13);
        assert_eq!(Exception::Pf(2, 0xdead).vector(), 14);
        assert_eq!(Exception::Pf(2, 0xdead).error_code(), Some(2));
        assert_eq!(Exception::SoftInt(0x80).vector(), 0x80);
    }

    #[test]
    fn cpl_reads_cs_dpl() {
        use pokemu_symx::{Concrete, Dom};
        let mut d = Concrete::new();
        let mut m = Machine::zeroed(&mut d);
        m.segs[Seg::Cs as usize].cache.attrs = d.constant(attrs::WIDTH, 0x3 << attrs::DPL_LO);
        let cpl = m.cpl(&mut d);
        assert_eq!(d.as_const(cpl), Some(3));
    }
}
