//! The Lo-Fi softmmu: fast-path segmentation and a TLB-cached page walk.
//!
//! This module is where the paper's headline Lo-Fi deviation lives: the
//! fast path computes `segment base + offset` and goes straight to paging —
//! **no limit, rights, or presence checks** — because that is how a
//! translation-block fast path avoids per-access overhead (QEMU's design,
//! and the reason "QEMU does not implement segmentation properly", §6.2).
//! When [`Fidelity::enforce_segment_checks`] is set, the full reference
//! checks are performed instead, which the ablation experiment uses.
//!
//! Paging itself matches the architecture (QEMU's paging is essentially
//! correct): present/rw/us checks, CR0.WP, accessed/dirty maintenance, and
//! 4-MiB pages, with a software TLB that is flushed on CR writes.

use std::collections::{HashMap, HashSet};

use pokemu_isa::state::{cr0, cr4, Exception, Seg};

use crate::state::{Fidelity, LofiMachine};

/// Access kinds for permission checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Exec,
}

/// One TLB entry: virtual page -> physical page with effective permissions.
#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    phys_page: u32,
    writable: bool,
    user: bool,
    /// The walk that filled this entry already set the dirty bit (a write
    /// walk); write hits are only allowed then, so D-bit maintenance is
    /// never skipped.
    dirty: bool,
}

/// The software TLB.
#[derive(Debug, Default, Clone)]
pub struct Tlb {
    entries: HashMap<u32, TlbEntry>,
    /// Physical pages holding page-table structures seen by walks. Guest
    /// writes into them flush the TLB, keeping translation coherent with
    /// the TLB-less hardware oracle (QEMU's softmmu tracks page-table
    /// pages for the same reason).
    table_pages: HashSet<u32>,
}

impl Tlb {
    /// Flushes all entries (CR0/CR3/CR4 writes, `invlpg`).
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Notes a guest store to the physical page `page`, flushing when it
    /// holds page-table structures.
    pub fn note_store(&mut self, page: u32) {
        if self.table_pages.contains(&page) {
            self.entries.clear();
        }
    }

    /// Number of cached translations (diagnostics).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the TLB holds no translations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

fn pf_error(kind: Access, user: bool, present: bool) -> u16 {
    (present as u16) | (((kind == Access::Write) as u16) << 1) | ((user as u16) << 2)
}

/// Computes the linear address for a segment access.
///
/// The fast path adds the cached base, nothing more. With
/// `enforce_segment_checks`, the reference checks run first.
///
/// # Errors
///
/// Only with `enforce_segment_checks`: #SS(0)/#GP(0) per the reference
/// rules.
pub fn seg_linear(
    m: &LofiMachine,
    fid: &Fidelity,
    seg: Seg,
    off: u32,
    len: u8,
    kind: Access,
) -> Result<u32, Exception> {
    let s = &m.segs[seg as usize];
    if fid.enforce_segment_checks {
        let fault = || {
            if seg == Seg::Ss {
                Exception::Ss(0)
            } else {
                Exception::Gp(0)
            }
        };
        let attrs = s.attrs;
        if attrs & (1 << 7) == 0 {
            return Err(fault()); // not present
        }
        if attrs & (1 << 4) == 0 {
            return Err(fault()); // system descriptor
        }
        let is_code = attrs & (1 << 3) != 0;
        let bit1 = attrs & (1 << 1) != 0;
        match kind {
            Access::Write => {
                if is_code || !bit1 {
                    return Err(fault());
                }
            }
            Access::Read => {
                if is_code && !bit1 {
                    return Err(fault());
                }
            }
            Access::Exec => {
                if !is_code {
                    return Err(fault());
                }
            }
        }
        let end = off as u64 + (len as u64 - 1);
        let expand_down = !is_code && attrs & (1 << 2) != 0;
        if expand_down {
            if off as u64 <= s.limit as u64 || end > 0xffff_ffff {
                return Err(fault());
            }
        } else if end > s.limit as u64 {
            return Err(fault());
        }
    }
    Ok(s.base.wrapping_add(off))
}

/// Translates a linear address through the TLB / page walk.
///
/// # Errors
///
/// #PF with the architectural error code; CR2 is set.
pub fn translate(
    m: &mut LofiMachine,
    tlb: &mut Tlb,
    lin: u32,
    kind: Access,
) -> Result<u32, Exception> {
    if m.cr0 & (1 << cr0::PG) == 0 {
        return Ok(lin);
    }
    let user = m.cpl() == 3;
    let page = lin >> 12;
    if let Some(e) = tlb.entries.get(&page) {
        // Fast hit: permissions already folded in. Writes only hit entries
        // filled by a write walk (dirty bit already maintained).
        let wp = m.cr0 & (1 << cr0::WP) != 0;
        let write_ok = (e.writable || (!user && !wp)) && e.dirty;
        let user_ok = !user || e.user;
        if user_ok && (kind != Access::Write || write_ok) {
            return Ok((e.phys_page << 12) | (lin & 0xfff));
        }
    }
    walk(m, tlb, lin, kind, user)
}

fn walk(
    m: &mut LofiMachine,
    tlb: &mut Tlb,
    lin: u32,
    kind: Access,
    user: bool,
) -> Result<u32, Exception> {
    let fail = |m: &mut LofiMachine, present: bool| {
        m.cr2 = lin;
        Err(Exception::Pf(pf_error(kind, user, present), lin))
    };
    let pde_addr = (m.cr3 & 0xffff_f000).wrapping_add((lin >> 22) << 2);
    let pde = m.phys_read(pde_addr, 4);
    if pde & 1 == 0 {
        return fail(m, false);
    }
    let wp = m.cr0 & (1 << cr0::WP) != 0;
    let big = pde & (1 << 7) != 0 && m.cr4 & (1 << cr4::PSE) != 0;
    if big {
        let rw = pde & 2 != 0;
        let us = pde & 4 != 0;
        check_perms(kind, user, rw, us, wp).map_err(|p| {
            m.cr2 = lin;
            Exception::Pf(pf_error(kind, user, p), lin)
        })?;
        let mut new_pde = pde | (1 << 5);
        if kind == Access::Write {
            new_pde |= 1 << 6;
        }
        m.phys_write(pde_addr, new_pde, 4);
        tlb.table_pages
            .insert((pde_addr % pokemu_isa::state::PHYS_MEM_SIZE) >> 12);
        let phys = (pde & 0xffc0_0000) | (lin & 0x3f_ffff);
        tlb.entries.insert(
            lin >> 12,
            TlbEntry {
                phys_page: phys >> 12,
                writable: rw,
                user: us,
                dirty: kind == Access::Write,
            },
        );
        return Ok(phys);
    }
    let pte_addr = (pde & 0xffff_f000).wrapping_add(((lin >> 12) & 0x3ff) << 2);
    let pte = m.phys_read(pte_addr, 4);
    if pte & 1 == 0 {
        return fail(m, false);
    }
    let rw = (pde & pte & 2) != 0;
    let us = (pde & pte & 4) != 0;
    check_perms(kind, user, rw, us, wp).map_err(|p| {
        m.cr2 = lin;
        Exception::Pf(pf_error(kind, user, p), lin)
    })?;
    m.phys_write(pde_addr, pde | (1 << 5), 4);
    let mut new_pte = pte | (1 << 5);
    if kind == Access::Write {
        new_pte |= 1 << 6;
    }
    m.phys_write(pte_addr, new_pte, 4);
    tlb.table_pages
        .insert((pde_addr % pokemu_isa::state::PHYS_MEM_SIZE) >> 12);
    tlb.table_pages
        .insert((pte_addr % pokemu_isa::state::PHYS_MEM_SIZE) >> 12);
    let phys = (pte & 0xffff_f000) | (lin & 0xfff);
    tlb.entries.insert(
        lin >> 12,
        TlbEntry {
            phys_page: phys >> 12,
            writable: rw,
            user: us,
            dirty: kind == Access::Write,
        },
    );
    Ok(phys)
}

fn check_perms(kind: Access, user: bool, rw: bool, us: bool, wp: bool) -> Result<(), bool> {
    if user && !us {
        return Err(true);
    }
    if kind == Access::Write && !rw && (user || wp) {
        return Err(true);
    }
    Ok(())
}

/// Reads `len` bytes of virtual memory via the fast path.
///
/// # Errors
///
/// #PF (and, with checks enabled, segmentation faults). Pages are checked in
/// ascending order; a crossing access translates both pages before reading.
pub fn read(
    m: &mut LofiMachine,
    tlb: &mut Tlb,
    fid: &Fidelity,
    seg: Seg,
    off: u32,
    len: u8,
) -> Result<u32, Exception> {
    let lin = seg_linear(m, fid, seg, off, len, Access::Read)?;
    let (p0, p1) = translate_span(m, tlb, lin, len, Access::Read)?;
    Ok(phys_load(m, lin, len, p0, p1))
}

/// Writes `len` bytes of virtual memory via the fast path.
///
/// # Errors
///
/// #PF (and, with checks enabled, segmentation faults). All pages are
/// checked before any byte is stored.
pub fn write(
    m: &mut LofiMachine,
    tlb: &mut Tlb,
    fid: &Fidelity,
    seg: Seg,
    off: u32,
    val: u32,
    len: u8,
) -> Result<u32, Exception> {
    let lin = seg_linear(m, fid, seg, off, len, Access::Write)?;
    let (p0, p1) = translate_span(m, tlb, lin, len, Access::Write)?;
    phys_store(m, lin, val, len, p0, p1);
    tlb.note_store((p0 % pokemu_isa::state::PHYS_MEM_SIZE) >> 12);
    if let Some(p1) = p1 {
        tlb.note_store((p1 % pokemu_isa::state::PHYS_MEM_SIZE) >> 12);
    }
    Ok(p0)
}

/// Reads at a linear address, bypassing segmentation (descriptor tables).
///
/// # Errors
///
/// #PF from the page walk.
pub fn lin_read(m: &mut LofiMachine, tlb: &mut Tlb, lin: u32, len: u8) -> Result<u32, Exception> {
    let (p0, p1) = translate_span(m, tlb, lin, len, Access::Read)?;
    Ok(phys_load(m, lin, len, p0, p1))
}

/// Writes at a linear address, bypassing segmentation.
///
/// # Errors
///
/// #PF from the page walk.
pub fn lin_write(
    m: &mut LofiMachine,
    tlb: &mut Tlb,
    lin: u32,
    val: u32,
    len: u8,
) -> Result<(), Exception> {
    let (p0, p1) = translate_span(m, tlb, lin, len, Access::Write)?;
    phys_store(m, lin, val, len, p0, p1);
    tlb.note_store((p0 % pokemu_isa::state::PHYS_MEM_SIZE) >> 12);
    if let Some(p1) = p1 {
        tlb.note_store((p1 % pokemu_isa::state::PHYS_MEM_SIZE) >> 12);
    }
    Ok(())
}

/// Fetches one code byte (used by the translator).
///
/// # Errors
///
/// #PF; with checks enabled also CS limit/rights faults.
pub fn fetch_byte(
    m: &mut LofiMachine,
    tlb: &mut Tlb,
    fid: &Fidelity,
    eip: u32,
) -> Result<u8, Exception> {
    let lin = seg_linear(m, fid, Seg::Cs, eip, 1, Access::Exec)?;
    let phys = translate(m, tlb, lin, Access::Exec)?;
    Ok(m.phys_read(phys, 1) as u8)
}

fn translate_span(
    m: &mut LofiMachine,
    tlb: &mut Tlb,
    lin: u32,
    len: u8,
    kind: Access,
) -> Result<(u32, Option<u32>), Exception> {
    let p0 = translate(m, tlb, lin, kind)?;
    let last = lin.wrapping_add(len as u32 - 1);
    if last >> 12 == lin >> 12 {
        return Ok((p0, None));
    }
    let p1 = translate(m, tlb, (last >> 12) << 12, kind)?;
    Ok((p0, Some(p1)))
}

/// Reads a translated span: one RAM access when it stays in one page,
/// byte by byte across the two pages otherwise.
fn phys_load(m: &LofiMachine, lin: u32, len: u8, p0: u32, p1: Option<u32>) -> u32 {
    match p1 {
        None => m.phys_read(p0, len),
        Some(_) => (0..len).fold(0, |v, i| {
            v | m.phys_read(byte_phys(lin, i, p0, p1), 1) << (i * 8)
        }),
    }
}

/// Writes a translated span, split like [`phys_load`].
fn phys_store(m: &mut LofiMachine, lin: u32, val: u32, len: u8, p0: u32, p1: Option<u32>) {
    match p1 {
        None => m.phys_write(p0, val, len),
        Some(_) => {
            for i in 0..len {
                m.phys_write(byte_phys(lin, i, p0, p1), val >> (i * 8), 1);
            }
        }
    }
}

fn byte_phys(lin: u32, i: u8, p0: u32, p1: Option<u32>) -> u32 {
    let b = lin.wrapping_add(i as u32);
    if b >> 12 == lin >> 12 {
        p0 + (b - lin)
    } else {
        p1.expect("span translated") + (b & 0xfff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paged_machine() -> (LofiMachine, Tlb) {
        let mut m = LofiMachine::new();
        // Identity map: PD at 0x10000, PT at 0x11000.
        m.phys_write(0x10000, 0x11000 | 0x3, 4);
        for i in 0..1024u32 {
            m.phys_write(0x11000 + i * 4, (i << 12) | 0x3, 4);
        }
        m.cr3 = 0x10000;
        m.cr0 = (1 << cr0::PE) | (1 << cr0::PG);
        // Flat ring-0 code segment so cpl() == 0.
        m.segs[1].attrs = 0xb | (1 << 4) | (1 << 7);
        (m, Tlb::default())
    }

    #[test]
    fn fast_path_skips_segment_limits() {
        let mut m = LofiMachine::new();
        m.cr0 = 1; // PE, no paging
        m.segs[3].limit = 0x10; // tiny DS limit
        m.segs[3].attrs = 0x3 | (1 << 4) | (1 << 7);
        let fid = Fidelity::QEMU_LIKE;
        // Write far past the limit: the Lo-Fi fast path allows it.
        assert!(write(&mut m, &mut Tlb::default(), &fid, Seg::Ds, 0x5000, 0xff, 1).is_ok());
        // With the fix, it faults like the reference.
        let fid = Fidelity {
            enforce_segment_checks: true,
            ..Fidelity::QEMU_LIKE
        };
        assert_eq!(
            write(&mut m, &mut Tlb::default(), &fid, Seg::Ds, 0x5000, 0xff, 1),
            Err(Exception::Gp(0))
        );
    }

    #[test]
    fn page_walk_sets_accessed_dirty_and_faults() {
        let (mut m, mut tlb) = paged_machine();
        let fid = Fidelity::QEMU_LIKE;
        m.segs[3].attrs = 0x3 | (1 << 4) | (1 << 7);
        write(&mut m, &mut tlb, &fid, Seg::Ds, 0x30123, 0x55, 1).unwrap();
        let pte = m.phys_read(0x11000 + 0x30 * 4, 4);
        assert_ne!(pte & (1 << 5), 0);
        assert_ne!(pte & (1 << 6), 0);
        // Unmap a page and fault.
        m.phys_write(0x11000 + 0x40 * 4, 0, 4);
        tlb.flush();
        let r = write(&mut m, &mut tlb, &fid, Seg::Ds, 0x40000, 1, 1);
        assert_eq!(r, Err(Exception::Pf(0x2, 0x40000)));
        assert_eq!(m.cr2, 0x40000);
    }

    #[test]
    fn tlb_caches_translations() {
        let (mut m, mut tlb) = paged_machine();
        let fid = Fidelity::QEMU_LIKE;
        read(&mut m, &mut tlb, &fid, Seg::Ds, 0x1234, 4).unwrap();
        assert_eq!(tlb.len(), 1);
        read(&mut m, &mut tlb, &fid, Seg::Ds, 0x1238, 4).unwrap();
        assert_eq!(tlb.len(), 1, "second read hits the TLB");
    }
}
