//! Address translation: segmentation checks, paging, and descriptor loads.
//!
//! This module is the reference ("hardware") behavior for the two protection
//! mechanisms whose emulation fidelity the paper's evaluation revolves
//! around: segment limit/rights enforcement (missing from QEMU for most
//! instructions, §6.2) and page-level checks with A/D-bit maintenance.
//!
//! The descriptor-validation routine [`descriptor_checks`] is deliberately a
//! pure, branchy function of its inputs: it is the computation the paper
//! summarizes to avoid a 23-paths-per-segment blowup (§3.3.2), and the
//! Hi-Fi emulator routes it through [`pokemu_symx::Dom::summary_hook`] under
//! the key [`DESC_SUMMARY_KEY`].

use pokemu_symx::{Dom, Stored};

use crate::state::{attrs, cr0, Exception, Machine, Seg};

/// The kind of memory access being checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Execute,
}

/// Summary-hook key for [`descriptor_checks`].
pub const DESC_SUMMARY_KEY: &str = "descriptor_load";

/// Segment-load kinds for [`descriptor_checks`].
pub mod desc_kind {
    /// Loading a data segment register (ES/DS/FS/GS).
    pub const DATA: u64 = 0;
    /// Loading SS.
    pub const STACK: u64 = 1;
    /// Loading CS via a far control transfer.
    pub const CODE: u64 = 2;
}

/// Checks segment rights and limits for an access of `n` bytes at `off`,
/// returning the linear address (base + offset).
///
/// # Errors
///
/// #SS(0) for stack-segment violations, #GP(0) otherwise — the checks that
/// QEMU skips for most instructions (§6.2).
pub fn seg_linear<D: Dom>(
    d: &mut D,
    m: &Machine<D::V>,
    seg: Seg,
    off: D::V,
    n: u8,
    kind: AccessKind,
) -> Result<D::V, Exception> {
    let cache = m.segs[seg as usize].cache;
    let fault = || {
        if seg == Seg::Ss {
            Exception::Ss(0)
        } else {
            Exception::Gp(0)
        }
    };

    let a = cache.attrs;
    // Present?
    let p = d.extract(a, attrs::P, attrs::P);
    if !d.branch(p, "segment present") {
        return Err(fault());
    }
    // Must be a code/data descriptor.
    let s = d.extract(a, attrs::S, attrs::S);
    if !d.branch(s, "segment S bit") {
        return Err(fault());
    }
    let is_code = d.extract(a, attrs::TYPE_LO + 3, attrs::TYPE_LO + 3);
    let bit1 = d.extract(a, attrs::TYPE_LO + 1, attrs::TYPE_LO + 1); // W (data) / R (code)
    let is_code_b = d.branch(is_code, "segment is code");
    match kind {
        AccessKind::Write => {
            // Writable data segment required.
            if is_code_b || !d.branch(bit1, "segment writable") {
                return Err(fault());
            }
        }
        AccessKind::Read => {
            // Data always readable; code only if the R bit is set.
            if is_code_b && !d.branch(bit1, "code segment readable") {
                return Err(fault());
            }
        }
        AccessKind::Execute => {
            if !is_code_b {
                return Err(fault());
            }
        }
    }

    // Limit check. Expand-down data segments invert the valid range.
    let off_ext = d.zext(off, 33);
    let span = d.constant(33, (n - 1) as u64);
    let end = d.add(off_ext, span);
    let limit_ext = d.zext(cache.limit, 33);
    let expand_down = d.extract(a, attrs::TYPE_LO + 2, attrs::TYPE_LO + 2);
    let is_expand_down = !is_code_b && d.branch_nonzero(expand_down, "expand-down segment");
    if is_expand_down {
        // Valid range is (limit, 0xffffffff].
        let le = d.ule(off_ext, limit_ext);
        if d.branch(le, "expand-down lower bound") {
            return Err(fault());
        }
        let max = d.constant(33, 0xffff_ffff);
        let over = d.ult(max, end);
        if d.branch(over, "expand-down wraps") {
            return Err(fault());
        }
    } else {
        let over = d.ult(limit_ext, end);
        if d.branch(over, "segment limit exceeded") {
            return Err(fault());
        }
    }

    Ok(d.add(cache.base, off))
}

/// Whether the machine is currently executing at user privilege (CPL 3).
pub fn at_user_privilege<D: Dom>(d: &mut D, m: &Machine<D::V>) -> bool {
    let cpl = m.cpl(d);
    let three = d.constant(2, 3);
    let eq = d.eq(cpl, three);
    d.branch(eq, "CPL == 3")
}

fn pf_error(kind: AccessKind, user: bool, present: bool) -> u16 {
    (present as u16) | (((kind == AccessKind::Write) as u16) << 1) | ((user as u16) << 2)
}

/// Walks the page tables for the (concrete) linear address `lin`, enforcing
/// present/rw/us bits and maintaining accessed/dirty bits, and returns the
/// physical address.
///
/// # Errors
///
/// #PF with the standard error code; CR2 is updated by the caller.
pub fn page_translate<D: Dom>(
    d: &mut D,
    m: &mut Machine<D::V>,
    lin: u32,
    kind: AccessKind,
    user: bool,
) -> Result<u32, Exception> {
    let pg = d.extract(m.cr0, cr0::PG, cr0::PG);
    if !d.branch(pg, "paging enabled") {
        return Ok(lin);
    }
    let wp = d.extract(m.cr0, cr0::WP, cr0::WP);

    // --- PDE ---
    let pde_addr = m.cr3_base.wrapping_add((lin >> 22) << 2);
    let pde = m.mem.read(d, pde_addr, 4);
    let pde_p = d.extract(pde, 0, 0);
    if !d.branch(pde_p, "PDE present") {
        return Err(Exception::Pf(pf_error(kind, user, false), lin));
    }
    let pde_rw = d.extract(pde, 1, 1);
    let pde_us = d.extract(pde, 2, 2);

    // 4-MiB page when PSE is enabled and the PDE's PS bit is set.
    let ps = d.extract(pde, 7, 7);
    let pse = d.extract(m.cr4, crate::state::cr4::PSE, crate::state::cr4::PSE);
    let big = d.and(ps, pse);
    if d.branch(big, "4MiB page") {
        check_page_perms(d, kind, user, pde_rw, pde_us, wp, lin)?;
        let mut new_pde = set_bit32(d, pde, 5); // accessed
        if kind == AccessKind::Write {
            new_pde = set_bit32(d, new_pde, 6); // dirty
        }
        m.mem.write(d, pde_addr, new_pde, 4);
        let frame = d.extract(pde, 31, 22);
        let frame = d.pick(frame, "4MiB frame") as u32;
        return Ok((frame << 22) | (lin & 0x3f_ffff));
    }

    // --- PTE ---
    let pt_base = d.extract(pde, 31, 12);
    let pt_base = d.pick(pt_base, "page-table base") as u32;
    let pte_addr = (pt_base << 12).wrapping_add(((lin >> 12) & 0x3ff) << 2);
    let pte = m.mem.read(d, pte_addr, 4);
    let pte_p = d.extract(pte, 0, 0);
    if !d.branch(pte_p, "PTE present") {
        return Err(Exception::Pf(pf_error(kind, user, false), lin));
    }
    let pte_rw = d.extract(pte, 1, 1);
    let pte_us = d.extract(pte, 2, 2);
    let rw = d.and(pde_rw, pte_rw);
    let us = d.and(pde_us, pte_us);
    check_page_perms(d, kind, user, rw, us, wp, lin)?;

    // Set accessed (and dirty) bits.
    let new_pde = set_bit32(d, pde, 5);
    m.mem.write(d, pde_addr, new_pde, 4);
    let mut new_pte = set_bit32(d, pte, 5);
    if kind == AccessKind::Write {
        new_pte = set_bit32(d, new_pte, 6);
    }
    m.mem.write(d, pte_addr, new_pte, 4);

    let frame = d.extract(pte, 31, 12);
    let frame = d.pick(frame, "page frame") as u32;
    Ok((frame << 12) | (lin & 0xfff))
}

fn check_page_perms<D: Dom>(
    d: &mut D,
    kind: AccessKind,
    user: bool,
    rw: D::V,
    us: D::V,
    wp: D::V,
    lin: u32,
) -> Result<(), Exception> {
    if user && !d.branch(us, "page user-accessible") {
        return Err(Exception::Pf(pf_error(kind, user, true), lin));
    }
    if kind == AccessKind::Write {
        let writable = d.branch(rw, "page writable");
        if user && !writable {
            return Err(Exception::Pf(pf_error(kind, user, true), lin));
        }
        if !user && !writable && d.branch(wp, "CR0.WP") {
            return Err(Exception::Pf(pf_error(kind, user, true), lin));
        }
    }
    Ok(())
}

fn set_bit32<D: Dom>(d: &mut D, v: D::V, pos: u8) -> D::V {
    let m = d.constant(32, 1 << pos);
    d.or(v, m)
}

/// Translates every page covered by `[lin, lin + n)` *before* returning, so a
/// multi-byte access is atomic with respect to faults (no partial writes).
///
/// Returns the physical address of the first byte and, if the access crosses
/// a page boundary, of the first byte on the second page.
///
/// # Errors
///
/// Propagates #PF from the page walk, checking pages in ascending address
/// order (the reference read order).
pub fn translate_range<D: Dom>(
    d: &mut D,
    m: &mut Machine<D::V>,
    lin: u32,
    n: u8,
    kind: AccessKind,
    user: bool,
) -> Result<(u32, Option<u32>), Exception> {
    let first = page_translate(d, m, lin, kind, user)?;
    let last_lin = lin.wrapping_add(n as u32 - 1);
    if (lin >> 12) == (last_lin >> 12) {
        return Ok((first, None));
    }
    let second_page_lin = (last_lin >> 12) << 12;
    let second = page_translate(d, m, second_page_lin, kind, user)?;
    Ok((first, Some(second)))
}

/// Reads `n` bytes through segmentation and paging.
///
/// The linear address is pinned to a single representative value with
/// [`Dom::pick`] (paper §3.3.2: all memory locations are equivalent).
///
/// # Errors
///
/// Any segmentation or paging fault; CR2 is set on #PF.
pub fn mem_read<D: Dom>(
    d: &mut D,
    m: &mut Machine<D::V>,
    seg: Seg,
    off: D::V,
    n: u8,
) -> Result<D::V, Exception> {
    let lin = seg_linear(d, m, seg, off, n, AccessKind::Read)?;
    let lin = d.pick(lin, "read linear") as u32;
    let user = at_user_privilege(d, m);
    let r = translate_range(d, m, lin, n, AccessKind::Read, user);
    let (p0, p1) = set_cr2(m, r)?;
    Ok(read_phys(d, m, lin, p0, p1, n))
}

/// Writes `n` bytes through segmentation and paging; all checks complete
/// before any byte is stored (atomic with respect to faults).
///
/// # Errors
///
/// Any segmentation or paging fault; CR2 is set on #PF.
pub fn mem_write<D: Dom>(
    d: &mut D,
    m: &mut Machine<D::V>,
    seg: Seg,
    off: D::V,
    val: D::V,
    n: u8,
) -> Result<(), Exception> {
    let lin = seg_linear(d, m, seg, off, n, AccessKind::Write)?;
    let lin = d.pick(lin, "write linear") as u32;
    let user = at_user_privilege(d, m);
    let r = translate_range(d, m, lin, n, AccessKind::Write, user);
    let (p0, p1) = set_cr2(m, r)?;
    write_phys(d, m, lin, p0, p1, val, n);
    Ok(())
}

/// Reads `n` bytes at a *linear* address bypassing segmentation (descriptor
/// table accesses are implicit supervisor accesses).
///
/// # Errors
///
/// #PF from the page walk; CR2 is set.
pub fn lin_read<D: Dom>(
    d: &mut D,
    m: &mut Machine<D::V>,
    lin: u32,
    n: u8,
) -> Result<D::V, Exception> {
    let r = translate_range(d, m, lin, n, AccessKind::Read, false);
    let (p0, p1) = set_cr2(m, r)?;
    Ok(read_phys(d, m, lin, p0, p1, n))
}

/// Writes `n` bytes at a linear address bypassing segmentation.
///
/// # Errors
///
/// #PF from the page walk; CR2 is set.
pub fn lin_write<D: Dom>(
    d: &mut D,
    m: &mut Machine<D::V>,
    lin: u32,
    val: D::V,
    n: u8,
) -> Result<(), Exception> {
    let r = translate_range(d, m, lin, n, AccessKind::Write, false);
    let (p0, p1) = set_cr2(m, r)?;
    write_phys(d, m, lin, p0, p1, val, n);
    Ok(())
}

fn set_cr2<V: Stored>(
    m: &mut Machine<V>,
    r: Result<(u32, Option<u32>), Exception>,
) -> Result<(u32, Option<u32>), Exception> {
    if let Err(Exception::Pf(_, addr)) = r {
        m.cr2 = addr;
    }
    r
}

fn phys_of(lin: u32, i: u8, p0: u32, p1: Option<u32>) -> u32 {
    let b = lin.wrapping_add(i as u32);
    if (b >> 12) == (lin >> 12) {
        p0 + (b & 0xfff) - (lin & 0xfff)
    } else {
        p1.expect("crossing access translated both pages") + (b & 0xfff)
    }
}

fn read_phys<D: Dom>(
    d: &mut D,
    m: &mut Machine<D::V>,
    lin: u32,
    p0: u32,
    p1: Option<u32>,
    n: u8,
) -> D::V {
    let mut v = m.mem.read_u8(d, phys_of(lin, 0, p0, p1));
    for i in 1..n {
        let b = m.mem.read_u8(d, phys_of(lin, i, p0, p1));
        v = d.concat(b, v);
    }
    v
}

fn write_phys<D: Dom>(
    d: &mut D,
    m: &mut Machine<D::V>,
    lin: u32,
    p0: u32,
    p1: Option<u32>,
    val: D::V,
    n: u8,
) {
    for i in 0..n {
        let b = d.extract(val, i * 8 + 7, i * 8);
        m.mem.write_u8(phys_of(lin, i, p0, p1), b);
    }
}

/// Validates a raw descriptor for loading into a segment register.
///
/// Inputs: the descriptor's two 32-bit halves, the 16-bit selector, the
/// 2-bit CPL and the load kind ([`desc_kind`]). Outputs, in order:
///
/// 1. fault vector as an 8-bit value (0 = success, 13 = #GP, 11 = #NP,
///    12 = #SS),
/// 2. the 32-bit segment base,
/// 3. the 32-bit byte-granular limit,
/// 4. the 12-bit attribute word ([`crate::state::attrs`] layout).
///
/// This function is pure and branch-heavy — roughly two dozen execution paths
/// — which makes it the summarization target of §3.3.2.
pub fn descriptor_checks<D: Dom>(
    d: &mut D,
    lo: D::V,
    hi: D::V,
    sel: D::V,
    cpl: D::V,
    kind: D::V,
) -> [D::V; 4] {
    let zero8 = d.constant(8, 0);
    let gp = d.constant(8, 13);
    let np = d.constant(8, 11);
    let ssf = d.constant(8, 12);

    // Decompose the descriptor.
    let base_low = d.extract(lo, 31, 16); // base[15:0]
    let base_mid = d.extract(hi, 7, 0); // base[23:16]
    let base_hi = d.extract(hi, 31, 24); // base[31:24]
    let base_hi16 = d.concat(base_hi, base_mid);
    let base = d.concat(base_hi16, base_low);
    let limit_low = d.extract(lo, 15, 0);
    let limit_hi = d.extract(hi, 19, 16);
    let raw_limit20 = d.concat(limit_hi, limit_low);
    let raw_limit = d.zext(raw_limit20, 32);
    let g = d.extract(hi, 23, 23);
    let twelve = d.constant(32, 12);
    let shifted = d.shl(raw_limit, twelve);
    let fff = d.constant(32, 0xfff);
    let scaled = d.or(shifted, fff);
    let limit = d.ite(g, scaled, raw_limit);

    let typ = d.extract(hi, 11, 8);
    let s = d.extract(hi, 12, 12);
    let dpl = d.extract(hi, 14, 13);
    let p = d.extract(hi, 15, 15);
    let attrs_word = d.extract(hi, 23, 8); // type..G, 16 bits; take low 12
    let attrs_out = d.extract(attrs_word, attrs::WIDTH - 1, 0);

    let zero32 = d.constant(32, 0);
    let zero_attrs = d.constant(attrs::WIDTH, 0);
    let fail = |_d: &mut D, code: D::V| [code, zero32, zero32, zero_attrs];

    let rpl = d.extract(sel, 1, 0);

    // System descriptors cannot be loaded into segment registers here.
    if !d.branch(s, "descriptor S bit") {
        return fail(d, gp);
    }
    let is_code = d.extract(typ, 3, 3);
    let bit1 = d.extract(typ, 1, 1); // W for data, R for code
    let conforming = d.extract(typ, 2, 2);

    let k_stack = {
        let k = d.constant(2, desc_kind::STACK);
        let kk = d.extract(kind, 1, 0);
        d.eq(kk, k)
    };
    let k_code = {
        let k = d.constant(2, desc_kind::CODE);
        let kk = d.extract(kind, 1, 0);
        d.eq(kk, k)
    };

    if d.branch(k_stack, "loading SS") {
        // SS: writable data, RPL == CPL, DPL == CPL, present.
        if d.branch(is_code, "SS must be data") {
            return fail(d, gp);
        }
        if !d.branch(bit1, "SS must be writable") {
            return fail(d, gp);
        }
        let rpl_ok = d.eq(rpl, cpl);
        if !d.branch(rpl_ok, "SS RPL == CPL") {
            return fail(d, gp);
        }
        let dpl_ok = d.eq(dpl, cpl);
        if !d.branch(dpl_ok, "SS DPL == CPL") {
            return fail(d, gp);
        }
        if !d.branch(p, "SS present") {
            return fail(d, ssf);
        }
    } else if d.branch(k_code, "loading CS") {
        // Far control transfer: must be code; conforming needs DPL <= CPL,
        // nonconforming needs DPL == CPL (with RPL folded into CPL checks).
        if !d.branch(is_code, "CS must be code") {
            return fail(d, gp);
        }
        if d.branch(conforming, "conforming code") {
            let ok = d.ule(dpl, cpl);
            if !d.branch(ok, "conforming DPL <= CPL") {
                return fail(d, gp);
            }
        } else {
            let ok = d.eq(dpl, cpl);
            if !d.branch(ok, "nonconforming DPL == CPL") {
                return fail(d, gp);
            }
        }
        if !d.branch(p, "CS present") {
            return fail(d, np);
        }
    } else {
        // Data segment register: data or readable code; privilege check
        // unless conforming code.
        let code_b = d.branch(is_code, "descriptor is code");
        if code_b && !d.branch(bit1, "code must be readable for data load") {
            return fail(d, gp);
        }
        let skip_priv = code_b && d.branch(conforming, "conforming code (no DPL check)");
        if !skip_priv {
            // DPL >= max(RPL, CPL)
            let r_gt = d.ult(cpl, rpl);
            let eff = d.ite(r_gt, rpl, cpl);
            let ok = d.ule(eff, dpl);
            if !d.branch(ok, "DPL >= max(RPL,CPL)") {
                return fail(d, gp);
            }
        }
        if !d.branch(p, "segment present") {
            return fail(d, np);
        }
    }

    [zero8, base, limit, attrs_out]
}

/// Runs [`descriptor_checks`] through the registered summary when available
/// (symbolic execution), or directly (concrete execution).
pub fn descriptor_checks_hooked<D: Dom>(
    d: &mut D,
    lo: D::V,
    hi: D::V,
    sel: D::V,
    cpl: D::V,
    kind: D::V,
) -> [D::V; 4] {
    if let Some(out) = d.summary_hook(DESC_SUMMARY_KEY, &[lo, hi, sel, cpl, kind]) {
        debug_assert_eq!(out.len(), 4);
        let mut it = out.into_iter();
        let a = it.next().expect("fault");
        let b = it.next().expect("base");
        let c = it.next().expect("limit");
        let e = it.next().expect("attrs");
        return [a, b, c, e];
    }
    descriptor_checks(d, lo, hi, sel, cpl, kind)
}

/// Selector error code for #GP/#NP/#SS raised on a descriptor load.
pub fn selector_error(sel: u16) -> u16 {
    sel & 0xfffc
}

/// Convenience: selector index check against a table limit (8-byte entries).
pub fn selector_in_table<D: Dom>(d: &mut D, sel: D::V, table_limit: D::V) -> D::V {
    // (index * 8) + 7 <= limit
    let idx = d.extract(sel, 15, 3);
    let idx32 = d.zext(idx, 32);
    let three = d.constant(32, 3);
    let byte_off = d.shl(idx32, three);
    let seven = d.constant(32, 7);
    let end = d.add(byte_off, seven);
    let lim = d.zext(table_limit, 32);
    d.ule(end, lim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{selector as selbuild, RawDescriptor};
    use pokemu_symx::{CVal, Concrete};

    fn run_checks(desc: RawDescriptor, sel: u16, cpl: u64, kind: u64) -> (u64, u64, u64, u64) {
        let mut d = Concrete::new();
        let b = desc.encode();
        let lo = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        let lo = d.constant(32, lo as u64);
        let hi = d.constant(32, hi as u64);
        let sel = d.constant(16, sel as u64);
        let cpl = d.constant(2, cpl);
        let kind = d.constant(2, kind);
        let [f, base, limit, attrs] = descriptor_checks(&mut d, lo, hi, sel, cpl, kind);
        let g = |v: CVal| d.as_const(v).unwrap();
        (g(f), g(base), g(limit), g(attrs))
    }

    #[test]
    fn flat_data_descriptor_loads_cleanly() {
        let desc = RawDescriptor::flat(0x3); // accessed writable data
        let (f, base, limit, _) =
            run_checks(desc, selbuild::build(2, false, 0), 0, desc_kind::DATA);
        assert_eq!(f, 0);
        assert_eq!(base, 0);
        assert_eq!(limit, 0xffff_ffff);
    }

    #[test]
    fn not_present_data_segment_is_np() {
        let mut desc = RawDescriptor::flat(0x3);
        desc.present = false;
        let (f, ..) = run_checks(desc, selbuild::build(2, false, 0), 0, desc_kind::DATA);
        assert_eq!(f, 11);
    }

    #[test]
    fn ss_requires_writable_data() {
        let desc = RawDescriptor::flat(0x1); // read-only data
        let (f, ..) = run_checks(desc, selbuild::build(2, false, 0), 0, desc_kind::STACK);
        assert_eq!(f, 13);
        let desc = RawDescriptor::flat(0x3);
        let (f, ..) = run_checks(desc, selbuild::build(2, false, 0), 0, desc_kind::STACK);
        assert_eq!(f, 0);
        // Not-present stack segment raises #SS, not #NP.
        let mut desc = RawDescriptor::flat(0x3);
        desc.present = false;
        let (f, ..) = run_checks(desc, selbuild::build(2, false, 0), 0, desc_kind::STACK);
        assert_eq!(f, 12);
    }

    #[test]
    fn privilege_violations_are_gp() {
        let mut desc = RawDescriptor::flat(0x3);
        desc.dpl = 0;
        // RPL 3 with DPL 0: #GP for data load.
        let (f, ..) = run_checks(desc, selbuild::build(2, false, 3), 0, desc_kind::DATA);
        assert_eq!(f, 13);
    }

    #[test]
    fn limit_scaling_respects_g_bit() {
        let mut desc = RawDescriptor::flat(0x3);
        desc.g = false;
        desc.limit = 0x100;
        let (f, _, limit, _) = run_checks(desc, selbuild::build(2, false, 0), 0, desc_kind::DATA);
        assert_eq!(f, 0);
        assert_eq!(limit, 0x100);
    }

    #[test]
    fn descriptor_summary_matches_direct_execution() {
        use pokemu_symx::Executor;
        let mut exec = Executor::new();
        let summary = exec.summarize(
            &[(32, "lo"), (32, "hi"), (16, "sel"), (2, "cpl"), (2, "kind")],
            |e, f| descriptor_checks(e, f[0], f[1], f[2], f[3], f[4]).to_vec(),
        );
        // The summarized function should have on the order of 20+ paths —
        // the §3.3.2 "23 paths" observation for Bochs.
        assert!(
            summary.cases() >= 15,
            "expected many paths, got {}",
            summary.cases()
        );

        // Spot-check the folded formula against direct concrete execution.
        let samples = [
            (RawDescriptor::flat(0x3), 0x10u16, 0u64, desc_kind::DATA),
            (RawDescriptor::flat(0xb), 0x10, 0, desc_kind::CODE),
            (RawDescriptor::flat(0x3), 0x13, 3, desc_kind::STACK),
            (
                RawDescriptor {
                    present: false,
                    ..RawDescriptor::flat(0x3)
                },
                0x10,
                0,
                desc_kind::DATA,
            ),
        ];
        for (desc, sel, cpl, kind) in samples {
            let b = desc.encode();
            let lo_c = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as u64;
            let hi_c = u32::from_le_bytes([b[4], b[5], b[6], b[7]]) as u64;
            let lo = exec.pool_mut().constant(32, lo_c);
            let hi = exec.pool_mut().constant(32, hi_c);
            let sel_t = exec.pool_mut().constant(16, sel as u64);
            let cpl_t = exec.pool_mut().constant(2, cpl);
            let kind_t = exec.pool_mut().constant(2, kind);
            let out = summary.apply(exec.pool_mut(), &[lo, hi, sel_t, cpl_t, kind_t]);
            let direct = run_checks(desc, sel, cpl, kind);
            assert_eq!(exec.pool().as_const(out[0]), Some(direct.0), "fault code");
            if direct.0 == 0 {
                assert_eq!(exec.pool().as_const(out[1]), Some(direct.1), "base");
                assert_eq!(exec.pool().as_const(out[2]), Some(direct.2), "limit");
                assert_eq!(exec.pool().as_const(out[3]), Some(direct.3), "attrs");
            }
        }
    }

    #[test]
    fn selector_table_bounds() {
        let mut d = Concrete::new();
        let lim = d.constant(16, 0x17); // three entries
        let sel = d.constant(16, selbuild::build(2, false, 0) as u64);
        let ok = selector_in_table(&mut d, sel, lim);
        assert_eq!(d.as_const(ok), Some(1));
        let sel = d.constant(16, selbuild::build(3, false, 0) as u64);
        let ok = selector_in_table(&mut d, sel, lim);
        assert_eq!(d.as_const(ok), Some(0));
    }
}
