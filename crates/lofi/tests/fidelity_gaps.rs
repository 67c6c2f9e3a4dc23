//! Direct tests of each seeded Lo-Fi fidelity gap (paper §6.2), each
//! checked against the reference behavior and against its fix.

use pokemu_hifi::{HiFi, RunExit as HiExit};
use pokemu_isa::interp::Quirks;
use pokemu_isa::state::{attrs, Exception, Gpr, RawDescriptor, Seg};
use pokemu_lofi::{Fidelity, Lofi, RunExit as LoExit};
use pokemu_symx::Dom;

const CODE: u32 = 0x1000;
const GDT: u32 = 0x9000;

fn hifi_env() -> HiFi {
    let mut emu = HiFi::new().with_quirks(Quirks::HARDWARE);
    {
        let (d, m) = emu.parts_mut();
        m.cr0 = d.constant(32, 1);
        m.eip = CODE;
        m.gpr[Gpr::Esp as usize] = d.constant(32, 0x8000);
        m.gdtr.base = GDT;
        m.gdtr.limit = d.constant(16, 127);
        for seg in Seg::ALL {
            let typ: u64 = if seg == Seg::Cs { 0xb } else { 0x3 };
            let a = typ
                | (1 << attrs::S as u64)
                | (1 << attrs::P as u64)
                | (1 << attrs::DB as u64)
                | (1 << attrs::G as u64);
            let s = &mut m.segs[seg as usize];
            s.selector = d.constant(16, 0x8);
            s.cache.base = d.constant(32, 0);
            s.cache.limit = d.constant(32, 0xffff_ffff);
            s.cache.attrs = d.constant(attrs::WIDTH, a);
        }
    }
    emu
}

fn lofi_env(fid: Fidelity) -> Lofi {
    let mut emu = Lofi::new(fid);
    {
        let m = emu.machine_mut();
        m.cr0 = 1;
        m.eip = CODE;
        m.gpr[Gpr::Esp as usize] = 0x8000;
        m.gdtr = (GDT, 127);
        for i in 0..6 {
            let typ: u16 = if i == 1 { 0xb } else { 0x3 };
            m.segs[i] = pokemu_lofi::state::LofiSeg {
                selector: 0x8,
                base: 0,
                limit: 0xffff_ffff,
                attrs: typ
                    | (1 << attrs::S as u16)
                    | (1 << attrs::P as u16)
                    | (1 << attrs::DB as u16)
                    | (1 << attrs::G as u16),
            };
        }
    }
    emu
}

/// §6.2: `iret` pop order. With paging off we can't fault mid-pop here, but
/// the accessed/dirty evidence appears under paging; this test instead pins
/// the *functional* agreement: a valid iret frame gives identical results on
/// both orders.
#[test]
fn iret_functional_agreement() {
    // Frame: eip=0x1100, cs=0x08, eflags with ZF.
    let mut code = vec![];
    // push 0x46; push 0x08; push 0x1100 ; iret — at 0x1100: hlt
    for (op, v) in [(0x68u8, 0x46u32), (0x68, 0x08), (0x68, 0x1100)] {
        code.push(op);
        code.extend_from_slice(&v.to_le_bytes());
    }
    code.push(0xcf);
    // Descriptor for selector 0x08 (entry 1): flat code.
    let desc = RawDescriptor::flat(0xb).encode();

    let mut hi = hifi_env();
    hi.load_image(CODE, &code);
    hi.load_image(0x1100, &[0xf4]);
    hi.load_image(GDT + 8, &desc);
    let he = hi.run(64);
    assert_eq!(he, HiExit::Halted);

    for fid in [
        Fidelity::QEMU_LIKE,
        Fidelity {
            iret_ascending: true,
            ..Fidelity::QEMU_LIKE
        },
    ] {
        let mut lo = lofi_env(fid);
        lo.load_image(CODE, &code);
        lo.load_image(0x1100, &[0xf4]);
        lo.load_image(GDT + 8, &desc);
        let le = lo.run(64);
        assert_eq!(le, LoExit::Halted);
        assert_eq!(lo.machine().eip, 0x1101);
        assert_ne!(
            lo.machine().eflags() & (1 << 6),
            0,
            "ZF loaded from the frame"
        );
    }
}

/// §6.2: `cmpxchg` updates the accumulator before the write check fails —
/// the accumulator is corrupted on the QEMU-like profile, preserved on the
/// fixed one. (The reference preserves it.)
#[test]
fn cmpxchg_accumulator_corruption() {
    // Make DS read-only so the destination write faults, with the
    // not-equal case updating EAX first in the buggy ordering.
    // mov eax, 5; mov ebx, 9; cmpxchg [0x3000], ebx; hlt — with [0x3000]=7.
    let mut code = vec![0xb8, 5, 0, 0, 0, 0xbb, 9, 0, 0, 0];
    code.extend_from_slice(&[0x0f, 0xb1, 0x1d, 0x00, 0x30, 0x00, 0x00]);
    code.push(0xf4);

    let run_lofi = |fid: Fidelity| {
        let mut lo = lofi_env(Fidelity {
            enforce_segment_checks: true,
            ..fid
        });
        // DS read-only (type 0x1).
        lo.machine_mut().segs[Seg::Ds as usize].attrs =
            0x1 | (1 << attrs::S as u16) | (1 << attrs::P as u16);
        lo.machine_mut().phys_write(0x3000, 7, 1);
        lo.load_image(CODE, &code);
        let exit = lo.run(64);
        (exit, lo.machine().gpr[0])
    };

    let (exit, eax) = run_lofi(Fidelity::QEMU_LIKE);
    assert_eq!(exit, LoExit::Exception(Exception::Gp(0)));
    assert_eq!(
        eax, 7,
        "QEMU-like: accumulator corrupted before the faulting write"
    );

    let (exit, eax) = run_lofi(Fidelity {
        atomic_cmpxchg: true,
        ..Fidelity::QEMU_LIKE
    });
    assert_eq!(exit, LoExit::Exception(Exception::Gp(0)));
    assert_eq!(eax, 5, "fixed: accumulator preserved on fault");

    // The reference interpreter preserves it too.
    let mut hi = hifi_env();
    {
        let (d, m) = hi.parts_mut();
        m.segs[Seg::Ds as usize].cache.attrs = d.constant(
            attrs::WIDTH,
            0x1 | (1 << attrs::S as u64) | (1 << attrs::P as u64),
        );
        let v = d.constant(8, 7);
        m.mem.write_u8(0x3000, v);
    }
    hi.load_image(CODE, &code);
    let he = hi.run(64);
    assert_eq!(he, HiExit::Exception(Exception::Gp(0)));
    let (d, m) = hi.parts_mut();
    assert_eq!(d.as_const(m.gpr[0]), Some(5));
}

/// §6.2: the descriptor accessed flag. Loading a not-yet-accessed segment
/// sets type bit 0 in the GDT on the reference; the QEMU-like profile
/// leaves it clear.
#[test]
fn accessed_flag_not_maintained() {
    let desc = RawDescriptor::flat(0x2).encode(); // writable data, NOT accessed
                                                  // mov ax, 0x10 ; mov es, ax ; hlt  (selector 0x10 = entry 2)
    let code = [0x66, 0xb8, 0x10, 0x00, 0x8e, 0xc0, 0xf4];

    let mut hi = hifi_env();
    hi.load_image(GDT + 16, &desc);
    hi.load_image(CODE, &code);
    assert_eq!(hi.run(16), HiExit::Halted);
    let (d, m) = hi.parts_mut();
    let b5 = m.mem.read_u8(d, GDT + 16 + 5);
    assert_eq!(
        d.as_const(b5).map(|v| v & 1),
        Some(1),
        "reference sets the accessed bit"
    );

    let mut lo = lofi_env(Fidelity::QEMU_LIKE);
    lo.load_image(GDT + 16, &desc);
    lo.load_image(CODE, &code);
    assert_eq!(lo.run(16), LoExit::Halted);
    assert_eq!(
        lo.machine().phys_read(GDT + 16 + 5, 1) & 1,
        0,
        "QEMU-like leaves it clear"
    );

    let mut lo = lofi_env(Fidelity {
        set_accessed_bit: true,
        ..Fidelity::QEMU_LIKE
    });
    lo.load_image(GDT + 16, &desc);
    lo.load_image(CODE, &code);
    assert_eq!(lo.run(16), LoExit::Halted);
    assert_eq!(
        lo.machine().phys_read(GDT + 16 + 5, 1) & 1,
        1,
        "fixed sets it"
    );
}

/// §6.2: `rdmsr` of an invalid MSR returns zeros instead of #GP.
#[test]
fn rdmsr_invalid_msr() {
    // mov ecx, 0x1234; mov eax, 0xffffffff; mov edx, 0xffffffff; rdmsr; hlt
    let mut code = vec![
        0xb9, 0x34, 0x12, 0, 0, 0xb8, 0xff, 0xff, 0xff, 0xff, 0xba, 0xff, 0xff, 0xff, 0xff,
    ];
    code.extend_from_slice(&[0x0f, 0x32, 0xf4]);

    let mut lo = lofi_env(Fidelity::QEMU_LIKE);
    lo.load_image(CODE, &code);
    assert_eq!(lo.run(16), LoExit::Halted, "QEMU-like: no fault");
    assert_eq!(lo.machine().gpr[0], 0);
    assert_eq!(lo.machine().gpr[2], 0);

    let mut lo = lofi_env(Fidelity {
        msr_gp_on_invalid: true,
        ..Fidelity::QEMU_LIKE
    });
    lo.load_image(CODE, &code);
    assert_eq!(
        lo.run(16),
        LoExit::Exception(Exception::Gp(0)),
        "fixed build faults"
    );

    let mut hi = hifi_env();
    hi.load_image(CODE, &code);
    assert_eq!(
        hi.run(16),
        HiExit::Exception(Exception::Gp(0)),
        "reference faults"
    );
}

/// §6.2: `leave` with an unreadable stack page corrupts ESP.
#[test]
fn leave_corrupts_esp_on_fault() {
    // Enable paging with page 0x30 unmapped; ebp points into it.
    let build = |fid: Fidelity| {
        let mut lo = lofi_env(fid);
        {
            let m = lo.machine_mut();
            m.phys_write(0x10000, 0x11000 | 0x3, 4);
            for i in 0..1024u32 {
                let pte = if i == 0x30 { 0 } else { (i << 12) | 0x3 };
                m.phys_write(0x11000 + i * 4, pte, 4);
            }
            m.cr3 = 0x10000;
            m.cr0 = 1 | (1 << 31);
            m.gpr[Gpr::Ebp as usize] = 0x30010;
        }
        // leave; hlt
        lo.load_image(CODE, &[0xc9, 0xf4]);
        let exit = lo.run(16);
        (exit, lo.machine().gpr[Gpr::Esp as usize])
    };
    let (exit, esp) = build(Fidelity::QEMU_LIKE);
    assert!(matches!(exit, LoExit::Exception(Exception::Pf(_, 0x30010))));
    assert_eq!(
        esp, 0x30010,
        "QEMU-like: ESP clobbered with EBP before the fault"
    );

    let (exit, esp) = build(Fidelity {
        atomic_leave: true,
        ..Fidelity::QEMU_LIKE
    });
    assert!(matches!(exit, LoExit::Exception(Exception::Pf(_, 0x30010))));
    assert_eq!(esp, 0x8000, "fixed: ESP preserved");
}

/// The TB cache invalidates when the descriptor table is modified through
/// paging-enabled stores (regression guard for dirty-page tracking).
#[test]
fn dirty_tracking_survives_paging() {
    let mut lo = lofi_env(Fidelity::QEMU_LIKE);
    {
        let m = lo.machine_mut();
        m.phys_write(0x10000, 0x11000 | 0x3, 4);
        for i in 0..1024u32 {
            m.phys_write(0x11000 + i * 4, (i << 12) | 0x3, 4);
        }
        m.cr3 = 0x10000;
        m.cr0 = 1 | (1 << 31);
    }
    // Self-modifying code under paging: overwrite the hlt at 0x1100 with
    // inc edx, then jump there.
    lo.load_image(
        CODE,
        &[
            0xc6, 0x05, 0x00, 0x11, 0x00, 0x00, 0x42, 0xe9, 0xf4, 0x00, 0x00, 0x00,
        ],
    );
    lo.load_image(0x1100, &[0xf4, 0xf4]);
    assert_eq!(lo.run(32), LoExit::Halted);
    assert_eq!(lo.machine().gpr[2], 1, "rewritten instruction must execute");
    assert!(lo.stats().invalidations >= 1);
}
