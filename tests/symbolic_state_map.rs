//! F3: the symbolic machine-state map of the paper's Figure 3.
//!
//! Asserts exactly which parts of the machine state exploration marks
//! symbolic and which stay concrete, and (E7) what the descriptor-load
//! summary does to the exploration of a segment load.

use pokemu::explore::{explore_state_space, symstate, StateSpaceConfig};
use pokemu::harness::baseline_snapshot;
use pokemu::isa::state::Gpr;
use pokemu::symx::{Dom, Executor};
use pokemu::testgen::layout;

#[test]
fn figure3_symbolic_concrete_split() {
    let baseline = baseline_snapshot();
    let mut exec = Executor::new();
    // Register the descriptor-load summary, as state-space exploration does
    // (§3.3.2): machine construction is then branch-free.
    let summary = exec.summarize(
        &[(32, "lo"), (32, "hi"), (16, "sel"), (2, "cpl"), (2, "kind")],
        |e, f| pokemu::isa::translate::descriptor_checks(e, f[0], f[1], f[2], f[3], f[4]).to_vec(),
    );
    exec.register_summary(pokemu::isa::translate::DESC_SUMMARY_KEY, summary);
    let template = symstate::symbolic_memory_template(&mut exec, &baseline);
    let r = exec.explore(|e| {
        let mut m = symstate::symbolic_machine(e, &baseline, &template);

        // GPRs: symbolic.
        for rn in Gpr::ALL {
            assert!(
                e.as_const(m.gpr[rn as usize]).is_none(),
                "{} must be symbolic",
                rn.name()
            );
        }
        // EIP: concrete (Fig. 3: "the instruction pointer needs to be
        // concrete").
        assert_eq!(m.eip, layout::CODE_BASE);
        // EFLAGS: symbolic as a whole...
        assert!(e.as_const(m.eflags).is_none());
        // CR3 base and table bases: concrete pointers.
        assert_eq!(m.cr3_base, layout::PD_BASE);
        assert_eq!(m.gdtr.base, layout::GDT_BASE);
        assert_eq!(m.idtr.base, layout::IDT_BASE);
        // ...but their limits are symbolic.
        assert!(e.as_const(m.gdtr.limit).is_none());
        // CR0/CR4 symbolic; CR2 concrete.
        assert!(e.as_const(m.cr0).is_none());
        assert!(e.as_const(m.cr4).is_none());
        // Segment selectors symbolic; descriptor-cache base derived from
        // concrete base bytes must fold to the baseline base (0).
        for s in pokemu::isa::Seg::ALL {
            assert!(e.as_const(m.segs[s as usize].selector).is_none());
            // The descriptor's *base* bytes (2, 3, 4, 7) are concrete in the
            // GDT (Fig. 3 leaves base addresses concrete); the limit and
            // attribute bytes (0, 1, 5, 6) are symbolic.
            let entry = layout::GDT_BASE + layout::gdt_index(s) as u32 * 8;
            for off in [2u32, 3, 4, 7] {
                let b = m.mem.read_u8(e, entry + off);
                assert!(
                    e.as_const(b).is_some(),
                    "{} base byte {off} concrete",
                    s.name()
                );
            }
            for off in [0u32, 1, 5, 6] {
                let b = m.mem.read_u8(e, entry + off);
                assert!(e.as_const(b).is_none(), "{} byte {off} symbolic", s.name());
            }
            // The recomputed attribute word depends on the symbolic bytes.
            assert!(e.as_const(m.segs[s as usize].cache.attrs).is_none());
        }
        // PDE flag byte: symbolic; PDE address bytes: concrete.
        let pde_flags = m.mem.read_u8(e, layout::PD_BASE);
        assert!(e.as_const(pde_flags).is_none(), "PDE flag byte symbolic");
        let pde_addr_byte = m.mem.read_u8(e, layout::PD_BASE + 2);
        assert!(
            e.as_const(pde_addr_byte).is_some(),
            "PDE address byte concrete"
        );
        // PTE flag byte likewise.
        let pte_flags = m.mem.read_u8(e, layout::PT_BASE + 4);
        assert!(e.as_const(pte_flags).is_none());
        // Unused physical memory: symbolic on demand.
        let unused = m.mem.read_u8(e, 0x0030_0000);
        assert!(
            e.as_const(unused).is_none(),
            "unused memory is on-demand symbolic"
        );
        // Test code bytes: concrete.
        let code = m.mem.read_u8(e, layout::CODE_BASE);
        assert!(e.as_const(code).is_some(), "code bytes are concrete");
    });
    assert!(r.complete);
}

/// The expected Figure 3 map, byte for byte: every tracked machine-state
/// location, whether exploration marks it symbolic (`S`) or concrete (`C`),
/// and the concrete value where there is one. GDT descriptor entries and
/// page-table entries render one letter per byte, low byte first.
const FIGURE3_GOLDEN_MAP: &str = "\
gpr.eax S
gpr.ecx S
gpr.edx S
gpr.ebx S
gpr.esp S
gpr.ebp S
gpr.esi S
gpr.edi S
eip C 0x00020000
eflags S
cr0 S
cr2 C 0x00000000
cr3.base C 0x00010000
cr3.flags S
cr4 S
gdtr.base C 0x00001000
gdtr.limit S
idtr.base C 0x00002000
idtr.limit S
msr.sysenter_cs S
msr.sysenter_esp S
msr.sysenter_eip S
seg.es.selector S
seg.es.attrs S
seg.cs.selector S
seg.cs.attrs S
seg.ss.selector S
seg.ss.attrs S
seg.ds.selector S
seg.ds.attrs S
seg.fs.selector S
seg.fs.attrs S
seg.gs.selector S
seg.gs.attrs S
gdt[1] SSCCCSSC
gdt[4] SSCCCSSC
gdt[5] SSCCCSSC
gdt[6] SSCCCSSC
gdt[7] SSCCCSSC
gdt[10] SSCCCSSC
pde[0] SCCC
pte[0] SCCC
pte[1] SCCC
pte[32] SCCC
mem[0x00300000] S
code[0x00020000] C 0xc7
";

/// Satellite golden test: the rendered symbolic/concrete map must match
/// [`FIGURE3_GOLDEN_MAP`] exactly. Any change to what exploration treats as
/// symbolic shows up here as a one-line diff.
#[test]
fn figure3_map_matches_golden_fixture() {
    use std::cell::RefCell;

    let baseline = baseline_snapshot();
    let mut exec = Executor::new();
    let summary = exec.summarize(
        &[(32, "lo"), (32, "hi"), (16, "sel"), (2, "cpl"), (2, "kind")],
        |e, f| pokemu::isa::translate::descriptor_checks(e, f[0], f[1], f[2], f[3], f[4]).to_vec(),
    );
    exec.register_summary(pokemu::isa::translate::DESC_SUMMARY_KEY, summary);
    let template = symstate::symbolic_memory_template(&mut exec, &baseline);
    let rendered = RefCell::new(String::new());
    let r = exec.explore(|e| {
        fn put(out: &mut String, name: &str, sc: Option<u64>) {
            match sc {
                Some(v) => out.push_str(&format!("{name} C {v:#010x}\n")),
                None => out.push_str(&format!("{name} S\n")),
            }
        }
        let mut m = symstate::symbolic_machine(e, &baseline, &template);
        let mut out = String::new();
        for rn in Gpr::ALL {
            put(
                &mut out,
                &format!("gpr.{}", rn.name()),
                e.as_const(m.gpr[rn as usize]),
            );
        }
        put(&mut out, "eip", Some(m.eip as u64));
        put(&mut out, "eflags", e.as_const(m.eflags));
        put(&mut out, "cr0", e.as_const(m.cr0));
        put(&mut out, "cr2", Some(m.cr2 as u64));
        put(&mut out, "cr3.base", Some(m.cr3_base as u64));
        put(&mut out, "cr3.flags", e.as_const(m.cr3_flags));
        put(&mut out, "cr4", e.as_const(m.cr4));
        put(&mut out, "gdtr.base", Some(m.gdtr.base as u64));
        put(&mut out, "gdtr.limit", e.as_const(m.gdtr.limit));
        put(&mut out, "idtr.base", Some(m.idtr.base as u64));
        put(&mut out, "idtr.limit", e.as_const(m.idtr.limit));
        put(&mut out, "msr.sysenter_cs", e.as_const(m.msrs.sysenter_cs));
        put(
            &mut out,
            "msr.sysenter_esp",
            e.as_const(m.msrs.sysenter_esp),
        );
        put(
            &mut out,
            "msr.sysenter_eip",
            e.as_const(m.msrs.sysenter_eip),
        );
        for s in pokemu::isa::Seg::ALL {
            put(
                &mut out,
                &format!("seg.{}.selector", s.name()),
                e.as_const(m.segs[s as usize].selector),
            );
            put(
                &mut out,
                &format!("seg.{}.attrs", s.name()),
                e.as_const(m.segs[s as usize].cache.attrs),
            );
        }
        // One letter per descriptor byte for every baseline GDT entry.
        let mut indexes: Vec<u16> = pokemu::isa::Seg::ALL
            .iter()
            .map(|&s| layout::gdt_index(s))
            .collect();
        indexes.sort_unstable();
        for idx in indexes {
            let entry = layout::GDT_BASE + idx as u32 * 8;
            let bytes: String = (0..8)
                .map(|off| {
                    let b = m.mem.read_u8(e, entry + off);
                    if e.as_const(b).is_some() {
                        'C'
                    } else {
                        'S'
                    }
                })
                .collect();
            out.push_str(&format!("gdt[{idx}] {bytes}\n"));
        }
        // Page-directory and page-table entries, one letter per byte.
        for (name, base) in [
            ("pde[0]", layout::PD_BASE),
            ("pte[0]", layout::PT_BASE),
            ("pte[1]", layout::PT_BASE + 4),
            ("pte[32]", layout::PT_BASE + 32 * 4),
        ] {
            let bytes: String = (0..4)
                .map(|off| {
                    let b = m.mem.read_u8(e, base + off);
                    if e.as_const(b).is_some() {
                        'C'
                    } else {
                        'S'
                    }
                })
                .collect();
            out.push_str(&format!("{name} {bytes}\n"));
        }
        let unused = m.mem.read_u8(e, 0x0030_0000);
        put(&mut out, "mem[0x00300000]", e.as_const(unused));
        let code = m.mem.read_u8(e, layout::CODE_BASE);
        match e.as_const(code) {
            Some(v) => out.push_str(&format!("code[{:#010x}] C {v:#04x}\n", layout::CODE_BASE)),
            None => out.push_str(&format!("code[{:#010x}] S\n", layout::CODE_BASE)),
        }
        *rendered.borrow_mut() = out;
    });
    assert!(r.complete, "machine construction must be branch-free");
    assert_eq!(r.paths.len(), 1, "machine construction must be single-path");
    let got = rendered.into_inner();
    assert_eq!(
        got, FIGURE3_GOLDEN_MAP,
        "Figure 3 symbolic/concrete map drifted from the golden fixture"
    );
}

#[test]
fn named_locations_round_trip_to_gadgets() {
    // Every symbolic location name converts to a state-initializer item.
    for (name, value) in [
        ("eax", 0x1234u64),
        ("esp", 0x2007dc),
        ("eflags", 0x246),
        ("sel_ss", 0x53),
        ("cr0", 0x8000_0011),
        ("cr4", 0x10),
        ("cr3_flags", 0x18),
        ("gdtr_limit", 0x7f),
        ("idtr_limit", 0xff),
        ("msr_sysenter_cs", 0x8),
        ("mem_00208055", 0x13),
    ] {
        assert!(
            symstate::state_item_of(name, value).is_some(),
            "{name} must map to a gadget"
        );
    }
    // Non-state variables (summary formals) do not.
    assert!(symstate::state_item_of("summary_lo_0", 1).is_none());
}

/// E7: `mov ds, ax` (`8e d8`) at a 64-path cap. With the descriptor-load
/// summary the exploration completes in 16 paths; without it the in-line
/// descriptor-cache recomputations multiply the replay space and no path
/// finishes within the budget. The solver query counts are the
/// exploration's own, so concurrent tests cannot move them.
#[test]
fn descriptor_summary_completes_mov_ds_ax_within_the_path_cap() {
    let baseline = baseline_snapshot();
    let explore = |use_summaries| {
        explore_state_space(
            &[0x8e, 0xd8],
            &baseline,
            StateSpaceConfig {
                max_paths: 64,
                use_summaries,
                ..StateSpaceConfig::default()
            },
        )
    };
    let with = explore(true);
    assert_eq!(
        (with.paths.len(), with.complete, with.solver_queries),
        (16, true, 199),
        "with the summary: (paths, complete, solver queries)"
    );
    let without = explore(false);
    assert_eq!(
        (
            without.paths.len(),
            without.complete,
            without.solver_queries
        ),
        (0, false, 68),
        "without the summary: (paths, complete, solver queries)"
    );
}
