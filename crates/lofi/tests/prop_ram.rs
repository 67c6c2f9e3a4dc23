//! Property tests for Lo-Fi's paged guest RAM: every access reads and
//! writes exactly what one flat `Vec<u8>` of `PHYS_MEM_SIZE` bytes would,
//! a page is allocated only once a non-zero byte lands in it, and a
//! snapshot holds exactly the reference's non-zero pages. The same holds
//! for forks of a template whose pages they share, and no fork's write
//! reaches the template.

use std::collections::BTreeSet;

use pokemu_isa::snapshot::{PagedMem, PAGE_SIZE};
use pokemu_isa::state::PHYS_MEM_SIZE;
use pokemu_lofi::{Fidelity, Lofi, RunExit};
use pokemu_rt::prop::Gen;

const PAGES: u32 = PHYS_MEM_SIZE / PAGE_SIZE as u32;

/// The reference: one flat RAM, plus every page a non-zero byte was ever
/// written to.
#[derive(Clone)]
struct Flat {
    ram: Vec<u8>,
    touched: BTreeSet<u32>,
}

impl Flat {
    fn new() -> Self {
        Flat {
            ram: vec![0; PHYS_MEM_SIZE as usize],
            touched: BTreeSet::new(),
        }
    }

    fn index(addr: u32) -> usize {
        (addr % PHYS_MEM_SIZE) as usize
    }

    fn read(&self, addr: u32, size: u8) -> u32 {
        (0..size).fold(0, |v, i| {
            v | (self.ram[Self::index(addr.wrapping_add(i as u32))] as u32) << (i * 8)
        })
    }

    fn load(&mut self, addr: u32, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            let at = Self::index(addr.wrapping_add(i as u32));
            self.ram[at] = b;
            if b != 0 {
                self.touched.insert((at / PAGE_SIZE) as u32);
            }
        }
    }

    /// The canonical image of the non-zero bytes.
    fn image(&self) -> PagedMem {
        self.ram
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b != 0)
            .map(|(a, &b)| (a as u32, b))
            .collect()
    }
}

/// A page: the first or last page of RAM, or any page.
fn page(g: &mut Gen) -> u32 {
    match g.range(0..4u8) {
        0 => 0,
        1 => PAGES - 1,
        _ => g.range(0..PAGES),
    }
}

/// An address in one of `pages`, biased towards the page edges, and
/// sometimes aliased above the RAM size.
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

/// A value that is often zero in some or all of its bytes.
fn value(g: &mut Gen) -> u32 {
    match g.range(0..4u8) {
        0 => 0,
        1 => g.range(1..=255u32) << (8 * g.range(0..4u32)),
        _ => g.gen(),
    }
}

/// One random write, read, image load or page clear, checked against the
/// reference.
fn step(g: &mut Gen, emu: &mut Lofi, flat: &mut Flat, pages: &[u32]) {
    let addr = address(g, pages);
    match g.range(0..8u8) {
        0..=2 => {
            let (val, size) = (value(g), *g.choose(&[1u8, 2, 4]));
            emu.machine_mut().phys_write(addr, val, size);
            flat.load(addr, &val.to_le_bytes()[..size as usize]);
        }
        3..=5 => {
            let size = *g.choose(&[1u8, 2, 4]);
            assert_eq!(
                emu.machine().phys_read(addr, size),
                flat.read(addr, size),
                "{size}-byte read at {addr:#x}"
            );
        }
        6 => {
            // Across pages, sometimes past the end of RAM, sometimes all
            // zero.
            let len = g.range(1..2 * PAGE_SIZE + 64);
            let zero = g.bool(0.3);
            let bytes: Vec<u8> = (0..len).map(|_| if zero { 0 } else { g.gen() }).collect();
            let at = if g.bool(0.3) {
                PHYS_MEM_SIZE - g.range(1..64u32)
            } else {
                addr
            };
            emu.load_image(at, &bytes);
            flat.load(at, &bytes);
        }
        _ => {
            // Zero a whole page, which may hold non-zero bytes.
            let base = addr & !(PAGE_SIZE as u32 - 1);
            emu.load_image(base, &[0; PAGE_SIZE]);
            flat.load(base, &[0; PAGE_SIZE]);
        }
    }
}

/// The base addresses of the pages `emu`'s RAM holds.
fn allocated(emu: &Lofi) -> Vec<u32> {
    emu.machine().ram.pages().map(|(base, _)| base).collect()
}

pokemu_rt::prop! {
    /// Random reads, writes and image loads agree with the flat reference,
    /// and the snapshot is its canonical image.
    fn paged_ram_matches_flat_ram(g, cases = 96) {
        let pages = g.vec(1, 6, page);
        let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
        let mut flat = Flat::new();
        for _ in 0..g.range(1..64usize) {
            step(g, &mut emu, &mut flat, &pages);
        }
        let touched: Vec<u32> = flat.touched.iter().map(|p| p * PAGE_SIZE as u32).collect();
        assert_eq!(allocated(&emu), touched, "pages are allocated on a non-zero write");
        assert_eq!(emu.snapshot(RunExit::Halted).mem, flat.image());
    }

    /// Two forks of a template whose RAM is shared, each driven by its own
    /// random accesses: every read matches the fork's own reference, each
    /// snapshot is its reference's image, and the template never changes.
    fn forked_ram_matches_its_own_flat_ram(g, cases = 48) {
        let pages = g.vec(1, 6, page);
        let mut template = Lofi::new(Fidelity::QEMU_LIKE);
        let mut template_flat = Flat::new();
        for _ in 0..g.range(0..32usize) {
            step(g, &mut template, &mut template_flat, &pages);
        }
        template.share();
        let image = template_flat.image();
        let mut forks = [template.fork(), template.fork()];
        let mut flats = [template_flat.clone(), template_flat.clone()];
        for _ in 0..g.range(1..64usize) {
            let i = g.range(0..2usize);
            step(g, &mut forks[i], &mut flats[i], &pages);
        }
        assert_eq!(template.snapshot(RunExit::Halted).mem, image, "the template never changes");
        for (i, (fork, flat)) in forks.iter().zip(&flats).enumerate() {
            let touched: Vec<u32> = flat.touched.iter().map(|p| p * PAGE_SIZE as u32).collect();
            assert_eq!(allocated(fork), touched, "fork {i} holds the template's pages and its own");
            assert_eq!(fork.snapshot(RunExit::Halted).mem, flat.image(), "fork {i}");
        }
    }
}

/// A page written non-zero and then zeroed stays allocated but is not part
/// of the snapshot; a zero write to an absent page allocates nothing.
#[test]
fn zeroed_page_is_not_snapshotted() {
    let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
    emu.machine_mut().phys_write(0x5ffe, 0, 4);
    assert_eq!(emu.machine().ram.pages().count(), 0);
    emu.machine_mut().phys_write(0x5ffe, 0x0102_0304, 4);
    emu.machine_mut().phys_write(0x3000, 0x42, 1);
    assert_eq!(
        emu.machine()
            .ram
            .pages()
            .map(|(base, _)| base)
            .collect::<Vec<_>>(),
        [0x3000, 0x5000, 0x6000]
    );
    emu.machine_mut().phys_write(0x5ffe, 0, 4);
    assert_eq!(emu.machine().ram.pages().count(), 3);
    let mem = emu.snapshot(RunExit::Halted).mem;
    assert_eq!(
        mem.pages().map(|(base, _)| base).collect::<Vec<_>>(),
        [0x3000]
    );
    assert_eq!(mem.iter().collect::<Vec<_>>(), [(0x3000, 0x42)]);
}
