//! # pokemu-lofi
//!
//! The **Lo-Fi emulator** — the QEMU analogue of the PokeEMU-rs
//! reproduction: a dynamic binary translator for the VX86 guest ISA.
//!
//! Architecture (mirroring QEMU 0.14's, the version the paper tests):
//!
//! * a translator lowers guest instructions to a micro-op IR
//!   ([`uop`], [`translate`]);
//! * translated blocks are cached by entry EIP, dispatched one map lookup
//!   per block, and invalidated on self-modifying writes ([`Lofi`],
//!   DESIGN.md §11);
//! * a softmmu with a TLB serves memory accesses through a *fast path that
//!   skips segmentation checks* ([`mmu`]);
//! * guest RAM is a table of copy-on-write 4-KiB pages, each allocated on
//!   its first non-zero write ([`state::Ram`]), so a forked run shares its
//!   template's pages and copies only those it writes;
//! * EFLAGS are lazy ([`state::CcState`]), materialized on demand;
//! * complex instructions run as out-of-line helpers ([`exec`]).
//!
//! The fidelity gaps the paper's evaluation finds in QEMU (§6.2) are
//! *consequences of this architecture*, reproduced here structurally:
//! missing segment limit/rights enforcement (fast path), non-atomic `leave`
//! and `cmpxchg` (eager micro-op commit), `rdmsr` without the invalid-MSR
//! #GP, reversed `iret` pop order, missing descriptor accessed-bit updates,
//! rejected undocumented encodings, and lazy-flag values for
//! architecturally-undefined flags. Each gap has a fix switch in
//! [`Fidelity`] so the ablation experiment can validate the generated tests
//! against a repaired emulator ("the test programs we have generated can be
//! used again in the future to validate the implementation", §6.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod mmu;
pub mod state;
pub mod translate;
pub mod uop;

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::ops::RangeInclusive;
use std::sync::{Arc, Mutex, OnceLock};

use pokemu_isa::snapshot::{Outcome, SegSnapshot, Snapshot};
use pokemu_isa::state::Exception;
use pokemu_rt::{metrics, FxHashMap, FxHashSet};

pub use exec::{Core, TbExit};
pub use state::{Fidelity, LofiMachine};
pub use translate::Tb;

/// Why a [`Lofi::run`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// `hlt` retired.
    Halted,
    /// An exception was intercepted.
    Exception(Exception),
    /// The step budget was exhausted.
    StepLimit,
}

impl RunExit {
    /// Converts to the snapshot outcome encoding.
    pub fn outcome(self) -> Outcome {
        match self {
            RunExit::Halted => Outcome::Halted,
            RunExit::Exception(e) => Outcome::Exception {
                vector: e.vector(),
                error: e.error_code(),
            },
            RunExit::StepLimit => Outcome::Timeout,
        }
    }
}

/// Execution statistics (translation-block behavior, for the performance
/// benches).
#[derive(Debug, Default, Clone, Copy)]
pub struct LofiStats {
    /// Blocks translated.
    pub translations: u64,
    /// Dispatches served from the block cache.
    pub cache_hits: u64,
    /// Blocks invalidated by guest writes.
    pub invalidations: u64,
    /// Guest instructions executed (approximate: per-block counts).
    pub insns: u64,
}

/// Metric handles for the dispatch-loop counts, resolved once at
/// construction and added to when the instance drops. All of these are
/// *counters* — pure functions of the executed programs — so they stay
/// inside the deterministic-replay byte-identity contract.
#[derive(Debug, Clone, Copy)]
struct LofiMetrics {
    /// Dispatches served from the block cache.
    tb_hits: metrics::Counter,
    /// Dispatches that had to translate (cache miss).
    tb_misses: metrics::Counter,
    /// TBs invalidated by guest writes.
    invalidations: metrics::Counter,
    /// Guest instructions executed (per-block counts).
    insns: metrics::Counter,
    /// Block exits that continue at a new EIP.
    exit_next: metrics::Counter,
    /// Block exits via `hlt`.
    exit_halt: metrics::Counter,
    /// Block exits via guest exception.
    exit_fault: metrics::Counter,
    /// `run` calls that returned [`RunExit::Halted`].
    run_halted: metrics::Counter,
    /// `run` calls that returned [`RunExit::Exception`].
    run_exception: metrics::Counter,
    /// `run` calls that exhausted the block budget.
    run_step_limit: metrics::Counter,
}

impl LofiMetrics {
    fn new() -> Self {
        LofiMetrics {
            tb_hits: metrics::counter("lofi.tb_lookup.hits"),
            tb_misses: metrics::counter("lofi.tb_lookup.misses"),
            invalidations: metrics::counter("lofi.tb.invalidations"),
            insns: metrics::counter("lofi.insns"),
            exit_next: metrics::counter("lofi.tb_exit.next"),
            exit_halt: metrics::counter("lofi.tb_exit.halt"),
            exit_fault: metrics::counter("lofi.tb_exit.fault"),
            run_halted: metrics::counter("lofi.run_exit.halted"),
            run_exception: metrics::counter("lofi.run_exit.exception"),
            run_step_limit: metrics::counter("lofi.run_exit.step_limit"),
        }
    }
}

/// The dispatch-loop counts [`LofiStats`] does not keep.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    tb_misses: u64,
    exit_next: u64,
    exit_halt: u64,
    exit_fault: u64,
    run_halted: u64,
    run_exception: u64,
    run_step_limit: u64,
}

thread_local! {
    /// Hot-TB scope key for the current thread (0 = default scope).
    static HOT_SCOPE: Cell<u64> = const { Cell::new(0) };
}

/// Process-global per-TB execution counts, merged from each [`Lofi`]
/// instance when it drops, keyed by hot-TB scope then TB entry `eip`.
/// Scoping exists so per-program attribution (conformance runs) does not
/// bleed into the default scope the pipeline dumps for
/// `pokemu-report perf`.
fn hot_registry() -> &'static Mutex<FxHashMap<u64, FxHashMap<u32, u64>>> {
    static HOT: OnceLock<Mutex<FxHashMap<u64, FxHashMap<u32, u64>>>> = OnceLock::new();
    HOT.get_or_init(Mutex::default)
}

/// RAII guard restoring the previous hot-TB scope on drop; see
/// [`hot_scope`].
#[derive(Debug)]
pub struct HotScope {
    prev: u64,
}

impl Drop for HotScope {
    fn drop(&mut self) {
        HOT_SCOPE.with(|c| c.set(self.prev));
    }
}

/// Enters a hot-TB attribution scope on the current thread: every [`Lofi`]
/// dropped while the guard is alive merges its per-TB execution counts
/// into the table keyed by `key` instead of the default table. The
/// conformance runner scopes each corpus program this way so hot-TB
/// attribution cannot bleed across programs.
pub fn hot_scope(key: u64) -> HotScope {
    let prev = HOT_SCOPE.with(|c| c.replace(key));
    HotScope { prev }
}

fn sorted_hot(table: &FxHashMap<u32, u64>) -> Vec<(u32, u64)> {
    let mut v: Vec<(u32, u64)> = table.iter().map(|(&eip, &n)| (eip, n)).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

/// Per-TB execution counts accumulated in the current thread's hot-TB
/// scope (the default scope unless inside [`hot_scope`]), hottest first
/// (count descending, entry `eip` ascending on ties, so the order is
/// deterministic for deterministic workloads). Instances still alive have
/// not merged yet — [`Lofi::run`] data lands here on drop. Executions of
/// blocks that were later invalidated are billed too.
pub fn hot_tbs() -> Vec<(u32, u64)> {
    let key = HOT_SCOPE.with(|c| c.get());
    hot_tbs_in(key)
}

/// Per-TB execution counts for an explicit hot-TB scope key.
pub fn hot_tbs_in(key: u64) -> Vec<(u32, u64)> {
    let reg = hot_registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.get(&key).map(sorted_hot).unwrap_or_default()
}

/// Clears the hot-TB table, all scopes (bench/test hook for delta
/// measurements).
pub fn reset_hot_tbs() {
    hot_registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
}

/// A live translated block and how often it has run.
#[derive(Debug)]
struct LiveTb {
    tb: Tb,
    execs: u64,
}

/// The blocks an emulator shares with its forks ([`Lofi::share`]): read by
/// every fork, written by none.
#[derive(Debug, Default, Clone)]
struct SharedBlocks {
    /// Entry EIP → block.
    tbs: FxHashMap<u32, Tb>,
    /// Virtual page → entry EIPs of the blocks overlapping it.
    by_page: FxHashMap<u32, Vec<u32>>,
}

/// Virtual pages a block's guest bytes overlap.
fn pages(tb: &Tb) -> RangeInclusive<u32> {
    (tb.start >> 12)..=(tb.end.wrapping_sub(1) >> 12)
}

/// The Lo-Fi dynamic binary translator.
///
/// # Examples
///
/// ```
/// use pokemu_lofi::{Fidelity, Lofi};
///
/// let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
/// // Zero-filled RAM decodes as `add [eax], al`; with no segment checks on
/// // the fast path, the Lo-Fi emulator happily churns through it until the
/// // block budget runs out — the Hi-Fi emulator would fault the fetch.
/// let exit = emu.run(16);
/// assert_eq!(exit, pokemu_lofi::RunExit::StepLimit);
/// ```
#[derive(Debug)]
pub struct Lofi {
    core: Core,
    /// Entry EIP → live block this instance owns; a lookup that misses
    /// here tries `shared`.
    tbs: FxHashMap<u32, LiveTb>,
    /// Virtual page → entry EIPs of owned blocks whose guest bytes overlap
    /// it. An entry goes stale when its block is invalidated through
    /// another page and retranslated with a different extent.
    tbs_by_page: FxHashMap<u32, Vec<u32>>,
    /// Blocks shared with the emulator this one was forked from and its
    /// other forks.
    shared: Arc<SharedBlocks>,
    /// Entry EIPs of the shared blocks this instance has invalidated.
    dead_shared: FxHashSet<u32>,
    /// Execution counts of shared and of invalidated blocks, by entry EIP.
    other_execs: FxHashMap<u32, u64>,
    stats: LofiStats,
    tally: Tally,
    metrics: LofiMetrics,
    /// Maximum guest instructions per translation block.
    pub max_tb_insns: u32,
}

/// An instance bills its counters and merges its per-TB execution counts
/// once, here, so an instance that never drops (the harness's post-baseline
/// templates) bills nothing.
impl Drop for Lofi {
    fn drop(&mut self) {
        let (m, s, t) = (&self.metrics, &self.stats, &self.tally);
        for (c, n) in [
            (m.tb_hits, s.cache_hits),
            (m.tb_misses, t.tb_misses),
            (m.invalidations, s.invalidations),
            (m.insns, s.insns),
            (m.exit_next, t.exit_next),
            (m.exit_halt, t.exit_halt),
            (m.exit_fault, t.exit_fault),
            (m.run_halted, t.run_halted),
            (m.run_exception, t.run_exception),
            (m.run_step_limit, t.run_step_limit),
        ] {
            if n > 0 {
                c.add(n);
            }
        }
        let key = HOT_SCOPE.with(|c| c.get());
        let mut reg = hot_registry().lock().unwrap_or_else(|e| e.into_inner());
        self.add_exec_counts(reg.entry(key).or_default());
    }
}

impl Default for Lofi {
    fn default() -> Self {
        Self::new(Fidelity::QEMU_LIKE)
    }
}

impl Lofi {
    /// Creates an emulator with the given fidelity profile.
    pub fn new(fid: Fidelity) -> Self {
        Lofi {
            core: Core::new(fid),
            tbs: FxHashMap::default(),
            tbs_by_page: FxHashMap::default(),
            shared: Arc::default(),
            dead_shared: FxHashSet::default(),
            other_execs: FxHashMap::default(),
            stats: LofiStats::default(),
            tally: Tally::default(),
            metrics: LofiMetrics::new(),
            max_tb_insns: 8,
        }
    }

    /// Makes every RAM page and translated block shared, so that forks
    /// copy no block, and no page until they write it.
    pub fn share(&mut self) {
        self.core.m.ram.share();
        let shared = Arc::make_mut(&mut self.shared);
        for eip in self.dead_shared.drain() {
            shared.tbs.remove(&eip);
        }
        for (eip, live) in self.tbs.drain() {
            *self.other_execs.entry(eip).or_default() += live.execs;
            shared.tbs.insert(eip, live.tb);
        }
        for (page, eips) in self.tbs_by_page.drain() {
            shared.by_page.entry(page).or_default().extend(eips);
        }
    }

    /// A copy of this emulator: registers, RAM, TLB and translated blocks
    /// carry over; execution counts, statistics and counters start at
    /// zero. Like RAM pages, shared blocks are shared and owned ones
    /// copied, so after [`Lofi::share`] the copy copies no block, and a
    /// page only when it first changes it. The harness forks every test
    /// run from a post-baseline template this way.
    pub fn fork(&self) -> Lofi {
        let own = |live: &LiveTb| LiveTb {
            tb: live.tb.clone(),
            execs: 0,
        };
        Lofi {
            core: Core {
                m: self.core.m.clone(),
                tlb: self.core.tlb.clone(),
                fid: self.core.fid,
                dirty_pages: self.core.dirty_pages.clone(),
            },
            tbs: self.tbs.iter().map(|(&eip, t)| (eip, own(t))).collect(),
            tbs_by_page: self.tbs_by_page.clone(),
            shared: Arc::clone(&self.shared),
            dead_shared: self.dead_shared.clone(),
            other_execs: FxHashMap::default(),
            stats: LofiStats::default(),
            tally: Tally::default(),
            metrics: self.metrics,
            max_tb_insns: self.max_tb_insns,
        }
    }

    /// The guest machine state.
    pub fn machine(&self) -> &LofiMachine {
        &self.core.m
    }

    /// Mutable guest machine state (baseline initialization).
    pub fn machine_mut(&mut self) -> &mut LofiMachine {
        &mut self.core.m
    }

    /// Loads raw bytes into guest RAM (wrapping at its end).
    pub fn load_image(&mut self, addr: u32, bytes: &[u8]) {
        self.core.m.ram.load(addr, bytes);
    }

    /// Sets the instruction pointer.
    pub fn set_eip(&mut self, eip: u32) {
        self.core.m.eip = eip;
    }

    /// Execution statistics.
    pub fn stats(&self) -> LofiStats {
        self.stats
    }

    /// Per-TB execution counts for this instance (not yet merged into the
    /// global hot-TB registry), hottest first with the [`hot_tbs`] order.
    pub fn tb_exec_counts(&self) -> Vec<(u32, u64)> {
        let mut counts = FxHashMap::default();
        self.add_exec_counts(&mut counts);
        sorted_hot(&counts)
    }

    /// Adds executions by entry EIP, owned, shared and invalidated blocks
    /// together, into `table`; blocks a fork inherited and never ran are
    /// left out.
    fn add_exec_counts(&self, table: &mut FxHashMap<u32, u64>) {
        let other = self.other_execs.iter().map(|(&eip, &n)| (eip, n));
        let live = self.tbs.iter().map(|(&eip, live)| (eip, live.execs));
        for (eip, n) in other.chain(live) {
            if n > 0 {
                *table.entry(eip).or_default() += n;
            }
        }
    }

    /// Invalidates every block overlapping a page written since the last
    /// call. A page's entry kills the block at its EIP only if that block
    /// overlaps the page, so stale entries kill nothing.
    fn invalidate_dirty(&mut self) {
        if self.core.dirty_pages.is_empty() {
            return;
        }
        for p in std::mem::take(&mut self.core.dirty_pages) {
            for eip in self.tbs_by_page.remove(&p).unwrap_or_default() {
                if let Entry::Occupied(live) = self.tbs.entry(eip) {
                    if pages(&live.get().tb).contains(&p) {
                        *self.other_execs.entry(eip).or_default() += live.remove().execs;
                        self.stats.invalidations += 1;
                    }
                }
            }
            for &eip in self.shared.by_page.get(&p).into_iter().flatten() {
                let overlaps = self
                    .shared
                    .tbs
                    .get(&eip)
                    .is_some_and(|tb| pages(tb).contains(&p));
                if overlaps && self.dead_shared.insert(eip) {
                    self.stats.invalidations += 1;
                }
            }
        }
    }

    /// Runs until halt, exception, or the block budget expires.
    pub fn run(&mut self, max_blocks: u64) -> RunExit {
        for _ in 0..max_blocks {
            let eip = self.core.m.eip;
            let tb = match self.tbs.entry(eip) {
                Entry::Occupied(o) => {
                    self.stats.cache_hits += 1;
                    let live = o.into_mut();
                    live.execs += 1;
                    &live.tb
                }
                Entry::Vacant(v) => match self.shared.tbs.get(&eip) {
                    Some(tb) if !self.dead_shared.contains(&eip) => {
                        self.stats.cache_hits += 1;
                        *self.other_execs.entry(eip).or_default() += 1;
                        tb
                    }
                    _ => {
                        self.tally.tb_misses += 1;
                        match translate::translate_block(
                            &mut self.core.m,
                            &mut self.core.tlb,
                            &self.core.fid,
                            eip,
                            self.max_tb_insns,
                        ) {
                            Ok(tb) => {
                                self.stats.translations += 1;
                                for page in pages(&tb) {
                                    self.tbs_by_page.entry(page).or_default().push(eip);
                                }
                                &v.insert(LiveTb { tb, execs: 1 }).tb
                            }
                            Err(e) => {
                                self.tally.run_exception += 1;
                                return RunExit::Exception(e);
                            }
                        }
                    }
                },
            };
            self.stats.insns += tb.insns as u64;
            let exit = exec::exec_tb(&mut self.core, tb);
            self.invalidate_dirty();
            match exit {
                TbExit::Next(next) => {
                    self.tally.exit_next += 1;
                    self.core.m.eip = next;
                }
                TbExit::Halt => {
                    self.tally.exit_halt += 1;
                    self.tally.run_halted += 1;
                    return RunExit::Halted;
                }
                TbExit::Fault(e) => {
                    self.tally.exit_fault += 1;
                    self.tally.run_exception += 1;
                    return RunExit::Exception(e);
                }
            }
        }
        self.tally.run_step_limit += 1;
        RunExit::StepLimit
    }

    /// Snapshots the guest into the common comparison format (§5.1).
    pub fn snapshot(&self, exit: RunExit) -> Snapshot {
        let m = &self.core.m;
        let mut segs = [SegSnapshot {
            selector: 0,
            base: 0,
            limit: 0,
            attrs: 0,
        }; 6];
        for (i, s) in m.segs.iter().enumerate() {
            segs[i] = SegSnapshot {
                selector: s.selector,
                base: s.base,
                limit: s.limit,
                attrs: s.attrs,
            };
        }
        Snapshot {
            gpr: m.gpr,
            eip: m.eip,
            eflags: m.eflags(),
            segs,
            cr0: m.cr0,
            cr2: m.cr2,
            cr3: m.cr3,
            cr4: m.cr4,
            gdtr: m.gdtr,
            idtr: m.idtr,
            mem: m.ram.to_mem(),
            outcome: exit.outcome(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pokemu_isa::state::{attrs, cr0};

    fn flat(emu: &mut Lofi) {
        let m = emu.machine_mut();
        m.cr0 = 1 << cr0::PE;
        for i in 0..6 {
            let typ: u16 = if i == 1 { 0xb } else { 0x3 };
            m.segs[i] = state::LofiSeg {
                selector: ((i as u16) + 1) << 3,
                base: 0,
                limit: 0xffff_ffff,
                attrs: typ
                    | (1 << attrs::S as u16)
                    | (1 << attrs::P as u16)
                    | (1 << attrs::DB as u16),
            };
        }
        m.gpr[4] = 0x7000;
        m.eip = 0x1000;
    }

    #[test]
    fn basic_arithmetic_runs() {
        let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
        flat(&mut emu);
        // mov eax, 41; add eax, 1; hlt
        emu.load_image(0x1000, &[0xb8, 41, 0, 0, 0, 0x83, 0xc0, 0x01, 0xf4]);
        let exit = emu.run(16);
        assert_eq!(exit, RunExit::Halted);
        assert_eq!(emu.machine().gpr[0], 42);
    }

    #[test]
    fn tb_cache_hits_on_reexecution() {
        let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
        flat(&mut emu);
        // A small loop: mov ecx, 5; L: dec ecx; jnz L; hlt
        emu.load_image(0x1000, &[0xb9, 5, 0, 0, 0, 0x49, 0x75, 0xfd, 0xf4]);
        let exit = emu.run(64);
        assert_eq!(exit, RunExit::Halted);
        assert_eq!(emu.machine().gpr[1], 0);
        assert!(emu.stats().cache_hits >= 3, "loop body must be cached");
    }

    #[test]
    fn dispatch_loop_attribution_counters_and_hot_tbs() {
        let before = pokemu_rt::metrics::snapshot();
        let loop_head = 0x1005u32;
        // An isolated scope keeps concurrently running tests (which share
        // the process-global registry) out of this test's assertions.
        let _scope = hot_scope(0x41545452);
        {
            let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
            flat(&mut emu);
            // mov ecx, 5; L: dec ecx; jnz L; hlt — the loop body re-enters
            // the same TB, so lookups hit and the TB gets hot.
            emu.load_image(0x1000, &[0xb9, 5, 0, 0, 0, 0x49, 0x75, 0xfd, 0xf4]);
            assert_eq!(emu.run(64), RunExit::Halted);
            let local = emu.tb_exec_counts();
            let loop_execs = local
                .iter()
                .find(|&&(eip, _)| eip == loop_head)
                .map(|&(_, n)| n)
                .unwrap_or(0);
            assert!(
                loop_execs >= 4,
                "loop TB must dominate execution: {local:?}"
            );
        } // drop merges into the scoped hot table
        let delta = pokemu_rt::metrics::snapshot().since(&before);
        // Other tests run concurrently against the same process-global
        // counters, so these are floors, not exact counts.
        assert!(delta.counter("lofi.tb_lookup.hits") >= 3);
        assert!(delta.counter("lofi.tb_lookup.misses") >= 2);
        assert!(delta.counter("lofi.tb_exit.halt") >= 1);
        assert!(delta.counter("lofi.run_exit.halted") >= 1);
        assert!(delta.counter("lofi.insns") >= 10);
        let hot = hot_tbs();
        let loop_count = hot
            .iter()
            .find(|&&(eip, _)| eip == loop_head)
            .map(|&(_, n)| n)
            .unwrap_or(0);
        assert!(
            loop_count >= 4,
            "dropped instance must merge its TB counts: {hot:?}"
        );
    }

    #[test]
    fn fork_keeps_blocks_and_starts_counts_at_zero() {
        let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
        flat(&mut emu);
        // mov ecx, 5; L: dec ecx; jnz L; hlt
        let code = [0xb9, 5, 0, 0, 0, 0x49, 0x75, 0xfd, 0xf4];
        emu.load_image(0x1000, &code);
        assert_eq!(emu.run(64), RunExit::Halted);
        emu.share();
        let mut fork = emu.fork();
        assert_eq!(fork.machine().eip, emu.machine().eip);
        assert_eq!(fork.machine().ram.to_mem(), emu.machine().ram.to_mem());
        assert!(fork.tb_exec_counts().is_empty());
        fork.set_eip(0x1000);
        assert_eq!(fork.run(64), RunExit::Halted);
        assert_eq!(fork.stats().translations, 0, "blocks carry over");
        assert_eq!(fork.stats().insns, emu.stats().insns);
        assert_eq!(fork.tb_exec_counts(), emu.tb_exec_counts());
    }

    #[test]
    fn self_modifying_code_invalidates() {
        let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
        flat(&mut emu);
        // mov byte [0x1100], 0x42 ; jmp 0x1100 — the target page was
        // translated already by the first block, then written.
        // At 0x1100: initially hlt (0xf4); overwritten with inc edx (0x42).
        emu.load_image(
            0x1000,
            &[
                0xc6, 0x05, 0x00, 0x11, 0x00, 0x00, 0x42, 0xe9, 0xf4, 0x00, 0x00, 0x00,
            ],
        );
        emu.load_image(0x1100, &[0xf4, 0xf4]);
        let exit = emu.run(16);
        assert_eq!(exit, RunExit::Halted);
        assert_eq!(
            emu.machine().gpr[2],
            1,
            "must execute the rewritten inc edx"
        );
    }

    #[test]
    fn a_fork_invalidates_shared_blocks_for_itself_alone() {
        let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
        flat(&mut emu);
        // 0x1000: mov byte [0x1100], 0x42 ; jmp 0x1100. 0x1100: hlt.
        emu.load_image(
            0x1000,
            &[
                0xc6, 0x05, 0x00, 0x11, 0x00, 0x00, 0x42, 0xe9, 0xf4, 0x00, 0x00, 0x00,
            ],
        );
        emu.load_image(0x1100, &[0xf4, 0xf4]);
        emu.set_eip(0x1100);
        assert_eq!(emu.run(16), RunExit::Halted);
        emu.share();
        // The store rewrites the shared `hlt` block's byte to `inc edx`.
        let mut writer = emu.fork();
        writer.set_eip(0x1000);
        assert_eq!(writer.run(16), RunExit::Halted);
        assert_eq!(writer.machine().gpr[2], 1, "must run the rewritten byte");
        let mut reader = emu.fork();
        reader.set_eip(0x1100);
        assert_eq!(reader.run(16), RunExit::Halted);
        assert_eq!(reader.machine().gpr[2], 0);
        assert_eq!(reader.stats().translations, 0, "still shared");
    }

    #[test]
    fn store_into_loop_successor_retranslates() {
        let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
        flat(&mut emu);
        // A loop whose body runs A then B; when ecx reaches 2 a one-shot
        // store block rewrites B's first byte (`inc eax` → `inc edx`) and
        // jumps straight to it.
        emu.load_image(
            0x1000,
            &[
                0x49, // 0x1000 L:  dec ecx
                0x74, 0x2d, // 0x1001     jz  0x1030 (E)
                0x83, 0xf9, 0x02, // 0x1003     cmp ecx, 2
                0x75, 0x38, // 0x1006     jne 0x1040 (A)
                0xc6, 0x05, 0x00, 0x11, 0x00, 0x00,
                0x42, // 0x1008     mov byte [0x1100], 0x42
                0xe9, 0xec, 0x00, 0x00, 0x00, // 0x100f     jmp 0x1100 (B)
            ],
        );
        emu.load_image(0x1030, &[0xf4]); // E: hlt
        emu.load_image(0x1040, &[0xe9, 0xbb, 0x00, 0x00, 0x00]); // A: jmp B
        emu.load_image(0x1100, &[0x40, 0xe9, 0xfa, 0xfe, 0xff, 0xff]); // B: inc eax; jmp L
        emu.machine_mut().gpr[1] = 5; // ecx
        let exit = emu.run(256);
        assert_eq!(exit, RunExit::Halted);
        // Iterations with ecx 5,4 run B as `inc eax`; the store fires when
        // dec reaches ecx == 2, so that pass and the next must see the
        // rewritten `inc edx`. A stale cached B would keep running `inc eax`.
        assert_eq!(emu.machine().gpr[0], 2, "pre-rewrite B executions");
        assert_eq!(emu.machine().gpr[2], 2, "must run the rewritten B");
    }

    #[test]
    fn exec_counts_survive_invalidation() {
        let scope = 0x494e_5631;
        {
            let _scope = hot_scope(scope);
            let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
            flat(&mut emu);
            emu.load_image(
                0x1000,
                &[
                    0xb9, 3, 0, 0, 0,    // 0x1000     mov ecx, 3
                    0x49, // 0x1005 L:  dec ecx
                    0x75, 0xfd, // 0x1006     jnz L
                    0x85, 0xdb, // 0x1008     test ebx, ebx
                    0x75, 0x0f, // 0x100a     jnz D
                    0x43, // 0x100c     inc ebx
                    0xc6, 0x05, 0x00, 0x1f, 0x00, 0x00,
                    0x90, // 0x100d     mov byte [0x1f00], 0x90
                    0xb9, 4, 0, 0, 0, // 0x1014     mov ecx, 4
                    0xeb, 0xea, // 0x1019     jmp L
                    0xf4, // 0x101b D:  hlt
                ],
            );
            assert_eq!(emu.run(64), RunExit::Halted);
            // The first pass through `dec ecx; jnz L` runs inside the
            // block at 0x1000, so the loop block runs twice before the
            // store. The store shares a page with all four live blocks and
            // kills them; the retranslated loop block then runs 4 times.
            assert_eq!(emu.stats().invalidations, 4);
            assert_eq!(
                emu.tb_exec_counts(),
                [
                    (0x1005, 6),
                    (0x1008, 2),
                    (0x1000, 1),
                    (0x100c, 1),
                    (0x101b, 1)
                ]
            );
        }
        assert_eq!(hot_tbs_in(scope)[0], (0x1005, 6));
    }

    #[test]
    fn stale_page_entry_leaves_the_retranslated_block_alone() {
        let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
        flat(&mut emu);
        // B: eight `inc eax` from 0x1ffc, straddling the 0x2000 page
        // boundary, then `hlt` at 0x2004.
        emu.load_image(0x1ffc, &[0x40; 8]);
        emu.load_image(0x2004, &[0xf4]);
        // Store stubs on another page: one writes `hlt` over B's third
        // byte, one writes into B's old second page.
        emu.load_image(0x5000, &[0xc6, 0x05, 0xfe, 0x1f, 0x00, 0x00, 0xf4, 0xf4]);
        emu.load_image(0x5010, &[0xc6, 0x05, 0x00, 0x21, 0x00, 0x00, 0x90, 0xf4]);
        let run_at = |emu: &mut Lofi, eip: u32| {
            emu.set_eip(eip);
            assert_eq!(emu.run(16), RunExit::Halted);
        };
        run_at(&mut emu, 0x1ffc); // B, then the hlt block
        run_at(&mut emu, 0x5000); // kills B through its first page
        run_at(&mut emu, 0x1ffc); // B now ends at 0x1fff, before the boundary
        assert_eq!(emu.machine().gpr[0], 10);
        // The second page still lists B's entry EIP; only the `hlt` block
        // there may die.
        run_at(&mut emu, 0x5010);
        run_at(&mut emu, 0x1ffc);
        assert_eq!(emu.machine().gpr[0], 12);
        assert_eq!(emu.stats().invalidations, 2);
        assert_eq!(emu.stats().translations, 5);
    }

    #[test]
    fn segment_limit_not_enforced_by_default() {
        let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
        flat(&mut emu);
        emu.machine_mut().segs[3].limit = 0x10; // tiny DS
                                                // mov [0x2000], al ; hlt — far beyond the DS limit.
        emu.load_image(0x1000, &[0xa2, 0x00, 0x20, 0x00, 0x00, 0xf4]);
        let exit = emu.run(16);
        assert_eq!(
            exit,
            RunExit::Halted,
            "Lo-Fi fast path skips the limit check"
        );

        let mut emu = Lofi::new(Fidelity {
            enforce_segment_checks: true,
            ..Fidelity::QEMU_LIKE
        });
        flat(&mut emu);
        emu.machine_mut().segs[3].limit = 0x10;
        emu.load_image(0x1000, &[0xa2, 0x00, 0x20, 0x00, 0x00, 0xf4]);
        let exit = emu.run(16);
        assert_eq!(
            exit,
            RunExit::Exception(Exception::Gp(0)),
            "fixed build enforces it"
        );
    }

    #[test]
    fn undocumented_encodings_rejected() {
        let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
        flat(&mut emu);
        emu.load_image(0x1000, &[0xd6, 0xf4]); // salc
        assert_eq!(emu.run(4), RunExit::Exception(Exception::Ud));

        let mut emu = Lofi::new(Fidelity {
            accept_undocumented: true,
            ..Fidelity::QEMU_LIKE
        });
        flat(&mut emu);
        // stc; salc; hlt — with acceptance on, salc runs: AL = CF ? 0xff : 0.
        emu.load_image(0x1000, &[0xf9, 0xd6, 0xf4]);
        let exit = emu.run(4);
        assert_eq!(exit, RunExit::Halted, "accepted salc must execute");
        assert_eq!(emu.machine().gpr[0] & 0xff, 0xff, "salc sets AL from CF");
    }

    #[test]
    fn hot_scopes_isolate_attribution() {
        let run_loop = || {
            let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
            flat(&mut emu);
            emu.load_image(0x1000, &[0xb9, 5, 0, 0, 0, 0x49, 0x75, 0xfd, 0xf4]);
            assert_eq!(emu.run(64), RunExit::Halted);
        };
        {
            let _scope = hot_scope(0xdead_0001);
            run_loop();
        }
        {
            let _scope = hot_scope(0xdead_0002);
            run_loop();
            run_loop();
        }
        let one = hot_tbs_in(0xdead_0001);
        let two = hot_tbs_in(0xdead_0002);
        let count = |v: &[(u32, u64)]| {
            v.iter()
                .find(|&&(eip, _)| eip == 0x1005)
                .map(|&(_, n)| n)
                .unwrap_or(0)
        };
        assert!(count(&one) >= 4);
        assert_eq!(
            count(&two),
            2 * count(&one),
            "scopes must not bleed into each other"
        );
    }
}
