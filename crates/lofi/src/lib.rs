//! # pokemu-lofi
//!
//! The **Lo-Fi emulator** — the QEMU analogue of the PokeEMU-rs
//! reproduction: a dynamic binary translator for the VX86 guest ISA.
//!
//! Architecture (mirroring QEMU 0.14's, the version the paper tests):
//!
//! * a translator lowers guest instructions to a micro-op IR
//!   ([`uop`], [`translate`]);
//! * translated blocks are cached and invalidated on self-modifying writes
//!   ([`Lofi`]);
//! * hot paths avoid the dispatch loop entirely: direct block chaining, an
//!   inline lookup cache, superblocks, and an IR-skip fast path
//!   ([`fastpath`], DESIGN.md §11) — gated by `POKEMU_LOFI_CHAIN`, and a
//!   pure execution-strategy change (results are byte-identical on/off);
//! * a softmmu with a TLB serves memory accesses through a *fast path that
//!   skips segmentation checks* ([`mmu`]);
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
pub mod fastpath;
pub mod mmu;
pub mod state;
pub mod translate;
pub mod uop;

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

use pokemu_isa::snapshot::{Outcome, PagedMem, SegSnapshot, Snapshot};
use pokemu_isa::state::Exception;
use pokemu_rt::metrics;

pub use exec::{Core, TbExit};
pub use state::{Fidelity, LofiMachine};
pub use translate::Tb;

/// Ways in the inline (direct-mapped) TB lookup cache.
const LOOKUP_WAYS: usize = 64;
/// A TB whose execution count reaches this threshold becomes a superblock
/// head candidate (checked again every multiple, so chains that complete
/// late still form).
const SUPERBLOCK_THRESHOLD: u64 = 16;
/// Guest-instruction cap for one superblock.
const SUPERBLOCK_MAX_INSNS: u32 = 64;
/// Chain-edge index for a taken direct branch.
const EDGE_TAKEN: usize = 0;
/// Chain-edge index for a fallthrough / fall-off-the-end successor.
const EDGE_FALL: usize = 1;

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
/// benches). These count *block executions* however they were dispatched,
/// so they are identical with chaining on or off.
#[derive(Debug, Default, Clone, Copy)]
pub struct LofiStats {
    /// Blocks translated.
    pub translations: u64,
    /// Block executions served from the cache (looked up, chained, or run
    /// as a superblock member).
    pub cache_hits: u64,
    /// Blocks invalidated by guest writes.
    pub invalidations: u64,
    /// Guest instructions executed (approximate: per-block counts).
    pub insns: u64,
}

/// Pre-resolved metric handles for the dispatch loop: one relaxed atomic
/// add per event, resolved once at construction (the hot-path idiom the
/// solver and symx engine use). All of these are *counters* — pure
/// functions of the executed programs — so they stay inside the
/// deterministic-replay byte-identity contract.
#[derive(Debug, Clone, Copy)]
struct LofiMetrics {
    /// Dispatches served from the TB cache (inline cache or main map).
    tb_hits: metrics::Counter,
    /// Dispatches that had to translate (cache miss).
    tb_misses: metrics::Counter,
    /// TBs invalidated by guest writes.
    invalidations: metrics::Counter,
    /// Guest instructions executed (per-block counts).
    insns: metrics::Counter,
    /// Block exits that returned to the dispatch loop.
    exit_next: metrics::Counter,
    /// Block exits that transferred directly to a chained successor.
    exit_chained: metrics::Counter,
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
    /// Dispatches served by following a chain link (no lookup at all).
    chain_hits: metrics::Counter,
    /// Chain links patched.
    chain_links: metrics::Counter,
    /// Chain links severed by invalidation.
    chain_unlinks: metrics::Counter,
    /// Lookups answered by the inline direct-mapped cache.
    lookup_cache_hits: metrics::Counter,
    /// Lookups that fell through to the main map.
    lookup_cache_misses: metrics::Counter,
    /// Superblocks formed.
    superblocks: metrics::Counter,
    /// Dispatches that ran a superblock instead of its head TB.
    superblock_execs: metrics::Counter,
    /// Dispatches that ran the IR-skip fast path.
    irskip_execs: metrics::Counter,
}

impl LofiMetrics {
    fn new() -> Self {
        LofiMetrics {
            tb_hits: metrics::counter("lofi.tb_lookup.hits"),
            tb_misses: metrics::counter("lofi.tb_lookup.misses"),
            invalidations: metrics::counter("lofi.tb.invalidations"),
            insns: metrics::counter("lofi.insns"),
            exit_next: metrics::counter("lofi.tb_exit.next"),
            exit_chained: metrics::counter("lofi.dispatch.exit.chained"),
            exit_halt: metrics::counter("lofi.tb_exit.halt"),
            exit_fault: metrics::counter("lofi.tb_exit.fault"),
            run_halted: metrics::counter("lofi.run_exit.halted"),
            run_exception: metrics::counter("lofi.run_exit.exception"),
            run_step_limit: metrics::counter("lofi.run_exit.step_limit"),
            chain_hits: metrics::counter("lofi.chain.hits"),
            chain_links: metrics::counter("lofi.chain.links"),
            chain_unlinks: metrics::counter("lofi.chain.unlinks"),
            lookup_cache_hits: metrics::counter("lofi.chain.lookup_cache.hits"),
            lookup_cache_misses: metrics::counter("lofi.chain.lookup_cache.misses"),
            superblocks: metrics::counter("lofi.chain.superblocks"),
            superblock_execs: metrics::counter("lofi.chain.superblock_execs"),
            irskip_execs: metrics::counter("lofi.chain.irskip_execs"),
        }
    }
}

/// Chain override: 0 = use the environment, 1 = forced off, 2 = forced on.
static CHAIN_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Whether new [`Lofi`] instances use the chained execution layer.
/// Defaults to on; `POKEMU_LOFI_CHAIN=0` disables it (pure legacy
/// dispatch), and [`set_chain_enabled`] overrides the environment for
/// in-process equivalence tests.
pub fn chain_enabled() -> bool {
    match CHAIN_OVERRIDE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            static ENV: OnceLock<bool> = OnceLock::new();
            *ENV.get_or_init(|| std::env::var("POKEMU_LOFI_CHAIN").map_or(true, |v| v != "0"))
        }
    }
}

/// Forces the chained execution layer on or off for subsequently created
/// [`Lofi`] instances, overriding `POKEMU_LOFI_CHAIN` (test hook for
/// in-process chain-off/chain-on equivalence runs).
pub fn set_chain_enabled(on: bool) {
    CHAIN_OVERRIDE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Clears any [`set_chain_enabled`] override, restoring the
/// `POKEMU_LOFI_CHAIN` environment default.
pub fn clear_chain_override() {
    CHAIN_OVERRIDE.store(0, Ordering::Relaxed);
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
fn hot_registry() -> &'static Mutex<HashMap<u64, HashMap<u32, u64>>> {
    static HOT: OnceLock<Mutex<HashMap<u64, HashMap<u32, u64>>>> = OnceLock::new();
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

fn sorted_hot(table: &HashMap<u32, u64>) -> Vec<(u32, u64)> {
    let mut v: Vec<(u32, u64)> = table.iter().map(|(&eip, &n)| (eip, n)).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

/// Per-TB execution counts accumulated in the current thread's hot-TB
/// scope (the default scope unless inside [`hot_scope`]), hottest first
/// (count descending, entry `eip` ascending on ties, so the order is
/// deterministic for deterministic workloads). Instances still alive have
/// not merged yet — [`Lofi::run`] data lands here on drop. Chained,
/// superblock, and IR-skip executions are all billed, so attribution
/// matches the legacy dispatch loop.
pub fn hot_tbs() -> Vec<(u32, u64)> {
    let key = HOT_SCOPE.with(|c| c.get());
    hot_tbs_in(key)
}

/// Per-TB execution counts for an explicit hot-TB scope key.
pub fn hot_tbs_in(key: u64) -> Vec<(u32, u64)> {
    let reg = hot_registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.get(&key).map(|t| sorted_hot(t)).unwrap_or_default()
}

/// Clears the hot-TB table, all scopes (bench/test hook for delta
/// measurements).
pub fn reset_hot_tbs() {
    hot_registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
}

/// One arena slot: a translated block plus its chaining state. Slots are
/// append-only; invalidation marks them dead and severs links, so patched
/// chain edges (plain `usize` indices) can never dangle.
#[derive(Debug)]
struct TbSlot {
    tb: Tb,
    /// IR-skip form, when the block is eligible (chain mode only).
    fast: Option<fastpath::FastBlock>,
    /// Chained successors: `[taken, fallthrough]`.
    links: [Option<usize>; 2],
    /// Incoming chain edges `(pred slot, edge)` to sever on invalidation.
    preds: Vec<(usize, usize)>,
    /// Executions of this block (plain, chained, or as a superblock
    /// member), merged into the hot-TB registry on drop.
    execs: u64,
    /// For plain TBs: the superblock headed here, if formed.
    superblock: Option<usize>,
    /// For superblock slots: the head TB slot.
    super_head: Option<usize>,
    /// For superblock slots: constituent TB slots in order.
    members: Vec<usize>,
    /// Superblock formation was attempted and is structurally impossible.
    super_tried: bool,
    dead: bool,
}

impl TbSlot {
    fn plain(tb: Tb, fast: Option<fastpath::FastBlock>) -> Self {
        TbSlot {
            tb,
            fast,
            links: [None; 2],
            preds: Vec::new(),
            execs: 0,
            superblock: None,
            super_head: None,
            members: Vec::new(),
            super_tried: false,
            dead: false,
        }
    }
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
    /// Append-only TB arena (plain blocks and superblocks).
    slots: Vec<TbSlot>,
    /// Entry EIP → live plain slot.
    index: HashMap<u32, usize>,
    /// Virtual page → slots whose guest bytes overlap it.
    tbs_by_page: HashMap<u32, Vec<usize>>,
    /// Inline direct-mapped lookup cache, probed before `index`.
    lookup_cache: [Option<(u32, usize)>; LOOKUP_WAYS],
    stats: LofiStats,
    metrics: LofiMetrics,
    /// Chained execution layer on? Captured from [`chain_enabled`] at
    /// construction.
    chain: bool,
    /// Persistent scratch for IR-skip temps; never cleared between blocks
    /// ([`fastpath::compile`] proves reads are dominated by writes).
    temps: Box<[u32; 256]>,
    /// Maximum guest instructions per translation block.
    pub max_tb_insns: u32,
}

impl Drop for Lofi {
    fn drop(&mut self) {
        let mut merged: HashMap<u32, u64> = HashMap::new();
        for s in &self.slots {
            // Superblock slots bill their members, never themselves.
            if s.execs > 0 && s.super_head.is_none() {
                *merged.entry(s.tb.start).or_default() += s.execs;
            }
        }
        if merged.is_empty() {
            return;
        }
        let key = HOT_SCOPE.with(|c| c.get());
        let mut reg = hot_registry().lock().unwrap_or_else(|e| e.into_inner());
        let table = reg.entry(key).or_default();
        for (eip, n) in merged {
            *table.entry(eip).or_default() += n;
        }
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
            slots: Vec::new(),
            index: HashMap::new(),
            tbs_by_page: HashMap::new(),
            lookup_cache: [None; LOOKUP_WAYS],
            stats: LofiStats::default(),
            metrics: LofiMetrics::new(),
            chain: chain_enabled(),
            temps: Box::new([0; 256]),
            max_tb_insns: 8,
        }
    }

    /// Forces the chained execution layer on or off for this instance
    /// (equivalence tests). Call before the first [`Lofi::run`].
    pub fn set_chain(&mut self, on: bool) {
        self.chain = on;
    }

    /// Whether this instance uses the chained execution layer.
    pub fn chain(&self) -> bool {
        self.chain
    }

    /// The guest machine state.
    pub fn machine(&self) -> &LofiMachine {
        &self.core.m
    }

    /// Mutable guest machine state (baseline initialization).
    pub fn machine_mut(&mut self) -> &mut LofiMachine {
        &mut self.core.m
    }

    /// Loads raw bytes into guest RAM.
    pub fn load_image(&mut self, addr: u32, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            let a = (addr as usize + i) % self.core.m.ram.len();
            self.core.m.ram[a] = b;
        }
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
        let mut merged: HashMap<u32, u64> = HashMap::new();
        for s in &self.slots {
            if s.execs > 0 && s.super_head.is_none() {
                *merged.entry(s.tb.start).or_default() += s.execs;
            }
        }
        sorted_hot(&merged)
    }

    fn way(eip: u32) -> usize {
        (((eip >> 6) ^ eip) as usize) & (LOOKUP_WAYS - 1)
    }

    /// Looks up a live block for `eip`, billing `lofi.tb_lookup.*` (and,
    /// in chain mode, the inline-cache split).
    fn lookup(&mut self, eip: u32) -> Option<usize> {
        if self.chain {
            let w = Self::way(eip);
            if let Some((e, i)) = self.lookup_cache[w] {
                if e == eip && !self.slots[i].dead {
                    self.stats.cache_hits += 1;
                    self.metrics.tb_hits.inc();
                    self.metrics.lookup_cache_hits.inc();
                    return Some(i);
                }
            }
            if let Some(&i) = self.index.get(&eip) {
                self.stats.cache_hits += 1;
                self.metrics.tb_hits.inc();
                self.metrics.lookup_cache_misses.inc();
                self.lookup_cache[w] = Some((eip, i));
                return Some(i);
            }
            None
        } else if let Some(&i) = self.index.get(&eip) {
            self.stats.cache_hits += 1;
            self.metrics.tb_hits.inc();
            Some(i)
        } else {
            None
        }
    }

    /// Translates the block at `eip` into a fresh arena slot.
    fn translate_at(&mut self, eip: u32) -> Result<usize, Exception> {
        self.metrics.tb_misses.inc();
        let tb = translate::translate_block(
            &mut self.core.m,
            &mut self.core.tlb,
            &self.core.fid,
            eip,
            self.max_tb_insns,
        )?;
        self.stats.translations += 1;
        let idx = self.slots.len();
        for page in (tb.start >> 12)..=(tb.end.wrapping_sub(1) >> 12) {
            self.tbs_by_page.entry(page).or_default().push(idx);
        }
        let fast = if self.chain {
            fastpath::compile(&tb)
        } else {
            None
        };
        self.slots.push(TbSlot::plain(tb, fast));
        self.index.insert(eip, idx);
        if self.chain {
            self.lookup_cache[Self::way(eip)] = Some((eip, idx));
        }
        Ok(idx)
    }

    /// Marks a slot dead: removes it from the index and inline cache,
    /// severs incoming chain links, and drops any superblock built on it.
    fn kill_slot(&mut self, i: usize) {
        if self.slots[i].dead {
            return;
        }
        self.slots[i].dead = true;
        if self.slots[i].super_head.is_none() {
            // Plain TB: counted exactly as the legacy dispatch loop did,
            // so `LofiStats` stays identical with chaining on or off.
            self.stats.invalidations += 1;
            let start = self.slots[i].tb.start;
            if self.index.get(&start) == Some(&i) {
                self.index.remove(&start);
            }
            for w in self.lookup_cache.iter_mut() {
                if matches!(w, Some((_, s)) if *s == i) {
                    *w = None;
                }
            }
        }
        let preds = std::mem::take(&mut self.slots[i].preds);
        for (p, edge) in preds {
            if !self.slots[p].dead && self.slots[p].links[edge] == Some(i) {
                self.slots[p].links[edge] = None;
                self.metrics.chain_unlinks.inc();
            }
        }
        self.slots[i].links = [None; 2];
        if let Some(h) = self.slots[i].super_head {
            if self.slots[h].superblock == Some(i) {
                self.slots[h].superblock = None;
            }
        }
        if let Some(sb) = self.slots[i].superblock.take() {
            self.kill_slot(sb);
        }
    }

    fn invalidate_dirty(&mut self) {
        if self.core.dirty_pages.is_empty() {
            return;
        }
        let pages = std::mem::take(&mut self.core.dirty_pages);
        for p in pages {
            if let Some(idxs) = self.tbs_by_page.remove(&p) {
                for i in idxs {
                    self.kill_slot(i);
                }
            }
        }
    }

    /// Follows (patching if needed) the chain link for `edge` out of
    /// `from` toward static successor `next`. Returns the successor slot
    /// when the transfer can skip the dispatch lookup entirely.
    fn chain_edge(&mut self, from: usize, edge: usize, next: u32) -> Option<usize> {
        if self.slots[from].dead {
            // The block invalidated itself (or a superblock member did);
            // never patch edges out of a dead slot.
            return None;
        }
        if let Some(succ) = self.slots[from].links[edge] {
            if !self.slots[succ].dead {
                debug_assert_eq!(self.slots[succ].tb.start, next);
                return Some(succ);
            }
            self.slots[from].links[edge] = None;
        }
        let succ = *self.index.get(&next)?;
        self.slots[from].links[edge] = Some(succ);
        self.slots[succ].preds.push((from, edge));
        self.metrics.chain_links.inc();
        Some(succ)
    }

    /// Considers forming a superblock headed at `head` once its execution
    /// count (including the dispatch in flight) reaches a multiple of
    /// [`SUPERBLOCK_THRESHOLD`]: stitches the hot straight-line
    /// fall-through chain into one µop run. Only fall-off-the-end blocks
    /// extend the chain (the concatenation then needs no terminator
    /// surgery, so coverage and fault semantics are exactly those of the
    /// member sequence), and no non-final member may write guest memory
    /// (a store could rewrite a later member's bytes mid-superblock).
    fn maybe_form_superblock(&mut self, head: usize) {
        {
            let s = &self.slots[head];
            if s.dead || s.super_tried || s.superblock.is_some() || s.super_head.is_some() {
                return;
            }
            let execs = s.execs + 1;
            if execs < SUPERBLOCK_THRESHOLD || execs % SUPERBLOCK_THRESHOLD != 0 {
                return;
            }
            if !s.tb.falls_through() || s.tb.may_write_memory() {
                self.slots[head].super_tried = true;
                return;
            }
        }
        let mut members = vec![head];
        let mut insns = self.slots[head].tb.insns;
        loop {
            let last = *members.last().expect("members is never empty");
            if !self.slots[last].tb.falls_through() || self.slots[last].tb.may_write_memory() {
                break;
            }
            let next = self.slots[last].tb.end;
            let Some(&succ) = self.index.get(&next) else {
                // Successor not translated yet — retry at the next
                // threshold multiple rather than giving up for good.
                break;
            };
            if members.contains(&succ)
                || self.slots[succ].dead
                || insns + self.slots[succ].tb.insns > SUPERBLOCK_MAX_INSNS
            {
                break;
            }
            insns += self.slots[succ].tb.insns;
            members.push(succ);
        }
        if members.len() < 2 {
            return;
        }
        let mut uops = Vec::new();
        for &m in &members {
            uops.extend_from_slice(&self.slots[m].tb.uops);
        }
        let start = self.slots[head].tb.start;
        let end = self.slots[*members.last().expect("non-empty")].tb.end;
        let tb = Tb {
            start,
            end,
            uops,
            insns,
        };
        let fast = fastpath::compile(&tb);
        let sb = self.slots.len();
        // Register on every member's page range so a write to any member's
        // bytes kills the superblock along with the member.
        for &m in &members {
            let (s, e) = (self.slots[m].tb.start, self.slots[m].tb.end);
            for page in (s >> 12)..=(e.wrapping_sub(1) >> 12) {
                self.tbs_by_page.entry(page).or_default().push(sb);
            }
        }
        let mut slot = TbSlot::plain(tb, fast);
        slot.super_head = Some(head);
        slot.members = members;
        slot.super_tried = true;
        self.slots.push(slot);
        self.slots[head].superblock = Some(sb);
        self.slots[head].super_tried = true;
        self.metrics.superblocks.inc();
    }

    /// Runs until halt, exception, or the block budget expires.
    pub fn run(&mut self, max_blocks: u64) -> RunExit {
        let mut budget = max_blocks;
        // Slot to dispatch next via a followed chain link (skips lookup).
        let mut chained: Option<usize> = None;
        // Per-block counter deltas, accumulated locally and flushed once
        // per `run` exit: one relaxed RMW per counter per run instead of
        // per dispatched block.
        #[derive(Default)]
        struct Pending {
            chain_hits: u64,
            insns: u64,
            irskip: u64,
            superblocks: u64,
            exit_next: u64,
            exit_chained: u64,
        }
        fn flush(m: &LofiMetrics, p: &Pending) {
            for (c, n) in [
                (&m.chain_hits, p.chain_hits),
                (&m.insns, p.insns),
                (&m.irskip_execs, p.irskip),
                (&m.superblock_execs, p.superblocks),
                (&m.exit_next, p.exit_next),
                (&m.exit_chained, p.exit_chained),
            ] {
                if n > 0 {
                    c.add(n);
                }
            }
        }
        let mut p = Pending::default();
        while budget > 0 {
            let idx = match chained.take() {
                Some(i) => {
                    self.stats.cache_hits += 1;
                    p.chain_hits += 1;
                    i
                }
                None => {
                    let eip = self.core.m.eip;
                    match self.lookup(eip) {
                        Some(i) => i,
                        None => match self.translate_at(eip) {
                            Ok(i) => i,
                            Err(e) => {
                                flush(&self.metrics, &p);
                                self.metrics.run_exception.inc();
                                return RunExit::Exception(e);
                            }
                        },
                    }
                }
            };
            if self.chain {
                self.maybe_form_superblock(idx);
            }
            // Upgrade to the superblock when one exists and the remaining
            // budget covers all members (each member consumes one block of
            // budget, exactly as the legacy loop would charge them).
            let (exec_idx, blocks) = match self.slots[idx].superblock {
                Some(sb) if self.chain && (self.slots[sb].members.len() as u64) <= budget => {
                    (sb, self.slots[sb].members.len() as u64)
                }
                _ => (idx, 1),
            };
            budget -= blocks;
            let tb_insns = self.slots[exec_idx].tb.insns as u64;
            self.stats.insns += tb_insns;
            p.insns += tb_insns;
            if exec_idx == idx {
                self.slots[idx].execs += 1;
            } else {
                p.superblocks += 1;
                // Members beyond the head were all dispatched from the
                // cache; bill each member's execution for attribution.
                self.stats.cache_hits += blocks - 1;
                for k in 0..blocks as usize {
                    let m = self.slots[exec_idx].members[k];
                    self.slots[m].execs += 1;
                }
            }
            let exit = match (self.chain, &self.slots[exec_idx].fast) {
                (true, Some(fb)) => {
                    p.irskip += 1;
                    fastpath::exec_fast(&mut self.core, &mut self.temps, fb)
                }
                _ => exec::exec_tb(&mut self.core, &self.slots[exec_idx].tb),
            };
            let invalidated_before = self.stats.invalidations;
            self.invalidate_dirty();
            if self.stats.invalidations != invalidated_before {
                self.metrics
                    .invalidations
                    .add(self.stats.invalidations - invalidated_before);
            }
            match exit {
                TbExit::Next(next) => {
                    p.exit_next += 1;
                    self.core.m.eip = next;
                }
                TbExit::Taken(next) | TbExit::Fallthrough(next) => {
                    self.core.m.eip = next;
                    if self.chain {
                        let edge = if matches!(exit, TbExit::Taken(_)) {
                            EDGE_TAKEN
                        } else {
                            EDGE_FALL
                        };
                        if let Some(succ) = self.chain_edge(exec_idx, edge, next) {
                            p.exit_chained += 1;
                            chained = Some(succ);
                            continue;
                        }
                    }
                    p.exit_next += 1;
                }
                TbExit::Halt => {
                    flush(&self.metrics, &p);
                    self.metrics.exit_halt.inc();
                    self.metrics.run_halted.inc();
                    return RunExit::Halted;
                }
                TbExit::Fault(e) => {
                    flush(&self.metrics, &p);
                    self.metrics.exit_fault.inc();
                    self.metrics.run_exception.inc();
                    return RunExit::Exception(e);
                }
            }
        }
        flush(&self.metrics, &p);
        self.metrics.run_step_limit.inc();
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
            // Guest RAM is one flat, almost entirely zero allocation: only
            // the 4-KiB pages with content are copied.
            mem: PagedMem::from_flat(&m.ram),
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
        assert!(delta.counter("lofi.tb_lookup.hits") + delta.counter("lofi.chain.hits") >= 3);
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

    /// The chain-unlink program: a loop whose body chains A→B, then a
    /// one-shot store block rewrites B's first byte (`inc eax` →
    /// `inc edx`) and jumps straight to it. Returns the loaded emulator,
    /// ready to run. ecx counts 5 iterations; the store fires when
    /// ecx == 2.
    fn load_unlink_program(emu: &mut Lofi) {
        flat(emu);
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
    }

    #[test]
    fn store_into_chained_successor_unlinks_and_retranslates() {
        let before = pokemu_rt::metrics::snapshot();
        let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
        emu.set_chain(true);
        load_unlink_program(&mut emu);
        let exit = emu.run(256);
        assert_eq!(exit, RunExit::Halted);
        // Iterations with ecx 5,4 run B as `inc eax` (and the second pass
        // patches the A→B chain link); the store fires when dec reaches
        // ecx == 2, so that pass and the next must see the rewritten
        // `inc edx`. Stale-chain bugs would keep executing `inc eax`.
        assert_eq!(emu.machine().gpr[0], 2, "pre-rewrite B executions");
        assert_eq!(emu.machine().gpr[2], 2, "must run the rewritten B");
        let delta = pokemu_rt::metrics::snapshot().since(&before);
        assert!(
            delta.counter("lofi.chain.unlinks") >= 1,
            "invalidating a chained successor must sever the link"
        );
        assert!(delta.counter("lofi.chain.links") >= 1);
        assert!(delta.counter("lofi.dispatch.exit.chained") >= 1);
    }

    #[test]
    fn chain_off_and_on_produce_identical_snapshots() {
        let mut results = Vec::new();
        for on in [false, true] {
            let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
            emu.set_chain(on);
            load_unlink_program(&mut emu);
            let exit = emu.run(256);
            results.push((emu.snapshot(exit), emu.stats().insns));
        }
        assert_eq!(
            results[0].0, results[1].0,
            "chaining must be a pure execution-strategy change"
        );
        assert_eq!(results[0].1, results[1].1, "per-block insn accounting");
    }

    #[test]
    fn inline_lookup_cache_hits_on_run_reentry() {
        let before = pokemu_rt::metrics::snapshot();
        let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
        emu.set_chain(true);
        flat(&mut emu);
        // inc eax; hlt — the second run() re-enters an already-translated
        // EIP from outside any chain, which is exactly the inline-cache
        // dispatch path (translation seeds the cache way).
        emu.load_image(0x1000, &[0x40, 0xf4]);
        assert_eq!(emu.run(16), RunExit::Halted);
        let translations = emu.stats().translations;
        emu.machine_mut().eip = 0x1000;
        assert_eq!(emu.run(16), RunExit::Halted);
        assert_eq!(emu.machine().gpr[0], 2);
        assert_eq!(
            emu.stats().translations,
            translations,
            "re-entry must reuse the cached TB, not retranslate"
        );
        // Other tests share the process-global counters, so a floor.
        let delta = pokemu_rt::metrics::snapshot().since(&before);
        assert!(
            delta.counter("lofi.chain.lookup_cache.hits") >= 1,
            "re-entry dispatch must hit the inline lookup cache"
        );
    }

    #[test]
    fn superblock_forms_on_hot_straight_line_chain_and_bills_members() {
        let before = pokemu_rt::metrics::snapshot();
        let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
        emu.set_chain(true);
        flat(&mut emu);
        // mov ecx, 40; L: 16 × inc eax; dec ecx; jnz L; hlt — the loop
        // body spans three TBs (max_tb_insns = 8): two fall-through runs
        // of incs and the dec/jnz tail, a textbook superblock chain.
        let mut prog = vec![0xb9, 40, 0, 0, 0];
        prog.extend(std::iter::repeat(0x40).take(16));
        prog.extend_from_slice(&[0x49, 0x75, 0xed, 0xf4]);
        emu.load_image(0x1000, &prog);
        let exit = emu.run(512);
        assert_eq!(exit, RunExit::Halted);
        assert_eq!(emu.machine().gpr[0], 640, "16 incs × 40 iterations");
        assert_eq!(emu.machine().gpr[1], 0);
        let delta = pokemu_rt::metrics::snapshot().since(&before);
        assert!(delta.counter("lofi.chain.superblocks") >= 1, "must form");
        assert!(
            delta.counter("lofi.chain.superblock_execs") >= 10,
            "hot iterations must dispatch the superblock"
        );
        assert!(
            delta.counter("lofi.chain.irskip_execs") >= 10,
            "an all-ALU superblock must take the IR-skip fast path"
        );
        // Member attribution: every loop-body TB is billed per iteration,
        // whether it ran standalone or inside the superblock.
        let counts = emu.tb_exec_counts();
        let execs = |eip: u32| {
            counts
                .iter()
                .find(|&&(e, _)| e == eip)
                .map(|&(_, n)| n)
                .unwrap_or(0)
        };
        // Loop head after the first pass is the jnz target 0x1005.
        assert_eq!(execs(0x1005), 39, "head TB billed for every iteration");
        assert_eq!(execs(0x100d), 39, "middle member billed");
        assert_eq!(execs(0x1015), 39, "tail member billed");
    }

    #[test]
    fn superblock_equivalence_with_chain_off() {
        let mut snaps = Vec::new();
        for on in [false, true] {
            let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
            emu.set_chain(on);
            flat(&mut emu);
            let mut prog = vec![0xb9, 40, 0, 0, 0];
            prog.extend(std::iter::repeat(0x40).take(16));
            prog.extend_from_slice(&[0x49, 0x75, 0xed, 0xf4]);
            emu.load_image(0x1000, &prog);
            let exit = emu.run(512);
            snaps.push((emu.snapshot(exit), emu.stats().insns));
        }
        assert_eq!(snaps[0], snaps[1]);
    }

    #[test]
    fn step_budget_is_charged_identically_with_chaining() {
        // A tight infinite loop: budget exhaustion must happen after the
        // same number of block executions (and leave the same EIP) with
        // chaining on or off — superblock members each consume budget.
        for budget in [1u64, 7, 16, 33] {
            let mut states = Vec::new();
            for on in [false, true] {
                let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
                emu.set_chain(on);
                flat(&mut emu);
                let mut prog = vec![0xb9, 40, 0, 0, 0];
                prog.extend(std::iter::repeat(0x40).take(16));
                prog.extend_from_slice(&[0x49, 0x75, 0xed, 0xf4]);
                emu.load_image(0x1000, &prog);
                let exit = emu.run(budget);
                states.push((exit, emu.snapshot(exit), emu.stats().insns));
            }
            assert_eq!(states[0], states[1], "budget {budget}");
        }
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
