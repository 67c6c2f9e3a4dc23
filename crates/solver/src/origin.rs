//! Per-query provenance: *which pipeline stage* issued a solver query, for
//! *which guest instruction*, on *which explored path*.
//!
//! The paper's cost story (§6, E6) is solver-dominated, and the repo's own
//! e7 inversion (summaries slower than no summaries) is invisible in a
//! single `solver.queries` counter. This module threads the attribution
//! through thread-locals so [`crate::BvSolver::check`] can bill every query
//! to its origin without changing any call signature:
//!
//! * **origin** — the issuing stage, one of [`ORIGINS`]. Scoped RAII
//!   ([`scoped`]): the symx engine marks feasibility checks, path-end model
//!   extraction, and pick-cache queries; the explore layer marks
//!   minimization; summary construction overrides whatever is beneath it.
//! * **instruction context** — the hex bytes of the instruction being
//!   explored ([`insn_scoped`]), set once per `explore_state_space` call.
//! * **path id** — the PR-3 FNV-1a path hash ([`set_path_id`]), updated by
//!   the engine as branch decisions accumulate.
//!
//! The billing itself is deterministic (counters keyed by a fixed label
//! set); per-origin *latency* lands in the nondeterministic timer
//! namespace, measured by the `solver.check` span and so recorded only
//! while a span sink is on (`pokemu_rt::trace::active()`).

use std::cell::{Cell, RefCell};

use pokemu_rt::metrics;

/// The closed set of query origins. `other` is the fallback for queries
/// issued outside any scope (unit tests, ad-hoc tooling).
pub const ORIGINS: [&str; 6] = [
    "feasibility",
    "model",
    "pick",
    "summary",
    "minimize",
    "other",
];

thread_local! {
    static ORIGIN: Cell<&'static str> = const { Cell::new("other") };
    static INSN: RefCell<String> = const { RefCell::new(String::new()) };
    static PATH_ID: Cell<u64> = const { Cell::new(0) };
}

/// Pre-resolved per-origin counter and timer handles. The counter is the
/// deterministic half (`solver.queries.<origin>`); the timer
/// (`solver.ns.<origin>`) accumulates wall time and is only fed when
/// timing is enabled.
pub(crate) fn handles(origin: &str) -> (metrics::Counter, metrics::Timer) {
    match origin {
        "feasibility" => (
            metrics::counter("solver.queries.feasibility"),
            metrics::timer("solver.ns.feasibility"),
        ),
        "model" => (
            metrics::counter("solver.queries.model"),
            metrics::timer("solver.ns.model"),
        ),
        "pick" => (
            metrics::counter("solver.queries.pick"),
            metrics::timer("solver.ns.pick"),
        ),
        "summary" => (
            metrics::counter("solver.queries.summary"),
            metrics::timer("solver.ns.summary"),
        ),
        "minimize" => (
            metrics::counter("solver.queries.minimize"),
            metrics::timer("solver.ns.minimize"),
        ),
        _ => (
            metrics::counter("solver.queries.other"),
            metrics::timer("solver.ns.other"),
        ),
    }
}

/// RAII guard restoring the previous origin label on drop.
#[derive(Debug)]
pub struct OriginScope {
    prev: &'static str,
}

/// Marks solver queries issued while the guard lives as coming from
/// `label` (use one of [`ORIGINS`]; unknown labels bill to `other`).
pub fn scoped(label: &'static str) -> OriginScope {
    let prev = ORIGIN.with(|o| o.replace(label));
    OriginScope { prev }
}

impl Drop for OriginScope {
    fn drop(&mut self) {
        ORIGIN.with(|o| o.set(self.prev));
    }
}

/// The current thread's origin label.
pub fn current() -> &'static str {
    ORIGIN.with(Cell::get)
}

/// RAII guard restoring the previous instruction context on drop.
#[derive(Debug)]
pub struct InsnScope {
    prev: String,
}

/// Sets the instruction-hex context for queries issued while the guard
/// lives (the explore layer wraps each `explore_state_space` call).
pub fn insn_scoped(hex: impl Into<String>) -> InsnScope {
    let prev = INSN.with(|i| std::mem::replace(&mut *i.borrow_mut(), hex.into()));
    InsnScope { prev }
}

impl Drop for InsnScope {
    fn drop(&mut self) {
        INSN.with(|i| *i.borrow_mut() = std::mem::take(&mut self.prev));
    }
}

/// The current thread's instruction-hex context (empty outside a scope).
pub fn current_insn() -> String {
    INSN.with(|i| i.borrow().clone())
}

/// Records the explored path the next queries belong to (the engine's
/// running FNV-1a path hash; 0 = no path).
pub fn set_path_id(id: u64) {
    PATH_ID.with(|p| p.set(id));
}

/// The current thread's path id.
pub fn current_path_id() -> u64 {
    PATH_ID.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_and_restore() {
        assert_eq!(current(), "other");
        {
            let _a = scoped("feasibility");
            assert_eq!(current(), "feasibility");
            {
                let _b = scoped("summary");
                assert_eq!(current(), "summary");
            }
            assert_eq!(current(), "feasibility");
        }
        assert_eq!(current(), "other");
    }

    #[test]
    fn insn_context_and_path_id_are_thread_local() {
        let _i = insn_scoped("8ed8");
        set_path_id(0xdead);
        assert_eq!(current_insn(), "8ed8");
        assert_eq!(current_path_id(), 0xdead);
        std::thread::spawn(|| {
            assert_eq!(current_insn(), "", "fresh thread has no context");
            assert_eq!(current_path_id(), 0);
        })
        .join()
        .unwrap();
        set_path_id(0);
    }

    #[test]
    fn every_origin_has_handles() {
        for o in ORIGINS {
            let (c, t) = handles(o);
            let _ = (c.get(), t.get_ns());
        }
    }
}
