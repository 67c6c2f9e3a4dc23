//! The traced run and the per-layer metrics it yields.
//!
//! Layers are named after the crates: `explore` (instruction- and
//! state-space exploration, with `symx` and the solver beneath), `testgen`
//! (explored paths to programs), `target` (hardware oracle, Hi-Fi and Lo-Fi
//! behind `harness::targets`) and `analyze` (`harness::compare` and
//! snapshot diffs). A layer's time is the sum of the `bench.<layer>...`
//! spans [`crate::workload::lift`] opens around calls into it.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use pokemu_rt::json::escape;
use pokemu_rt::metrics::{self, MetricsSnapshot};
use pokemu_rt::trace::{self, SpanEvent};

use pokemu::solver::origin::ORIGINS as SOLVER_ORIGINS;

use crate::report::ratio;
use crate::workload::{lift, Lift, Plan};

/// The benchmark's spans of one traced run, summed by name.
#[derive(Debug, Default)]
pub struct SpanTotals(BTreeMap<&'static str, u64>);

impl SpanTotals {
    /// Sums the durations of the `bench.` spans among `events`.
    pub fn of(events: &[SpanEvent]) -> SpanTotals {
        let mut totals = BTreeMap::new();
        for ev in events.iter().filter(|e| e.name.starts_with("bench.")) {
            *totals.entry(ev.name).or_insert(0) += ev.dur_ns;
        }
        SpanTotals(totals)
    }

    /// Milliseconds in spans whose name starts with `prefix`.
    pub fn ms(&self, prefix: &str) -> f64 {
        let ns: u64 = self
            .0
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, ns)| ns)
            .sum();
        ns as f64 / 1e6
    }
}

/// A finished traced run.
#[derive(Debug)]
pub struct Traced {
    /// What the layer-by-layer run produced.
    pub lift: Lift,
    /// Its spans, summed by name.
    pub spans: SpanTotals,
    /// Its metric deltas (solver counts and timers, exploration counters).
    pub delta: MetricsSnapshot,
    /// Its wall time.
    pub wall: Duration,
    /// Where its spans were exported.
    pub export: std::io::Result<PathBuf>,
}

/// Runs [`lift`] with span recording on, then drains its spans and exports
/// them as `<target>/trace/liftbench-<run>.trace.json` (Chrome
/// `trace_event` format, with the program's own spans beneath the
/// benchmark's).
pub fn traced_run(plan: &Plan, run: &str) -> Traced {
    trace::drain();
    let before = metrics::snapshot();
    trace::set_enabled(true);
    let t = Instant::now();
    let lift = lift(plan, true);
    let wall = t.elapsed();
    trace::set_enabled(false);
    let delta = metrics::snapshot().since(&before);
    let events = trace::drain();
    Traced {
        lift,
        spans: SpanTotals::of(&events),
        delta,
        wall,
        export: export(&events, run),
    }
}

fn export(events: &[SpanEvent], run: &str) -> std::io::Result<PathBuf> {
    let dir = trace::trace_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("liftbench-{run}.trace.json"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    write!(f, "{{\"traceEvents\":[")?;
    for (i, ev) in events.iter().enumerate() {
        let mut args = format!("\"span\":{},\"parent\":{}", ev.id, ev.parent);
        for (k, v) in &ev.attrs {
            args.push_str(&format!(",\"{}\":\"{}\"", escape(k), escape(v)));
        }
        write!(
            f,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
            if i == 0 { "" } else { "," },
            escape(ev.name),
            ev.tid,
            ev.start_ns as f64 / 1e3,
            ev.dur_ns as f64 / 1e3,
        )?;
    }
    write!(f, "],\"displayTimeUnit\":\"ms\"}}")?;
    f.flush()?;
    Ok(path)
}

/// The per-layer metrics of a traced run, given its lifting losses and the
/// median wall time of the untraced repetitions.
pub fn layer_metrics(
    t: &Traced,
    unreached: usize,
    untraced_wall: Duration,
) -> Vec<(&'static str, f64)> {
    let (d, s) = (&t.delta, &t.spans);
    let tests = t.lift.outputs.tests as f64;
    let queries = |origin: &str| d.counter(&format!("solver.queries.{origin}")) as f64;
    let solver_ms = |origin: &str| d.timer_ns(&format!("solver.ns.{origin}")) as f64 / 1e6;
    let solver_total: f64 = SOLVER_ORIGINS.iter().map(|o| solver_ms(o)).sum();
    let explore_ms = s.ms("bench.explore.");
    let paths = d.counter("explore.paths") as f64;
    let hifi = s.ms("bench.target.hifi");
    let lofi = s.ms("bench.target.lofi");
    vec![
        ("explore.solver.queries.feasibility", queries("feasibility")),
        ("explore.solver.queries.model", queries("model")),
        ("explore.solver.queries.pick", queries("pick")),
        ("explore.solver.queries.summary", queries("summary")),
        ("explore.solver.ms.feasibility", solver_ms("feasibility")),
        ("explore.solver.ms.model", solver_ms("model")),
        ("explore.solver.ms.pick", solver_ms("pick")),
        ("explore.solver.ms.summary", solver_ms("summary")),
        ("insn_space.ms", s.ms("bench.explore.insn_space")),
        ("explore.ms_per_path", ratio(explore_ms, paths)),
        ("explore.other.ms", explore_ms - solver_total),
        ("explore.paths", paths),
        (
            "explore.unknown_queries",
            d.counter("solver.unknown") as f64,
        ),
        ("explore.incomplete", d.counter("explore.incomplete") as f64),
        ("testgen.ms", s.ms("bench.testgen")),
        ("testgen.dropped", t.lift.dropped as f64),
        ("target.baseline.ms", s.ms("bench.target.baseline")),
        (
            "target.hardware.ms_per_test",
            ratio(s.ms("bench.target.hardware"), tests),
        ),
        ("target.hifi.ms_per_test", ratio(hifi, tests)),
        ("target.lofi.ms_per_test", ratio(lofi, tests)),
        ("target.hifi_over_lofi", ratio(hifi, lofi)),
        ("target.timeouts", t.lift.timeouts as f64),
        (
            "target.lofi.tb_misses",
            d.counter("lofi.tb_lookup.misses") as f64,
        ),
        ("analyze.ms_per_test", ratio(s.ms("bench.analyze"), tests)),
        (
            "analyze.deviations.lofi",
            t.lift.outputs.deviation_count("lofi") as f64,
        ),
        (
            "analyze.deviations.hifi",
            t.lift.outputs.deviation_count("hifi") as f64,
        ),
        ("lift.unreached", unreached as f64),
        (
            "trace.coverage",
            ratio(s.ms("bench."), t.wall.as_secs_f64() * 1e3),
        ),
        (
            "trace.overhead",
            ratio(t.lift.pass_wall.as_secs_f64(), untraced_wall.as_secs_f64()) - 1.0,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Sweep;

    #[test]
    fn layer_spans_cover_the_traced_wall_time() {
        let plan = Plan::Sweep(Sweep {
            calls: vec![(0x50, None)],
            max_paths: 4,
        });
        let t = traced_run(&plan, "unit-test");
        assert!(t.lift.outputs.tests > 0);
        let m = layer_metrics(&t, 0, t.lift.pass_wall);
        let get = |name: &str| m.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        let coverage = get("trace.coverage").expect("coverage reported");
        assert!(
            coverage >= 0.95,
            "layer spans cover {coverage:.3} of the wall"
        );
        assert_eq!(m.len(), crate::report::PER_LAYER.len());
        for ((name, _), (want, _)) in m.iter().zip(crate::report::PER_LAYER.iter()) {
            assert_eq!(name, want, "metrics come out in BENCHMARK.json order");
        }
    }
}
