//! Runs one workload of the lifted-test benchmark and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path liftbench/Cargo.toml -- \
//!     --workload <e3_sweep|twobyte_sweep|chain_corpus> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run sets the workload up three times (`setup_s` is the median), then
//! repeats it untraced through the public entry point for `--seconds`,
//! then measures lifting losses with the reach oracle. With `--trace 1` it
//! then repeats the work once more, layer by layer with spans on. It
//! prints every metric by name with its unit and the output-check verdict;
//! the last line is one JSON object holding the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use liftbench::layers::{layer_metrics, traced_run};
use liftbench::reach::{unreached_segments, unreached_tests};
use liftbench::report::{median, ratio, result_line, unit_of};
use liftbench::workload::{call_hex, lift, repetition, set_up, Plan, Rep, Workload};
use pokemu::harness::{check_conformance, find_roms_dir, ProgramResult};

/// Seed used when `--seed` is absent. Claims made while tuning on it are
/// confirmed on [`HELD_OUT_SEED`].
const DEFAULT_SEED: u64 = 1;
/// The seed kept back for confirming claims.
const HELD_OUT_SEED: u64 = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Every `POKEMU_*` variable that changes what the program does or
/// observes, and the value a run pins it to (`None`: unset, i.e. no
/// limit and no fault). Any other `POKEMU_*` variable is removed.
const PINNED_ENV: [(&str, Option<&str>); 13] = [
    // Spans record only in the traced run, switched on in-process.
    ("POKEMU_TRACE", Some("0")),
    ("POKEMU_PROF", Some("0")),
    ("POKEMU_RUN_MANIFEST", Some("0")),
    // History off: benchmark runs must not enter the run ledger whose
    // groups `pokemu-report trend` gates.
    ("POKEMU_HISTORY", Some("0")),
    ("POKEMU_FAULT", None),
    ("POKEMU_LOFI_CHAIN", Some("1")),
    ("POKEMU_COVERAGE", Some("1")),
    ("POKEMU_FLIGHT", Some("1")),
    ("POKEMU_FLIGHT_CAP", Some("256")),
    ("POKEMU_SOLVER_DEADLINE_MS", None),
    ("POKEMU_SOLVER_FUEL", None),
    ("POKEMU_RUN_DEADLINE_MS", None),
    ("POKEMU_INSN_DEADLINE_MS", None),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::E3Sweep,
        seed: DEFAULT_SEED,
        seconds: 30,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Pins the environment (before anything reads it) and returns the pinned
/// values as `NAME=value` for the record.
fn pin_env() -> Vec<String> {
    for (name, _) in std::env::vars() {
        if name.starts_with("POKEMU_") {
            std::env::remove_var(name);
        }
    }
    PINNED_ENV
        .iter()
        .map(|&(name, value)| {
            if let Some(v) = value {
                std::env::set_var(name, v);
            }
            format!("{name}={}", value.unwrap_or("unset"))
        })
        .collect()
}

/// Peak resident memory of this process so far, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or("no VmHWM line in /proc/self/status".to_owned())
}

fn conformance_violations(results: &[ProgramResult]) -> Result<usize, String> {
    let dir = find_roms_dir().ok_or("tests/roms not found")?;
    let violations = check_conformance(&dir, results).map_err(|e| e.to_string())?;
    for v in &violations {
        println!("violation {}: {}", v.program, v.reason);
    }
    Ok(violations.len())
}

fn print_metric(name: &str, value: f64) {
    println!("metric {name} {value} {}", unit_of(name).unwrap_or("?"));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("liftbench: {e}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("liftbench: refusing to time a debug build; pass --release");
        return ExitCode::from(2);
    }
    let env = pin_env();
    match run(&args, &env) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("liftbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the workload and prints its report; `Ok(false)` when an output
/// check failed.
fn run(args: &Args, env: &[String]) -> Result<bool, String> {
    let w = args.workload;
    println!(
        "liftbench {} seed={} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED}) seconds={} trace={} threads=1 cores={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!("env {}", env.join(" "));

    let mut setups = Vec::with_capacity(SETUPS);
    let mut plan = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        plan = Some(set_up(w, args.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let plan = plan.expect("at least one set-up");
    if let Plan::Sweep(s) = &plan {
        let calls: Vec<String> = s
            .calls
            .iter()
            .map(|&(first, second)| call_hex(first, second))
            .collect();
        println!("calls {}", calls.join(" "));
    }

    // The timed section: whole repetitions while the next one is expected
    // to end within the budget.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let rep = repetition(&plan);
        println!(
            "rep {}: {} tests in {:.3} s",
            reps.len() + 1,
            rep.outputs.tests,
            rep.wall.as_secs_f64()
        );
        let wall = rep.wall;
        reps.push(rep);
        if start.elapsed() + wall > budget {
            break;
        }
    }
    let peak_rss = peak_rss_mib()?;

    // Output checks. Every repetition must match the first; the corpus
    // must match its committed baselines.
    let first = &reps[0].outputs;
    let mut problems = Vec::new();
    for (i, rep) in reps.iter().enumerate() {
        if rep.outputs != *first {
            problems.push(format!("rep {} outputs differ from rep 1", i + 1));
        }
        if matches!(plan, Plan::Chain(_)) && conformance_violations(&rep.results)? > 0 {
            problems.push(format!("rep {} violates tests/roms", i + 1));
        }
    }

    // Lifting losses, outside the timed section. A traced run doubles as
    // the source of the lifted programs; otherwise a sweep regenerates them
    // without executing them.
    let traced = args.trace.then(|| traced_run(&plan, w.name()));
    let (unreached, explored, dropped) = match &plan {
        Plan::Sweep(_) => {
            let regenerated;
            let lifted = match &traced {
                Some(t) => &t.lift,
                None => {
                    regenerated = lift(&plan, false);
                    if regenerated.outputs.tests != first.tests {
                        problems.push(
                            "regenerated programs differ in number from rep 1's tests".to_owned(),
                        );
                    }
                    &regenerated
                }
            };
            (
                unreached_tests(&lifted.programs),
                lifted.explored,
                lifted.dropped,
            )
        }
        Plan::Chain(corpus) => (
            unreached_segments(corpus),
            corpus.iter().map(|p| p.segments.len()).sum(),
            0,
        ),
    };
    if let Some(t) = &traced {
        if t.lift.outputs != *first {
            problems.push("traced run outputs differ from rep 1".to_owned());
        }
        if matches!(plan, Plan::Chain(_)) && conformance_violations(&t.lift.results)? > 0 {
            problems.push("traced run violates tests/roms".to_owned());
        }
        match &t.export {
            Ok(path) => println!("trace exported to {}", path.display()),
            Err(e) => problems.push(format!("trace export failed: {e}")),
        }
    }

    // Quarantined or undispatched items are losses, not check failures:
    // a deterministic panic repeats in every repetition.
    let lost = reps.iter().map(|r| r.lost_items).max().unwrap_or(0);
    let attempted: u64 = reps.iter().map(|r| r.outputs.tests as u64).sum();
    let failed: u64 = reps.iter().map(|r| r.lost_items as u64).sum();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall.as_secs_f64()).collect();
    let ms_per_test: Vec<f64> = reps
        .iter()
        .map(|r| ratio(r.wall.as_secs_f64() * 1e3, r.outputs.tests as f64))
        .collect();
    let end_to_end = vec![
        ("ms_per_test", median(&ms_per_test)),
        ("setup_s", median(&setups)),
        ("peak_rss_mb", peak_rss),
        (
            "failed_share",
            ratio((dropped + unreached + lost) as f64, explored as f64),
        ),
    ];
    let untraced_wall = Duration::from_secs_f64(median(&walls));
    let per_layer = traced
        .as_ref()
        .map(|t| layer_metrics(t, unreached, untraced_wall));

    println!(
        "outputs: {} tests, {} raw Lo-Fi / {} raw Hi-Fi differences, {} Lo-Fi / {} Hi-Fi deviations",
        first.tests,
        first.raw_differences[0],
        first.raw_differences[1],
        first.deviation_count("lofi"),
        first.deviation_count("hifi"),
    );
    println!(
        "losses: {explored} explored, {dropped} dropped, {unreached} unreached, {lost} lost items"
    );
    for &(name, value) in end_to_end.iter().chain(per_layer.iter().flatten()) {
        print_metric(name, value);
    }
    let correct = problems.is_empty();
    if correct {
        println!(
            "check: ok ({} repetitions{} agree)",
            reps.len(),
            if traced.is_some() {
                " and the traced run"
            } else {
                ""
            }
        );
        let metrics = per_layer.as_deref().unwrap_or(&end_to_end);
        println!("{}", result_line(true, attempted, failed, metrics));
    } else {
        println!("check: FAILED: {}", problems.join("; "));
        println!("{}", result_line(false, attempted, attempted, &[]));
    }
    Ok(correct)
}
