//! `pokemu-fleet` — crash-safe sharded exploration fleet (DESIGN.md §12).
//!
//! ```text
//! pokemu-fleet run [--run-id ID] [--root DIR] [--shards N]
//!                  [--first-byte B] [--second-byte B] [--max-paths N]
//!                  [--max-attempts N] [--backoff-ms MS] [--seed N]
//!                  [--heartbeat-ms MS] [--stale-ms MS] [--no-incremental]
//! pokemu-fleet worker --shard N --shards M --root DIR ...   (internal)
//! ```
//!
//! `run` partitions the instruction space into `--shards` worker processes
//! (re-invoking this binary with `worker`), watches their heartbeats,
//! retries failed shards with deterministic backoff, demotes shards that
//! exhaust their attempts to `poisoned`, and merges the per-shard manifests
//! into `<root>/merged.json`. Exit code 0 even with poisoned shards (they
//! are attributed, and the `pokemu-report diff` gate fails on growth),
//! 1 on coordinator I/O errors, 2 on bad arguments.

use std::process::ExitCode;
use std::time::Duration;

use pokemu::harness::fleet::{self, FleetConfig, ShardStatus};

/// CLI failure with its exit code carried explicitly, so `main` never has
/// to classify errors by sniffing the message text.
enum CliError {
    /// Bad arguments — exit 2.
    Usage(String),
    /// The fleet run itself failed — exit 1.
    Run(String),
}

fn parse_byte(s: &str) -> Result<u8, String> {
    let (digits, radix) = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => (hex, 16),
        None => (s, 10),
    };
    u8::from_str_radix(digits, radix).map_err(|e| format!("bad byte {s:?}: {e}"))
}

fn parse_run_args(args: &[String]) -> Result<FleetConfig, String> {
    let mut config = FleetConfig {
        run_id: "fleet".to_owned(),
        ..FleetConfig::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--run-id" => config.run_id = val("--run-id")?,
            "--root" => config.root = Some(val("--root")?.into()),
            "--shards" => {
                config.shards = val("--shards")?.parse().map_err(|e| format!("{e}"))?;
                if config.shards == 0 {
                    return Err("--shards must be >= 1".to_owned());
                }
            }
            "--first-byte" => config.first_byte = Some(parse_byte(&val("--first-byte")?)?),
            "--second-byte" => config.second_byte = Some(parse_byte(&val("--second-byte")?)?),
            "--max-paths" => {
                config.max_paths_per_insn =
                    val("--max-paths")?.parse().map_err(|e| format!("{e}"))?
            }
            "--max-attempts" => {
                config.max_attempts = val("--max-attempts")?.parse().map_err(|e| format!("{e}"))?
            }
            "--backoff-ms" => {
                config.backoff_base =
                    Duration::from_millis(val("--backoff-ms")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--seed" => config.backoff_seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--heartbeat-ms" => {
                config.heartbeat_interval = Duration::from_millis(
                    val("--heartbeat-ms")?.parse().map_err(|e| format!("{e}"))?,
                )
            }
            "--stale-ms" => {
                config.heartbeat_stale =
                    Duration::from_millis(val("--stale-ms")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--no-incremental" => config.incremental = false,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(config)
}

fn run(args: &[String]) -> Result<(), CliError> {
    let config = parse_run_args(args).map_err(CliError::Usage)?;
    let outcome =
        fleet::run_fleet(&config).map_err(|e| CliError::Run(format!("fleet run failed: {e}")))?;
    println!(
        "fleet run {} -> {}",
        outcome.run_id,
        outcome.merged_path.display()
    );
    for s in &outcome.shards {
        match &s.status {
            ShardStatus::Completed => {
                println!("  {}: completed (attempts {})", s.name, s.attempts)
            }
            ShardStatus::Reused => println!("  {}: reused (unchanged)", s.name),
            ShardStatus::Poisoned(reason) => {
                println!(
                    "  {}: POISONED after {} attempt(s): {reason}",
                    s.name, s.attempts
                )
            }
        }
    }
    println!(
        "  merged: {} instruction(s), {} path(s), {} deviation(s), {} reused, {} poisoned",
        outcome.unique_instructions,
        outcome.total_paths,
        outcome.deviations,
        outcome.reused,
        outcome.poisoned.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("worker") => ExitCode::from(fleet::worker_main(&args[1..]) as u8),
        Some("run") => match run(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(CliError::Run(e)) => {
                eprintln!("pokemu-fleet: {e}");
                ExitCode::from(1)
            }
            Err(CliError::Usage(e)) => {
                eprintln!("pokemu-fleet: {e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("usage: pokemu-fleet <run|worker> [flags] (see --help in source header)");
            ExitCode::from(2)
        }
    }
}
