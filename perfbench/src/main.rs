//! perfbench — end-to-end and per-layer benchmark of the power-aware
//! scheduling workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds` seconds and prints
//! human-readable lines, then one JSON result line. With `--trace 0`
//! the result carries the end-to-end metrics, measured untraced; with
//! `--trace 1` it carries the per-layer metrics of a traced run, and the
//! spans are written to `<target dir>/perfbench-traces/`. The exit code
//! is non-zero when any output fails its correctness check.
//!
//! An untraced run measures in child processes of this program (see
//! `parts.rs`), which it starts with `--part <k>/<n>`.

mod offline;
mod parts;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["spike_heavy", "generated_500", "pmax_sweep", "serve_mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// `(k, n)`: run as child `k` of `n`.
    part: Option<(usize, usize)>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut part) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s >= 1)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--part" => {
                part = value
                    .split_once('/')
                    .and_then(|(k, n)| Some((k.parse().ok()?, n.parse().ok()?)))
                    .filter(|&(k, n): &(usize, usize)| k < n)
                    .map(Some)
                    .ok_or_else(|| format!("bad part {value:?}"))?
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        part,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let offline = match args.workload.as_str() {
        "spike_heavy" => Some(&offline::SPIKE_HEAVY),
        "generated_500" => Some(&offline::GENERATED_500),
        "pmax_sweep" => Some(&offline::PMAX_SWEEP),
        _ => None,
    };
    if let Some((k, n)) = args.part {
        match offline {
            Some(w) => offline::measure_part(w, args.seed, args.seconds, k, n),
            None => serve::measure_part(args.seed, args.seconds, k, n),
        }
        return ExitCode::SUCCESS;
    }
    let report = if args.trace {
        match offline {
            Some(w) => offline::run_traced(w, args.seed, args.seconds),
            None => serve::run_traced(args.seed, args.seconds),
        }
    } else {
        let parts = match parts::run(&args.workload, args.seed, args.seconds) {
            Ok(parts) => parts,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        match offline {
            Some(w) => offline::aggregate(w, args.seed, &parts),
            None => serve::aggregate(args.seed, &parts),
        }
    };
    if let Some(tracer) = &report.spans {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        let path = dir
            .join("perfbench-traces")
            .join(format!("{}-seed{}.jsonl", report.workload, report.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if report.print() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
