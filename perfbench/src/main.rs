//! `clre-perfbench` — end-to-end and per-layer benchmark of the
//! CL(R)Early workspace.
//!
//! ```text
//! clre-perfbench --workload <tdse-cold|serve-mixed>
//!                --seed <n> --seconds <s> --trace <0|1> [--tamper-reference]
//! ```
//!
//! Runs closed-loop jobs of one workload for `--seconds`, checks every
//! job's front digests against a serial, uncached, in-process reference,
//! and prints, as the last stdout line, `{"correct", "attempted",
//! "failed", "metrics"}`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A line with the host and build
//! stamp precedes it. Exits non-zero when any job fails, is rejected or
//! disagrees with its reference. `--tamper-reference` corrupts the first
//! reference digest, which must make the run fail (the gate's self-test).
//! See `perfbench/LAYERS.md` for workloads, metrics and layers.

mod gate;
mod inproc;
mod layers;
mod report;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::exit;

use report::Outcome;

/// One invocation's settings.
#[derive(Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tamper: bool,
    /// Directory for server state, inside the working directory.
    pub scratch: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("clre-perfbench: {msg}");
    eprintln!(
        "usage: clre-perfbench --workload <tdse-cold|serve-mixed> \
         --seed <n> --seconds <s> --trace <0|1> [--tamper-reference]"
    );
    exit(2);
}

fn parse_args() -> Config {
    let mut args = std::env::args().skip(1);
    let mut config = Config {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tamper: false,
        scratch: PathBuf::from(".bench_run"),
    };
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--workload" => config.workload = value(),
            "--seed" => config.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                config.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
            }
            "--trace" => {
                config.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--tamper-reference" => config.tamper = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    config
}

fn main() {
    let config = parse_args();
    let start = stats::cpu_jiffies();
    let outcome: Result<Outcome, String> = match config.workload.as_str() {
        "tdse-cold" => Ok(inproc::tdse_cold(&config)),
        "serve-mixed" => serve::serve_mixed(&config),
        other => usage(&format!("unknown workload {other:?}")),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("clre-perfbench: {}: {e}", config.workload);
            exit(1);
        }
    };
    for note in &outcome.notes {
        eprintln!("clre-perfbench: {note}");
    }
    println!(
        "{}",
        stats::host_stamp(
            &config.workload,
            config.seed,
            config.seconds as u64,
            config.trace,
            start
        )
    );
    println!("{}", outcome.result_line());
    if !outcome.correct() {
        exit(1);
    }
}
