//! `strom-simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! one JSON object: `correct`, `attempted`, `failed`, and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Progress notes go to standard error.

use std::process::ExitCode;

use strom_simbench::{run_traced, run_untraced, Options, Workload};

/// The seed used when `--seed` is omitted.
const DEFAULT_SEED: u64 = 1;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "error: {msg}\nusage: strom-simbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::BulkWrite,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        scale: 1.0,
        corrupt: false,
    };
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Workload::from_name(value);
                workload.is_some()
            }
            "--seed" => parse_seed(value).map(|s| opts.seed = s).is_some(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s >= 0.0)
                .map(|s| opts.seconds = s)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(w) = workload else {
        return usage("--workload is required");
    };
    opts.workload = w;
    let report = if trace {
        run_traced(&opts)
    } else {
        run_untraced(&opts)
    };
    eprintln!(
        "{}: failed_share {} ({}/{})",
        w.name(),
        report.failed_share(),
        report.failed,
        report.attempted
    );
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
