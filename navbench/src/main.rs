//! `navbench` command line. See `NOTES.md` and `BENCHMARK.json`.
//!
//! ```text
//! navbench --workload replay_clean|replay_dirty|paper_eval
//!          [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--spans-out FILE]
//! ```
//!
//! Prints a report, then one JSON result line as the last line of
//! standard output. Writes files only where `--out` and `--spans-out`
//! say.

use std::collections::BTreeMap;
use std::process::ExitCode;

use navbench::report::{metric_lines, result_document, result_line};
use navbench::workloads::{self, Settings};
use navbench::{host, served::Replay, DEFAULT_SEED};

const WORKLOADS: [&str; 3] = ["replay_clean", "replay_dirty", "paper_eval"];

fn parse(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    for name in flags.keys() {
        if !["workload", "seed", "seconds", "trace", "out", "spans-out"].contains(&name.as_str()) {
            return Err(format!("unknown flag --{name}"));
        }
    }
    Ok(flags)
}

fn num<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    flags
        .get(name)
        .map_or(Ok(default), |v| v.parse().map_err(|_| format!("--{name}: bad value {v}")))
}

fn run(args: &[String]) -> Result<(), String> {
    let flags = parse(args)?;
    let workload = flags.get("workload").ok_or("--workload is required")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    let trace: u8 = num(&flags, "trace", 0)?;
    if trace > 1 {
        return Err("--trace must be 0 or 1".into());
    }
    let st = Settings {
        seed: num(&flags, "seed", DEFAULT_SEED)?,
        seconds: num(&flags, "seconds", 10.0f64)?,
        spans_out: flags.get("spans-out").map(Into::into),
    };
    let host = host::fingerprint();
    println!(
        "navbench {workload} seed {} seconds {} trace {trace} | nproc {} | {} | kernel {} | {} | git {}{}",
        st.seed,
        st.seconds,
        host.nproc,
        host.cpu_model,
        host.kernel,
        host.rustc,
        host.git_rev,
        match host.git_dirty {
            Some(true) => " (dirty)",
            Some(false) => "",
            None => " (dirty flag unknown)",
        }
    );
    let outcome = match (trace, workload.as_str()) {
        (1, w) => workloads::traced(w, &st),
        (_, "paper_eval") => workloads::eval_e2e(&st),
        (_, "replay_dirty") => workloads::served_e2e(Replay::Dirty, &st),
        _ => workloads::served_e2e(Replay::Clean, &st),
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    if !outcome.reported.is_empty() {
        println!("reported, not bounded:");
        for line in metric_lines(&outcome.reported) {
            println!("{line}");
        }
        println!("result metrics:");
    }
    for line in metric_lines(&outcome.metrics) {
        println!("{line}");
    }
    println!(
        "checks: {} attempted, {} failed, error_rate {}",
        outcome.checks.attempted,
        outcome.checks.failed,
        outcome.checks.error_rate()
    );
    for f in &outcome.checks.failures {
        println!("  FAILED: {f}");
    }
    if let Some(path) = flags.get("out") {
        let run = [
            ("workload", workload.clone()),
            ("seed", st.seed.to_string()),
            ("seconds", st.seconds.to_string()),
            ("trace", trace.to_string()),
        ];
        std::fs::write(path, result_document(&outcome, &host, &run))
            .map_err(|e| format!("--out {path}: {e}"))?;
    }
    println!("{}", result_line(&outcome));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("navbench: {e}");
            ExitCode::from(2)
        }
    }
}
