//! Thin CLI wrapper over [`navarchos_bench::baseline`]: runs the full-scale
//! measurement pass (paper fleet, 5 reps, ingest at 1 and 4 shards, snapshot
//! sampler at 1 s and 100 ms cadence, checkpoint round-trips at three fleet
//! sizes, sketch substrate, drift latency) and prints the manifest to
//! stdout; `--out PATH` also writes it to `PATH` (e.g. `--out
//! BENCH_PR10.json` from the repo root — the trajectory file is generated,
//! never hand-edited). Nothing is written unless asked. Progress lines go
//! to stderr; the committed `BENCH_PR9.json` stays as the regression
//! baseline for `check-manifest --against` (the tier-1 guard in
//! `crates/bench/tests/manifest_guard.rs` runs the same pass at smoke scale
//! against the structural `BENCH_PR3.json` floor).

use navarchos_bench::baseline::{run, BaselineScale};

const USAGE: &str = "usage: bench_baseline [--out PATH]";

/// The `--out` path, if given; `Err` on anything else.
fn parse_out(mut args: impl Iterator<Item = String>) -> Result<Option<String>, String> {
    let mut out = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(args.next().ok_or("--out needs a path")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn main() {
    let out = parse_out(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\n{USAGE}");
        std::process::exit(2);
    });
    navarchos_bench::init_obs();
    let doc = run(&BaselineScale::full(), &mut std::io::stderr());
    let rendered = doc.to_pretty_string();
    println!("{rendered}");
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("error: write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[written to {path}]");
    }
}
