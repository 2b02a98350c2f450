//! The three workloads, untraced (end-to-end metrics) and traced
//! (per-layer metrics and budget).

use std::time::Instant;

use navarchos_fleetsim::FleetData;
use navarchos_obs as obs;

use crate::checks::{check_repeat, check_table2, parse_table2, Checks};
use crate::report::{metric, Metric, Outcome};
use crate::served::{self, Replay, Served};
use crate::stats::{median, quantile, ratio};
use crate::trace::{self, Tracer};
use crate::{eval, fleet_config, fleet_slice, ns_since, RunClock, DEFAULT_SEED};

/// Vehicles in the probe fleet a traced run uses for the layers its
/// workload bypasses.
pub const PROBE_VEHICLES: usize = 4;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Share of `--seconds` a traced run spends on untraced passes (the rest
/// goes to the traced pass and the probe).
const UNTRACED_SHARE: f64 = 0.6;

/// The committed Table 2 the default seed must reproduce, relative to the
/// checkout root.
pub const TABLE2_PATH: &str = "results/table2_best_configuration.txt";

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Optional NDJSON span output of the traced pass.
    pub spans_out: Option<std::path::PathBuf>,
}

/// Repeats the workload's set-up [`SETUPS`] times, keeping the last;
/// returns it with the median set-up and fleet-generation seconds. Each
/// earlier set-up is dropped before the next starts, so peak memory holds
/// one.
fn setup_n<T>(mut build: impl FnMut() -> (T, f64)) -> (T, f64, f64) {
    let (mut setup, mut gen) = (Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        let (value, gen_s) = build();
        setup.push(ns_since(t) as f64 * 1e-9);
        gen.push(gen_s);
        kept = Some(value);
    }
    (kept.expect("at least one set-up ran"), median(&setup), median(&gen))
}

fn generate(seed: u64) -> (FleetData, f64) {
    let t = Instant::now();
    let fleet = fleet_config(seed).generate();
    (fleet, ns_since(t) as f64 * 1e-9)
}

fn setup_served(replay: Replay, st: &Settings) -> (Served, f64, f64) {
    setup_n(|| {
        let (fleet, gen) = generate(st.seed);
        (Served::new(replay, fleet, st.seed), gen)
    })
}

fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 * 1e-6).collect()
}

// ---------------------------------------------------------------------------
// Untraced runs
// ---------------------------------------------------------------------------

/// `replay_clean` / `replay_dirty`, untraced, program metrics on.
pub fn served_e2e(replay: Replay, st: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let (s, setup_s, gen_s) = setup_served(replay, st);
    let oracle = s.oracle();
    let records = s.records() as f64;
    obs::set_metrics_enabled(true);
    let mut r = Series::default();
    let mut ckpt_ms = Vec::new();
    let mut last = None;
    let mut clock = RunClock::new(st.seconds);
    while clock.another() {
        drop(last.take());
        let p = served::run_pass(&s, false, &mut out.checks);
        served::check_pass(&s, &p, &oracle, &mut out.checks, "untraced pass");
        r.passes.push(records / (p.wall_ns as f64 * 1e-9));
        r.windows.extend_from_slice(&p.window_rps);
        r.batches.extend(ms(&p.batch_ns));
        r.cpu.push(p.cpu_ns as f64 / records);
        ckpt_ms.extend(ms(&p.checkpoint_write_ns));
        last = Some(p);
        clock.lap();
    }
    obs::set_metrics_enabled(false);
    let p = last.expect("at least one pass ran");
    out.lines.push(format!(
        "{} passes of {} items ({} records, {} shard(s)), {} windows of {} items",
        r.passes.len(),
        s.stream.len(),
        records,
        s.cfg.n_shards,
        r.windows.len(),
        served::WINDOW
    ));
    out.lines.push(format!(
        "records/s per pass {:?}; set-up {setup_s:.3} s (fleet generation {gen_s:.3} s)",
        r.passes.iter().map(|x| x.round()).collect::<Vec<_>>()
    ));
    out.lines.push(format!(
        "batch latency over {} calls ({} beyond p99)",
        r.batches.len(),
        r.batches.len() / 100
    ));
    let stats = p.stats;
    let offered = (stats.records + stats.maintenance) as f64;
    if replay == Replay::Dirty {
        out.lines.push(format!(
            "checkpoints per pass {}, write p50 {:.2} ms, restore {:.2} ms; reordered {:.3}, \
             duplicates {:.3} of offered",
            p.checkpoint_write_ns.len(),
            median(&ckpt_ms),
            p.restore_ns as f64 * 1e-6,
            ratio(stats.reordered as f64, offered),
            ratio(stats.duplicates as f64, offered)
        ));
        out.reported.push(metric("checkpoint_mb", p.checkpoint_bytes as f64 / 1e6, "MB"));
    }
    e2e_metrics(&mut out, &r, setup_s);
    out
}

/// Per-pass series of one untraced run.
#[derive(Debug, Default)]
struct Series {
    /// Records/s of each whole pass.
    passes: Vec<f64>,
    /// Records/s of each throughput window (served workloads).
    windows: Vec<f64>,
    /// Wall ms of each blocking call: `ingest_batch`, or one evaluation
    /// (four cells and their sweeps).
    batches: Vec<f64>,
    /// Process CPU ns per record of each pass.
    cpu: Vec<f64>,
}

/// Fills the run's metrics. The bounded ones go to the result line; the
/// wall-clock ones are printed only, because on a shared host they swing
/// with co-tenant load by more than any bound the contract allows (see
/// `NOTES.md`).
fn e2e_metrics(out: &mut Outcome, r: &Series, setup_s: f64) {
    let rate = if r.windows.is_empty() { median(&r.passes) } else { median(&r.windows) };
    out.reported.extend([
        metric("records_per_s", rate, "records/s"),
        metric("batch_p50_ms", median(&r.batches), "ms"),
        metric("batch_p99_ms", quantile(&r.batches, 0.99), "ms"),
    ]);
    out.metrics = vec![
        metric("cpu_ns_per_record", median(&r.cpu), "ns/record"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", crate::host::peak_rss_mb(), "MB"),
    ];
}

/// Loads the committed Table 2 row, counting a missing or unreadable file
/// as a failed check.
fn table2_row(checks: &mut Checks) -> Option<crate::checks::Table2Row> {
    let row = std::fs::read_to_string(TABLE2_PATH).ok().and_then(|t| parse_table2(&t));
    if row.is_none() {
        checks.check(false, || format!("{TABLE2_PATH}: missing or unparsable"));
    }
    row
}

/// Checks one evaluation pass: identical sweeps on every repetition, and
/// the Table 2 row on the default seed.
fn check_eval(
    st: &Settings,
    p: &eval::Pass,
    first: &mut Option<Vec<(f64, navarchos_core::EvalCounts)>>,
    expected: Option<&crate::checks::Table2Row>,
    checks: &mut Checks,
) {
    match first {
        Some(f) => check_repeat(checks, f, &p.sweeps),
        None => *first = Some(p.sweeps.clone()),
    }
    if let (true, Some(row), Some((factor, counts))) =
        (st.seed == DEFAULT_SEED, expected, p.sweeps.get(eval::TABLE2_SWEEP))
    {
        check_table2(checks, *factor, counts, row);
    }
}

/// `paper_eval`, untraced, program metrics off.
pub fn eval_e2e(st: &Settings) -> Outcome {
    let mut out = Outcome::default();
    obs::set_metrics_enabled(false);
    let (fleet, setup_s, _) = setup_n(|| generate(st.seed));
    let subsets = eval::subsets(&fleet);
    let expected = if st.seed == DEFAULT_SEED { table2_row(&mut out.checks) } else { None };
    let records = (fleet.total_records() * eval::TRANSFORMS.len()) as f64;
    let mut r = Series::default();
    let mut cells = Vec::new();
    let mut first = None;
    let mut clock = RunClock::new(st.seconds);
    while clock.another() {
        let cpu0 = crate::host::process_cpu_ns();
        let p = eval::run_pass(&fleet, &subsets, false);
        r.cpu.push(crate::host::process_cpu_ns().saturating_sub(cpu0) as f64 / records);
        check_eval(st, &p, &mut first, expected.as_ref(), &mut out.checks);
        r.passes.push(records / (p.wall_ns as f64 * 1e-9));
        r.batches.push(p.wall_ns as f64 * 1e-6);
        cells.extend(ms(&p.cell_ns));
        clock.lap();
    }
    out.lines.push(format!(
        "{} passes of 4 cells over {} records; records/s per pass {:?}",
        r.passes.len(),
        fleet.total_records(),
        r.passes.iter().map(|x| x.round()).collect::<Vec<_>>()
    ));
    out.lines.push(format!(
        "evaluation latency over {} passes: p50 {:.1} ms; per cell over {} cells: p50 {:.1} ms, \
         max {:.1} ms",
        r.batches.len(),
        median(&r.batches),
        cells.len(),
        median(&cells),
        quantile(&cells, 1.0)
    ));
    if let Some((factor, c)) = first.as_ref().and_then(|f| f.get(eval::TABLE2_SWEEP)) {
        out.lines.push(format!(
            "correlation x Closest-pair setting26/PH30: factor {factor}, F0.5 {:.2}, P {:.2}, R {:.2}",
            c.f05(),
            c.precision(),
            c.recall()
        ));
    }
    e2e_metrics(&mut out, &r, setup_s);
    out
}

// ---------------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------------

/// Traced passes per traced run; per-layer metrics are their medians.
const TRACED_PASSES: usize = 3;

fn budget_line(label: &str, value: f64, unit: &str) -> String {
    format!("  {label:<58} {value:>12.1} {unit}")
}

/// Medians, metric by metric, of readings that list the same metrics in
/// the same order.
fn median_metrics(readings: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = readings.first() else { return Vec::new() };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = readings.iter().map(|r| r[i].value).collect();
            Metric { value: median(&values), ..m.clone() }
        })
        .collect()
}

/// The served budget's layers: label and the span kinds whose self time
/// each one sums.
const SERVED_LAYERS: [(&str, &[usize]); 8] = [
    ("ingest::engine (route, lane lookup, validate: composition)", &[trace::ENGINE]),
    ("ingest::quality (QualityMonitor::observe)", &[trace::QUALITY]),
    (
        "ingest::reorder (ReorderBuffer::push/flush_into)",
        &[trace::REORDER_PUSH, trace::REORDER_FLUSH],
    ),
    (
        "core::pipeline (phase dispatch, profile, alarm build)",
        &[trace::PIPELINE_RECORD, trace::PIPELINE_EVENT],
    ),
    ("tsframe::filter (FilterSpec::keep_row)", &[trace::FILTER]),
    ("tsframe::transform (Transform::push_into)", &[trace::TRANSFORM]),
    ("core::detectors (Detector::fit/score)", &[trace::DETECTOR_FIT, trace::DETECTOR_SCORE]),
    ("core::threshold (SelfTuningThreshold)", &[trace::THRESHOLD]),
];

/// Readings of one traced served pass: the budget's layer self times (ns
/// per item), then the per-layer metrics.
fn served_readings(u: &served::UntracedSummary, t: &served::Traced) -> Vec<Metric> {
    let c = t.counts;
    let items = c.items as f64;
    let a = |k: usize| t.tracer.agg(k);
    let per = |k: usize| ratio(a(k).total_ns as f64, a(k).count as f64);
    let mut out: Vec<Metric> = SERVED_LAYERS
        .iter()
        .map(|(label, ks)| {
            let ns: u64 = ks.iter().map(|&k| a(k).self_ns).sum();
            metric(label, ns as f64 / items, "ns/item")
        })
        .collect();
    let sum: f64 = out.iter().map(|m| m.value).sum();
    let e = u.engine_ns_per_item;
    let traced_rps = c.records as f64 / (t.wall_ns as f64 * 1e-9);
    let covered = [
        trace::QUALITY,
        trace::REORDER_PUSH,
        trace::REORDER_FLUSH,
        trace::PIPELINE_RECORD,
        trace::PIPELINE_EVENT,
    ]
    .iter()
    .map(|&k| a(k).total_ns as f64)
    .sum::<f64>()
        / items;
    let st = u.pass.stats;
    let offered = (st.records + st.maintenance) as f64;
    let shards = &u.pass.shard_records;
    let shard_mean = shards.iter().sum::<u64>() as f64 / shards.len().max(1) as f64;
    let shard_max = shards.iter().copied().max().unwrap_or(0) as f64;
    out.extend([
        metric("traced.ns_per_item", t.wall_ns as f64 / items, "ns/item"),
        metric("traced.records_per_s", traced_rps, "records/s"),
        metric("engine.records_per_s", u.records_per_s_on, "records/s"),
        metric("engine.batch_p50_ms", u.batch_p50_ms, "ms"),
        metric("engine.ns_per_item", e, "ns/item"),
        metric("engine.cpu_ns_per_item", u.engine_cpu_ns_per_item, "ns/item"),
        metric("engine.batch_p99_ms", u.batch_p99_ms, "ms"),
        metric("engine.self_ns_per_item", e - covered, "ns/item"),
        metric("engine.shard_skew", ratio(shard_max, shard_mean), "ratio"),
        metric("engine.dead_letter_ratio", ratio(st.dead_letter as f64, offered), "share"),
        metric("engine.late_dropped", st.late_dropped as f64, "count"),
        metric("engine.duplicate_ratio", ratio(st.duplicates as f64, offered), "share"),
        metric("reorder.ns_per_push", per(trace::REORDER_PUSH), "ns/push"),
        metric("reorder.reordered_ratio", ratio(st.reordered as f64, offered), "share"),
        metric("reorder.peak_depth", st.peak_queue_depth as f64, "items"),
        metric("reorder.forced_releases", st.forced_releases as f64, "count"),
        metric("quality.ns_per_record", per(trace::QUALITY), "ns/record"),
        metric(
            "quality.flagged_ratio",
            ratio(st.quality_flagged as f64, st.records as f64),
            "share",
        ),
        metric("pipeline.ns_per_record", per(trace::PIPELINE_RECORD), "ns/record"),
        metric(
            "pipeline.self_ns_per_emission",
            ratio(a(trace::PIPELINE_RECORD).self_ns as f64, c.emissions as f64),
            "ns/emission",
        ),
        metric("pipeline.alarms_per_emission", ratio(c.alarms as f64, c.emissions as f64), "ratio"),
        metric("pipeline.refits", c.fits as f64, "count"),
        metric("filter.ns_per_record", per(trace::FILTER), "ns/record"),
        metric("filter.kept_ratio", ratio(c.kept as f64, a(trace::FILTER).count as f64), "share"),
        metric("transform.ns_per_record", per(trace::TRANSFORM), "ns/record"),
        metric("transform.emission_ratio", ratio(c.emissions as f64, c.kept as f64), "share"),
        metric("detector.ns_per_score", per(trace::DETECTOR_SCORE), "ns/score"),
        metric("detector.ns_per_fit", per(trace::DETECTOR_FIT), "ns/fit"),
        metric("detector.fits", c.fits as f64, "count"),
        metric(
            "threshold.ns_per_emission",
            ratio(a(trace::THRESHOLD).total_ns as f64, c.scores as f64),
            "ns/emission",
        ),
        metric("checkpoint.write_ms_p50", median(&ms(&u.pass.checkpoint_write_ns)), "ms"),
        metric("checkpoint.restore_ms", u.pass.restore_ns as f64 * 1e-6, "ms"),
        metric("checkpoint.engine_bytes", u.pass.checkpoint_engine_bytes as f64, "bytes"),
        metric(
            "checkpoint.ledger_bytes",
            u.pass.checkpoint_bytes.saturating_sub(u.pass.checkpoint_engine_bytes) as f64,
            "bytes",
        ),
        metric(
            "obs.overhead_pct",
            (ratio(u.records_per_s_off, u.records_per_s_on) - 1.0) * 100.0,
            "%",
        ),
        metric(
            "trace.served_overhead_pct",
            (ratio(u.records_per_s_on, traced_rps) - 1.0) * 100.0,
            "%",
        ),
        metric("budget.served_unattributed_share", ratio(e - sum, e), "share"),
    ]);
    out
}

/// Per-layer metrics of the served path over `s`: untraced engine passes
/// (metrics on and off) for the engine-level readings, then
/// [`TRACED_PASSES`] traced compositions for the layer spans. Prints the
/// budget into `lines`.
fn served_layers(
    s: &Served,
    seconds: f64,
    tag: &str,
    checks: &mut Checks,
    lines: &mut Vec<String>,
    spans: &mut Vec<(String, Tracer)>,
) -> Vec<Metric> {
    let oracle = s.oracle();
    let u = served::untraced_on_off(s, &oracle, seconds, checks);
    obs::set_metrics_enabled(false);
    let mut readings = Vec::new();
    for _ in 0..TRACED_PASSES {
        let t = served::traced_pass(s, &oracle, 64, checks);
        readings.push(served_readings(&u, &t));
        if readings.len() == 1 {
            spans.push((format!("served{tag}"), t.tracer));
        }
    }
    let mut m = median_metrics(&readings);
    let budget: Vec<Metric> = m.drain(..SERVED_LAYERS.len()).collect();
    let value =
        |m: &[Metric], name: &str| m.iter().find(|x| x.name == name).map_or(0.0, |x| x.value);
    lines.push(format!(
        "budget, served path{tag} ({} items, {} shard(s)): self ns per stream item, median of {} \
         traced compositions on one thread",
        s.stream.len(),
        s.cfg.n_shards,
        TRACED_PASSES
    ));
    for b in &budget {
        lines.push(budget_line(&b.name, b.value, "ns/item"));
    }
    let sum: f64 = budget.iter().map(|b| b.value).sum();
    let e = value(&m, "engine.ns_per_item");
    let cpu = value(&m, "engine.cpu_ns_per_item");
    for (label, v) in [
        ("sum of layer self times", sum),
        ("traced loop outside any span", value(&m, "traced.ns_per_item") - sum),
        ("engine.ns_per_item (untraced engine, wall)", e),
        ("unattributed remainder (engine - layer sum)", e - sum),
        ("engine CPU ns per item (untraced, all threads)", cpu),
        ("remainder against engine CPU", cpu - sum),
    ] {
        lines.push(budget_line(label, v, "ns/item"));
    }
    lines.push(format!(
        "  records/s untraced (metrics on) {:.0}, metrics off {:.0}, traced {:.0}",
        u.records_per_s_on,
        u.records_per_s_off,
        value(&m, "traced.records_per_s")
    ));
    m.retain(|x| !x.name.starts_with("traced."));
    m
}

/// Readings of one traced evaluation pass against the untraced median
/// wall: the budget's parts (ms per pass), then the per-layer metrics.
fn eval_readings(fleet: &FleetData, wall: f64, t: &eval::Traced) -> Vec<Metric> {
    let tr = &t.tracer;
    let workers = t.workers as f64;
    let busy: f64 = t.runner_busy_ns.iter().sum::<u64>() as f64;
    let par_wall = t.par_wall_ns as f64;
    let sweeps = tr.agg(trace::EVAL_SWEEP);
    let parts = [
        (
            "core::runner busy / workers (run_vehicle: transform, detector, threshold; \
             no public entry point splits them)",
            busy / workers,
        ),
        ("core::par idle (fan-out wall - busy / workers)", par_wall - busy / workers),
        ("core::evaluation (GridOutcome::evaluate sweeps)", sweeps.total_ns as f64),
        ("eval cell glue (outside fan-out and sweeps)", tr.agg(trace::EVAL_CELL).self_ns as f64),
    ];
    let sum: f64 = parts.iter().map(|p| p.1).sum();
    let mut out: Vec<Metric> =
        parts.iter().map(|(label, ns)| metric(label, ns * 1e-6, "ms")).collect();
    out.push(metric("traced.wall_ms", t.wall_ns as f64 * 1e-6, "ms"));
    let records = fleet.total_records() as f64;
    out.extend(eval::TRANSFORMS.iter().zip(t.runner_busy_ns).map(|(&tk, b)| {
        metric(
            &format!("runner.ns_per_record.{}", eval::label(tk)),
            b as f64 / records,
            "ns/record",
        )
    }));
    out.extend([
        metric(
            "evaluation.ms_per_sweep",
            ratio(sweeps.total_ns as f64, sweeps.count as f64) * 1e-6,
            "ms",
        ),
        metric(
            "evaluation.records_per_s",
            records * eval::TRANSFORMS.len() as f64 / (wall * 1e-9),
            "records/s",
        ),
        metric("par.idle_share", 1.0 - ratio(busy, workers * par_wall), "share"),
        metric("par.task_max_over_mean", t.task_max_over_mean, "ratio"),
        metric("trace.eval_overhead_pct", (ratio(t.wall_ns as f64, wall) - 1.0) * 100.0, "%"),
        metric("budget.eval_unattributed_share", ratio(wall - sum, wall), "share"),
    ]);
    out
}

/// Per-layer metrics of the evaluation path over `fleet`: untraced passes
/// for the wall, each followed by a traced pass (at least
/// [`TRACED_PASSES`]). Prints the budget into `lines`.
fn eval_layers(
    fleet: &FleetData,
    seconds: f64,
    tag: &str,
    checks: &mut Checks,
    lines: &mut Vec<String>,
    spans: &mut Vec<(String, Tracer)>,
) -> Vec<Metric> {
    obs::set_metrics_enabled(false);
    let subsets = eval::subsets(fleet);
    let mut walls = Vec::new();
    let mut first: Option<Vec<(f64, navarchos_core::EvalCounts)>> = None;
    let mut reference: Vec<Vec<u64>> = Vec::new();
    let mut traced = Vec::new();
    // Untraced and traced passes alternate, so host drift over the run
    // moves both sides of the budget alike.
    let mut clock = RunClock::new(seconds);
    while clock.another() || traced.len() < TRACED_PASSES {
        let p = eval::run_pass(fleet, &subsets, reference.is_empty());
        walls.push(p.wall_ns as f64);
        match &first {
            Some(f) => check_repeat(checks, f, &p.sweeps),
            None => first = Some(p.sweeps.clone()),
        }
        if reference.is_empty() {
            reference = p.digests;
        }
        traced.push(eval::traced_pass(fleet, &subsets, &reference, checks));
        clock.lap();
    }
    let wall = median(&walls);
    let readings: Vec<Vec<Metric>> = traced.iter().map(|t| eval_readings(fleet, wall, t)).collect();
    let workers = traced.first().map_or(0, |t| t.workers);
    if let Some(t) = traced.into_iter().next() {
        spans.push((format!("eval{tag}"), t.tracer));
    }
    let mut m = median_metrics(&readings);
    let budget: Vec<Metric> = m.drain(..4).collect();
    lines.push(format!(
        "budget, evaluation path{tag} ({} vehicles, {workers} workers): ms per pass of 4 cells, \
         median of {} traced passes alternating with untraced ones",
        fleet.vehicles.len(),
        readings.len()
    ));
    for b in &budget {
        lines.push(budget_line(&b.name, b.value, "ms"));
    }
    let sum: f64 = budget.iter().map(|b| b.value).sum();
    let traced = m.remove(0).value;
    for (label, v) in [
        ("sum of parts", sum),
        ("workload wall (untraced median)", wall * 1e-6),
        ("unattributed remainder (wall - sum)", wall * 1e-6 - sum),
        ("traced wall", traced),
    ] {
        lines.push(budget_line(label, v, "ms"));
    }
    m
}

fn write_spans(path: &std::path::Path, spans: &[(String, Tracer)]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (pass, tr) in spans {
        tr.write_ndjson(&mut f, pass)?;
    }
    std::io::Write::flush(&mut f)
}

/// A traced run: the workload's own layers at full size, the layers it
/// bypasses on the first [`PROBE_VEHICLES`] vehicles of its fleet.
pub fn traced(workload: &str, st: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Vec::new();
    let probe = format!(" (probe: first {PROBE_VEHICLES} vehicles)");
    let (generate_s, fleet_for_probe, mut metrics) = match workload {
        "paper_eval" => {
            let (fleet, _, gen_s) = setup_n(|| generate(st.seed));
            let m = eval_layers(
                &fleet,
                st.seconds * UNTRACED_SHARE,
                "",
                &mut out.checks,
                &mut out.lines,
                &mut spans,
            );
            (gen_s, fleet, m)
        }
        _ => {
            let replay = if workload == "replay_dirty" { Replay::Dirty } else { Replay::Clean };
            let (s, _, gen_s) = setup_served(replay, st);
            let m = served_layers(
                &s,
                st.seconds * UNTRACED_SHARE,
                "",
                &mut out.checks,
                &mut out.lines,
                &mut spans,
            );
            (gen_s, s.fleet, m)
        }
    };
    let slice = fleet_slice(&fleet_for_probe, PROBE_VEHICLES);
    drop(fleet_for_probe);
    if workload == "paper_eval" {
        let s = Served::new(Replay::Clean, slice, st.seed);
        metrics.extend(served_layers(&s, 0.0, &probe, &mut out.checks, &mut out.lines, &mut spans));
    } else {
        metrics.extend(eval_layers(
            &slice,
            0.0,
            &probe,
            &mut out.checks,
            &mut out.lines,
            &mut spans,
        ));
    }
    metrics.push(metric("fleetsim.generate_s", generate_s, "s"));
    if let Some(path) = &st.spans_out {
        if let Err(e) = write_spans(path, &spans) {
            out.checks.check(false, || format!("writing spans to {}: {e}", path.display()));
        }
    }
    out.metrics = metrics;
    out
}
