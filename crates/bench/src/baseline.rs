//! The `bench_baseline` measurement pass as a library: the PR 2→PR 4
//! transform/scoring/observability benchmark plus (PR 5) the sharded
//! ingest throughput section, parameterised by scale so the same code
//! backs both the full benchmark binary (paper fleet, `BENCH_PR5.json`)
//! and the tier-1 manifest regression guard (`tests/manifest_guard.rs`,
//! small fleet, seconds not minutes).
//!
//! "Before" is the pre-rewrite correlation algorithm kept here verbatim:
//! per-signal ring buffers plus a full O(window · f²) recompute
//! (differences, means, Pearson sums) on every emission. "After" is the
//! shipping [`CorrelationTransform`] running on the incremental
//! condensed-pair kernels. Both stream the same fleet and their outputs
//! are cross-checked to ≤ 1e-9 before any timing is reported. See the
//! module history in `BENCH_PR2.json`..`BENCH_PR4.json`; progress lines go
//! to a caller-supplied writer (the workspace's library code never
//! prints).

use std::io::Write;
use std::time::Instant;

use navarchos_core::detectors::DetectorKind;
use navarchos_core::ResetPolicy;
use navarchos_fleetsim::FleetConfig;
use navarchos_ingest::{IngestConfig, ShardedIngest};
use navarchos_obs as obs;
use navarchos_stat::correlation::CorrelationPairs;
use navarchos_tsframe::transform::navarchos_corr_floors;
use navarchos_tsframe::{CorrelationTransform, FilterSpec, Frame, Transform, TransformKind};

use crate::grid::{fleet_scores, Cell};

const WINDOW: usize = 45;
const STRIDE: usize = 3;

/// How big a pass to run.
#[derive(Debug, Clone)]
pub struct BaselineScale {
    /// Label recorded in the manifest config.
    pub label: &'static str,
    /// The fleet to stream.
    pub fleet: FleetConfig,
    /// Timing repetitions per transform variant.
    pub reps: usize,
    /// Shard counts for the ingest throughput section (each gets its own
    /// stage + metrics).
    pub ingest_shards: Vec<usize>,
}

impl BaselineScale {
    /// The committed-trajectory scale: the paper fleet, 5 timing reps —
    /// what `cargo run -p navarchos-bench --bin bench_baseline` publishes
    /// as `BENCH_PR5.json`.
    pub fn full() -> Self {
        BaselineScale {
            label: "full",
            fleet: FleetConfig::navarchos(),
            reps: 5,
            ingest_shards: vec![1, 4],
        }
    }

    /// The tier-1 guard scale: the small fleet, one rep. Produces a
    /// manifest with the same stage/counter/histogram/metric *keys* as
    /// the full pass (numbers differ, structure must not), in seconds.
    pub fn smoke() -> Self {
        BaselineScale {
            label: "smoke",
            fleet: FleetConfig::small(42),
            reps: 1,
            ingest_shards: vec![1, 2],
        }
    }
}

/// The pre-rewrite correlation transformation, preserved as the timing
/// baseline. Semantics are identical to [`CorrelationTransform`] with
/// differencing and floors enabled; only the cost model differs.
struct BatchCorrelation {
    pairs: CorrelationPairs,
    window: usize,
    stride: usize,
    max_gap: i64,
    last_t: Option<i64>,
    cols: Vec<Vec<f64>>,
    times: Vec<i64>,
    since_emit: usize,
    full_once: bool,
    min_std: Vec<f64>,
}

impl BatchCorrelation {
    fn new(input_names: &[String], window: usize, stride: usize, floors: Vec<f64>) -> Self {
        BatchCorrelation {
            pairs: CorrelationPairs::new(input_names),
            window,
            stride,
            max_gap: 6 * 3600,
            last_t: None,
            cols: vec![Vec::with_capacity(window + 1); input_names.len()],
            times: Vec::with_capacity(window + 1),
            since_emit: 0,
            full_once: false,
            min_std: floors,
        }
    }

    fn reset(&mut self) {
        for c in &mut self.cols {
            c.clear();
        }
        self.times.clear();
        self.since_emit = 0;
        self.full_once = false;
        self.last_t = None;
    }

    fn push(&mut self, t: i64, row: &[f64]) -> Option<Vec<f64>> {
        if let Some(last) = self.last_t {
            if t - last > self.max_gap {
                self.reset();
            }
        }
        self.last_t = Some(t);
        self.times.push(t);
        if self.times.len() > self.window {
            self.times.remove(0);
        }
        for (c, &v) in self.cols.iter_mut().zip(row) {
            c.push(v);
            if c.len() > self.window {
                c.remove(0);
            }
        }
        if self.cols[0].len() < self.window {
            return None;
        }
        let emit = if !self.full_once {
            self.full_once = true;
            self.since_emit = 0;
            true
        } else {
            self.since_emit += 1;
            if self.since_emit >= self.stride {
                self.since_emit = 0;
                true
            } else {
                false
            }
        };
        if !emit {
            return None;
        }
        // Full recompute over the window: differences, then every pair's
        // Pearson correlation from scratch.
        let times = &self.times;
        let diff_storage: Vec<Vec<f64>> = self
            .cols
            .iter()
            .map(|col| {
                let mut d = Vec::with_capacity(col.len().saturating_sub(1));
                for i in 1..col.len() {
                    if times[i] - times[i - 1] <= 120 {
                        d.push(col[i] - col[i - 1]);
                    }
                }
                d
            })
            .collect();
        if diff_storage[0].len() < (self.window / 2).max(4) {
            return None;
        }
        let views: Vec<&[f64]> = diff_storage.iter().map(|c| c.as_slice()).collect();
        let mut out = self.pairs.condensed_pearson(&views);
        let weights: Vec<f64> = views
            .iter()
            .zip(&self.min_std)
            .map(|(col, &scale)| {
                let var = navarchos_stat::descriptive::sample_var(col);
                if var.is_finite() {
                    var / (var + scale * scale)
                } else {
                    0.0
                }
            })
            .collect();
        for (k, v) in out.iter_mut().enumerate() {
            let (i, j) = self.pairs.pair_indices(k);
            *v *= weights[i] * weights[j];
        }
        Some(out)
    }
}

/// Filtered `(timestamp, row)` stream of one vehicle, as the runner sees it.
fn filtered_stream(frame: &Frame, names: &[String], filter: &FilterSpec) -> Vec<(i64, Vec<f64>)> {
    let filter = filter.bind(names);
    let mut buf = Vec::with_capacity(frame.width());
    let mut out = Vec::with_capacity(frame.len());
    for i in 0..frame.len() {
        frame.row_into(i, &mut buf);
        if filter.keep(&buf) {
            out.push((frame.timestamps()[i], buf.clone()));
        }
    }
    out
}

/// Pulls one numeric field out of the PR 2 baseline document.
fn baseline_num(doc: Option<&obs::Json>, key: &str) -> Option<f64> {
    doc.and_then(|d| d.get(key)).and_then(obs::Json::as_num)
}

/// Runs the whole measurement pass at `scale` and returns the finished,
/// schema-validated manifest document. Progress lines go to `progress`
/// (pass `std::io::sink()` to silence); write errors are ignored, exactly
/// like sink IO.
pub fn run(scale: &BaselineScale, progress: &mut dyn Write) -> obs::Json {
    let reps = scale.reps.max(1);
    let mut manifest = obs::Manifest::new("bench_baseline");
    manifest.config("window", WINDOW);
    manifest.config("stride", STRIDE);
    manifest.config("reps", reps);
    manifest.config("scale", scale.label);
    manifest.config("timing_statistic", "mean over reps (matches BENCH_PR2)");

    let _ = writeln!(progress, "[bench_baseline] generating the {} fleet...", scale.label);
    let clock = obs::stage_clock();
    let fleet = scale.fleet.generate();
    let filter = FilterSpec::navarchos_default();
    let floors = navarchos_corr_floors();

    let streams: Vec<(Vec<String>, Vec<(i64, Vec<f64>)>)> = fleet
        .vehicles
        .iter()
        .map(|vd| {
            let names = vd.frame.names().to_vec();
            let stream = filtered_stream(&vd.frame, &names, &filter);
            (names, stream)
        })
        .collect();
    let records: usize = streams.iter().map(|(_, s)| s.len()).sum();
    manifest.end_stage("generate_fleet", clock);

    // Equivalence pass: the incremental transform must reproduce the batch
    // recompute to 1e-9 on every emission of every vehicle.
    let clock = obs::stage_clock();
    let mut emissions = 0usize;
    let mut max_diff = 0.0f64;
    for (names, stream) in &streams {
        let mut batch = BatchCorrelation::new(names, WINDOW, STRIDE, floors.clone());
        let mut incr = CorrelationTransform::new(names, WINDOW, STRIDE)
            .with_differencing()
            .with_min_std(floors.clone());
        let mut out = vec![0.0; incr.output_dim()];
        for &(t, ref row) in stream {
            let a = batch.push(t, row);
            let b = incr.push_into(t, row, &mut out);
            assert_eq!(a.is_some(), b.is_some(), "emission cadence diverged at t={t}");
            if let Some(av) = a {
                emissions += 1;
                for (p, q) in av.iter().zip(&out) {
                    let d = (p - q).abs();
                    assert!(d <= 1e-9, "output diverged at t={t}: {p} vs {q}");
                    max_diff = max_diff.max(d);
                }
            }
        }
    }
    manifest.end_stage("equivalence_check", clock);
    manifest.config("records", records);
    manifest.config("emissions", emissions);
    let _ = writeln!(
        progress,
        "[bench_baseline] equivalence: {emissions} emissions over {records} records, \
         max |Δ| = {max_diff:.3e}"
    );

    // Timing passes: identical streams, checksummed so nothing folds away.
    let clock = obs::stage_clock();
    let mut checksum = 0.0f64;
    let started = Instant::now();
    for _ in 0..reps {
        for (names, stream) in &streams {
            let mut batch = BatchCorrelation::new(names, WINDOW, STRIDE, floors.clone());
            for &(t, ref row) in stream {
                if let Some(v) = batch.push(t, row) {
                    checksum += v[0];
                }
            }
        }
    }
    let batch_seconds = started.elapsed().as_secs_f64() / reps as f64;
    manifest.end_stage("batch_transform", clock);

    let clock = obs::stage_clock();
    let started = Instant::now();
    for _ in 0..reps {
        for (names, stream) in &streams {
            let mut incr = CorrelationTransform::new(names, WINDOW, STRIDE)
                .with_differencing()
                .with_min_std(floors.clone());
            let mut out = vec![0.0; incr.output_dim()];
            for &(t, ref row) in stream {
                if incr.push_into(t, row, &mut out).is_some() {
                    checksum -= out[0];
                }
            }
        }
    }
    let incremental_seconds = started.elapsed().as_secs_f64() / reps as f64;
    manifest.end_stage("incremental_transform", clock);
    let speedup = batch_seconds / incremental_seconds;
    let _ = writeln!(
        progress,
        "[bench_baseline] transform: batch {batch_seconds:.3}s, incremental \
         {incremental_seconds:.3}s ({speedup:.1}x, residual {checksum:.3e})"
    );

    // End-to-end fleet scoring at the paper's best cell (correlation ×
    // closest-pair), on the shipping incremental path. The probes must be
    // off for this pass — it measures the instrumented code at its
    // disabled (null-sink) cost — so any env-enabled switches are forced
    // down here and restored by the metrics-on pass below.
    obs::set_metrics_enabled(false);
    obs::set_events_enabled(false);
    let clock = obs::stage_clock();
    let outcome = fleet_scores(
        &fleet,
        Cell { transform: TransformKind::Correlation, detector: DetectorKind::ClosestPair },
        ResetPolicy::OnServiceOrRepair,
    );
    manifest.end_stage("fleet_scoring_null_sink", clock);
    let _ = writeln!(
        progress,
        "[bench_baseline] fleet scoring (null sink): {:.3}s (single-thread CPU sum)",
        outcome.scoring_seconds
    );

    // Same pass with metrics recording on and the per-record clock probes
    // unsampled (every record timed — the PR 3 behaviour): the "before"
    // side of the cheap-metrics comparison.
    obs::set_metrics_enabled(true);
    obs::set_probe_sample_shift(0);
    let clock = obs::stage_clock();
    let outcome_unsampled = fleet_scores(
        &fleet,
        Cell { transform: TransformKind::Correlation, detector: DetectorKind::ClosestPair },
        ResetPolicy::OnServiceOrRepair,
    );
    manifest.end_stage("fleet_scoring_metrics_on_unsampled", clock);
    let _ = writeln!(
        progress,
        "[bench_baseline] fleet scoring (metrics on, unsampled probes): {:.3}s",
        outcome_unsampled.scoring_seconds
    );

    // And at the shipping default (1-in-64 probe sampling + batched
    // histogram recording): the "after" side, keeping the PR 3 metric
    // names so `check-manifest --against BENCH_PR3.json` compares them.
    obs::set_probe_sample_shift(6);
    let clock = obs::stage_clock();
    let outcome_on = fleet_scores(
        &fleet,
        Cell { transform: TransformKind::Correlation, detector: DetectorKind::ClosestPair },
        ResetPolicy::OnServiceOrRepair,
    );
    manifest.end_stage("fleet_scoring_metrics_on", clock);
    let _ = writeln!(
        progress,
        "[bench_baseline] fleet scoring (metrics on, sampled probes): {:.3}s",
        outcome_on.scoring_seconds
    );

    // PR 8 ops plane: the identical metrics-on pass with the background
    // snapshot sampler running, at the shipping 1 s cadence and at an
    // aggressive 100 ms cadence. Snapshots walk the whole registry under
    // its locks, so this is the one observability feature that *could*
    // contend with the hot path — the 1 s number must stay within
    // cross-run noise of the plain metrics-on pass above.
    let mut sampler_passes: Vec<(&str, f64, usize)> = Vec::new();
    for (tag, period_ms) in [("1000ms", 1000u64), ("100ms", 100)] {
        let ring = std::sync::Arc::new(obs::SnapshotRing::new(64));
        let sampler = obs::start_sampler(
            std::time::Duration::from_millis(period_ms),
            std::sync::Arc::clone(&ring),
        );
        let clock = obs::stage_clock();
        let outcome_sampled = fleet_scores(
            &fleet,
            Cell { transform: TransformKind::Correlation, detector: DetectorKind::ClosestPair },
            ResetPolicy::OnServiceOrRepair,
        );
        manifest.end_stage(&format!("fleet_scoring_sampler_{tag}"), clock);
        drop(sampler);
        sampler_passes.push((tag, outcome_sampled.scoring_seconds, ring.len()));
        let _ = writeln!(
            progress,
            "[bench_baseline] fleet scoring (sampler @ {tag}): {:.3}s ({} snapshot(s))",
            outcome_sampled.scoring_seconds,
            ring.len()
        );
    }

    // Replay every vehicle through the streaming pipeline at the paper's
    // best cell so the per-alarm arrival-to-emission latency histogram
    // (`alarm.latency_ns`) lands in the manifest — the batch scorer above
    // never raises runtime alarms.
    let clock = obs::stage_clock();
    let cfg = navarchos_core::PipelineConfig::paper_default(
        TransformKind::Correlation,
        DetectorKind::ClosestPair,
    );
    let replay_alarms: usize = fleet
        .vehicles
        .iter()
        .map(|vd| {
            let maintenance: Vec<(i64, bool)> = vd
                .events
                .iter()
                .filter(|e| e.recorded && e.kind.is_maintenance())
                .map(|e| (e.timestamp, e.kind == navarchos_fleetsim::EventKind::Repair))
                .collect();
            navarchos_core::replay_stream(&vd.frame, &maintenance, cfg.clone()).len()
        })
        .sum();
    manifest.end_stage("alarm_replay", clock);
    let _ = writeln!(progress, "[bench_baseline] alarm replay: {replay_alarms} alarms");

    // PR 5 ingest throughput: the same fleet interleaved into one stream
    // and pushed through the sharded serving path, metrics on (the
    // deployment configuration), one stage + metric pair per shard count.
    let clean = navarchos_fleetsim::interleave_fleet(&fleet);
    let names = fleet.vehicles[0].frame.names().to_vec();
    manifest.metric("ingest_stream_items", clean.len());
    for &n_shards in &scale.ingest_shards {
        let clock = obs::stage_clock();
        let stream = clean.clone(); // deep-copying 1M+ rows is not ingest work — keep it untimed
        let mut engine = ShardedIngest::new(&names, IngestConfig::paper_default(n_shards));
        let started = Instant::now();
        let _ = engine.ingest_batch(stream);
        let _ = engine.finish();
        let wall = started.elapsed().as_secs_f64();
        manifest.end_stage(&format!("ingest_shards{n_shards}"), clock);
        let stats = engine.stats();
        let rate = stats.records as f64 / wall.max(1e-9);
        manifest.metric(&format!("ingest_records_per_s_shards{n_shards}"), rate);
        manifest.metric(&format!("ingest_wall_seconds_shards{n_shards}"), wall);
        assert_eq!(stats.dead_letter, 0, "a clean stream must not dead-letter");
        let _ = writeln!(
            progress,
            "[bench_baseline] ingest ({n_shards} shard(s)): {} records in {wall:.3}s \
             ({rate:.0} records/s)",
            stats.records
        );
    }
    obs::set_metrics_enabled(false);

    // PR 10 checkpoint: snapshot size and write/restore latency as the
    // resident fleet grows — the cost of durability, committed. Each pass
    // warms a fresh engine on the stream of the first `keep` vehicles,
    // serialises it, restores it, and asserts the round trip preserved
    // the counters (a wrong restore here would also fail the ingest
    // property suite, but the bench asserting it keeps the timing honest:
    // both sides of the measurement do the full work). Metrics are off:
    // the warm-up ingests are scaffolding, and letting them bump the
    // global ingest.* counters would skew the committed per-shard tallies
    // the manifest diff guards.
    let clock = obs::stage_clock();
    let n_shards = *scale.ingest_shards.last().expect("at least one shard count");
    let total_vehicles = fleet.vehicles.len();
    let mut seen = std::collections::BTreeSet::new();
    for frac in [4usize, 2, 1] {
        let keep = (total_vehicles / frac).max(1);
        if !seen.insert(keep) {
            continue;
        }
        let ids: std::collections::BTreeSet<u32> =
            fleet.vehicles.iter().take(keep).map(|vd| vd.id.0).collect();
        let stream: Vec<_> = clean.iter().filter(|it| ids.contains(&it.vehicle)).cloned().collect();
        let consumed = stream.len() as u64;
        let mut engine = ShardedIngest::new(&names, IngestConfig::paper_default(n_shards));
        let alarms = engine.ingest_batch(stream);
        let started = Instant::now();
        let bytes = navarchos_ingest::write_checkpoint(&engine, consumed, &alarms);
        let write_ms = started.elapsed().as_secs_f64() * 1e3;
        let started = Instant::now();
        let restored = navarchos_ingest::read_checkpoint(
            &names,
            IngestConfig::paper_default(n_shards),
            &bytes,
        )
        .expect("the bench checkpoint must restore");
        let restore_ms = started.elapsed().as_secs_f64() * 1e3;
        assert_eq!(restored.engine.stats(), engine.stats(), "restore must preserve counters");
        manifest.metric(&format!("checkpoint_bytes_vehicles{keep}"), bytes.len());
        manifest.metric(&format!("checkpoint_write_ms_vehicles{keep}"), write_ms);
        manifest.metric(&format!("checkpoint_restore_ms_vehicles{keep}"), restore_ms);
        let _ = writeln!(
            progress,
            "[bench_baseline] checkpoint ({keep} vehicle(s)): {} bytes, \
             write {write_ms:.2} ms, restore {restore_ms:.2} ms",
            bytes.len()
        );
    }
    manifest.end_stage("checkpoint", clock);

    // PR 9 sketch substrate: the mergeable quantile sketch's record /
    // query / merge costs on a deterministic value stream, reported per
    // operation so the overhead of wiring sketches into hot paths is a
    // committed number rather than folklore.
    let clock = obs::stage_clock();
    let n_values: usize = 100_000 * scale.reps.max(1);
    let value = |i: usize| ((i.wrapping_mul(2_654_435_761)) % 1_000_003) as f64;
    let started = Instant::now();
    let mut sk = obs::QuantileSketch::default();
    for i in 0..n_values {
        sk.record(value(i));
    }
    let record_ns = started.elapsed().as_nanos() as f64 / n_values as f64;
    let n_queries = 10_000usize;
    let started = Instant::now();
    let mut acc = 0.0f64;
    for i in 0..n_queries {
        acc += sk.quantile(i as f64 / n_queries as f64);
    }
    let quantile_ns = started.elapsed().as_nanos() as f64 / n_queries as f64;
    assert!(acc.is_finite(), "quantile queries must stay finite");
    let shards: Vec<obs::QuantileSketch> = (0..64)
        .map(|s| {
            let mut sk = obs::QuantileSketch::default();
            for i in 0..n_values / 64 {
                sk.record(value(s * (n_values / 64) + i));
            }
            sk
        })
        .collect();
    let started = Instant::now();
    let mut merged = obs::QuantileSketch::default();
    for shard in &shards {
        merged.merge(shard);
    }
    let merge_ns = started.elapsed().as_nanos() as f64 / shards.len() as f64;
    manifest.end_stage("sketch_substrate", clock);
    manifest.metric("sketch_record_ns_per_value", record_ns);
    manifest.metric("sketch_quantile_ns_per_query", quantile_ns);
    manifest.metric("sketch_merge_ns_per_merge", merge_ns);
    manifest.metric("sketch_rank_error_bound", sk.rank_error_bound());
    let _ = writeln!(
        progress,
        "[bench_baseline] sketch: record {record_ns:.0} ns, quantile {quantile_ns:.0} ns, \
         merge {merge_ns:.0} ns (n = {n_values}, eps = {:.4})",
        sk.rank_error_bound()
    );

    // PR 9 drift-detection latency: a vehicle's signals gain a constant
    // bias mid-stream; the committed number is how many post-onset records
    // the data-quality monitor needs before it flags. Deterministic — the
    // clean rows come from the seeded fleet itself.
    let clock = obs::stage_clock();
    let frame = &fleet.vehicles[0].frame;
    let onset = frame.len() / 2;
    let mut monitor = navarchos_ingest::QualityMonitor::new(
        frame.width(),
        navarchos_ingest::QualityConfig::default(),
    );
    let mut row = Vec::with_capacity(frame.width());
    let mut detect_records: Option<usize> = None;
    for i in 0..frame.len() {
        frame.row_into(i, &mut row);
        if i >= onset {
            for v in &mut row {
                *v += 1.0e3;
            }
        }
        let flagged = monitor.observe(frame.timestamps()[i], &row);
        if i >= onset && flagged {
            detect_records = Some(i - onset + 1);
            break;
        }
    }
    manifest.end_stage("quality_drift_latency", clock);
    let detect = detect_records.map(|n| n as f64).unwrap_or(-1.0);
    manifest.metric("quality_drift_detect_records", detect);
    let _ = writeln!(
        progress,
        "[bench_baseline] drift latency: flagged {detect:.0} record(s) after onset \
         (onset at record {onset})"
    );

    // PR 2 baselines (measured before the observability layer existed):
    // the drift on the identical workloads is the null-sink overhead.
    let pr2_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR2.json");
    let pr2 = std::fs::read_to_string(pr2_path).ok().and_then(|s| obs::json::parse(&s).ok());
    if pr2.is_none() {
        let _ = writeln!(
            progress,
            "[bench_baseline] warning: no readable {pr2_path}; overhead not computed"
        );
    }
    manifest.config("baseline_file", "BENCH_PR2.json");

    manifest.metric("max_abs_output_diff", max_diff);
    manifest.metric("batch_transform_seconds", batch_seconds);
    manifest.metric("incremental_transform_seconds", incremental_seconds);
    manifest.metric("transform_speedup", speedup);
    manifest.metric("fleet_scoring_seconds_closest_pair", outcome.scoring_seconds);
    manifest.metric("fleet_scoring_seconds_metrics_on", outcome_on.scoring_seconds);
    manifest.metric(
        "metrics_on_overhead_pct_fleet_scoring",
        100.0 * (outcome_on.scoring_seconds / outcome.scoring_seconds - 1.0),
    );
    manifest
        .metric("fleet_scoring_seconds_metrics_on_unsampled", outcome_unsampled.scoring_seconds);
    manifest.metric(
        "metrics_on_overhead_pct_fleet_scoring_unsampled",
        100.0 * (outcome_unsampled.scoring_seconds / outcome.scoring_seconds - 1.0),
    );
    for &(tag, secs, snapshots) in &sampler_passes {
        manifest.metric(&format!("fleet_scoring_seconds_sampler_{tag}"), secs);
        manifest.metric(
            &format!("sampler_overhead_pct_{tag}"),
            100.0 * (secs / outcome_on.scoring_seconds - 1.0),
        );
        manifest.metric(&format!("sampler_snapshots_{tag}"), snapshots);
    }
    manifest.metric("replay_alarms", replay_alarms);
    for (baseline_key, now, metric) in [
        (
            "incremental_transform_seconds",
            incremental_seconds,
            "null_sink_overhead_pct_incremental_transform",
        ),
        (
            "fleet_scoring_seconds_closest_pair",
            outcome.scoring_seconds,
            "null_sink_overhead_pct_fleet_scoring",
        ),
    ] {
        match baseline_num(pr2.as_ref(), baseline_key) {
            Some(base) if base > 0.0 => {
                let pct = 100.0 * (now / base - 1.0);
                manifest.metric(&format!("baseline_{baseline_key}"), base);
                manifest.metric(metric, pct);
                let _ = writeln!(progress, "[bench_baseline] {metric}: {pct:+.2}%");
            }
            _ => manifest.metric(metric, obs::Json::Null),
        }
    }

    let doc = manifest.finish();
    obs::manifest::validate(&doc).expect("bench manifest must satisfy its own schema");
    doc
}
