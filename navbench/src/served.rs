//! The served workloads: the interleaved fleet stream through
//! `ShardedIngest` (untraced, for end-to-end metrics) and through the
//! same layers composed by hand with a span around every call (traced,
//! for the per-layer budget).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use navarchos_core::detectors::Detector;
use navarchos_core::pipeline::{replay_interleaved, Alarm, PipelineConfig};
use navarchos_core::reference::ReferenceProfile;
use navarchos_core::SelfTuningThreshold;
use navarchos_fleetsim::{
    dirty_stream, interleave_fleet, DirtyConfig, EventKind, FleetData, StreamBody, StreamItem,
};
use navarchos_ingest::{
    read_checkpoint, write_checkpoint, FleetAlarm, IngestConfig, IngestStats, PushOutcome,
    QualityMonitor, ReorderBuffer, ShardRouter, ShardedIngest,
};
use navarchos_obs as obs;
use navarchos_tsframe::{CorrelationTransform, FilterSpec, Transform, TransformKind};

use crate::checks::{check_accounting, check_alarms, Checks};
use crate::ns_since;
use crate::trace::{self, Tracer};

/// Items per `ingest_batch` call.
pub const BATCH: usize = 1024;
/// Clean stream items served per pass: the first 2^20 items of the
/// interleaved fleet (about 300 of its 365 days), so every seed offers
/// the same input size.
pub const STREAM_ITEMS: usize = 1 << 20;
/// Items between checkpoints on `replay_dirty` (`serve-replay
/// --checkpoint-every`).
pub const CHECKPOINT_EVERY: u64 = 131_072;

/// Which served workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replay {
    /// Clean stream, 1 shard, no checkpoint.
    Clean,
    /// Reorder + duplicate dirt, 2 shards, checkpoints and one restore.
    Dirty,
}

impl Replay {
    fn shards(self) -> usize {
        match self {
            Replay::Clean => 1,
            Replay::Dirty => 2,
        }
    }
}

/// The dirt seed, derived from the workload seed.
pub fn dirt_seed(seed: u64) -> u64 {
    crate::splitmix64(seed ^ 0xD1B5_4A32_D192_ED03)
}

/// A served workload's inputs.
#[derive(Debug)]
pub struct Served {
    /// Workload kind.
    pub replay: Replay,
    /// The fleet behind the stream.
    pub fleet: FleetData,
    /// Signal names.
    pub names: Vec<String>,
    /// The stream in arrival order.
    pub stream: Vec<StreamItem>,
    /// Items of the clean stream (the rest are injected duplicates).
    pub clean_len: usize,
    /// Per vehicle id, the records and maintenance events of its history
    /// that the clean stream prefix holds.
    pub prefix: BTreeMap<u32, (usize, usize)>,
    /// Engine configuration.
    pub cfg: IngestConfig,
}

impl Served {
    /// Builds the stream (interleave, cut to [`STREAM_ITEMS`], plus dirt on
    /// `Dirty`) over `fleet` and constructs one engine, as a deployment
    /// would at start-up.
    pub fn new(replay: Replay, fleet: FleetData, seed: u64) -> Self {
        let mut clean = interleave_fleet(&fleet);
        clean.truncate(STREAM_ITEMS);
        let clean_len = clean.len();
        let mut prefix: BTreeMap<u32, (usize, usize)> = BTreeMap::new();
        for it in &clean {
            let e = prefix.entry(it.vehicle).or_default();
            match it.body {
                StreamBody::Record(_) => e.0 += 1,
                StreamBody::Maintenance { .. } => e.1 += 1,
            }
        }
        let stream = match replay {
            Replay::Clean => clean,
            Replay::Dirty => dirty_stream(&clean, &DirtyConfig::reorder_and_dup(dirt_seed(seed))),
        };
        let names = fleet.vehicles[0].frame.names().to_vec();
        let cfg = IngestConfig::paper_default(replay.shards());
        black_box(ShardedIngest::new(&names, cfg.clone()));
        Served { replay, fleet, names, stream, clean_len, prefix, cfg }
    }

    /// Telemetry records in the stream (duplicates included).
    pub fn records(&self) -> u64 {
        count_records(&self.stream)
    }

    /// Sorted single-vehicle replay of each vehicle's part of the clean
    /// stream: vehicle id → alarms, every vehicle present.
    pub fn oracle(&self) -> BTreeMap<u32, Vec<Alarm>> {
        let vehicles: Vec<_> = self
            .fleet
            .vehicles
            .iter()
            .map(|vd| {
                let (records, events) = self.prefix.get(&vd.id.0).copied().unwrap_or_default();
                let mask: Vec<bool> = (0..vd.frame.len()).map(|i| i < records).collect();
                let mut log = maintenance(vd);
                log.truncate(events);
                (vd.frame.filter_rows(&mask), log)
            })
            .collect();
        let per_vehicle = replay_interleaved(&vehicles, &self.cfg.pipeline);
        self.fleet.vehicles.iter().map(|vd| vd.id.0).zip(per_vehicle).collect()
    }
}

fn maintenance(vd: &navarchos_fleetsim::VehicleData) -> Vec<(i64, bool)> {
    vd.events
        .iter()
        .filter(|e| e.recorded && e.kind.is_maintenance())
        .map(|e| (e.timestamp, e.kind == EventKind::Repair))
        .collect()
}

/// What one untraced pass measured and returned.
#[derive(Debug, Default)]
pub struct Pass {
    /// Summed wall of the `ingest_batch` and `finish` calls.
    pub ingest_ns: u64,
    /// `ingest_ns` plus checkpoint writes and the restore.
    pub wall_ns: u64,
    /// Process CPU time over the same span of the pass.
    pub cpu_ns: u64,
    /// Records per second of each [`WINDOW`]-item window of the stream;
    /// the last window also takes the remainder.
    pub window_rps: Vec<f64>,
    /// Wall of each 1024-item `ingest_batch` call.
    pub batch_ns: Vec<u64>,
    /// Every alarm the caller received, in order.
    pub alarms: Vec<FleetAlarm>,
    /// Final engine counters.
    pub stats: IngestStats,
    /// Records per shard.
    pub shard_records: Vec<u64>,
    /// Wall of each checkpoint write.
    pub checkpoint_write_ns: Vec<u64>,
    /// Size of the last checkpoint.
    pub checkpoint_bytes: usize,
    /// Size of the same checkpoint written with an empty alarm ledger.
    pub checkpoint_engine_bytes: usize,
    /// Wall of the restore.
    pub restore_ns: u64,
}

/// Items per throughput window: the checkpoint interval, so on
/// `replay_dirty` every window closes with one checkpoint write.
pub const WINDOW: u64 = CHECKPOINT_EVERY;

/// Accumulates the timed calls of one throughput window.
#[derive(Debug, Default)]
struct Window {
    ns: u64,
    records: u64,
}

impl Window {
    fn close(&mut self, p: &mut Pass) {
        p.window_rps.push(self.records as f64 / (self.ns.max(1) as f64 * 1e-9));
        *self = Window::default();
    }
}

/// Writes a checkpoint of `engine` outside the timed region with an empty
/// ledger, to split the checkpoint into engine state and ledger.
fn engine_only_bytes(engine: &ShardedIngest, cursor: u64) -> usize {
    write_checkpoint(engine, cursor, &[]).len()
}

fn count_records(items: &[StreamItem]) -> u64 {
    items.iter().filter(|it| matches!(it.body, StreamBody::Record(_))).count() as u64
}

/// One untraced pass through the real engine.
///
/// `Dirty` checkpoints every [`CHECKPOINT_EVERY`] items and, after the
/// last mid-stream checkpoint, drops the engine and resumes from
/// `read_checkpoint`. With `probe_checkpoint`, `Clean` writes and reads one
/// checkpoint of the finished engine, outside the timed wall. Checks the
/// restore (cursor, ledger, counters) into `checks`.
pub fn run_pass(s: &Served, probe_checkpoint: bool, checks: &mut Checks) -> Pass {
    let total = s.stream.len() as u64;
    let last_checkpoint = match s.replay {
        Replay::Dirty => (total.saturating_sub(1) / CHECKPOINT_EVERY) * CHECKPOINT_EVERY,
        Replay::Clean => 0,
    };
    // The last window starts here and takes the remainder of the stream.
    let last_window = (total / WINDOW).saturating_sub(1) * WINDOW;
    // Deep-copying the rows is not ingest work: done before the clock.
    let batches: Vec<(Vec<StreamItem>, u64)> =
        s.stream.chunks(BATCH).map(|c| (c.to_vec(), count_records(c))).collect();
    let mut p = Pass { batch_ns: Vec::with_capacity(batches.len()), ..Pass::default() };
    let mut win = Window::default();
    let mut engine = ShardedIngest::new(&s.names, s.cfg.clone());
    let mut cursor = 0u64;
    let cpu0 = crate::host::process_cpu_ns();
    for (batch, records) in batches {
        cursor += batch.len() as u64;
        win.records += records;
        let t = Instant::now();
        let out = engine.ingest_batch(batch);
        let dt = ns_since(t);
        p.batch_ns.push(dt);
        p.ingest_ns += dt;
        win.ns += dt;
        p.alarms.extend(out);
        if last_checkpoint > 0
            && cursor.is_multiple_of(CHECKPOINT_EVERY)
            && cursor <= last_checkpoint
        {
            let t = Instant::now();
            let bytes = write_checkpoint(&engine, cursor, &p.alarms);
            let dt = ns_since(t);
            p.checkpoint_write_ns.push(dt);
            p.wall_ns += dt;
            win.ns += dt;
            if cursor == last_checkpoint {
                p.checkpoint_bytes = bytes.len();
                p.checkpoint_engine_bytes = engine_only_bytes(&engine, cursor);
                drop(engine);
                let t = Instant::now();
                let restored = read_checkpoint(&s.names, s.cfg.clone(), &bytes);
                p.restore_ns = ns_since(t);
                p.wall_ns += p.restore_ns;
                win.ns += p.restore_ns;
                let Ok(restored) = restored else {
                    checks.check(false, || "replay_dirty: the checkpoint did not restore".into());
                    return p;
                };
                checks.check(restored.cursor == cursor, || {
                    format!("restored cursor {} != {cursor}", restored.cursor)
                });
                let ledger_ok = restored.prior_alarms.len() == p.alarms.len()
                    && restored.prior_alarms.iter().zip(&p.alarms).all(|(a, b)| {
                        a.vehicle == b.vehicle && crate::checks::alarm_identical(&a.alarm, &b.alarm)
                    });
                checks.check(ledger_ok, || "restored alarm ledger differs".into());
                engine = restored.engine;
            }
        }
        if cursor.is_multiple_of(WINDOW) && cursor <= last_window {
            win.close(&mut p);
        }
    }
    let t = Instant::now();
    p.alarms.extend(engine.finish());
    let dt = ns_since(t);
    p.ingest_ns += dt;
    win.ns += dt;
    win.close(&mut p);
    p.wall_ns += p.ingest_ns;
    p.cpu_ns = crate::host::process_cpu_ns().saturating_sub(cpu0);
    p.stats = engine.stats();
    p.shard_records = engine.shard_stats().iter().map(|st| st.records).collect();
    if probe_checkpoint && s.replay == Replay::Clean {
        let t = Instant::now();
        let bytes = write_checkpoint(&engine, cursor, &p.alarms);
        p.checkpoint_write_ns.push(ns_since(t));
        p.checkpoint_bytes = bytes.len();
        p.checkpoint_engine_bytes = engine_only_bytes(&engine, cursor);
        let t = Instant::now();
        let restored = read_checkpoint(&s.names, s.cfg.clone(), &bytes);
        p.restore_ns = ns_since(t);
        checks.check(restored.is_ok_and(|r| r.engine.stats() == p.stats), || {
            "replay_clean: probe checkpoint did not restore its counters".into()
        });
    }
    p
}

/// Checks one pass's alarms against the oracle and its counters.
pub fn check_pass(
    s: &Served,
    p: &Pass,
    oracle: &BTreeMap<u32, Vec<Alarm>>,
    checks: &mut Checks,
    what: &str,
) {
    check_alarms(checks, oracle, &p.alarms, what);
    let offered = s.stream.len() as u64;
    check_accounting(checks, &p.stats, offered, offered - s.clean_len as u64, what);
}

// ---------------------------------------------------------------------------
// The traced composition
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Filling,
    Holdout(usize),
    Detecting,
}

/// Work counts of the traced pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Stream items offered.
    pub items: u64,
    /// Records offered (quality monitor calls).
    pub records: u64,
    /// Reorder-buffer pushes.
    pub pushes: u64,
    /// Records released to pipelines.
    pub released_records: u64,
    /// Records the filter kept.
    pub kept: u64,
    /// Transformed samples emitted.
    pub emissions: u64,
    /// Detector fits.
    pub fits: u64,
    /// Detector score calls.
    pub scores: u64,
    /// Alarms raised.
    pub alarms: u64,
}

/// Algorithm 1 for one vehicle, composed from the public layer entry
/// points in the order `StreamingPipeline::process_record` calls them.
/// The traced pass checks that its alarms equal the engine's bit for bit.
#[derive(Debug)]
struct Composed {
    names: Vec<String>,
    filter: FilterSpec,
    transform: Box<dyn Transform>,
    detector: Box<dyn Detector>,
    profile: ReferenceProfile,
    threshold: SelfTuningThreshold,
    channel_names: Vec<String>,
    phase: Phase,
    feat: Vec<f64>,
    cfg: PipelineConfig,
}

impl Composed {
    fn new(names: &[String], cfg: &PipelineConfig) -> Self {
        let transform: Box<dyn Transform> = match (cfg.transform, &cfg.corr_floors) {
            (TransformKind::Correlation, Some(f)) if f.len() == names.len() => Box::new(
                CorrelationTransform::new(names, cfg.window, cfg.stride)
                    .with_min_std(f.clone())
                    .with_differencing(),
            ),
            (TransformKind::Correlation, None) => Box::new(
                CorrelationTransform::new(names, cfg.window, cfg.stride).with_differencing(),
            ),
            (kind, _) => kind.build(names, cfg.window, cfg.stride),
        };
        let dim = transform.output_dim();
        let detector = cfg.detector.build(dim, &transform.output_names(), &cfg.detector_params);
        Composed {
            names: names.to_vec(),
            filter: cfg.filter.clone(),
            profile: ReferenceProfile::new(dim, cfg.profile_length),
            threshold: SelfTuningThreshold::new(detector.n_channels(), cfg.threshold_factor),
            channel_names: detector.channel_names(),
            transform,
            detector,
            phase: Phase::Filling,
            feat: vec![0.0; dim],
            cfg: cfg.clone(),
        }
    }

    fn event(&mut self, is_repair: bool) {
        if self.cfg.reset_policy.resets_on(is_repair) {
            self.profile.clear();
            self.detector.reset();
            self.threshold.reset();
            self.transform.reset();
            self.phase = Phase::Filling;
        }
    }

    fn record(
        &mut self,
        tr: &mut Tracer,
        item: u64,
        t: i64,
        row: &[f64],
        c: &mut Counts,
    ) -> Vec<Alarm> {
        tr.enter(trace::FILTER, item);
        let kept = self.filter.keep_row(&self.names, row);
        tr.exit();
        if !kept {
            return Vec::new();
        }
        c.kept += 1;
        tr.enter(trace::TRANSFORM, item);
        let emitted = self.transform.push_into(t, row, &mut self.feat);
        tr.exit();
        let Some(ts) = emitted else { return Vec::new() };
        c.emissions += 1;
        match self.phase {
            Phase::Filling => {
                if self.profile.push(&self.feat) {
                    tr.enter(trace::DETECTOR_FIT, item);
                    self.detector.fit(&self.profile);
                    tr.exit();
                    c.fits += 1;
                    self.phase = Phase::Holdout(0);
                }
                Vec::new()
            }
            Phase::Holdout(seen) => {
                tr.enter(trace::DETECTOR_SCORE, item);
                let scores = self.detector.score(&self.feat);
                tr.exit();
                c.scores += 1;
                tr.enter(trace::THRESHOLD, item);
                self.threshold.observe(&scores);
                let seen = seen + 1;
                if seen >= self.cfg.holdout {
                    self.threshold.fit();
                    self.phase = Phase::Detecting;
                } else {
                    self.phase = Phase::Holdout(seen);
                }
                tr.exit();
                Vec::new()
            }
            Phase::Detecting => {
                tr.enter(trace::DETECTOR_SCORE, item);
                let scores = self.detector.score(&self.feat);
                tr.exit();
                c.scores += 1;
                let constant = self.detector.uses_constant_threshold();
                tr.enter(trace::THRESHOLD, item);
                let violations: Vec<usize> = if constant {
                    scores
                        .iter()
                        .enumerate()
                        .filter(|(_, &s)| s.is_finite() && s > self.cfg.constant_threshold)
                        .map(|(i, _)| i)
                        .collect()
                } else {
                    self.threshold.violations(&scores)
                };
                tr.exit();
                violations
                    .into_iter()
                    .map(|ch| Alarm {
                        timestamp: ts,
                        channel: ch,
                        channel_name: self.channel_names[ch].clone(),
                        score: scores[ch],
                        threshold: if constant {
                            self.cfg.constant_threshold
                        } else {
                            self.threshold.thresholds()[ch]
                        },
                    })
                    .collect()
            }
        }
    }
}

/// One vehicle's state in the composition.
#[derive(Debug)]
struct Lane {
    vehicle: u32,
    quality: QualityMonitor,
    buffer: ReorderBuffer<StreamItem>,
    pipeline: Composed,
}

/// What the traced pass produced.
#[derive(Debug)]
pub struct Traced {
    /// The span recorder with every layer's aggregate.
    pub tracer: Tracer,
    /// Work counts.
    pub counts: Counts,
    /// Wall of the whole traced loop.
    pub wall_ns: u64,
}

fn feed(
    lane: &mut Lane,
    rel: &StreamItem,
    tr: &mut Tracer,
    item: u64,
    c: &mut Counts,
    alarms: &mut Vec<FleetAlarm>,
) {
    match &rel.body {
        StreamBody::Maintenance { is_repair } => {
            tr.enter(trace::PIPELINE_EVENT, item);
            lane.pipeline.event(*is_repair);
            tr.exit();
        }
        StreamBody::Record(row) => {
            c.released_records += 1;
            tr.enter(trace::PIPELINE_RECORD, item);
            let raised = lane.pipeline.record(tr, item, rel.timestamp, row, c);
            tr.exit();
            c.alarms += raised.len() as u64;
            let vehicle = lane.vehicle;
            alarms.extend(raised.into_iter().map(|alarm| FleetAlarm { vehicle, alarm }));
        }
    }
}

/// The traced pass: route → quality → validate → reorder → filter →
/// transform → detector → threshold per item on one thread, every call in
/// a span, alarms checked against the oracle (which the untraced passes
/// check against the engine).
pub fn traced_pass(
    s: &Served,
    oracle: &BTreeMap<u32, Vec<Alarm>>,
    keep_every: u64,
    checks: &mut Checks,
) -> Traced {
    let items = s.stream.clone();
    let router = ShardRouter::new(s.cfg.n_shards);
    let width = s.names.len();
    let mut tr = Tracer::new(keep_every);
    let mut c = Counts::default();
    let mut lanes: Vec<Lane> = Vec::new();
    let mut released: Vec<StreamItem> = Vec::new();
    let mut alarms: Vec<FleetAlarm> = Vec::new();
    // Routed as the engine routes, so the engine span carries the hash;
    // on one thread the shard itself is not needed.
    let mut shard_load = vec![0u64; s.cfg.n_shards];
    let t0 = Instant::now();
    for (i, item) in items.into_iter().enumerate() {
        let id = i as u64;
        c.items += 1;
        tr.enter(trace::ENGINE, id);
        shard_load[router.route(item.vehicle)] += 1;
        let li = match lanes.binary_search_by_key(&item.vehicle, |l| l.vehicle) {
            Ok(li) => li,
            Err(li) => {
                lanes.insert(
                    li,
                    Lane {
                        vehicle: item.vehicle,
                        quality: QualityMonitor::new(width, s.cfg.quality),
                        buffer: ReorderBuffer::new(s.cfg.horizon_s, s.cfg.reorder_capacity),
                        pipeline: Composed::new(&s.names, &s.cfg.pipeline),
                    },
                );
                li
            }
        };
        let lane = &mut lanes[li];
        if let StreamBody::Record(row) = &item.body {
            c.records += 1;
            tr.enter(trace::QUALITY, id);
            black_box(lane.quality.observe(item.timestamp, row));
            tr.exit();
            if row.len() != width || row.iter().any(|v| !v.is_finite()) {
                checks.check(false, || format!("traced pass: item {i} is malformed"));
                tr.exit();
                continue;
            }
        }
        c.pushes += 1;
        released.clear();
        tr.enter(trace::REORDER_PUSH, id);
        let outcome = lane.buffer.push(item, &mut released);
        tr.exit();
        if matches!(outcome, PushOutcome::LateDropped | PushOutcome::Conflict) {
            checks.check(false, || format!("traced pass: item {i} was {outcome:?}"));
        }
        for rel in &released {
            feed(lane, rel, &mut tr, id, &mut c, &mut alarms);
        }
        tr.exit();
    }
    let end = u64::MAX;
    for lane in &mut lanes {
        tr.enter(trace::ENGINE, end);
        released.clear();
        tr.enter(trace::REORDER_FLUSH, end);
        lane.buffer.flush_into(&mut released);
        tr.exit();
        for rel in &released {
            feed(lane, rel, &mut tr, end, &mut c, &mut alarms);
        }
        tr.exit();
    }
    let wall_ns = ns_since(t0);
    black_box(shard_load);
    check_alarms(checks, oracle, &alarms, "traced composition");
    Traced { tracer: tr, counts: c, wall_ns }
}

/// What the untraced passes of a traced run measured.
#[derive(Debug)]
pub struct UntracedSummary {
    /// Median ns per stream item of the engine calls, metrics on.
    pub engine_ns_per_item: f64,
    /// Median process CPU ns per stream item over the same calls.
    pub engine_cpu_ns_per_item: f64,
    /// Median records/s, metrics on.
    pub records_per_s_on: f64,
    /// Median records/s, metrics off.
    pub records_per_s_off: f64,
    /// Median wall of one `ingest_batch` call over the metrics-on passes.
    pub batch_p50_ms: f64,
    /// p99 of the same.
    pub batch_p99_ms: f64,
    /// One metrics-on pass, for its counters and checkpoint readings.
    pub pass: Pass,
}

/// Runs the untraced passes a traced run needs: program metrics on and
/// off, alternating, for `seconds` (at least one pair).
pub fn untraced_on_off(
    s: &Served,
    oracle: &BTreeMap<u32, Vec<Alarm>>,
    seconds: f64,
    checks: &mut Checks,
) -> UntracedSummary {
    let items = s.stream.len() as f64;
    let records = s.records() as f64;
    let (mut on_ns, mut on_cpu, mut on_rps, mut off_rps) = (vec![], vec![], vec![], vec![]);
    let mut batch_ms = Vec::new();
    let mut kept: Option<Pass> = None;
    let mut clock = crate::RunClock::new(seconds);
    while clock.another() {
        obs::set_metrics_enabled(true);
        let p = run_pass(s, true, checks);
        check_pass(s, &p, oracle, checks, "metrics-on pass");
        on_ns.push(p.ingest_ns as f64 / items);
        on_cpu.push(p.cpu_ns as f64 / items);
        on_rps.push(records / (p.wall_ns as f64 * 1e-9));
        batch_ms.extend(p.batch_ns.iter().map(|&n| n as f64 * 1e-6));
        kept.get_or_insert(p);
        obs::set_metrics_enabled(false);
        let p = run_pass(s, false, checks);
        check_pass(s, &p, oracle, checks, "metrics-off pass");
        off_rps.push(records / (p.wall_ns as f64 * 1e-9));
        clock.lap();
    }
    use crate::stats::{median, quantile};
    UntracedSummary {
        batch_p50_ms: median(&batch_ms),
        batch_p99_ms: quantile(&batch_ms, 0.99),
        engine_ns_per_item: median(&on_ns),
        engine_cpu_ns_per_item: median(&on_cpu),
        records_per_s_on: median(&on_rps),
        records_per_s_off: median(&off_rps),
        pass: kept.unwrap_or_default(),
    }
}
