//! The sharded fleet ingest engine.
//!
//! One engine owns N [`Shard`]s; a [`ShardRouter`] fans the interleaved
//! fleet stream out by vehicle hash, so each vehicle's state — a bounded
//! [`ReorderBuffer`] plus a [`StreamingPipeline`] — lives on exactly one
//! shard and the shards of one batch can run in parallel
//! ([`ShardedIngest::ingest_batch`] via an [`OwnerPool`]: the calling
//! thread runs the first chunk of shards and long-lived worker threads,
//! one per further chunk, the rest, so a one-shard engine never leaves the
//! caller's thread). Malformed records (wrong arity,
//! non-finite values) and same-timestamp conflicts go to a counted
//! dead-letter sink; arrivals beyond the lateness horizon are counted and
//! skipped. Nothing panics on dirty input and no path grows without bound.
//!
//! # Observability
//!
//! Each shard keeps plain `u64` stats that are always on (they cost an
//! increment) and mirrors them into the global `ingest.*` counters when
//! metrics are enabled, resolving the `Arc` handles once at construction
//! — the same discipline as `PipelineStats`. Queue depth is sampled into
//! a per-shard `ingest.shardNN.queue_depth` histogram through a
//! `BatchedRecorder`, flushed on [`ShardedIngest::finish`].
//!
//! The live ops plane adds three always-available facets: a per-shard
//! `ingest.shardNN.records` counter (so scrape deltas yield per-shard
//! throughput), a per-shard `ingest.shardNN.health` gauge driven by the
//! [`crate::health`] state machine via [`ShardedIngest::observe_health`],
//! and an [`AlarmProvenance`] entry per emitted alarm (arrival/release/
//! emission stamps + release watermark) drained through
//! [`ShardedIngest::drain_provenance`] into the CLI's NDJSON journal.

use navarchos_core::pipeline::{Alarm, PipelineConfig, StreamingPipeline};
use navarchos_core::{DetectorKind, OwnerPool, TransformKind};
use navarchos_fleetsim::{StreamBody, StreamItem};
use navarchos_obs as obs;
use navarchos_stat::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};

use crate::health::{HealthPolicy, HealthSample, HealthState, HealthTransition, ShardHealth};
use crate::quality::{QualityConfig, QualityMonitor, QualitySnapshot};
use crate::reorder::{PushOutcome, ReorderBuffer, SeqKey, Sequenced};
use crate::router::ShardRouter;

/// A stream item plus the wall-clock (monotonic) moment the call that
/// delivered it entered the engine. The arrival stamp rides through the
/// reorder buffer so alarm provenance can attribute latency to buffering
/// vs. pipeline work; it is deliberately ignored by
/// [`Sequenced::identical`] — a duplicate is a duplicate no matter when
/// its copies arrived.
#[derive(Debug, Clone)]
struct Arrival {
    item: StreamItem,
    arrival_ns: u64,
}

impl Sequenced for Arrival {
    fn key(&self) -> SeqKey {
        self.item.key()
    }

    fn identical(&self, other: &Self) -> bool {
        self.item.identical(&other.item)
    }
}

/// Serialises one in-flight arrival for checkpoints and migration. The
/// arrival stamp travels too: [`AlarmProvenance`] subtracts stamps with
/// `saturating_sub`, so a stamp from a previous process (a different
/// monotonic epoch) degrades a latency reading, never an alarm.
fn write_arrival(w: &mut SnapWriter, a: &Arrival) {
    w.put_u32(a.item.vehicle);
    w.put_i64(a.item.timestamp);
    match &a.item.body {
        StreamBody::Record(row) => {
            w.put_u8(0);
            w.put_f64_slice(row);
        }
        StreamBody::Maintenance { is_repair } => {
            w.put_u8(1);
            w.put_bool(*is_repair);
        }
    }
    w.put_u64(a.arrival_ns);
}

fn read_arrival(r: &mut SnapReader<'_>) -> Result<Arrival, SnapError> {
    let vehicle = r.get_u32()?;
    let timestamp = r.get_i64()?;
    let body = match r.get_u8()? {
        0 => StreamBody::Record(r.get_f64_vec()?),
        1 => StreamBody::Maintenance { is_repair: r.get_bool()? },
        _ => return Err(SnapError::Corrupt("unknown stream-body tag")),
    };
    let arrival_ns = r.get_u64()?;
    Ok(Arrival { item: StreamItem { vehicle, timestamp, body }, arrival_ns })
}

impl Sequenced for StreamItem {
    fn key(&self) -> SeqKey {
        SeqKey { timestamp: self.timestamp, rank: self.body.rank() }
    }

    fn identical(&self, other: &Self) -> bool {
        if self.vehicle != other.vehicle || self.timestamp != other.timestamp {
            return false;
        }
        match (&self.body, &other.body) {
            (StreamBody::Record(a), StreamBody::Record(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (
                StreamBody::Maintenance { is_repair: a },
                StreamBody::Maintenance { is_repair: b },
            ) => a == b,
            _ => false,
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Number of shards (≥ 1).
    pub n_shards: usize,
    /// Lateness horizon in seconds: an arrival is re-sequenced as long as
    /// it is delayed by strictly less than this. Must be at least the
    /// feed's worst-case delay for the equivalence guarantee to hold.
    pub horizon_s: i64,
    /// Per-vehicle reorder-buffer capacity (items).
    pub reorder_capacity: usize,
    /// Dead letters retained for inspection (the count is unbounded, the
    /// stored samples are capped).
    pub max_dead_letters_kept: usize,
    /// Per-vehicle pipeline instantiation.
    pub pipeline: PipelineConfig,
    /// Per-shard health thresholds and hysteresis (see [`crate::health`]).
    pub health: HealthPolicy,
    /// Per-vehicle data-quality monitor thresholds (see
    /// [`crate::quality`]).
    pub quality: QualityConfig,
}

impl IngestConfig {
    /// The paper's main pipeline (correlation transformation + closest
    /// pair) behind an ingest front with a 30-minute lateness horizon.
    pub fn paper_default(n_shards: usize) -> Self {
        IngestConfig {
            n_shards,
            horizon_s: 1800,
            reorder_capacity: 256,
            max_dead_letters_kept: 32,
            pipeline: PipelineConfig::paper_default(
                TransformKind::Correlation,
                DetectorKind::ClosestPair,
            ),
            health: HealthPolicy::default(),
            quality: QualityConfig::default(),
        }
    }
}

/// Where an alarm's latency went: one journal entry per alarm emitted by
/// the engine, linking event time (the alarm's timestamp and the release
/// watermark, both epoch seconds) with processing time (monotonic
/// nanoseconds at arrival, release and emission). Collected always-on —
/// alarms are rare, so the cost is a few stores per alarm — and drained
/// via [`ShardedIngest::drain_provenance`].
#[derive(Debug, Clone, PartialEq)]
pub struct AlarmProvenance {
    /// Vehicle whose pipeline raised the alarm.
    pub vehicle: u32,
    /// Shard the vehicle is routed to.
    pub shard: usize,
    /// The alarm's event timestamp (epoch seconds).
    pub alarm_timestamp: i64,
    /// Violating channel name, as on the alarm.
    pub channel_name: String,
    /// The release watermark (epoch seconds) when the triggering record
    /// left the reorder buffer.
    pub watermark_ts: i64,
    /// Monotonic ns when the call that delivered the triggering record
    /// (`ingest` or `ingest_batch`) entered the engine; every item of one
    /// call shares it, so in-batch queueing counts as buffer wait.
    pub arrival_ns: u64,
    /// Monotonic ns when the reorder buffer released it to the pipeline.
    pub release_ns: u64,
    /// Monotonic ns when the pipeline returned the alarm.
    pub emit_ns: u64,
}

impl AlarmProvenance {
    /// Time the triggering record sat in the reorder buffer.
    pub fn buffer_wait_ns(&self) -> u64 {
        self.release_ns.saturating_sub(self.arrival_ns)
    }

    /// Time the pipeline spent on the record that raised the alarm.
    pub fn pipeline_ns(&self) -> u64 {
        self.emit_ns.saturating_sub(self.release_ns)
    }

    /// Arrival-to-emission latency.
    pub fn total_ns(&self) -> u64 {
        self.emit_ns.saturating_sub(self.arrival_ns)
    }
}

/// An alarm raised by some vehicle's pipeline, tagged with the vehicle.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAlarm {
    /// The vehicle whose pipeline raised the alarm.
    pub vehicle: u32,
    /// The alarm itself.
    pub alarm: Alarm,
}

/// Why an item was dead-lettered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadLetterReason {
    /// Record row had the wrong number of values.
    WrongArity {
        /// Values present on the wire.
        got: usize,
        /// Values the pipeline expects.
        expected: usize,
    },
    /// Record row contained a NaN or infinity.
    NonFinite,
    /// Same canonical key as a buffered item, different payload.
    Conflict,
}

/// A rejected item, kept (up to a cap) for post-mortem inspection.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadLetter {
    /// Source vehicle.
    pub vehicle: u32,
    /// Event timestamp of the rejected item.
    pub timestamp: i64,
    /// Classification.
    pub reason: DeadLetterReason,
}

/// Aggregated engine counters (always on; cheap `u64` increments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Telemetry records offered to the engine.
    pub records: u64,
    /// Maintenance markers offered to the engine.
    pub maintenance: u64,
    /// Items released through reorder buffers into pipelines.
    pub released: u64,
    /// Accepted arrivals that were out of order.
    pub reordered: u64,
    /// Exact duplicates dropped.
    pub duplicates: u64,
    /// Arrivals beyond the lateness horizon, counted and skipped.
    pub late_dropped: u64,
    /// Malformed or conflicting items routed to the dead-letter sink.
    pub dead_letter: u64,
    /// Early releases forced by reorder-buffer capacity.
    pub forced_releases: u64,
    /// Alarms raised across all vehicles.
    pub alarms: u64,
    /// Highest reorder-buffer depth observed on any vehicle.
    pub peak_queue_depth: u64,
    /// Records flagged by the per-vehicle data-quality monitors.
    pub quality_flagged: u64,
}

impl IngestStats {
    fn merge(&mut self, other: &IngestStats) {
        self.records += other.records;
        self.maintenance += other.maintenance;
        self.released += other.released;
        self.reordered += other.reordered;
        self.duplicates += other.duplicates;
        self.late_dropped += other.late_dropped;
        self.dead_letter += other.dead_letter;
        self.forced_releases += other.forced_releases;
        self.alarms += other.alarms;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
        self.quality_flagged += other.quality_flagged;
    }

    fn write_state(&self, w: &mut SnapWriter) {
        for v in [
            self.records,
            self.maintenance,
            self.released,
            self.reordered,
            self.duplicates,
            self.late_dropped,
            self.dead_letter,
            self.forced_releases,
            self.alarms,
            self.peak_queue_depth,
            self.quality_flagged,
        ] {
            w.put_u64(v);
        }
    }

    fn read_state(r: &mut SnapReader<'_>) -> Result<IngestStats, SnapError> {
        Ok(IngestStats {
            records: r.get_u64()?,
            maintenance: r.get_u64()?,
            released: r.get_u64()?,
            reordered: r.get_u64()?,
            duplicates: r.get_u64()?,
            late_dropped: r.get_u64()?,
            dead_letter: r.get_u64()?,
            forced_releases: r.get_u64()?,
            alarms: r.get_u64()?,
            peak_queue_depth: r.get_u64()?,
            quality_flagged: r.get_u64()?,
        })
    }
}

fn write_dead_letter(w: &mut SnapWriter, d: &DeadLetter) {
    w.put_u32(d.vehicle);
    w.put_i64(d.timestamp);
    match d.reason {
        DeadLetterReason::WrongArity { got, expected } => {
            w.put_u8(0);
            w.put_usize(got);
            w.put_usize(expected);
        }
        DeadLetterReason::NonFinite => w.put_u8(1),
        DeadLetterReason::Conflict => w.put_u8(2),
    }
}

fn read_dead_letter(r: &mut SnapReader<'_>) -> Result<DeadLetter, SnapError> {
    let vehicle = r.get_u32()?;
    let timestamp = r.get_i64()?;
    let reason = match r.get_u8()? {
        0 => DeadLetterReason::WrongArity { got: r.get_usize()?, expected: r.get_usize()? },
        1 => DeadLetterReason::NonFinite,
        2 => DeadLetterReason::Conflict,
        _ => return Err(SnapError::Corrupt("unknown dead-letter reason tag")),
    };
    Ok(DeadLetter { vehicle, timestamp, reason })
}

/// Global-counter handles, resolved once per shard.
#[derive(Debug)]
struct ShardObs {
    records: std::sync::Arc<obs::Counter>,
    reordered: std::sync::Arc<obs::Counter>,
    duplicates: std::sync::Arc<obs::Counter>,
    late_dropped: std::sync::Arc<obs::Counter>,
    dead_letter: std::sync::Arc<obs::Counter>,
    alarms: std::sync::Arc<obs::Counter>,
    /// Fleet-wide count of quality-flagged records (the burn-rate
    /// evaluator's `quality` policy numerator).
    quality_flagged: std::sync::Arc<obs::Counter>,
    /// Per-shard record count — the `top` client derives records/s per
    /// shard from scrape deltas of this family.
    shard_records: std::sync::Arc<obs::Counter>,
    /// Live health state (0 = Ok, 1 = Degraded, 2 = Stalled).
    health: std::sync::Arc<obs::Gauge>,
    queue_depth: obs::BatchedRecorder,
}

impl ShardObs {
    fn new(shard: usize) -> Self {
        ShardObs {
            records: obs::counter("ingest.records"),
            reordered: obs::counter("ingest.reordered"),
            duplicates: obs::counter("ingest.duplicates"),
            late_dropped: obs::counter("ingest.late_dropped"),
            dead_letter: obs::counter("ingest.dead_letter"),
            alarms: obs::counter("ingest.alarms"),
            quality_flagged: obs::counter("ingest.quality.flagged"),
            shard_records: obs::counter(&format!("ingest.shard{shard:02}.records")),
            health: obs::gauge(&format!("ingest.shard{shard:02}.health")),
            queue_depth: obs::BatchedRecorder::new(obs::histogram(&format!(
                "ingest.shard{shard:02}.queue_depth"
            ))),
        }
    }
}

/// One vehicle's state on its owning shard.
#[derive(Debug)]
struct Lane {
    vehicle: u32,
    buffer: ReorderBuffer<Arrival>,
    pipeline: StreamingPipeline,
}

/// One vehicle's data-quality monitor plus its cached gauge handles.
/// Kept separate from [`Lane`]: monitors observe raw arrivals *before*
/// validation, so a vehicle that only ever sends garbage (and therefore
/// never grows a lane) is still watched.
#[derive(Debug)]
struct QualityLane {
    vehicle: u32,
    monitor: QualityMonitor,
    nan_bp: std::sync::Arc<obs::Gauge>,
    gap_bp: std::sync::Arc<obs::Gauge>,
    drift_mz: std::sync::Arc<obs::Gauge>,
}

impl QualityLane {
    fn new(vehicle: u32, n_channels: usize, cfg: QualityConfig) -> Self {
        QualityLane {
            vehicle,
            monitor: QualityMonitor::new(n_channels, cfg),
            nan_bp: obs::gauge(&format!("ingest.quality.v{vehicle:02}.nan_bp")),
            gap_bp: obs::gauge(&format!("ingest.quality.v{vehicle:02}.gap_bp")),
            drift_mz: obs::gauge(&format!("ingest.quality.v{vehicle:02}.drift_mz")),
        }
    }
}

/// Fraction (0..1) as basis points on a gauge, saturated at 10 000.
fn fraction_to_bp(f: f64) -> u64 {
    if !f.is_finite() || f <= 0.0 {
        0
    } else {
        ((f * 10_000.0).round() as u64).min(10_000)
    }
}

/// A z-score (or similar unbounded positive reading) in milli-units.
fn to_milli(v: f64) -> u64 {
    if !v.is_finite() || v <= 0.0 {
        0
    } else {
        (v * 1000.0).min(u64::MAX as f64 / 2.0).round() as u64
    }
}

/// One shard: the lanes of the vehicles that hash to it.
#[derive(Debug)]
struct Shard {
    index: usize,
    names: Vec<String>,
    cfg: IngestConfig,
    /// Lanes sorted by vehicle id for binary-search lookup.
    lanes: Vec<Lane>,
    /// Quality monitors, sorted by vehicle id like `lanes`.
    quality: Vec<QualityLane>,
    stats: IngestStats,
    dead: Vec<DeadLetter>,
    obs: ShardObs,
    /// Provenance of every alarm this shard emitted, pending drain.
    provenance: Vec<AlarmProvenance>,
    /// Scratch for reorder-buffer releases, reused across items.
    released: Vec<Arrival>,
    /// This shard's items of the batch in flight; empty between batches.
    inbox: Vec<StreamItem>,
}

impl Shard {
    fn new(index: usize, names: Vec<String>, cfg: IngestConfig) -> Self {
        Shard {
            index,
            names,
            cfg,
            lanes: Vec::new(),
            quality: Vec::new(),
            stats: IngestStats::default(),
            dead: Vec::new(),
            obs: ShardObs::new(index),
            provenance: Vec::new(),
            released: Vec::new(),
            inbox: Vec::new(),
        }
    }

    /// Processes and empties the inbox, keeping its capacity for the next
    /// batch. Returns the alarms raised.
    fn drain_inbox(&mut self, arrival_ns: u64) -> Vec<FleetAlarm> {
        let mut alarms = Vec::new();
        let mut inbox = std::mem::take(&mut self.inbox);
        for item in inbox.drain(..) {
            self.process(item, arrival_ns, &mut alarms);
        }
        self.inbox = inbox;
        alarms
    }

    fn lane_index(&mut self, vehicle: u32) -> usize {
        match self.lanes.binary_search_by_key(&vehicle, |l| l.vehicle) {
            Ok(i) => i,
            Err(i) => {
                self.lanes.insert(
                    i,
                    Lane {
                        vehicle,
                        buffer: ReorderBuffer::new(self.cfg.horizon_s, self.cfg.reorder_capacity),
                        pipeline: StreamingPipeline::new_scoped(
                            &self.names,
                            self.cfg.pipeline.clone(),
                            Some(&format!("v{vehicle:02}")),
                        ),
                    },
                );
                i
            }
        }
    }

    /// Routes one raw record through the vehicle's quality monitor,
    /// creating it on first sight. Returns true when the record flags.
    fn quality_observe(&mut self, vehicle: u32, timestamp: i64, row: &[f64]) -> bool {
        let i = match self.quality.binary_search_by_key(&vehicle, |q| q.vehicle) {
            Ok(i) => i,
            Err(i) => {
                self.quality
                    .insert(i, QualityLane::new(vehicle, self.names.len(), self.cfg.quality));
                i
            }
        };
        self.quality[i].monitor.observe(timestamp, row)
    }

    fn dead_letter(&mut self, vehicle: u32, timestamp: i64, reason: DeadLetterReason) {
        self.stats.dead_letter += 1;
        if obs::metrics_enabled() {
            self.obs.dead_letter.incr();
        }
        if self.dead.len() < self.cfg.max_dead_letters_kept {
            self.dead.push(DeadLetter { vehicle, timestamp, reason });
        }
    }

    /// Processes one item that arrived at `arrival_ns` (the stamp of the
    /// engine call that delivered it).
    fn process(&mut self, item: StreamItem, arrival_ns: u64, alarms: &mut Vec<FleetAlarm>) {
        let metrics_on = obs::metrics_enabled();
        match &item.body {
            StreamBody::Record(row) => {
                self.stats.records += 1;
                if metrics_on {
                    self.obs.records.incr();
                    self.obs.shard_records.incr();
                }
                // Quality monitors see the raw row *before* validation:
                // the NaN bursts that dead-letter just below are exactly
                // what they exist to measure.
                if self.quality_observe(item.vehicle, item.timestamp, row) {
                    self.stats.quality_flagged += 1;
                    if metrics_on {
                        self.obs.quality_flagged.incr();
                    }
                }
                let expected = self.names.len();
                if row.len() != expected {
                    self.dead_letter(
                        item.vehicle,
                        item.timestamp,
                        DeadLetterReason::WrongArity { got: row.len(), expected },
                    );
                    return;
                }
                if row.iter().any(|v| !v.is_finite()) {
                    self.dead_letter(item.vehicle, item.timestamp, DeadLetterReason::NonFinite);
                    return;
                }
            }
            StreamBody::Maintenance { .. } => {
                self.stats.maintenance += 1;
            }
        }
        let (vehicle, timestamp) = (item.vehicle, item.timestamp);
        let lane_i = self.lane_index(vehicle);
        self.released.clear();
        let outcome = {
            let lane = &mut self.lanes[lane_i];
            lane.buffer.push(Arrival { item, arrival_ns }, &mut self.released)
        };
        match outcome {
            PushOutcome::Accepted { reordered } => {
                if reordered {
                    self.stats.reordered += 1;
                    if metrics_on {
                        self.obs.reordered.incr();
                    }
                }
            }
            PushOutcome::Duplicate => {
                self.stats.duplicates += 1;
                if metrics_on {
                    self.obs.duplicates.incr();
                }
            }
            PushOutcome::LateDropped => {
                self.stats.late_dropped += 1;
                if metrics_on {
                    self.obs.late_dropped.incr();
                }
            }
            PushOutcome::Conflict => {
                self.dead_letter(vehicle, timestamp, DeadLetterReason::Conflict);
            }
        }
        let depth = self.lanes[lane_i].buffer.len() as u64;
        self.stats.peak_queue_depth = self.stats.peak_queue_depth.max(depth);
        if metrics_on {
            self.obs.queue_depth.record(depth);
        }
        // Feed whatever the watermark released, in canonical order.
        let released = std::mem::take(&mut self.released);
        for rel in &released {
            self.feed(lane_i, rel, alarms);
        }
        self.released = released;
    }

    fn feed(&mut self, lane_i: usize, arrival: &Arrival, alarms: &mut Vec<FleetAlarm>) {
        let lane = &mut self.lanes[lane_i];
        self.stats.released += 1;
        let item = &arrival.item;
        match &item.body {
            StreamBody::Maintenance { is_repair } => lane.pipeline.process_event(*is_repair),
            StreamBody::Record(row) => {
                let release_ns = obs::elapsed_ns();
                let raised = lane.pipeline.process_record(item.timestamp, row);
                if !raised.is_empty() {
                    self.stats.alarms += raised.len() as u64;
                    if obs::metrics_enabled() {
                        self.obs.alarms.add(raised.len() as u64);
                    }
                    let emit_ns = obs::elapsed_ns();
                    let watermark_ts = lane.buffer.watermark().unwrap_or(item.timestamp);
                    for alarm in &raised {
                        self.provenance.push(AlarmProvenance {
                            vehicle: lane.vehicle,
                            shard: self.index,
                            alarm_timestamp: alarm.timestamp,
                            channel_name: alarm.channel_name.clone(),
                            watermark_ts,
                            arrival_ns: arrival.arrival_ns,
                            release_ns,
                            emit_ns,
                        });
                    }
                    alarms.extend(
                        raised.into_iter().map(|alarm| FleetAlarm { vehicle: lane.vehicle, alarm }),
                    );
                }
            }
        }
    }

    /// Serialises one vehicle's lane (reorder buffer + pipeline) as a
    /// self-contained frame — the unit both full checkpoints and shard
    /// migration move around.
    fn write_lane(lane: &Lane, w: &mut SnapWriter) {
        w.put_u32(lane.vehicle);
        w.put_frame(|w| lane.buffer.write_state_with(w, write_arrival));
        w.put_frame(|w| lane.pipeline.write_state(w));
    }

    /// Reconstructs a lane from [`Shard::write_lane`] bytes and inserts it
    /// in vehicle order. The buffer and pipeline are built fresh from this
    /// shard's config, then overwritten with the serialised state.
    fn read_lane(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let vehicle = r.get_u32()?;
        let mut buffer = ReorderBuffer::new(self.cfg.horizon_s, self.cfg.reorder_capacity);
        let mut frame = r.get_frame()?;
        buffer.read_state_with(&mut frame, read_arrival)?;
        frame.finish()?;
        let mut pipeline = StreamingPipeline::new_scoped(
            &self.names,
            self.cfg.pipeline.clone(),
            Some(&format!("v{vehicle:02}")),
        );
        let mut frame = r.get_frame()?;
        pipeline.read_state(&mut frame)?;
        frame.finish()?;
        match self.lanes.binary_search_by_key(&vehicle, |l| l.vehicle) {
            Ok(_) => Err(SnapError::Corrupt("duplicate lane for one vehicle")),
            Err(i) => {
                self.lanes.insert(i, Lane { vehicle, buffer, pipeline });
                Ok(())
            }
        }
    }

    fn write_quality(q: &QualityLane, w: &mut SnapWriter) {
        w.put_u32(q.vehicle);
        w.put_frame(|w| q.monitor.write_state(w));
    }

    fn read_quality(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let vehicle = r.get_u32()?;
        let mut lane = QualityLane::new(vehicle, self.names.len(), self.cfg.quality);
        let mut frame = r.get_frame()?;
        lane.monitor.read_state(&mut frame)?;
        frame.finish()?;
        match self.quality.binary_search_by_key(&vehicle, |q| q.vehicle) {
            Ok(_) => Err(SnapError::Corrupt("duplicate quality lane for one vehicle")),
            Err(i) => {
                self.quality.insert(i, lane);
                Ok(())
            }
        }
    }

    /// Full shard state: counters, retained dead letters, every lane and
    /// every quality monitor. Config (names, horizon, pipeline…) is not
    /// written — the restoring engine is constructed from its own config
    /// and the checkpoint fingerprint guards against mismatch.
    fn write_state(&self, w: &mut SnapWriter) {
        self.stats.write_state(w);
        w.put_usize(self.dead.len());
        for d in &self.dead {
            write_dead_letter(w, d);
        }
        w.put_usize(self.lanes.len());
        for lane in &self.lanes {
            w.put_frame(|w| Shard::write_lane(lane, w));
        }
        w.put_usize(self.quality.len());
        for q in &self.quality {
            w.put_frame(|w| Shard::write_quality(q, w));
        }
    }

    /// Counterpart of [`Shard::write_state`], on a freshly built shard.
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.stats = IngestStats::read_state(r)?;
        let n_dead = r.get_len(13)?;
        if n_dead > self.cfg.max_dead_letters_kept {
            return Err(SnapError::Corrupt("more dead letters than the retention cap"));
        }
        self.dead.clear();
        for _ in 0..n_dead {
            let d = read_dead_letter(r)?;
            self.dead.push(d);
        }
        let n_lanes = r.get_len(1)?;
        for _ in 0..n_lanes {
            let mut frame = r.get_frame()?;
            self.read_lane(&mut frame)?;
            frame.finish()?;
        }
        let n_quality = r.get_len(1)?;
        for _ in 0..n_quality {
            let mut frame = r.get_frame()?;
            self.read_quality(&mut frame)?;
            frame.finish()?;
        }
        Ok(())
    }

    fn finish(&mut self, alarms: &mut Vec<FleetAlarm>) {
        for lane_i in 0..self.lanes.len() {
            self.released.clear();
            self.lanes[lane_i].buffer.flush_into(&mut self.released);
            let released = std::mem::take(&mut self.released);
            for rel in &released {
                self.feed(lane_i, rel, alarms);
            }
            self.released = released;
        }
        for lane in &mut self.lanes {
            let b = lane.buffer.stats();
            self.stats.forced_releases += b.forced_releases;
            lane.pipeline.flush_obs();
        }
        self.obs.queue_depth.flush();
    }
}

/// Counters for vehicle moves between shards (see
/// [`ShardedIngest::migrate_vehicle`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Vehicles moved to another shard.
    pub moves: u64,
    /// In-flight reorder-buffer items carried across during moves.
    pub inflight_items: u64,
}

/// The engine: router + shards. See the module docs.
#[derive(Debug)]
pub struct ShardedIngest {
    router: ShardRouter,
    /// Routing overrides from [`ShardedIngest::migrate_vehicle`], sorted
    /// by vehicle id. The hash router stays pure; the effective route is
    /// the override when present. Serialised into checkpoints so a
    /// restored engine keeps delivering migrated vehicles to their new
    /// home.
    overrides: Vec<(u32, usize)>,
    shards: Vec<Shard>,
    /// Runs the shards of one batch in parallel; its worker threads live
    /// as long as the engine.
    pool: OwnerPool<Shard, Vec<FleetAlarm>>,
    health: Vec<ShardHealth>,
    /// Fleet-level worst per-vehicle drift, in milli-z.
    worst_drift: std::sync::Arc<obs::Gauge>,
    migration: MigrationStats,
    migration_moves: std::sync::Arc<obs::Counter>,
    migration_inflight: std::sync::Arc<obs::Counter>,
    finished: bool,
}

impl ShardedIngest {
    /// Creates an engine whose per-vehicle pipelines read records with the
    /// given signal `names` (arity validation uses their count).
    pub fn new<S: AsRef<str>>(names: &[S], cfg: IngestConfig) -> Self {
        let names: Vec<String> = names.iter().map(|s| s.as_ref().to_string()).collect();
        let router = ShardRouter::new(cfg.n_shards);
        let health = (0..cfg.n_shards).map(|_| ShardHealth::new(cfg.health)).collect();
        let shards = (0..cfg.n_shards).map(|i| Shard::new(i, names.clone(), cfg.clone())).collect();
        ShardedIngest {
            router,
            overrides: Vec::new(),
            shards,
            pool: OwnerPool::new(),
            health,
            worst_drift: obs::gauge("ingest.quality.worst_drift_mz"),
            migration: MigrationStats::default(),
            migration_moves: obs::counter("ingest.migration.moves"),
            migration_inflight: obs::counter("ingest.migration.inflight_items"),
            finished: false,
        }
    }

    /// The signal names per-vehicle pipelines read records with (arity
    /// validation uses their count).
    pub fn signal_names(&self) -> &[String] {
        &self.shards[0].names
    }

    /// The engine's configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.shards[0].cfg
    }

    /// The shard `vehicle`'s state lives on: a migration override when one
    /// exists, else the pure hash route.
    pub fn shard_of(&self, vehicle: u32) -> usize {
        match self.overrides.binary_search_by_key(&vehicle, |(v, _)| *v) {
            Ok(i) => self.overrides[i].1,
            Err(_) => self.router.route(vehicle),
        }
    }

    /// Ingests one item inline (no fan-out). Returns any alarms raised by
    /// records this arrival released.
    pub fn ingest(&mut self, item: StreamItem) -> Vec<FleetAlarm> {
        let arrival_ns = obs::elapsed_ns();
        let mut alarms = Vec::new();
        let shard = self.shard_of(item.vehicle);
        self.shards[shard].process(item, arrival_ns, &mut alarms);
        alarms
    }

    /// Ingests a batch: items go to their shard's inbox in arrival order,
    /// then the shards run in parallel on the engine's [`OwnerPool`] (the
    /// first chunk of shards on the calling thread, each further chunk on
    /// its own worker thread, spawned on the first batch that needs it and
    /// kept until the engine drops). Every item is stamped with the one
    /// arrival time of this call. Returned alarms are grouped by shard,
    /// per-vehicle order preserved. A panic in any shard reaches the
    /// caller after every shard is back in the engine.
    pub fn ingest_batch(&mut self, items: Vec<StreamItem>) -> Vec<FleetAlarm> {
        let _span = obs::span("ingest_batch");
        let arrival_ns = obs::elapsed_ns();
        for item in items {
            let shard = self.shard_of(item.vehicle);
            self.shards[shard].inbox.push(item);
        }
        let per_shard =
            self.pool.par_map_mut(&mut self.shards, move |_, shard| shard.drain_inbox(arrival_ns));
        per_shard.into_iter().flatten().collect()
    }

    /// Ends the stream: flushes every reorder buffer through its pipeline
    /// and flushes batched observability. Idempotent.
    pub fn finish(&mut self) -> Vec<FleetAlarm> {
        let mut alarms = Vec::new();
        if !self.finished {
            self.finished = true;
            for shard in &mut self.shards {
                shard.finish(&mut alarms);
            }
        }
        alarms
    }

    /// Aggregated counters across all shards.
    pub fn stats(&self) -> IngestStats {
        let mut total = IngestStats::default();
        for shard in &self.shards {
            total.merge(&shard.stats);
        }
        total
    }

    /// Per-shard counters, indexed by shard.
    pub fn shard_stats(&self) -> Vec<IngestStats> {
        self.shards.iter().map(|s| s.stats).collect()
    }

    /// Retained dead letters across all shards (counts are in
    /// [`IngestStats::dead_letter`]; retention is capped per shard).
    pub fn dead_letters(&self) -> Vec<&DeadLetter> {
        self.shards.iter().flat_map(|s| &s.dead).collect()
    }

    /// Number of vehicles with live state, per shard.
    pub fn vehicles_per_shard(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.lanes.len()).collect()
    }

    /// Ticks every shard's health state machine against its current queue
    /// depth and cumulative drop/quality counters (the tracker deltas
    /// internally — see [`crate::health`]). Call between batches at the
    /// snapshot cadence. Updates the `ingest.shardNN.health` and
    /// `ingest.quality.*` gauges when metrics are on, emits one structured
    /// `ingest.health` event per transition when events are on, and
    /// returns the transitions.
    pub fn observe_health(&mut self) -> Vec<HealthTransition> {
        let t_ns = obs::elapsed_ns();
        let metrics_on = obs::metrics_enabled();
        let mut transitions = Vec::new();
        let mut worst_drift = 0u64;
        for (shard, tracker) in self.shards.iter_mut().zip(self.health.iter_mut()) {
            let queue_depth: u64 = shard.lanes.iter().map(|l| l.buffer.len() as u64).sum();
            let sample = HealthSample {
                t_ns,
                queue_depth,
                records: shard.stats.records,
                late_dropped: shard.stats.late_dropped,
                dead_letter: shard.stats.dead_letter,
                quality_flagged: shard.stats.quality_flagged,
            };
            if let Some((from, to)) = tracker.observe(sample) {
                transitions.push(HealthTransition { shard: shard.index, from, to });
            }
            if metrics_on {
                shard.obs.health.set(tracker.state().gauge_value());
            }
            for q in &shard.quality {
                let snap = q.monitor.snapshot();
                let drift = to_milli(snap.max_drift_z);
                worst_drift = worst_drift.max(drift);
                if metrics_on {
                    q.nan_bp.set(fraction_to_bp(snap.nan_fraction));
                    q.gap_bp.set(fraction_to_bp(snap.gap_fraction));
                    q.drift_mz.set(drift);
                }
            }
        }
        if metrics_on {
            self.worst_drift.set(worst_drift);
        }
        if obs::events_enabled() {
            for tr in &transitions {
                obs::emit(
                    &obs::Event::new("ingest.health")
                        .field("shard", tr.shard as u64)
                        .field("from", tr.from.as_str())
                        .field("to", tr.to.as_str()),
                );
            }
        }
        transitions
    }

    /// Current health state per shard (what the gauges show).
    pub fn health_states(&self) -> Vec<HealthState> {
        self.health.iter().map(|h| h.state()).collect()
    }

    /// Current per-vehicle quality readings, sorted by vehicle id (what
    /// the `ingest.quality.v*` gauges show after the next health tick).
    pub fn quality_snapshots(&self) -> Vec<(u32, QualitySnapshot)> {
        let mut out: Vec<(u32, QualitySnapshot)> = self
            .shards
            .iter()
            .flat_map(|s| s.quality.iter().map(|q| (q.vehicle, q.monitor.snapshot())))
            .collect();
        out.sort_by_key(|(v, _)| *v);
        out
    }

    /// Takes the provenance of every alarm emitted since the last drain
    /// (arrival order within each shard, shards concatenated in index
    /// order).
    pub fn drain_provenance(&mut self) -> Vec<AlarmProvenance> {
        let mut out = Vec::new();
        for shard in &mut self.shards {
            out.append(&mut shard.provenance);
        }
        out
    }

    /// Moves one vehicle's entire state — reorder buffer with in-flight
    /// items, pipeline, quality monitor — to `to_shard`, and records a
    /// routing override so future arrivals follow it. The state travels
    /// through the same serialised-lane frames checkpoints use (drain →
    /// snapshot → reroute → restore), so migration equivalence is the
    /// checkpoint equivalence guarantee applied between shards: alarms
    /// after the move are byte-identical to never having moved.
    ///
    /// In-flight items are *not* flushed: flushing would feed the pipeline
    /// records the watermark has not released and change its output.
    /// Returns whether any live state moved (an unseen vehicle gets only
    /// the override).
    ///
    /// # Panics
    /// Panics if `to_shard` is out of range.
    pub fn migrate_vehicle(&mut self, vehicle: u32, to_shard: usize) -> bool {
        assert!(to_shard < self.shards.len(), "target shard out of range");
        let from = self.shard_of(vehicle);
        match self.overrides.binary_search_by_key(&vehicle, |(v, _)| *v) {
            Ok(i) => self.overrides[i].1 = to_shard,
            Err(i) => self.overrides.insert(i, (vehicle, to_shard)),
        }
        if from == to_shard {
            return false;
        }
        let mut moved = false;
        let mut inflight = 0u64;
        if let Ok(i) = self.shards[from].lanes.binary_search_by_key(&vehicle, |l| l.vehicle) {
            let lane = self.shards[from].lanes.remove(i);
            inflight = lane.buffer.len() as u64;
            let mut w = SnapWriter::new();
            Shard::write_lane(&lane, &mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            self.shards[to_shard]
                .read_lane(&mut r)
                .and_then(|()| r.finish())
                .expect("a just-written lane frame must restore");
            moved = true;
        }
        if let Ok(i) = self.shards[from].quality.binary_search_by_key(&vehicle, |q| q.vehicle) {
            let q = self.shards[from].quality.remove(i);
            let mut w = SnapWriter::new();
            Shard::write_quality(&q, &mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            self.shards[to_shard]
                .read_quality(&mut r)
                .and_then(|()| r.finish())
                .expect("a just-written quality frame must restore");
            moved = true;
        }
        if moved {
            self.migration.moves += 1;
            self.migration.inflight_items += inflight;
            if obs::metrics_enabled() {
                self.migration_moves.incr();
                self.migration_inflight.add(inflight);
            }
        }
        moved
    }

    /// Cumulative migration counters.
    pub fn migration_stats(&self) -> MigrationStats {
        self.migration
    }

    /// Serialises the engine's full mutable state (routing overrides plus
    /// every shard). Health-FSM trackers are deliberately excluded: they
    /// are wall-clock-rate ops telemetry, re-armed on the next
    /// [`ShardedIngest::observe_health`] tick after a restore.
    pub(crate) fn write_engine_state(&self, w: &mut SnapWriter) {
        w.put_bool(self.finished);
        w.put_usize(self.overrides.len());
        for (v, s) in &self.overrides {
            w.put_u32(*v);
            w.put_usize(*s);
        }
        w.put_u64(self.migration.moves);
        w.put_u64(self.migration.inflight_items);
        w.put_usize(self.shards.len());
        for shard in &self.shards {
            w.put_frame(|w| shard.write_state(w));
        }
    }

    /// Counterpart of [`ShardedIngest::write_engine_state`], on a freshly
    /// constructed engine with the same config.
    pub(crate) fn read_engine_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let finished = r.get_bool()?;
        let n_overrides = r.get_len(12)?;
        let mut overrides = Vec::with_capacity(n_overrides);
        for _ in 0..n_overrides {
            let v = r.get_u32()?;
            let s = r.get_usize()?;
            if s >= self.shards.len() {
                return Err(SnapError::Corrupt("routing override to a nonexistent shard"));
            }
            overrides.push((v, s));
        }
        if !overrides.iter().zip(overrides.iter().skip(1)).all(|(a, b)| a.0 < b.0) {
            return Err(SnapError::Corrupt("routing overrides out of order"));
        }
        let moves = r.get_u64()?;
        let inflight_items = r.get_u64()?;
        let n_shards = r.get_usize()?;
        if n_shards != self.shards.len() {
            return Err(SnapError::Corrupt("shard-count mismatch"));
        }
        for shard in &mut self.shards {
            let mut frame = r.get_frame()?;
            shard.read_state(&mut frame)?;
            frame.finish()?;
        }
        self.finished = finished;
        self.overrides = overrides;
        self.migration = MigrationStats { moves, inflight_items };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_items(n: usize) -> Vec<StreamItem> {
        // Two correlated signals; enough records to pass reference +
        // holdout so the pipeline reaches Detecting.
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.37).sin() * 3.0 + 10.0;
                StreamItem {
                    vehicle: 1,
                    timestamp: i as i64 * 60,
                    body: StreamBody::Record(vec![x, 2.0 * x + 1.0]),
                }
            })
            .collect()
    }

    fn tiny_config(n_shards: usize) -> IngestConfig {
        let mut cfg = IngestConfig::paper_default(n_shards);
        cfg.pipeline.window = 8;
        cfg.pipeline.stride = 2;
        cfg.pipeline.profile_length = 6;
        cfg.pipeline.holdout = 4;
        cfg.pipeline.filter = navarchos_tsframe::FilterSpec::default();
        cfg.pipeline.corr_floors = None;
        cfg.horizon_s = 300;
        cfg
    }

    #[test]
    fn clean_stream_counts_and_no_dead_letters() {
        let mut engine = ShardedIngest::new(&["a", "b"], tiny_config(2));
        let items = synthetic_items(200);
        let _ = engine.ingest_batch(items);
        let _ = engine.finish();
        let stats = engine.stats();
        assert_eq!(stats.records, 200);
        assert_eq!(stats.dead_letter, 0);
        assert_eq!(stats.duplicates, 0);
        assert_eq!(stats.late_dropped, 0);
        assert_eq!(stats.released, 200);
    }

    #[test]
    fn malformed_records_go_to_dead_letter_not_panic() {
        let mut engine = ShardedIngest::new(&["a", "b"], tiny_config(1));
        let mut items = synthetic_items(50);
        items[10].body = StreamBody::Record(vec![1.0]); // wrong arity
        items[20].body = StreamBody::Record(vec![f64::NAN, 1.0]); // non-finite
        items[30].body = StreamBody::Record(vec![]); // empty row
        let _ = engine.ingest_batch(items);
        let _ = engine.finish();
        let stats = engine.stats();
        assert_eq!(stats.dead_letter, 3);
        assert_eq!(stats.released, 47, "malformed items never reach the pipeline");
        let reasons: Vec<DeadLetterReason> =
            engine.dead_letters().iter().map(|d| d.reason).collect();
        assert!(reasons.contains(&DeadLetterReason::NonFinite));
        assert!(reasons
            .iter()
            .any(|r| matches!(r, DeadLetterReason::WrongArity { got: 1, expected: 2 })));
    }

    #[test]
    fn single_item_ingest_matches_batch() {
        let items = synthetic_items(200);
        let mut batch = ShardedIngest::new(&["a", "b"], tiny_config(2));
        let mut one = ShardedIngest::new(&["a", "b"], tiny_config(2));
        let mut a1 = batch.ingest_batch(items.clone());
        a1.extend(batch.finish());
        let mut a2 = Vec::new();
        for item in items {
            a2.extend(one.ingest(item));
        }
        a2.extend(one.finish());
        assert_eq!(a1, a2);
        assert_eq!(batch.stats(), one.stats());
    }

    #[test]
    fn finish_is_idempotent() {
        let mut engine = ShardedIngest::new(&["a", "b"], tiny_config(1));
        let _ = engine.ingest_batch(synthetic_items(30));
        let first = engine.finish();
        let second = engine.finish();
        assert!(second.is_empty(), "second finish must be a no-op, got {first:?}{second:?}");
    }

    /// One vehicle, two signals whose correlation breaks mid-stream so the
    /// tiny pipeline must raise alarms.
    fn breaking_items(n: usize) -> Vec<StreamItem> {
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.31).sin() * 2.0 + 10.0;
                let y = if i < 2 * n / 3 {
                    2.0 * x + 1.0
                } else {
                    21.0 - (i as f64 * 0.77).cos() * 2.0
                };
                StreamItem {
                    vehicle: 1,
                    timestamp: i as i64 * 60,
                    body: StreamBody::Record(vec![x, y]),
                }
            })
            .collect()
    }

    #[test]
    fn every_alarm_carries_provenance() {
        let mut engine = ShardedIngest::new(&["a", "b"], tiny_config(1));
        let mut alarms = engine.ingest_batch(breaking_items(240));
        alarms.extend(engine.finish());
        assert!(!alarms.is_empty(), "the correlation break must alarm");
        let prov = engine.drain_provenance();
        assert_eq!(prov.len(), alarms.len(), "one provenance entry per alarm");
        for (p, fa) in prov.iter().zip(&alarms) {
            assert_eq!(p.vehicle, fa.vehicle);
            assert_eq!(p.alarm_timestamp, fa.alarm.timestamp);
            assert_eq!(p.channel_name, fa.alarm.channel_name);
            assert_eq!(p.shard, 0);
            assert!(p.release_ns >= p.arrival_ns, "buffer wait cannot be negative");
            assert!(p.emit_ns >= p.release_ns, "pipeline time cannot be negative");
            assert_eq!(p.total_ns(), p.buffer_wait_ns() + p.pipeline_ns());
        }
        assert!(engine.drain_provenance().is_empty(), "drain takes everything");
    }

    #[test]
    fn alarms_of_one_batch_share_its_arrival_stamp() {
        for n_shards in [1, 2] {
            let mut engine = ShardedIngest::new(&["a", "b"], tiny_config(n_shards));
            let mut items = Vec::new();
            for item in breaking_items(240) {
                for vehicle in 1..=4 {
                    items.push(StreamItem { vehicle, ..item.clone() });
                }
            }
            let before = obs::elapsed_ns();
            let _ = engine.ingest_batch(items);
            let prov = engine.drain_provenance();
            assert!(!prov.is_empty(), "the correlation break must alarm inside the batch");
            let arrival_ns = prov[0].arrival_ns;
            assert!(arrival_ns >= before);
            for p in &prov {
                assert_eq!(p.arrival_ns, arrival_ns, "one stamp per ingest_batch call");
                assert!(p.release_ns >= p.arrival_ns, "buffer wait cannot be negative");
                assert!(p.emit_ns >= p.release_ns, "pipeline time cannot be negative");
            }
        }
    }

    #[test]
    fn provenance_is_identical_with_metrics_off_and_on() {
        // Provenance is always-on; flipping metrics must not change what
        // the journal sees (timestamps differ, shape and counts do not).
        let was = obs::metrics_enabled();
        obs::set_metrics_enabled(false);
        let mut off = ShardedIngest::new(&["a", "b"], tiny_config(1));
        let _ = off.ingest_batch(breaking_items(240));
        let _ = off.finish();
        obs::set_metrics_enabled(true);
        let mut on = ShardedIngest::new(&["a", "b"], tiny_config(1));
        let _ = on.ingest_batch(breaking_items(240));
        let _ = on.finish();
        obs::set_metrics_enabled(was);
        let (a, b) = (off.drain_provenance(), on.drain_provenance());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.vehicle, x.alarm_timestamp), (y.vehicle, y.alarm_timestamp));
        }
    }

    fn record_at(timestamp: i64) -> StreamItem {
        StreamItem { vehicle: 1, timestamp, body: StreamBody::Record(vec![1.0, 2.0]) }
    }

    /// Event-time overflow probe: a first-ever record stamped near
    /// `i64::MIN` once overflowed the reorder watermark (`max - horizon`),
    /// panicking a debug build inside the batch.
    #[test]
    fn extreme_first_timestamp_saturates_the_watermark() {
        let mut engine = ShardedIngest::new(&["a", "b"], tiny_config(1));
        let _ = engine.ingest_batch(vec![record_at(i64::MIN + 1)]);
        let stats = engine.stats();
        assert_eq!((stats.records, stats.released), (1, 0), "held behind the watermark");
    }

    /// Event-time overflow probe: a record stamped near `i64::MIN` after a
    /// normal one once overflowed the quality monitor's cadence delta. The
    /// backwards jump reads as reordered, not as a cadence gap.
    #[test]
    fn extreme_backward_timestamp_reads_as_reordered() {
        let mut engine = ShardedIngest::new(&["a", "b"], tiny_config(1));
        let _ = engine.ingest_batch(vec![record_at(0), record_at(60), record_at(i64::MIN + 1)]);
        let stats = engine.stats();
        assert_eq!((stats.records, stats.reordered, stats.quality_flagged), (3, 1, 0));
        assert_eq!(engine.quality_snapshots()[0].1.gap_fraction, 0.0);
    }

    /// Event-time overflow probe: a record stamped near `i64::MIN` after
    /// two normal ones is released by `finish` into the pipeline, where it
    /// once overflowed the window cadence's gap check.
    fn extreme_backward_timestamp_flushes(n_shards: usize) {
        let mut engine = ShardedIngest::new(&["a", "b"], tiny_config(n_shards));
        let _ = engine.ingest_batch(vec![record_at(60), record_at(120), record_at(i64::MIN + 1)]);
        let _ = engine.finish();
        let stats = engine.stats();
        assert_eq!((stats.records, stats.released), (3, 3));
    }

    #[test]
    fn extreme_backward_timestamp_flushes_on_one_shard() {
        extreme_backward_timestamp_flushes(1);
    }

    #[test]
    fn extreme_backward_timestamp_flushes_on_two_shards() {
        extreme_backward_timestamp_flushes(2);
    }

    #[test]
    fn clean_stream_health_stays_ok() {
        let mut engine = ShardedIngest::new(&["a", "b"], tiny_config(2));
        assert!(engine.observe_health().is_empty(), "arming tick");
        let _ = engine.ingest_batch(synthetic_items(200));
        assert!(engine.observe_health().is_empty());
        let _ = engine.finish();
        assert!(engine.observe_health().is_empty());
        assert!(engine.health_states().iter().all(|s| *s == HealthState::Ok));
    }

    #[test]
    fn late_drop_flood_escalates_one_level_at_a_time() {
        let mut cfg = tiny_config(1);
        cfg.health.worsen_ticks = 1;
        cfg.health.improve_ticks = 1;
        let mut engine = ShardedIngest::new(&["a", "b"], cfg);
        // Drive the watermark far enough that t=400000 is *released* (the
        // flood below must arrive behind the last released key), then arm
        // the health tracker.
        for t in [0i64, 400_000, 800_000] {
            let _ = engine.ingest(StreamItem {
                vehicle: 1,
                timestamp: t,
                body: StreamBody::Record(vec![1.0, 2.0]),
            });
        }
        assert!(engine.observe_health().is_empty());
        let flood = |engine: &mut ShardedIngest| {
            for i in 0..200i64 {
                // Far behind the watermark → every one is late-dropped at
                // an enormous instantaneous rate.
                let _ = engine.ingest(StreamItem {
                    vehicle: 1,
                    timestamp: 1 + i,
                    body: StreamBody::Record(vec![1.0, 2.0]),
                });
            }
        };
        flood(&mut engine);
        assert_eq!(
            engine.observe_health(),
            vec![HealthTransition { shard: 0, from: HealthState::Ok, to: HealthState::Degraded }],
            "first escalation stops at Degraded even though the rate is stalled-level"
        );
        flood(&mut engine);
        assert_eq!(
            engine.observe_health(),
            vec![HealthTransition {
                shard: 0,
                from: HealthState::Degraded,
                to: HealthState::Stalled
            }]
        );
        // Quiet interval → recovery, again one level per tick.
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(
            engine.observe_health(),
            vec![HealthTransition {
                shard: 0,
                from: HealthState::Stalled,
                to: HealthState::Degraded
            }]
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(
            engine.observe_health(),
            vec![HealthTransition { shard: 0, from: HealthState::Degraded, to: HealthState::Ok }]
        );
        assert!(engine.stats().late_dropped >= 400, "the floods really were late-dropped");
    }

    #[test]
    fn nan_burst_flags_quality_and_degrades_the_shard() {
        let mut cfg = tiny_config(1);
        cfg.health.worsen_ticks = 1;
        cfg.quality.reference_len = 16;
        cfg.quality.window = 8;
        let mut engine = ShardedIngest::new(&["a", "b"], cfg);
        let _ = engine.ingest_batch(synthetic_items(100));
        assert!(engine.observe_health().is_empty(), "clean warm-up arms the tracker");
        assert_eq!(engine.stats().quality_flagged, 0, "clean stream never flags");
        // One vehicle's channels go NaN: dead-lettered by validation, but
        // the quality monitor saw the raw rows and flags the stream.
        let bad: Vec<StreamItem> = (100..160)
            .map(|i| StreamItem {
                vehicle: 1,
                timestamp: i as i64 * 60,
                body: StreamBody::Record(vec![f64::NAN, f64::NAN]),
            })
            .collect();
        let _ = engine.ingest_batch(bad);
        let stats = engine.stats();
        assert!(stats.quality_flagged > 0, "NaN burst must flag");
        let transitions = engine.observe_health();
        assert_eq!(
            transitions,
            vec![HealthTransition { shard: 0, from: HealthState::Ok, to: HealthState::Degraded }],
            "quality flags alone must move the shard off Ok"
        );
        let quality = engine.quality_snapshots();
        assert_eq!(quality.len(), 1);
        assert!(quality[0].1.nan_fraction > 0.9, "window is all NaN");
    }

    #[test]
    fn drifting_channel_raises_drift_z_without_dead_letters() {
        let mut cfg = tiny_config(1);
        cfg.quality.reference_len = 32;
        cfg.quality.window = 8;
        let mut engine = ShardedIngest::new(&["a", "b"], cfg);
        let _ = engine.ingest_batch(synthetic_items(100));
        // Finite but wildly out-of-range values: validation accepts them,
        // only the drift monitor complains.
        let drifted: Vec<StreamItem> = (100..140)
            .map(|i| {
                let x = (i as f64 * 0.37).sin() * 3.0 + 500.0;
                StreamItem {
                    vehicle: 1,
                    timestamp: i as i64 * 60,
                    body: StreamBody::Record(vec![x, 2.0 * x + 1.0]),
                }
            })
            .collect();
        let _ = engine.ingest_batch(drifted);
        assert_eq!(engine.stats().dead_letter, 0);
        assert!(engine.stats().quality_flagged > 0, "drift must flag");
        let (_, snap) = engine.quality_snapshots()[0];
        assert!(snap.max_drift_z > 4.0, "drift z {}", snap.max_drift_z);
    }

    #[test]
    fn vehicles_land_on_their_routed_shard_only() {
        let cfg = tiny_config(3);
        let mut engine = ShardedIngest::new(&["a", "b"], cfg);
        let mut items = Vec::new();
        for v in 0..9u32 {
            for i in 0..5usize {
                items.push(StreamItem {
                    vehicle: v,
                    timestamp: i as i64 * 60,
                    body: StreamBody::Record(vec![1.0, 2.0]),
                });
            }
        }
        let _ = engine.ingest_batch(items);
        let per_shard = engine.vehicles_per_shard();
        assert_eq!(per_shard.iter().sum::<usize>(), 9, "every vehicle exactly once");
    }
}
