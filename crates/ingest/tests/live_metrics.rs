//! Metrics-on contract of the live engine between calls, not only at the
//! end of the stream:
//!
//! - the global `ingest.*` counters equal the engine's own `IngestStats`
//!   after every `ingest` and every `ingest_batch` call (the engine adds
//!   each call's deltas once, at the end of the call);
//! - after `observe_health`, the between-batches hook, the lanes' batched
//!   recorders are in the shared histograms: `alarm.latency_ns` holds one
//!   sample per alarm so far and `ingest.shardNN.queue_depth` one per
//!   item offered to a reorder buffer.
//!
//! Integration test on purpose: the metric registry is process-global, so
//! this binary holds only these tests, serialised by a lock.

use std::sync::Mutex;

use navarchos_fleetsim::{
    dirty_stream, interleave_fleet, CorruptionMode, DirtyConfig, FleetConfig, StreamItem,
};
use navarchos_ingest::{IngestConfig, IngestStats, ShardedIngest};
use navarchos_obs as obs;

static REGISTRY: Mutex<()> = Mutex::new(());

/// The global counters mirroring `IngestStats`, per engine shard count.
struct Counters {
    values: Vec<(String, u64)>,
}

impl Counters {
    fn names(n_shards: usize) -> Vec<String> {
        let mut names: Vec<String> = [
            "ingest.records",
            "ingest.reordered",
            "ingest.duplicates",
            "ingest.late_dropped",
            "ingest.dead_letter",
            "ingest.alarms",
            "ingest.quality.flagged",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        names.extend((0..n_shards).map(|i| format!("ingest.shard{i:02}.records")));
        names
    }

    fn read(n_shards: usize) -> Counters {
        let values = Counters::names(n_shards)
            .into_iter()
            .map(|n| (n.clone(), obs::counter(&n).get()))
            .collect();
        Counters { values }
    }

    /// Counter growth since `base`, by name.
    fn since(&self, base: &Counters) -> Vec<(String, u64)> {
        self.values
            .iter()
            .zip(&base.values)
            .map(|((n, now), (_, was))| (n.clone(), now - was))
            .collect()
    }
}

/// What the counters must have grown by: the engine's stats.
fn expected(stats: &IngestStats, shard_stats: &[IngestStats]) -> Vec<(String, u64)> {
    let mut values = vec![
        stats.records,
        stats.reordered,
        stats.duplicates,
        stats.late_dropped,
        stats.dead_letter,
        stats.alarms,
        stats.quality_flagged,
    ];
    values.extend(shard_stats.iter().map(|s| s.records));
    Counters::names(shard_stats.len()).into_iter().zip(values).collect()
}

/// A lossy, reordered, duplicated stream of the first `n` items of a
/// small fleet with one vehicle NaN-bursting from halfway: every
/// `IngestStats` field moves under a 10-minute horizon.
fn dirty_items(n: usize) -> Vec<StreamItem> {
    let fleet = FleetConfig::small(42).generate();
    let clean: Vec<StreamItem> = interleave_fleet(&fleet).into_iter().take(n).collect();
    let dirt = DirtyConfig { corrupt_prob: 0.02, ..DirtyConfig::lossy(9) }.with_target(
        fleet.vehicles[0].id.0,
        0.5,
        CorruptionMode::NanBurst,
    );
    dirty_stream(&clean, &dirt)
}

#[test]
fn counters_equal_ingest_stats_after_every_call() {
    let _lock = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    obs::set_metrics_enabled(true);
    let mut cfg = IngestConfig::paper_default(2);
    cfg.horizon_s = 600;
    let items = dirty_items(30_000);
    let names = FleetConfig::small(42).generate().vehicles[0].frame.names().to_vec();
    let mut engine = ShardedIngest::new(&names, cfg);
    let base = Counters::read(2);
    let mut rest = items.as_slice();
    let mut call = 0usize;
    while !rest.is_empty() {
        // Alternate batches of varied size with runs of single items.
        if call.is_multiple_of(2) {
            let n = rest.len().min(700 + 311 * (call % 5));
            let _ = engine.ingest_batch(rest[..n].to_vec());
            rest = &rest[n..];
        } else {
            for item in &rest[..rest.len().min(37)] {
                let _ = engine.ingest(item.clone());
                assert_eq!(
                    Counters::read(2).since(&base),
                    expected(&engine.stats(), &engine.shard_stats()),
                    "after single-item ingest in call {call}"
                );
            }
            rest = &rest[rest.len().min(37)..];
        }
        assert_eq!(
            Counters::read(2).since(&base),
            expected(&engine.stats(), &engine.shard_stats()),
            "after call {call}"
        );
        call += 1;
    }
    let _ = engine.finish();
    assert_eq!(
        Counters::read(2).since(&base),
        expected(&engine.stats(), &engine.shard_stats()),
        "after finish"
    );
    let stats = engine.stats();
    for (field, v) in [
        ("reordered", stats.reordered),
        ("duplicates", stats.duplicates),
        ("late_dropped", stats.late_dropped),
        ("dead_letter", stats.dead_letter),
        ("alarms", stats.alarms),
        ("quality_flagged", stats.quality_flagged),
    ] {
        assert!(v > 0, "the stream must move {field}");
    }
}

#[test]
fn observe_health_flushes_latency_and_queue_depth() {
    let _lock = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    obs::set_metrics_enabled(true);
    let fleet = FleetConfig::small(42).generate();
    let items = interleave_fleet(&fleet);
    let names = fleet.vehicles[0].frame.names().to_vec();
    let mut engine = ShardedIngest::new(&names, IngestConfig::paper_default(1));
    let latency = obs::histogram("alarm.latency_ns");
    let depth = obs::histogram("ingest.shard00.queue_depth");
    let (latency_base, depth_base) = (latency.snapshot().count, depth.snapshot().count);
    let mut alarms = 0u64;
    for batch in items.chunks(4096) {
        alarms += engine.ingest_batch(batch.to_vec()).len() as u64;
        let _ = engine.observe_health();
        let stats = engine.stats();
        assert_eq!(latency.snapshot().count - latency_base, alarms, "one latency per alarm");
        assert_eq!(
            depth.snapshot().count - depth_base,
            stats.records + stats.maintenance,
            "one queue-depth sample per item offered"
        );
    }
    assert!(alarms > 0, "the fleet must alarm before the stream ends");
}
