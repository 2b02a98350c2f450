//! Metrics-on contract of `StreamingPipeline::process_record`: the
//! `pipeline.stage.*_ns` histograms hold one sample per *sampled* record
//! (1 in 2^shift, see `obs::probe_sample_mask`), while `alarm.latency_ns`
//! keeps one sample per alarm, aligned with the `pipeline.alarms` counter.
//!
//! Integration test on purpose: the metric registry is process-global, and
//! this binary holds no other test that could record into it while this
//! one counts.

use navarchos_core::{DetectorKind, PipelineConfig, StreamingPipeline, TransformKind};
use navarchos_obs as obs;
use navarchos_tsframe::FilterSpec;

const STAGES: [&str; 3] =
    ["pipeline.stage.filter_ns", "pipeline.stage.transform_ns", "pipeline.stage.score_ns"];

fn count(histogram: &str) -> u64 {
    obs::histogram(histogram).snapshot().count
}

#[test]
fn stage_histograms_count_sampled_records_and_latency_counts_alarms() {
    obs::set_metrics_enabled(true);
    let mask = obs::probe_sample_mask();
    let stages_before: Vec<u64> = STAGES.iter().map(|s| count(s)).collect();
    let latency_before = count("alarm.latency_ns");
    let alarms_counter = obs::counter("pipeline.alarms");
    let alarms_before = alarms_counter.get();

    // Raw records with no filter: every record reaches every stage, so
    // each stage histogram sees exactly the sampled records.
    let mut cfg = PipelineConfig::paper_default(TransformKind::Raw, DetectorKind::ClosestPair);
    cfg.profile_length = 100;
    cfg.holdout = 100;
    cfg.filter = FilterSpec::default();
    let mut pipeline = StreamingPipeline::new(&["a", "b"], cfg);
    let n = 3000u64;
    let mut alarms = 0u64;
    for i in 0..n {
        let a = (i as f64 * 0.7).sin() * 10.0 + 20.0;
        // The relationship flips for the last third: raw points far from
        // the reference profile, so the detector must alarm.
        let b = if i < 2000 { 2.0 * a + 1.0 } else { -2.0 * a + 90.0 };
        alarms += pipeline.process_record(i as i64 * 60, &[a, b]).len() as u64;
    }
    pipeline.flush_obs();

    let sampled = n / (mask + 1);
    assert!(sampled > 0, "the stream must be long enough to sample");
    for (stage, before) in STAGES.iter().zip(stages_before) {
        assert_eq!(count(stage) - before, sampled, "{stage}: one sample per sampled record");
    }
    assert!(alarms > 0, "the flip must alarm");
    assert_eq!(alarms_counter.get() - alarms_before, alarms);
    assert_eq!(count("alarm.latency_ns") - latency_before, alarms, "one latency per alarm");
}
