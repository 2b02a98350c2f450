//! Per-vehicle data-quality monitors: NaN/missing fraction, cadence-gap
//! rate, and value-range drift against a frozen reference window.
//!
//! The monitors watch the *raw* stream — rows exactly as they arrive,
//! before arity/finiteness validation dead-letters them — because the
//! question they answer ("is this vehicle's feed going bad?") is about
//! what the wire carries, not about what survives validation. A channel
//! that starts streaming NaNs is invisible to the pipelines (the engine
//! rejects those rows) but very visible here.
//!
//! Three signals per vehicle, each over a rolling window of the last
//! [`QualityConfig::window`] records:
//!
//! * **NaN/missing fraction** — non-finite or absent cells as a fraction
//!   of all cells in the window (a truncated row's missing tail counts as
//!   missing).
//! * **Cadence-gap rate** — fraction of inter-record gaps exceeding
//!   [`QualityConfig::cadence_gap_factor`] × the vehicle's median cadence,
//!   learned during the reference phase. Non-positive gaps (reordered
//!   arrivals) are skipped: reordering is the reorder buffer's problem.
//! * **Value-range drift** — per channel, `|rolling mean − reference
//!   mean| / reference std`, against mean/std/min/max frozen from the
//!   first [`QualityConfig::reference_len`] finite samples. The max across
//!   channels is the vehicle's drift score.
//!
//! A record is **flagged** when the NaN or gap fraction crosses its
//! threshold (once the window has filled), or when drift crosses its
//! z-threshold (once the reference is frozen). The drift flag has a
//! second gate: the rolling mean must also sit
//! [`QualityConfig::drift_range_factor`] × the reference's observed
//! *range* away from the reference mean. Vehicle telemetry is regime-
//! structured (urban vs highway days shift every signal's mean by many
//! reference stds), so a z-score alone pages on normal driving; a shift
//! beyond anything the reference ever saw does not. Flag counts feed the
//! shard-health state machine via `HealthSample::quality_flagged`; the
//! engine exports the rolling fractions as `ingest.quality.v*.{nan_bp,
//! gap_bp,drift_mz}` gauges.
//!
//! Memory is bounded: one `f64` ring per channel plus one gap ring per
//! vehicle, all of length `window`.

use navarchos_stat::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
use std::collections::VecDeque;

/// Thresholds and window lengths for one vehicle's monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityConfig {
    /// Finite samples per channel frozen into the reference mean/std.
    pub reference_len: usize,
    /// Rolling window length, in records.
    pub window: usize,
    /// Rolling NaN/missing cell fraction at which records flag.
    pub nan_fraction_flag: f64,
    /// A gap counts when `dt > cadence_gap_factor × median cadence`.
    pub cadence_gap_factor: f64,
    /// Rolling gap fraction at which records flag.
    pub gap_fraction_flag: f64,
    /// Drift z-score (per channel, vs the frozen reference) at which
    /// records flag.
    pub drift_z_flag: f64,
    /// Second gate on the drift flag: the rolling mean must also sit this
    /// many reference *ranges* (`ref_max − ref_min`) away from the
    /// reference mean. Regime changes in normal driving routinely exceed
    /// any z-threshold (the reference std is tiny next to an urban→highway
    /// shift); a shift beyond everything the reference ever saw is the
    /// part that means sensor fault rather than different road.
    pub drift_range_factor: f64,
}

impl Default for QualityConfig {
    fn default() -> QualityConfig {
        QualityConfig {
            // Long enough to span several rides/regimes: a one-ride
            // reference makes every later regime look like drift (an
            // urban-only hour caps `speed`'s range at city speeds).
            reference_len: 256,
            window: 32,
            nan_fraction_flag: 0.25,
            cadence_gap_factor: 8.0,
            // Ride boundaries park the vehicle for hours — long gaps are
            // the normal shape of telematics, so only a majority-gap
            // window flags.
            gap_fraction_flag: 0.5,
            drift_z_flag: 4.0,
            // Calibrated against seeded clean fleets: with a 256-sample
            // reference the worst clean-stream excursion stays under
            // ~1.7 ranges, so 2.5 leaves ~1.5x headroom while still
            // catching any genuine sensor fault (stuck, bias, unit slip
            // — all land tens of ranges out).
            drift_range_factor: 2.5,
        }
    }
}

/// Point-in-time view of a monitor, for gauge export and dashboards.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QualitySnapshot {
    /// Non-finite/missing cells over the rolling window, 0..1.
    pub nan_fraction: f64,
    /// Cadence gaps over the rolling window, 0..1.
    pub gap_fraction: f64,
    /// Max per-channel drift z-score (0 until the reference freezes).
    pub max_drift_z: f64,
    /// True once every channel's reference mean/std is frozen.
    pub reference_frozen: bool,
    /// Records observed so far.
    pub records: u64,
}

/// One channel's reference statistics plus rolling-window state.
#[derive(Debug, Clone)]
struct ChannelQuality {
    // Welford accumulator until `reference_len` finite samples, then
    // frozen into (ref_mean, ref_std).
    ref_count: usize,
    ref_mean: f64,
    ref_m2: f64,
    ref_min: f64,
    ref_max: f64,
    frozen: bool,
    // Rolling window of raw cell values (NaN kept — it is the signal).
    ring: VecDeque<f64>,
    finite_sum: f64,
    finite_count: usize,
    nan_count: usize,
}

impl ChannelQuality {
    fn new() -> ChannelQuality {
        ChannelQuality {
            ref_count: 0,
            ref_mean: 0.0,
            ref_m2: 0.0,
            ref_min: f64::INFINITY,
            ref_max: f64::NEG_INFINITY,
            frozen: false,
            ring: VecDeque::new(),
            finite_sum: 0.0,
            finite_count: 0,
            nan_count: 0,
        }
    }

    fn push(&mut self, v: f64, reference_len: usize, window: usize) {
        if !self.frozen && v.is_finite() {
            self.ref_count += 1;
            let delta = v - self.ref_mean;
            self.ref_mean += delta / self.ref_count as f64;
            self.ref_m2 += delta * (v - self.ref_mean);
            self.ref_min = self.ref_min.min(v);
            self.ref_max = self.ref_max.max(v);
            if self.ref_count >= reference_len {
                self.frozen = true;
            }
        }
        self.ring.push_back(v);
        if v.is_finite() {
            self.finite_sum += v;
            self.finite_count += 1;
        } else {
            self.nan_count += 1;
        }
        if self.ring.len() > window {
            let old = self.ring.pop_front().unwrap_or(f64::NAN);
            if old.is_finite() {
                self.finite_sum -= old;
                self.finite_count -= 1;
            } else {
                self.nan_count -= 1;
            }
        }
    }

    fn ref_std(&self) -> f64 {
        if self.ref_count < 2 {
            return 0.0;
        }
        (self.ref_m2 / (self.ref_count - 1) as f64).sqrt()
    }

    /// Drift z-score of the rolling mean vs the frozen reference; 0 until
    /// both the reference and enough of the window are in. The std floor
    /// keeps a constant-valued reference channel from turning any wiggle
    /// into an infinite z.
    fn drift_z(&self, min_window: usize) -> f64 {
        if !self.frozen || self.finite_count < min_window {
            return 0.0;
        }
        let roll_mean = self.finite_sum / self.finite_count as f64;
        let denom = self.ref_std().max(1e-9 * self.ref_mean.abs().max(1.0));
        ((roll_mean - self.ref_mean) / denom).abs()
    }

    /// The range gate: true when the rolling mean sits `range_factor`
    /// reference ranges away from the reference mean. The floor keeps a
    /// constant-valued reference (zero range) from making the gate
    /// unpassable — any real shift off a constant clears it.
    fn drift_beyond_range(&self, min_window: usize, range_factor: f64) -> bool {
        if !self.frozen || self.finite_count < min_window {
            return false;
        }
        let roll_mean = self.finite_sum / self.finite_count as f64;
        let range = (self.ref_max - self.ref_min).max(1e-9 * self.ref_mean.abs().max(1.0));
        (roll_mean - self.ref_mean).abs() > range_factor * range
    }
}

impl ChannelQuality {
    fn write_state(&self, w: &mut SnapWriter) {
        w.put_usize(self.ref_count);
        w.put_f64(self.ref_mean);
        w.put_f64(self.ref_m2);
        w.put_f64(self.ref_min);
        w.put_f64(self.ref_max);
        w.put_bool(self.frozen);
        w.put_f64_seq(self.ring.len(), self.ring.iter().copied());
        w.put_f64(self.finite_sum);
        w.put_usize(self.finite_count);
        w.put_usize(self.nan_count);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>, window: usize) -> Result<(), SnapError> {
        let ref_count = r.get_usize()?;
        let ref_mean = r.get_f64()?;
        let ref_m2 = r.get_f64()?;
        let ref_min = r.get_f64()?;
        let ref_max = r.get_f64()?;
        let frozen = r.get_bool()?;
        let ring = r.get_f64_vec()?;
        if ring.len() > window {
            return Err(SnapError::Corrupt("quality ring larger than the window"));
        }
        let finite_sum = r.get_f64()?;
        let finite_count = r.get_usize()?;
        let nan_count = r.get_usize()?;
        if finite_count + nan_count != ring.len() {
            return Err(SnapError::Corrupt("quality ring counts disagree with its length"));
        }
        self.ref_count = ref_count;
        self.ref_mean = ref_mean;
        self.ref_m2 = ref_m2;
        self.ref_min = ref_min;
        self.ref_max = ref_max;
        self.frozen = frozen;
        self.ring = ring.into();
        self.finite_sum = finite_sum;
        self.finite_count = finite_count;
        self.nan_count = nan_count;
        Ok(())
    }
}

/// One vehicle's monitor: per-channel stats plus the cadence tracker.
#[derive(Debug, Clone)]
pub struct QualityMonitor {
    cfg: QualityConfig,
    channels: Vec<ChannelQuality>,
    records: u64,
    // Cadence: inter-record gaps collected during warm-up, median frozen.
    last_ts: Option<i64>,
    warmup_dts: Vec<i64>,
    median_dt: Option<i64>,
    gap_ring: VecDeque<bool>,
    gap_count: usize,
}

impl QualityMonitor {
    /// A monitor for rows of `n_channels` values.
    pub fn new(n_channels: usize, cfg: QualityConfig) -> QualityMonitor {
        QualityMonitor {
            cfg,
            channels: (0..n_channels).map(|_| ChannelQuality::new()).collect(),
            records: 0,
            last_ts: None,
            warmup_dts: Vec::new(),
            median_dt: None,
            gap_ring: VecDeque::new(),
            gap_count: 0,
        }
    }

    /// Observes one raw record (pre-validation). Cells beyond the row's
    /// length count as missing. Returns true when the record is flagged
    /// under the config's thresholds.
    pub fn observe(&mut self, timestamp: i64, row: &[f64]) -> bool {
        self.records += 1;
        for (i, ch) in self.channels.iter_mut().enumerate() {
            let v = row.get(i).copied().unwrap_or(f64::NAN);
            ch.push(v, self.cfg.reference_len, self.cfg.window);
        }
        self.observe_cadence(timestamp);
        self.flagged()
    }

    fn observe_cadence(&mut self, timestamp: i64) {
        let prev = self.last_ts.replace(timestamp);
        let Some(prev) = prev else { return };
        // Saturating: an extreme backwards jump still reads as reordered.
        let dt = timestamp.saturating_sub(prev);
        if dt <= 0 {
            // Reordered arrival: sequencing trouble, not a cadence gap.
            return;
        }
        match self.median_dt {
            None => {
                self.warmup_dts.push(dt);
                if self.warmup_dts.len() >= self.cfg.reference_len {
                    self.warmup_dts.sort_unstable();
                    self.median_dt = Some(self.warmup_dts[self.warmup_dts.len() / 2].max(1));
                    self.warmup_dts = Vec::new();
                }
            }
            Some(median) => {
                let is_gap = dt as f64 > self.cfg.cadence_gap_factor * median as f64;
                self.gap_ring.push_back(is_gap);
                self.gap_count += usize::from(is_gap);
                if self.gap_ring.len() > self.cfg.window {
                    let old = self.gap_ring.pop_front().unwrap_or(false);
                    self.gap_count -= usize::from(old);
                }
            }
        }
    }

    fn min_window(&self) -> usize {
        (self.cfg.window / 4).max(4)
    }

    fn nan_fraction(&self) -> f64 {
        let cells: usize = self.channels.iter().map(|c| c.ring.len()).sum();
        if cells == 0 {
            return 0.0;
        }
        let nan: usize = self.channels.iter().map(|c| c.nan_count).sum();
        nan as f64 / cells as f64
    }

    fn gap_fraction(&self) -> f64 {
        if self.gap_ring.is_empty() {
            return 0.0;
        }
        self.gap_count as f64 / self.gap_ring.len() as f64
    }

    fn max_drift_z(&self) -> f64 {
        let min_window = self.min_window();
        self.channels.iter().map(|c| c.drift_z(min_window)).fold(0.0, f64::max)
    }

    fn flagged(&self) -> bool {
        let windowed = self.records >= self.cfg.window as u64;
        if windowed && self.nan_fraction() >= self.cfg.nan_fraction_flag {
            return true;
        }
        // The gap ring only starts filling once the cadence median is
        // frozen, so gate on *its* fill — right after freeze, one gap in
        // a two-entry ring would otherwise read as "half the window".
        if self.gap_ring.len() >= self.cfg.window
            && self.gap_fraction() >= self.cfg.gap_fraction_flag
        {
            return true;
        }
        if !self.reference_frozen() {
            return false;
        }
        let min_window = self.min_window();
        // Both gates on the same channel: statistically impossible under
        // the reference (z) AND outside everything it ever saw (range).
        self.channels.iter().any(|c| {
            c.drift_z(min_window) >= self.cfg.drift_z_flag
                && c.drift_beyond_range(min_window, self.cfg.drift_range_factor)
        })
    }

    /// True once every channel's reference is frozen.
    pub fn reference_frozen(&self) -> bool {
        !self.channels.is_empty() && self.channels.iter().all(|c| c.frozen)
    }

    /// Current rolling fractions and drift, for gauge export.
    pub fn snapshot(&self) -> QualitySnapshot {
        QualitySnapshot {
            nan_fraction: self.nan_fraction(),
            gap_fraction: self.gap_fraction(),
            max_drift_z: self.max_drift_z(),
            reference_frozen: self.reference_frozen(),
            records: self.records,
        }
    }
}

// Everything outside `cfg` is evolved state: reference accumulators (the
// freeze threshold may not be reached yet), rolling rings, and the cadence
// tracker including its warm-up gap collection.
impl Snapshot for QualityMonitor {
    fn write_state(&self, w: &mut SnapWriter) {
        w.put_usize(self.channels.len());
        for ch in &self.channels {
            ch.write_state(w);
        }
        w.put_u64(self.records);
        w.put_opt_i64(self.last_ts);
        w.put_usize(self.warmup_dts.len());
        for dt in &self.warmup_dts {
            w.put_i64(*dt);
        }
        w.put_opt_i64(self.median_dt);
        w.put_usize(self.gap_ring.len());
        for g in &self.gap_ring {
            w.put_bool(*g);
        }
        w.put_usize(self.gap_count);
    }
}

impl Restore for QualityMonitor {
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n_channels = r.get_usize()?;
        if n_channels != self.channels.len() {
            return Err(SnapError::Corrupt("quality monitor channel-count mismatch"));
        }
        let mut channels: Vec<ChannelQuality> =
            (0..n_channels).map(|_| ChannelQuality::new()).collect();
        for ch in &mut channels {
            ch.read_state(r, self.cfg.window)?;
        }
        let records = r.get_u64()?;
        let last_ts = r.get_opt_i64()?;
        let n_warmup = r.get_len(8)?;
        if n_warmup > self.cfg.reference_len {
            return Err(SnapError::Corrupt("cadence warm-up larger than the reference"));
        }
        let mut warmup_dts = Vec::with_capacity(n_warmup);
        for _ in 0..n_warmup {
            warmup_dts.push(r.get_i64()?);
        }
        let median_dt = r.get_opt_i64()?;
        let n_gaps = r.get_len(1)?;
        if n_gaps > self.cfg.window {
            return Err(SnapError::Corrupt("gap ring larger than the window"));
        }
        let mut gap_ring = VecDeque::with_capacity(n_gaps);
        for _ in 0..n_gaps {
            gap_ring.push_back(r.get_bool()?);
        }
        let gap_count = r.get_usize()?;
        if gap_count != gap_ring.iter().filter(|g| **g).count() {
            return Err(SnapError::Corrupt("gap count disagrees with the gap ring"));
        }
        self.channels = channels;
        self.records = records;
        self.last_ts = last_ts;
        self.warmup_dts = warmup_dts;
        self.median_dt = median_dt;
        self.gap_ring = gap_ring;
        self.gap_count = gap_count;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> QualityConfig {
        QualityConfig { reference_len: 16, window: 8, ..QualityConfig::default() }
    }

    /// Feeds `n` clean records at a steady cadence starting at `t0`. The
    /// signals cycle fast relative to `reference_len` so the frozen
    /// reference sees full periods, not a biased partial phase.
    fn feed_clean(m: &mut QualityMonitor, t0: i64, n: usize) -> bool {
        let mut any = false;
        for i in 0..n {
            let t = t0 + i as i64 * 60;
            let x = (i as f64 * 0.9).sin() + 10.0;
            any |= m.observe(t, &[x, 20.0 + (i as f64 * 1.1).cos()]);
        }
        any
    }

    #[test]
    fn clean_stream_never_flags() {
        let mut m = QualityMonitor::new(2, tiny_cfg());
        assert!(!feed_clean(&mut m, 0, 200), "clean feed flagged");
        let s = m.snapshot();
        assert!(s.reference_frozen);
        assert_eq!(s.nan_fraction, 0.0);
        assert_eq!(s.gap_fraction, 0.0);
        assert!(s.max_drift_z < 4.0, "healthy drift {}", s.max_drift_z);
    }

    #[test]
    fn nan_burst_flags_and_fraction_rises() {
        let mut m = QualityMonitor::new(2, tiny_cfg());
        feed_clean(&mut m, 0, 100);
        let mut flagged = false;
        for i in 100..108 {
            flagged |= m.observe(i * 60, &[f64::NAN, f64::NAN]);
        }
        assert!(flagged, "an all-NaN window must flag");
        assert!(m.snapshot().nan_fraction >= 0.9);
        // The window slides: once it refills with clean records the flag
        // clears (transition records while NaNs drain out may still flag).
        let mut tail_flagged = false;
        for i in 108..160i64 {
            let x = (i as f64 * 0.9).sin() + 10.0;
            let f = m.observe(i * 60, &[x, 20.0 + (i as f64 * 1.1).cos()]);
            if i >= 120 {
                tail_flagged |= f;
            }
        }
        assert!(!tail_flagged, "a refilled clean window must not flag");
        assert_eq!(m.snapshot().nan_fraction, 0.0);
    }

    #[test]
    fn truncated_rows_count_as_missing() {
        let mut m = QualityMonitor::new(4, tiny_cfg());
        for i in 0..40 {
            // Half the cells missing on every record.
            m.observe(i * 60, &[1.0, 2.0]);
        }
        assert!((m.snapshot().nan_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_shift_drives_drift_z_past_threshold() {
        let mut m = QualityMonitor::new(2, tiny_cfg());
        feed_clean(&mut m, 0, 100);
        assert!(m.snapshot().max_drift_z < 4.0);
        // Channel 0 jumps far outside its reference range.
        let mut flagged = false;
        for i in 0..16 {
            let t = 100 * 60 + i * 60;
            flagged |= m.observe(t, &[500.0 + (i as f64 * 0.3).sin(), 20.0]);
        }
        assert!(flagged, "a gross mean shift must flag");
        assert!(m.snapshot().max_drift_z >= 4.0, "z {}", m.snapshot().max_drift_z);
    }

    #[test]
    fn cadence_gaps_are_measured_against_learned_median() {
        let mut m = QualityMonitor::new(1, tiny_cfg());
        // Learn a 60 s cadence.
        for i in 0..30 {
            m.observe(i * 60, &[1.0]);
        }
        assert_eq!(m.snapshot().gap_fraction, 0.0);
        // Then the feed goes sparse: hour-long holes.
        let mut t = 30 * 60;
        let mut flagged = false;
        for _ in 0..8 {
            t += 3600;
            flagged |= m.observe(t, &[1.0]);
        }
        assert!(flagged, "sustained cadence gaps must flag");
        assert!(m.snapshot().gap_fraction > 0.5);
    }

    #[test]
    fn reordered_arrivals_are_not_gaps() {
        let mut m = QualityMonitor::new(1, tiny_cfg());
        for i in 0..30 {
            m.observe(i * 60, &[1.0]);
        }
        // A burst of out-of-order timestamps: dt <= 0 is skipped entirely.
        for i in 0..8 {
            m.observe(29 * 60 - i * 60, &[1.0]);
        }
        assert_eq!(m.snapshot().gap_fraction, 0.0);
    }

    #[test]
    fn memory_is_bounded_by_the_window() {
        let mut m = QualityMonitor::new(3, tiny_cfg());
        for i in 0..10_000 {
            m.observe(i * 60, &[1.0, 2.0, f64::NAN]);
        }
        for c in &m.channels {
            assert!(c.ring.len() <= m.cfg.window);
        }
        assert!(m.gap_ring.len() <= m.cfg.window);
        assert!(m.warmup_dts.is_empty(), "warm-up buffer is released after freeze");
    }
}
