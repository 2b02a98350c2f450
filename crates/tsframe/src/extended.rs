//! Extended step-1 transformations beyond the four the paper evaluates:
//! the *frequency-domain* and *histogram* alternatives it names in
//! Section 3.1. Both reuse the windowed emission protocol of the core
//! transformations and are exercised by the `exp_ablations` experiment.

use crate::transform::Transform;
use navarchos_dsp::{band_energies, spectral_centroid, Histogram};
use navarchos_stat::snapshot::{SnapError, SnapReader, SnapWriter};

/// Shared window-buffer state codec for the extended transformations
/// (both buffer raw columns + timestamps with an emission cadence).
fn write_buffer_state(
    w: &mut SnapWriter,
    cols: &[Vec<f64>],
    times: &[i64],
    since_emit: usize,
    full_once: bool,
) {
    w.put_usize(cols.len());
    for c in cols {
        w.put_f64_slice(c);
    }
    w.put_usize(times.len());
    for &t in times {
        w.put_i64(t);
    }
    w.put_usize(since_emit);
    w.put_bool(full_once);
}

// The tuple mirrors the four buffer fields the two callers restore in
// place; a named struct would outlive its single use.
#[allow(clippy::type_complexity)]
fn read_buffer_state(
    r: &mut SnapReader<'_>,
    n_cols: usize,
    window: usize,
) -> Result<(Vec<Vec<f64>>, Vec<i64>, usize, bool), SnapError> {
    let nc = r.get_len(8)?;
    if nc != n_cols {
        return Err(SnapError::Corrupt("window buffer column count mismatch"));
    }
    let mut cols = Vec::with_capacity(nc);
    for _ in 0..nc {
        let c = r.get_f64_vec()?;
        if c.len() > window {
            return Err(SnapError::Corrupt("window buffer column exceeds window"));
        }
        cols.push(c);
    }
    let nt = r.get_len(8)?;
    let mut times = Vec::with_capacity(nt);
    for _ in 0..nt {
        times.push(r.get_i64()?);
    }
    let since_emit = r.get_usize()?;
    let full_once = r.get_bool()?;
    Ok((cols, times, since_emit, full_once))
}

/// Frequency-domain transformation: per signal, the normalised energies of
/// `n_bands` spectral bands plus the spectral centroid of the window —
/// `(n_bands + 1) · f` output features. The band energies are normalised,
/// so the features describe the *texture* of each signal's dynamics, not
/// its amplitude (which is usage-dependent).
#[derive(Debug, Clone)]
pub struct SpectralTransform {
    names: Vec<String>,
    window: usize,
    stride: usize,
    n_bands: usize,
    max_gap: i64,
    cols: Vec<Vec<f64>>,
    times: Vec<i64>,
    since_emit: usize,
    full_once: bool,
}

impl SpectralTransform {
    /// Creates the transformation with the given window/stride (records)
    /// and band count.
    pub fn new(input_names: &[String], window: usize, stride: usize, n_bands: usize) -> Self {
        assert!(window >= 8, "spectral windows need at least 8 records");
        assert!(stride >= 1 && n_bands >= 1);
        SpectralTransform {
            names: input_names.to_vec(),
            window,
            stride,
            n_bands,
            max_gap: 6 * 3600,
            cols: vec![Vec::new(); input_names.len()],
            times: Vec::new(),
            since_emit: 0,
            full_once: false,
        }
    }

    fn buffer_push(&mut self, t: i64, row: &[f64]) -> bool {
        if let Some(&last) = self.times.last() {
            if t.saturating_sub(last) > self.max_gap {
                self.reset();
            }
        }
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
            return false;
        }
        if !self.full_once {
            self.full_once = true;
            self.since_emit = 0;
            return true;
        }
        self.since_emit += 1;
        if self.since_emit >= self.stride {
            self.since_emit = 0;
            true
        } else {
            false
        }
    }
}

impl Transform for SpectralTransform {
    fn output_dim(&self) -> usize {
        self.names.len() * (self.n_bands + 1)
    }

    fn output_names(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.output_dim());
        for n in &self.names {
            for b in 0..self.n_bands {
                out.push(format!("{n}:band{b}"));
            }
            out.push(format!("{n}:centroid"));
        }
        out
    }

    fn push(&mut self, timestamp: i64, row: &[f64]) -> Option<(i64, Vec<f64>)> {
        debug_assert_eq!(row.len(), self.names.len());
        if !self.buffer_push(timestamp, row) {
            return None;
        }
        let mut out = Vec::with_capacity(self.output_dim());
        for col in &self.cols {
            out.extend(band_energies(col, self.n_bands));
            out.push(spectral_centroid(col));
        }
        Some((timestamp, out))
    }

    fn reset(&mut self) {
        for c in &mut self.cols {
            c.clear();
        }
        self.times.clear();
        self.since_emit = 0;
        self.full_once = false;
    }

    fn write_state(&self, w: &mut SnapWriter) {
        write_buffer_state(w, &self.cols, &self.times, self.since_emit, self.full_once);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let (cols, times, since_emit, full_once) =
            read_buffer_state(r, self.names.len(), self.window)?;
        self.cols = cols;
        self.times = times;
        self.since_emit = since_emit;
        self.full_once = full_once;
        Ok(())
    }
}

/// Histogram transformation: per signal, a normalised fixed-range
/// histogram of the window — `bins · f` output features. Ranges default to
/// each signal's physical plausibility window.
#[derive(Debug, Clone)]
pub struct HistogramTransform {
    names: Vec<String>,
    hists: Vec<Histogram>,
    window: usize,
    stride: usize,
    max_gap: i64,
    cols: Vec<Vec<f64>>,
    times: Vec<i64>,
    since_emit: usize,
    full_once: bool,
}

impl HistogramTransform {
    /// Creates the transformation; `ranges[i] = (lo, hi)` per signal.
    pub fn new(
        input_names: &[String],
        ranges: &[(f64, f64)],
        bins: usize,
        window: usize,
        stride: usize,
    ) -> Self {
        assert_eq!(input_names.len(), ranges.len(), "one range per signal");
        assert!(window >= 2 && stride >= 1 && bins >= 2);
        HistogramTransform {
            names: input_names.to_vec(),
            hists: ranges.iter().map(|&(lo, hi)| Histogram::new(lo, hi, bins)).collect(),
            window,
            stride,
            max_gap: 6 * 3600,
            cols: vec![Vec::new(); input_names.len()],
            times: Vec::new(),
            since_emit: 0,
            full_once: false,
        }
    }

    /// The physical PID ranges of the Navarchos schema, in canonical order.
    pub fn navarchos_ranges() -> Vec<(f64, f64)> {
        vec![
            (600.0, 5000.0), // rpm
            (0.0, 140.0),    // speed
            (50.0, 120.0),   // coolantTemp (post warm-up filter)
            (0.0, 60.0),     // intakeTemp
            (20.0, 110.0),   // mapIntake
            (0.0, 160.0),    // mafAirFlowRate
        ]
    }

    fn buffer_push(&mut self, t: i64, row: &[f64]) -> bool {
        if let Some(&last) = self.times.last() {
            if t.saturating_sub(last) > self.max_gap {
                self.reset();
            }
        }
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
            return false;
        }
        if !self.full_once {
            self.full_once = true;
            self.since_emit = 0;
            return true;
        }
        self.since_emit += 1;
        if self.since_emit >= self.stride {
            self.since_emit = 0;
            true
        } else {
            false
        }
    }
}

impl Transform for HistogramTransform {
    fn output_dim(&self) -> usize {
        self.names.len() * self.hists.first().map(|h| h.bins()).unwrap_or(0)
    }

    fn output_names(&self) -> Vec<String> {
        let bins = self.hists.first().map(|h| h.bins()).unwrap_or(0);
        let mut out = Vec::with_capacity(self.output_dim());
        for n in &self.names {
            for b in 0..bins {
                out.push(format!("{n}:bin{b}"));
            }
        }
        out
    }

    fn push(&mut self, timestamp: i64, row: &[f64]) -> Option<(i64, Vec<f64>)> {
        debug_assert_eq!(row.len(), self.names.len());
        if !self.buffer_push(timestamp, row) {
            return None;
        }
        let mut out = Vec::with_capacity(self.output_dim());
        for (col, hist) in self.cols.iter().zip(&self.hists) {
            out.extend(hist.normalized(col));
        }
        Some((timestamp, out))
    }

    fn reset(&mut self) {
        for c in &mut self.cols {
            c.clear();
        }
        self.times.clear();
        self.since_emit = 0;
        self.full_once = false;
    }

    fn write_state(&self, w: &mut SnapWriter) {
        write_buffer_state(w, &self.cols, &self.times, self.since_emit, self.full_once);
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let (cols, times, since_emit, full_once) =
            read_buffer_state(r, self.names.len(), self.window)?;
        self.cols = cols;
        self.times = times;
        self.since_emit = since_emit;
        self.full_once = full_once;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn tone_frame(n: usize) -> Frame {
        let mut f = Frame::new(&["x", "y"]);
        for i in 0..n {
            let t = i as f64;
            f.push_row(i as i64 * 60, &[(t * 0.8).sin() * 10.0, (t * 0.1).sin() * 10.0]);
        }
        f
    }

    /// Event-time overflow probe: a record stamped near `i64::MIN` after
    /// normal ones, then one at `i64::MAX`, once overflowed the window
    /// buffers' gap checks.
    #[test]
    fn extreme_timestamps_saturate_the_gap_checks() {
        let n = names(&["x", "y"]);
        let mut transforms: Vec<Box<dyn Transform>> = vec![
            Box::new(SpectralTransform::new(&n, 8, 1, 2)),
            Box::new(HistogramTransform::new(&n, &[(0.0, 10.0), (0.0, 10.0)], 4, 4, 1)),
        ];
        for t in &mut transforms {
            for ts in [0, 60, 120, i64::MIN + 1, i64::MAX] {
                let _ = t.push(ts, &[1.0, 3.0]);
            }
        }
    }

    #[test]
    fn spectral_dims_and_bounds() {
        let mut t = SpectralTransform::new(&names(&["x", "y"]), 32, 4, 4);
        let f = tone_frame(100);
        let g = t.apply(&f);
        assert_eq!(g.width(), 2 * 5);
        assert!(!g.is_empty());
        for c in 0..g.width() {
            for &v in g.column(c) {
                assert!((0.0..=1.0).contains(&v) || v.is_finite());
            }
        }
        assert_eq!(g.names()[0], "x:band0");
        assert_eq!(g.names()[4], "x:centroid");
    }

    #[test]
    fn spectral_separates_fast_and_slow_signals() {
        let mut t = SpectralTransform::new(&names(&["x", "y"]), 32, 8, 4);
        let f = tone_frame(120);
        let g = t.apply(&f);
        // x oscillates fast (ω = 0.8), y slowly (ω = 0.1): x's centroid is
        // higher.
        let cx = g.column_by_name("x:centroid").unwrap();
        let cy = g.column_by_name("y:centroid").unwrap();
        let mx = cx.iter().sum::<f64>() / cx.len() as f64;
        let my = cy.iter().sum::<f64>() / cy.len() as f64;
        assert!(mx > my, "fast signal has higher centroid: {mx} vs {my}");
    }

    #[test]
    fn histogram_rows_sum_to_signal_count() {
        let ranges = vec![(-10.0, 10.0), (-10.0, 10.0)];
        let mut t = HistogramTransform::new(&names(&["x", "y"]), &ranges, 5, 16, 4);
        let f = tone_frame(60);
        let g = t.apply(&f);
        assert_eq!(g.width(), 10);
        for i in 0..g.len() {
            let row = g.row(i);
            let sx: f64 = row[..5].iter().sum();
            let sy: f64 = row[5..].iter().sum();
            assert!((sx - 1.0).abs() < 1e-9, "x histogram normalised");
            assert!((sy - 1.0).abs() < 1e-9, "y histogram normalised");
        }
    }

    #[test]
    fn navarchos_ranges_match_schema_width() {
        assert_eq!(HistogramTransform::navarchos_ranges().len(), 6);
    }

    #[test]
    fn reset_clears_buffers() {
        let ranges = vec![(-10.0, 10.0)];
        let mut t = HistogramTransform::new(&names(&["x"]), &ranges, 3, 4, 1);
        assert!(t.push(0, &[1.0]).is_none());
        for i in 1..4 {
            t.push(i * 60, &[1.0]);
        }
        t.reset();
        assert!(t.push(300, &[1.0]).is_none(), "buffer restarted");
    }
}
