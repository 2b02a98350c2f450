//! Record filters applied before any data transformation (Section 3.2 of
//! the paper: "we first filter out records that correspond to the
//! stationary state of the vehicle and sensor faulty data").

use crate::frame::Frame;

/// Physically valid range for one signal; values outside are treated as
/// sensor faults and the whole record is dropped.
#[derive(Debug, Clone)]
pub struct ValidRange {
    /// Signal (column) name the range applies to.
    pub name: String,
    /// Inclusive lower bound.
    pub min: f64,
    /// Inclusive upper bound.
    pub max: f64,
}

impl ValidRange {
    /// Convenience constructor.
    pub fn new(name: &str, min: f64, max: f64) -> Self {
        assert!(min <= max, "invalid range for {name}");
        ValidRange { name: name.to_string(), min, max }
    }
}

/// Filter specification: stationary-state detection plus per-signal valid
/// ranges.
#[derive(Debug, Clone, Default)]
pub struct FilterSpec {
    /// Name of the road-speed column; rows with speed below
    /// `min_moving_speed` *and* rpm below `min_running_rpm` count as
    /// stationary.
    pub speed_column: Option<String>,
    /// Name of the engine-speed column.
    pub rpm_column: Option<String>,
    /// Speed (km/h) below which the vehicle is considered not moving.
    pub min_moving_speed: f64,
    /// Engine speed (rpm) below which the engine is considered off/idle.
    pub min_running_rpm: f64,
    /// Per-signal physical plausibility ranges.
    pub valid_ranges: Vec<ValidRange>,
    /// Warm-up filter: records with this column below `warm_min` are
    /// dropped (the engine has not reached closed-loop operation, so its
    /// thermal signals reflect the cold start, not the vehicle's health).
    pub warm_column: Option<String>,
    /// Minimum value of `warm_column` for a record to be kept.
    pub warm_min: f64,
}

impl FilterSpec {
    /// The filter used for the six Navarchos PID signals: a record is
    /// stationary when the vehicle is not moving and the engine is at or
    /// below idle, and each PID has a physical plausibility window.
    pub fn navarchos_default() -> Self {
        FilterSpec {
            speed_column: Some("speed".to_string()),
            rpm_column: Some("rpm".to_string()),
            min_moving_speed: 3.0,
            min_running_rpm: 950.0,
            valid_ranges: vec![
                ValidRange::new("rpm", 0.0, 8000.0),
                ValidRange::new("speed", 0.0, 220.0),
                ValidRange::new("coolantTemp", -40.0, 135.0),
                ValidRange::new("intakeTemp", -40.0, 120.0),
                ValidRange::new("mapIntake", 5.0, 255.0),
                ValidRange::new("mafAirFlowRate", 0.0, 650.0),
            ],
            warm_column: Some("coolantTemp".to_string()),
            warm_min: 72.0,
        }
    }

    /// Computes the keep-mask for a frame: `true` = record survives.
    /// Records with any non-finite value are always dropped.
    pub fn mask(&self, frame: &Frame) -> Vec<bool> {
        let n = frame.len();
        let mut mask = vec![true; n];

        // Non-finite values anywhere → drop.
        for c in 0..frame.width() {
            let col = frame.column(c);
            for (m, &v) in mask.iter_mut().zip(col) {
                if !v.is_finite() {
                    *m = false;
                }
            }
        }

        // Stationary state: requires both columns to be configured & present.
        if let (Some(sc), Some(rc)) = (&self.speed_column, &self.rpm_column) {
            if let (Some(speed), Some(rpm)) = (frame.column_by_name(sc), frame.column_by_name(rc)) {
                for i in 0..n {
                    if speed[i] < self.min_moving_speed && rpm[i] < self.min_running_rpm {
                        mask[i] = false;
                    }
                }
            }
        }

        // Sensor plausibility ranges.
        for vr in &self.valid_ranges {
            if let Some(col) = frame.column_by_name(&vr.name) {
                for (m, &v) in mask.iter_mut().zip(col) {
                    if v < vr.min || v > vr.max {
                        *m = false;
                    }
                }
            }
        }

        // Warm-up filter.
        if let Some(wc) = &self.warm_column {
            if let Some(col) = frame.column_by_name(wc) {
                for (m, &v) in mask.iter_mut().zip(col) {
                    if v < self.warm_min {
                        *m = false;
                    }
                }
            }
        }

        mask
    }

    /// Applies the filter, returning the surviving rows.
    pub fn apply(&self, frame: &Frame) -> Frame {
        frame.filter_rows(&self.mask(frame))
    }

    /// Streaming variant: whether a single record survives the filter.
    /// `names` labels the row's cells; a row shorter than `names` is
    /// dropped. Resolves the filter's columns on every call — a loop over
    /// records of one layout should [`FilterSpec::bind`] once and call
    /// [`BoundFilter::keep`], which runs the same row test.
    pub fn keep_row(&self, names: &[String], row: &[f64]) -> bool {
        let find = |n: &str| names.iter().position(|x| x == n);
        row_passes(
            row,
            names.len(),
            self.stationary_test(find),
            self.range_tests(find),
            self.warm_test(find),
        )
    }

    /// Resolves the filter's columns against one record layout, once.
    pub fn bind<S: AsRef<str>>(&self, names: &[S]) -> BoundFilter {
        let find = |n: &str| names.iter().position(|x| x.as_ref() == n);
        BoundFilter {
            width: names.len(),
            stationary: self.stationary_test(find),
            ranges: self.range_tests(find).collect(),
            warm: self.warm_test(find),
        }
    }

    /// `(speed column, rpm column, min speed, min rpm)`, when both columns
    /// are configured and present.
    fn stationary_test(
        &self,
        find: impl Fn(&str) -> Option<usize>,
    ) -> Option<(usize, usize, f64, f64)> {
        let (sc, rc) = (self.speed_column.as_deref()?, self.rpm_column.as_deref()?);
        Some((find(sc)?, find(rc)?, self.min_moving_speed, self.min_running_rpm))
    }

    /// `(column, min, max)` for each valid range whose column is present.
    fn range_tests<'a>(
        &'a self,
        find: impl Fn(&str) -> Option<usize> + 'a,
    ) -> impl Iterator<Item = (usize, f64, f64)> + 'a {
        self.valid_ranges.iter().filter_map(move |vr| Some((find(&vr.name)?, vr.min, vr.max)))
    }

    /// `(warm column, warm_min)`, when the column is configured and present.
    fn warm_test(&self, find: impl Fn(&str) -> Option<usize>) -> Option<(usize, f64)> {
        Some((find(self.warm_column.as_deref()?)?, self.warm_min))
    }
}

/// A [`FilterSpec`] with its columns resolved against one record layout
/// by [`FilterSpec::bind`]: the per-record test with no name lookups.
#[derive(Debug, Clone)]
pub struct BoundFilter {
    /// Cells a row must have (the layout's width).
    width: usize,
    /// `(speed column, rpm column, min speed, min rpm)`.
    stationary: Option<(usize, usize, f64, f64)>,
    /// `(column, min, max)` for each valid range whose column is present.
    ranges: Vec<(usize, f64, f64)>,
    /// `(warm column, warm_min)`.
    warm: Option<(usize, f64)>,
}

impl BoundFilter {
    /// Whether a record survives the filter; same answer as
    /// [`FilterSpec::keep_row`] with the names this filter was bound to.
    pub fn keep(&self, row: &[f64]) -> bool {
        row_passes(row, self.width, self.stationary, self.ranges.iter().copied(), self.warm)
    }
}

/// The one per-record filter test, on resolved column indices. A row
/// shorter than `width` is dropped, so no index can fall outside it.
fn row_passes(
    row: &[f64],
    width: usize,
    stationary: Option<(usize, usize, f64, f64)>,
    ranges: impl Iterator<Item = (usize, f64, f64)>,
    warm: Option<(usize, f64)>,
) -> bool {
    if row.len() < width || row.iter().any(|v| !v.is_finite()) {
        return false;
    }
    let cell = |i: usize| row.get(i).copied().unwrap_or(f64::NAN);
    if let Some((si, ri, min_speed, min_rpm)) = stationary {
        if cell(si) < min_speed && cell(ri) < min_rpm {
            return false;
        }
    }
    for (i, min, max) in ranges {
        let v = cell(i);
        if v < min || v > max {
            return false;
        }
    }
    if let Some((wi, warm_min)) = warm {
        if cell(wi) < warm_min {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid_frame() -> Frame {
        let mut f = Frame::new(&[
            "rpm",
            "speed",
            "coolantTemp",
            "intakeTemp",
            "mapIntake",
            "mafAirFlowRate",
        ]);
        // Normal driving record.
        f.push_row(0, &[2000.0, 50.0, 90.0, 25.0, 100.0, 30.0]);
        // Stationary: speed ~0, idle rpm.
        f.push_row(60, &[800.0, 0.0, 88.0, 24.0, 35.0, 8.0]);
        // Moving but low rpm (coasting) — kept: not both conditions met.
        f.push_row(120, &[900.0, 40.0, 89.0, 24.0, 40.0, 10.0]);
        // Sensor fault: impossible coolant temperature.
        f.push_row(180, &[2500.0, 70.0, 250.0, 26.0, 120.0, 45.0]);
        // NaN record.
        f.push_row(240, &[2200.0, f64::NAN, 90.0, 25.0, 110.0, 40.0]);
        f
    }

    #[test]
    fn navarchos_filter_drops_expected_rows() {
        let f = pid_frame();
        let spec = FilterSpec::navarchos_default();
        let mask = spec.mask(&f);
        assert_eq!(mask, vec![true, false, true, false, false]);
        let g = spec.apply(&f);
        assert_eq!(g.len(), 2);
        assert_eq!(g.timestamps(), &[0, 120]);
    }

    #[test]
    fn keep_row_matches_mask() {
        let f = pid_frame();
        let spec = FilterSpec::navarchos_default();
        let mask = spec.mask(&f);
        let names = f.names().to_vec();
        for (i, &keep) in mask.iter().enumerate() {
            assert_eq!(spec.keep_row(&names, &f.row(i)), keep, "row {i}");
        }
    }

    #[test]
    fn short_rows_are_dropped_not_indexed() {
        let spec = FilterSpec::navarchos_default();
        let names = pid_frame().names().to_vec();
        let bound = spec.bind(&names);
        let full = [2000.0, 50.0, 90.0, 25.0, 100.0, 30.0];
        assert!(spec.keep_row(&names, &full) && bound.keep(&full));
        for len in 0..full.len() {
            assert!(!spec.keep_row(&names, &full[..len]), "keep_row, len {len}");
            assert!(!bound.keep(&full[..len]), "keep, len {len}");
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        const PIDS: [&str; 6] =
            ["rpm", "speed", "coolantTemp", "intakeTemp", "mapIntake", "mafAirFlowRate"];

        /// Cells around every bound of the default spec, plus NaN and ±inf,
        /// half the time; uniform over every range the other half.
        fn cell() -> impl Strategy<Value = f64> {
            const EDGES: [f64; 12] = [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -40.0,
                0.0,
                3.0,
                5.0,
                72.0,
                135.0,
                220.0,
                950.0,
                8000.0,
            ];
            (0usize..2 * EDGES.len(), -100.0f64..9000.0)
                .prop_map(|(k, v)| EDGES.get(k).copied().unwrap_or(v))
        }

        /// A layout: each PID column present or missing, an unfiltered
        /// extra column present or missing, all in a random order.
        fn layout() -> impl Strategy<Value = Vec<String>> {
            (prop::collection::vec(0u8..2, PIDS.len() + 1), prop::collection::vec(0u32..1000, 7))
                .prop_map(|(present, order)| {
                    let mut cols: Vec<(u32, String)> = PIDS
                        .iter()
                        .chain(&["odometer"])
                        .zip(&present)
                        .zip(&order)
                        .filter(|((_, &p), _)| p == 1)
                        .map(|((n, _), &k)| (k, n.to_string()))
                        .collect();
                    cols.sort();
                    cols.into_iter().map(|(_, n)| n).collect()
                })
        }

        proptest! {
            #[test]
            fn keep_row_bound_keep_and_mask_agree(
                names in layout(),
                rows in prop::collection::vec(prop::collection::vec(cell(), 7), 1..24),
                cut in 0usize..8,
            ) {
                let spec = FilterSpec::navarchos_default();
                let bound = spec.bind(&names);
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                let mut frame = Frame::new(&refs);
                for (t, row) in rows.iter().enumerate() {
                    frame.push_row(t as i64, &row[..names.len()]);
                }
                let mask = spec.mask(&frame);
                for (i, row) in rows.iter().enumerate() {
                    let row = &row[..names.len()];
                    prop_assert_eq!(spec.keep_row(&names, row), mask[i]);
                    prop_assert_eq!(bound.keep(row), mask[i]);
                    // Short rows: dropped by both forms, never a panic.
                    let short = &row[..cut.min(row.len())];
                    let keep_short = short.len() == names.len() && mask[i];
                    prop_assert_eq!(spec.keep_row(&names, short), keep_short);
                    prop_assert_eq!(bound.keep(short), keep_short);
                }
            }
        }
    }

    #[test]
    fn empty_spec_keeps_finite_rows() {
        let f = pid_frame();
        let spec = FilterSpec::default();
        let mask = spec.mask(&f);
        assert_eq!(mask, vec![true, true, true, true, false], "only NaN row dropped");
    }

    #[test]
    fn missing_columns_are_ignored() {
        let mut f = Frame::new(&["x"]);
        f.push_row(0, &[1.0]);
        let spec = FilterSpec::navarchos_default();
        assert_eq!(spec.mask(&f), vec![true]);
    }

    #[test]
    #[should_panic]
    fn invalid_range_panics() {
        ValidRange::new("x", 2.0, 1.0);
    }
}
