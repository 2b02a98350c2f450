//! Output checks behind `error_rate`: every check counts as one attempted
//! operation, and a check whose output is wrong counts as one failure.
//! All of them run outside the timed regions.

use std::collections::BTreeMap;

use navarchos_core::evaluation::EvalCounts;
use navarchos_core::pipeline::Alarm;
use navarchos_ingest::{FleetAlarm, IngestStats};

/// Tally of checked operations.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one checked operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Share of checked operations that failed.
    pub fn error_rate(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Bit-exact alarm equality: timestamps, channel, name, and the score and
/// threshold by `to_bits`.
pub fn alarm_identical(a: &Alarm, b: &Alarm) -> bool {
    a.timestamp == b.timestamp
        && a.channel == b.channel
        && a.channel_name == b.channel_name
        && a.score.to_bits() == b.score.to_bits()
        && a.threshold.to_bits() == b.threshold.to_bits()
}

/// One check per vehicle: the served alarms of each vehicle, in emission
/// order, must equal the oracle's (sorted single-vehicle replay) bit for
/// bit. A vehicle the oracle does not know is a failure too.
pub fn check_alarms(
    checks: &mut Checks,
    oracle: &BTreeMap<u32, Vec<Alarm>>,
    served: &[FleetAlarm],
    what: &str,
) {
    let mut by_vehicle: BTreeMap<u32, Vec<&Alarm>> = BTreeMap::new();
    for fa in served {
        by_vehicle.entry(fa.vehicle).or_default().push(&fa.alarm);
    }
    for (vehicle, expected) in oracle {
        let got = by_vehicle.remove(vehicle).unwrap_or_default();
        let ok = got.len() == expected.len()
            && got.iter().zip(expected).all(|(g, e)| alarm_identical(g, e));
        checks.check(ok, || {
            format!(
                "{what}: vehicle {vehicle} served {} alarm(s), replay oracle {}{}",
                got.len(),
                expected.len(),
                if got.len() == expected.len() { " (values differ)" } else { "" }
            )
        });
    }
    for (vehicle, got) in by_vehicle {
        checks.check(false, || {
            format!("{what}: vehicle {vehicle} served {} alarm(s) unknown to the oracle", got.len())
        });
    }
}

/// Counter accounting of one served run over `offered` stream items of
/// which `expected_duplicates` are exact copies: every item is offered,
/// and offered = released + duplicates + late-dropped + dead-lettered
/// with no late drops and no dead letters on lossless dirt.
pub fn check_accounting(
    checks: &mut Checks,
    stats: &IngestStats,
    offered: u64,
    expected_duplicates: u64,
    what: &str,
) {
    let seen = stats.records + stats.maintenance;
    checks.check(seen == offered, || format!("{what}: engine saw {seen} items, offered {offered}"));
    let accounted = stats.released + stats.duplicates + stats.late_dropped + stats.dead_letter;
    checks.check(accounted == offered, || {
        format!(
            "{what}: offered {offered} != released {} + duplicates {} + late {} + dead {}",
            stats.released, stats.duplicates, stats.late_dropped, stats.dead_letter
        )
    });
    checks.check(stats.late_dropped == 0 && stats.dead_letter == 0, || {
        format!(
            "{what}: {} late drop(s) and {} dead letter(s) on lossless input",
            stats.late_dropped, stats.dead_letter
        )
    });
    checks.check(stats.duplicates == expected_duplicates, || {
        format!("{what}: {} duplicates dropped, {expected_duplicates} injected", stats.duplicates)
    });
}

/// One check per sweep: a repetition must give the first repetition's
/// best threshold parameter and counts exactly.
pub fn check_repeat(checks: &mut Checks, first: &[(f64, EvalCounts)], now: &[(f64, EvalCounts)]) {
    checks.check(first.len() == now.len(), || {
        format!("sweep count changed: {} then {}", first.len(), now.len())
    });
    for (i, (a, b)) in first.iter().zip(now).enumerate() {
        checks.check(a.0.to_bits() == b.0.to_bits() && a.1 == b.1, || {
            format!("sweep {i}: first {:?} at {}, now {:?} at {}", a.1, a.0, b.1, b.0)
        });
    }
}

/// The committed Table 2 headline row (setting26, PH 30 days).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// The shared threshold factor.
    pub factor: f64,
    /// F0.5, precision and recall as printed (two decimals).
    pub f05: f64,
    /// Precision.
    pub precision: f64,
    /// Recall.
    pub recall: f64,
}

/// Parses the threshold factor and the setting26 / 30-day row of the
/// rendered Table 2 (`results/table2_best_configuration.txt`).
pub fn parse_table2(text: &str) -> Option<Table2Row> {
    let after = text.split_once("threshold factor ")?.1;
    let factor: f64 = after.split_whitespace().next()?.parse().ok()?;
    let row = text.lines().find(|l| l.contains("setting26") && l.contains("30 days"))?;
    let cells: Vec<f64> = row.split('|').filter_map(|c| c.trim().parse::<f64>().ok()).collect();
    // Cells: F0.5, F1, precision, recall (the PH "30 days" does not parse).
    match cells[..] {
        [f05, _f1, precision, recall] => Some(Table2Row { factor, f05, precision, recall }),
        _ => None,
    }
}

/// The best correlation × Closest-pair sweep must reproduce the committed
/// Table 2 row: the same factor, and F0.5, precision and recall equal at
/// the table's two decimals.
pub fn check_table2(checks: &mut Checks, factor: f64, counts: &EvalCounts, expected: &Table2Row) {
    let two = |x: f64| format!("{x:.2}");
    let ok = factor.to_bits() == expected.factor.to_bits()
        && two(counts.f05()) == two(expected.f05)
        && two(counts.precision()) == two(expected.precision)
        && two(counts.recall()) == two(expected.recall);
    checks.check(ok, || {
        format!(
            "table 2 setting26/PH30: factor {factor}, F0.5 {:.2}, P {:.2}, R {:.2}; \
             committed factor {}, F0.5 {:.2}, P {:.2}, R {:.2}",
            counts.f05(),
            counts.precision(),
            counts.recall(),
            expected.factor,
            expected.f05,
            expected.precision,
            expected.recall
        )
    });
}
