//! A deliberately wrong result must count as a failure: one altered alarm
//! and one altered counter each fail exactly one check.

use std::collections::BTreeMap;

use navarchos_core::evaluation::EvalCounts;
use navarchos_core::pipeline::Alarm;
use navarchos_ingest::{FleetAlarm, IngestStats};
use navbench::checks::{
    check_accounting, check_alarms, check_repeat, check_table2, parse_table2, Checks,
};

fn alarm(t: i64, score: f64) -> Alarm {
    Alarm { timestamp: t, channel: 1, channel_name: "rpm~speed".into(), score, threshold: 2.5 }
}

fn oracle() -> BTreeMap<u32, Vec<Alarm>> {
    BTreeMap::from([
        (3, vec![alarm(60, 3.0), alarm(120, 4.0)]),
        (7, vec![alarm(180, 5.0)]),
        (9, Vec::new()),
    ])
}

fn served() -> Vec<FleetAlarm> {
    oracle()
        .into_iter()
        .flat_map(|(vehicle, alarms)| {
            alarms.into_iter().map(move |alarm| FleetAlarm { vehicle, alarm })
        })
        .collect()
}

/// 100 offered items: 90 released, 10 duplicates.
fn stats() -> IngestStats {
    IngestStats {
        records: 96,
        maintenance: 4,
        released: 90,
        duplicates: 10,
        ..IngestStats::default()
    }
}

#[test]
fn correct_results_pass_every_check() {
    let mut checks = Checks::default();
    check_alarms(&mut checks, &oracle(), &served(), "test");
    check_accounting(&mut checks, &stats(), 100, 10, "test");
    assert_eq!(checks.attempted, 3 + 4);
    assert_eq!(checks.failed, 0, "{:?}", checks.failures);
    assert_eq!(checks.error_rate(), 0.0);
}

#[test]
fn one_altered_alarm_fails_one_check() {
    let mut wrong = served();
    // One ulp on one score: equal to print precision, not to the bit.
    wrong[1].alarm.score = f64::from_bits(wrong[1].alarm.score.to_bits() + 1);
    let mut checks = Checks::default();
    check_alarms(&mut checks, &oracle(), &wrong, "test");
    assert_eq!((checks.attempted, checks.failed), (3, 1), "{:?}", checks.failures);
    assert!(checks.failures[0].contains("vehicle 3"));
}

#[test]
fn a_missing_or_extra_alarm_fails() {
    let mut checks = Checks::default();
    let mut short = served();
    short.pop();
    check_alarms(&mut checks, &oracle(), &short, "test");
    let mut extra = served();
    extra.push(FleetAlarm { vehicle: 11, alarm: alarm(240, 6.0) });
    check_alarms(&mut checks, &oracle(), &extra, "test");
    assert_eq!(checks.failed, 2, "{:?}", checks.failures);
}

#[test]
fn one_altered_count_fails_one_check() {
    let mut wrong = stats();
    wrong.duplicates += 1;
    let mut checks = Checks::default();
    check_accounting(&mut checks, &wrong, 100, 10, "test");
    // The balance and the injected-duplicate count both break.
    assert_eq!(checks.failed, 2, "{:?}", checks.failures);
    let mut late = stats();
    late.released -= 1;
    late.late_dropped += 1;
    let mut checks = Checks::default();
    check_accounting(&mut checks, &late, 100, 10, "test");
    assert_eq!(checks.failed, 1, "a late drop on lossless input must fail: {:?}", checks.failures);
}

#[test]
fn altered_eval_counts_fail() {
    let first = vec![(6.0, EvalCounts { tp: 3, fp: 1, fn_: 6 }); 4];
    let mut now = first.clone();
    now[2].1.fp += 1;
    let mut checks = Checks::default();
    check_repeat(&mut checks, &first, &now);
    assert_eq!((checks.attempted, checks.failed), (5, 1));
}

#[test]
fn table2_row_parses_and_gates() {
    let text = "Table 2\n(Closest-pair on correlation data; the same threshold factor 6 is\n\
                used for all rows)\n\n| Setting | PH | F0.5 | F1 | Precision | Recall |\n\
                | setting26 | 15 days | 0.34 | 0.29 | 0.40 | 0.22 |\n\
                | setting26 | 30 days | 0.60 | 0.46 | 0.75 | 0.33 |\n";
    let row = parse_table2(text).expect("the rendered table parses");
    assert_eq!((row.factor, row.f05, row.precision, row.recall), (6.0, 0.60, 0.75, 0.33));
    let mut checks = Checks::default();
    check_table2(&mut checks, 6.0, &EvalCounts { tp: 3, fp: 1, fn_: 6 }, &row);
    assert_eq!(checks.failed, 0, "{:?}", checks.failures);
    check_table2(&mut checks, 6.0, &EvalCounts { tp: 3, fp: 2, fn_: 6 }, &row);
    check_table2(&mut checks, 5.5, &EvalCounts { tp: 3, fp: 1, fn_: 6 }, &row);
    assert_eq!(checks.failed, 2);
}
