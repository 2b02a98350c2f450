//! The `paper_eval` workload: the four transformation cells with
//! Closest-pair, scored over the fleet with `fleet_scores` and swept for
//! both settings at PH 15 and 30 — the data behind Figs 4–5 and Table 2.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use navarchos_bench::grid::maintenance_of;
use navarchos_bench::{fleet_scores, Cell, GridOutcome};
use navarchos_core::detectors::DetectorKind;
use navarchos_core::evaluation::EvalCounts;
use navarchos_core::runner::{run_vehicle, RunnerParams, VehicleScores};
use navarchos_core::{par_map, ResetPolicy};
use navarchos_fleetsim::FleetData;
use navarchos_tsframe::TransformKind;

use crate::checks::Checks;
use crate::ns_since;
use crate::trace::{self, Tracer};

/// The four cells, in the paper's transformation order.
pub const TRANSFORMS: [TransformKind; 4] =
    [TransformKind::Raw, TransformKind::Delta, TransformKind::Mean, TransformKind::Correlation];

/// Metric-name suffix of a transformation.
pub fn label(t: TransformKind) -> &'static str {
    match t {
        TransformKind::Raw => "raw",
        TransformKind::Delta => "delta",
        TransformKind::Mean => "mean",
        TransformKind::Correlation => "correlation",
        _ => "other",
    }
}

/// Prediction horizons swept per setting.
pub const HORIZONS: [i64; 2] = [15, 30];

fn cell(t: TransformKind) -> Cell {
    Cell { transform: t, detector: DetectorKind::ClosestPair }
}

/// The two vehicle subsets: setting26, then setting40.
pub fn subsets(fleet: &FleetData) -> [Vec<usize>; 2] {
    [fleet.setting26(), fleet.setting40()]
}

/// One untraced pass over the four cells.
#[derive(Debug, Default)]
pub struct Pass {
    /// Summed wall of the cells.
    pub wall_ns: u64,
    /// Wall of each cell: `fleet_scores` plus its four sweeps.
    pub cell_ns: Vec<u64>,
    /// `(best factor, counts)` per cell × setting × PH, in loop order.
    pub sweeps: Vec<(f64, EvalCounts)>,
    /// Per cell, a digest of each vehicle's score trace (when asked for).
    pub digests: Vec<Vec<u64>>,
}

/// Scores and sweeps the four cells; with `digest`, also digests each
/// cell's score traces after its timing stops.
pub fn run_pass(fleet: &FleetData, subsets: &[Vec<usize>; 2], digest: bool) -> Pass {
    let mut p = Pass::default();
    for t in TRANSFORMS {
        let tc = Instant::now();
        let outcome = fleet_scores(fleet, cell(t), ResetPolicy::OnServiceOrRepair);
        for subset in subsets {
            for ph in HORIZONS {
                p.sweeps.push(outcome.evaluate(fleet, subset, ph));
            }
        }
        p.cell_ns.push(ns_since(tc));
        if digest {
            p.digests.push(outcome.scores.iter().map(scores_digest).collect());
        }
    }
    p.wall_ns = p.cell_ns.iter().sum();
    p
}

/// Index into [`Pass::sweeps`] of the correlation cell's setting26 / PH30
/// sweep (the Table 2 headline).
pub const TABLE2_SWEEP: usize = 3 * 4 + 1;

/// Digest of a score trace over the bits of everything the sweeps read:
/// timestamps, scores, channels, segments and their std floors. Equal
/// digests stand for bit-identical traces; keeping digests rather than the
/// traces keeps the traced run's memory what the untraced run's is.
pub fn scores_digest(v: &VehicleScores) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (v.n_channels, v.constant_threshold, &v.channel_names, &v.timestamps).hash(&mut h);
    v.scores.iter().for_each(|x| x.to_bits().hash(&mut h));
    for seg in &v.segments {
        (seg.start, seg.detect_from, seg.end).hash(&mut h);
    }
    for ctx in &v.contexts {
        ctx.std_floors.len().hash(&mut h);
        ctx.std_floors.iter().for_each(|x| x.to_bits().hash(&mut h));
    }
    h.finish()
}

/// What the traced evaluation pass measured.
#[derive(Debug)]
pub struct Traced {
    /// Span recorder.
    pub tracer: Tracer,
    /// Summed `run_vehicle` busy time per cell.
    pub runner_busy_ns: [u64; 4],
    /// Summed `par_map` wall.
    pub par_wall_ns: u64,
    /// Largest over mean task time, averaged over the cells.
    pub task_max_over_mean: f64,
    /// Worker threads `par_map` used.
    pub workers: usize,
    /// Summed wall of the traced cells.
    pub wall_ns: u64,
}

/// The traced pass: per cell, a `par_map` fan-out of `run_vehicle` over
/// the fleet (what `fleet_scores` does) with each task timed on its
/// worker, then the four sweeps. The score traces must match the untraced
/// `fleet_scores` traces' `reference` digests.
pub fn traced_pass(
    fleet: &FleetData,
    subsets: &[Vec<usize>; 2],
    reference: &[Vec<u64>],
    checks: &mut Checks,
) -> Traced {
    let mut tr = Tracer::new(1);
    let mut runner_busy_ns = [0u64; 4];
    let mut imbalance = Vec::new();
    for (ci, t) in TRANSFORMS.into_iter().enumerate() {
        let c = ci as u64;
        tr.enter(trace::EVAL_CELL, c);
        let mut params = RunnerParams::paper_default(t, DetectorKind::ClosestPair);
        params.reset_policy = ResetPolicy::OnServiceOrRepair;
        tr.enter(trace::PAR_MAP, c);
        let par_id = tr.current();
        let base = &tr;
        let tasks: Vec<(VehicleScores, u64, u64)> = par_map(&fleet.vehicles, |v, vd| {
            let start = base.now();
            let maint = maintenance_of(fleet, v);
            let scores = run_vehicle(&vd.frame, &maint, &params);
            (scores, start, base.now())
        });
        tr.exit();
        let mut busy = Vec::with_capacity(tasks.len());
        for (v, (_, s, e)) in tasks.iter().enumerate() {
            tr.record_concurrent(trace::RUN_VEHICLE, par_id, v as u64, *s, *e);
            busy.push(e.saturating_sub(*s) as f64);
        }
        runner_busy_ns[ci] = busy.iter().sum::<f64>() as u64;
        let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        imbalance.push(crate::stats::ratio(busy.iter().copied().fold(0.0, f64::max), mean));
        let scores = tasks.into_iter().map(|x| x.0).collect();
        let outcome = GridOutcome { cell: cell(t), scores, scoring_seconds: 0.0 };
        for subset in subsets {
            for ph in HORIZONS {
                tr.enter(trace::EVAL_SWEEP, c);
                std::hint::black_box(outcome.evaluate(fleet, subset, ph));
                tr.exit();
            }
        }
        tr.exit();
        let digests: Vec<u64> = outcome.scores.iter().map(scores_digest).collect();
        checks.check(reference.get(ci) == Some(&digests), || {
            format!("traced {} cell: run_vehicle scores differ from fleet_scores", label(t))
        });
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, fleet.vehicles.len().max(1));
    Traced {
        wall_ns: tr.agg(trace::EVAL_CELL).total_ns,
        runner_busy_ns,
        par_wall_ns: tr.agg(trace::PAR_MAP).total_ns,
        task_max_over_mean: crate::stats::median(&imbalance),
        workers,
        tracer: tr,
    }
}
