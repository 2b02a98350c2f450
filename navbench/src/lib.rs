//! `navbench` — the repository's end-to-end and per-layer benchmark.
//!
//! Three workloads run from one binary (see `NOTES.md` for why each was
//! chosen and which layers it stresses or bypasses):
//!
//! - `replay_clean`: the first 2^20 items of the interleaved paper fleet
//!   through a 1-shard [`navarchos_ingest::ShardedIngest`] in 1024-item
//!   batches.
//! - `replay_dirty`: the same items with reorder and duplicate dirt
//!   through 2 shards, with a checkpoint every 131,072 items and a restore
//!   after the last one.
//! - `paper_eval`: four transformation cells × Closest-pair scored with
//!   `fleet_scores` and swept for setting26/setting40 at PH 15 and 30.
//!
//! Untraced runs (`--trace 0`) give the end-to-end metrics. Traced runs
//! (`--trace 1`) drive each layer through its public entry points with a
//! span around every call ([`trace::Tracer`]) and print the per-layer
//! budget. Every output is checked outside the timed regions
//! ([`checks`]).

pub mod checks;
pub mod eval;
pub mod host;
pub mod report;
pub mod served;
pub mod stats;
pub mod trace;
pub mod workloads;

/// The paper fleet's seed (`FleetConfig::navarchos()`), the default
/// workload seed.
pub const DEFAULT_SEED: u64 = 20_240_326;

/// SplitMix64 finaliser: derives independent seeds from the workload seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper fleet (40 vehicles, 365 days) generated from `seed`.
pub fn fleet_config(seed: u64) -> navarchos_fleetsim::FleetConfig {
    navarchos_fleetsim::FleetConfig { seed, ..navarchos_fleetsim::FleetConfig::navarchos() }
}

/// The first `k` vehicles of a fleet with their fault windows: the small
/// fleet the traced run uses to probe the layers a workload bypasses.
pub fn fleet_slice(
    fleet: &navarchos_fleetsim::FleetData,
    k: usize,
) -> navarchos_fleetsim::FleetData {
    let k = k.min(fleet.vehicles.len());
    navarchos_fleetsim::FleetData {
        n_days: fleet.n_days,
        vehicles: fleet.vehicles[..k].to_vec(),
        faults: fleet.faults.iter().filter(|f| f.vehicle < k).cloned().collect(),
    }
}

/// Paces a run: another pass starts only while it is expected to end
/// within the measured seconds (the first pass always runs).
#[derive(Debug)]
pub struct RunClock {
    started: std::time::Instant,
    seconds: f64,
    longest: f64,
    prev: f64,
    laps: usize,
}

impl RunClock {
    /// Starts the clock for `seconds` of measurement.
    pub fn new(seconds: f64) -> Self {
        RunClock { started: std::time::Instant::now(), seconds, longest: 0.0, prev: 0.0, laps: 0 }
    }

    /// Whether another pass fits.
    pub fn another(&self) -> bool {
        self.laps == 0 || self.started.elapsed().as_secs_f64() + self.longest <= self.seconds
    }

    /// Marks the end of a pass.
    pub fn lap(&mut self) {
        let now = self.started.elapsed().as_secs_f64();
        self.longest = self.longest.max(now - self.prev);
        self.prev = now;
        self.laps += 1;
    }
}

/// Nanoseconds elapsed since `t`, saturating.
pub fn ns_since(t: std::time::Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
