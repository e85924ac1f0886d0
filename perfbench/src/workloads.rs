//! The benchmark's workloads. Every workload runs the whole pipeline —
//! set-up with an α* search, traffic, validation, rate search, link
//! failover — in short interleaved units on its own scenario; the
//! parameters decide which stage does most of the work. See
//! `perfbench/README.md` for why each exists.

/// Open-loop flow-setup traffic: Poisson arrivals at `RATE` setups per
/// second over all `WORKERS` threads, exponential holding times of mean
/// `HOLD_S` seconds, uniform seeded pairs.
pub const WORKERS: usize = 2;
pub const RATE: f64 = 250e3;
pub const HOLD_S: f64 = 0.2;
/// Packet-level validation horizon, seconds.
pub const HORIZON_S: f64 = 0.05;
/// Length of one unit of open-loop churn, of one rate trial, and of one
/// batch of back-to-back failovers, seconds.
pub const CHURN_UNIT_S: f64 = 0.25;
pub const TRIAL_S: f64 = 0.4;
pub const FAILOVER_UNIT_S: f64 = 0.1;

/// The stages a run interleaves, in the order they first run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// One set-up: parse, α* search, first generation, controller.
    Setup,
    /// One unit of main traffic: a churn unit, or one greedy fill.
    Traffic,
    /// One validation of the flows the traffic left live.
    Validate,
    /// One trial of the bisection for the highest rate that meets the
    /// sojourn limit.
    Rate,
    /// One batch of back-to-back failover cycles.
    Failover,
}

pub const STAGES: [Stage; 5] = [
    Stage::Setup,
    Stage::Traffic,
    Stage::Validate,
    Stage::Rate,
    Stage::Failover,
];

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub scenario: &'static str,
    /// Main traffic: a one-thread closed-loop greedy fill instead of churn.
    pub fill: bool,
    /// Each stage's share of `--seconds`, in the order of [`STAGES`].
    pub shares: [f64; 5],
}

const MCI: &str = include_str!("../scenarios/mci.toml");
const WAXMAN40: &str = include_str!("../scenarios/waxman40.toml");

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "mci-churn",
            scenario: MCI,
            fill: false,
            shares: [0.1, 0.4, 0.2, 0.2, 0.1],
        },
        Workload {
            name: "waxman-config",
            scenario: WAXMAN40,
            fill: true,
            shares: [0.15, 0.15, 0.3, 0.05, 0.35],
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
