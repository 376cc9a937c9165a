//! The four workloads: their inputs, derived from the seed alone, and one
//! measured call over one input with the checks its outputs must pass.

use crate::spans::{within, Recorder};
use crate::timed::{nanos, Timed, TimedPredictor};
use ccdn_chaos::{ChaosConfig, FaultPlan};
use ccdn_core::{Rbcaer, RbcaerConfig, ShardConfig, ShardedRbcaer};
use ccdn_geo::{Point, Rect};
use ccdn_sim::{ChaosOptions, Ewma, FailureModel, MetricsTotals, OnlineRunner, Runner, Scheme};
use ccdn_trace::{Trace, TraceConfig};
use std::cell::RefCell;

/// Whole set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Hotspots per km² in the paper's evaluation rectangle (310 in
/// 17 km × 11 km); the metro workload keeps it.
const PAPER_DENSITY: f64 = 310.0 / (17.0 * 11.0);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperDay,
    PaperHourly,
    MetroSharded,
    OnlineWeek,
}

/// `Full` is the benchmark; `Tiny` is the same workload shrunk for the
/// smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// What a workload's decisions must do with redirection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Redirects {
    /// Hotspots overload, so balancing must move requests.
    Some,
    /// No hotspot overloads, so balancing must be bypassed.
    None,
    /// Not checked (online plans are routed by the runner, not the plan).
    Unchecked,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::PaperDay, Workload::PaperHourly, Workload::MetroSharded, Workload::OnlineWeek];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperDay => "paper-day",
            Workload::PaperHourly => "paper-hourly",
            Workload::MetroSharded => "metro-sharded",
            Workload::OnlineWeek => "online-week",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's distinct traces; trace `k` is seeded `seed + k`.
    fn trace_configs(self, seed: u64, scale: Scale) -> Vec<TraceConfig> {
        let tiny = scale == Scale::Tiny;
        let (count, base) = match self {
            // The paper's Fig. 6/7 instance: the whole day as one slot.
            Workload::PaperDay => {
                let base = TraceConfig::paper_eval().with_slot_count(1);
                if tiny {
                    (2, base.with_hotspot_count(60).with_request_count(30_000))
                } else {
                    (16, base)
                }
            }
            // The same deployment split by hour: no hotspot overloads.
            Workload::PaperHourly => {
                let base = TraceConfig::paper_eval();
                if tiny {
                    (1, base.with_hotspot_count(60).with_request_count(20_000))
                } else {
                    (5, base)
                }
            }
            // Hotspot-heavy and request-light: 5 req/slot of capacity
            // against 6 req/slot of mean demand, so tiles overload. Many
            // one-slot traces rather than few long ones: plan cost varies
            // more between traces than between slots of one trace.
            Workload::MetroSharded => {
                let n = if tiny { 1_000 } else { 10_000 };
                let side = (n as f64 / PAPER_DENSITY).sqrt();
                let base = TraceConfig::paper_eval()
                    .with_slot_count(1)
                    .with_region(Rect::new(Point::new(0.0, 0.0), Point::new(side, side)))
                    .with_hotspot_count(n)
                    .with_request_count(n * 6)
                    .with_video_count(10_000)
                    .with_service_capacity_fraction(0.0005)
                    .with_cache_capacity_fraction(0.002)
                    .with_cluster_count(n / 250)
                    .with_user_count(n);
                (if tiny { 2 } else { 32 }, base)
            }
            // A week of hourly slots at capacities low enough that the
            // forecast-driven plans must balance.
            Workload::OnlineWeek => {
                let (days, hotspots, per_day) =
                    if tiny { (2, 60, 20_000) } else { (7, 310, 212_472) };
                let base = TraceConfig::paper_eval()
                    .with_days(days)
                    .with_hotspot_count(hotspots)
                    .with_request_count(days as usize * per_day)
                    .with_service_capacity_fraction(0.005)
                    .with_cache_capacity_fraction(0.01);
                (1, base)
            }
        };
        (0..count).map(|k| base.clone().with_seed(seed + k)).collect()
    }

    fn planner_config(self) -> RbcaerConfig {
        match self {
            // Clustering is O(n³) in the hotspot count; the metro regime
            // measures the balancing planner the tiles parallelise.
            Workload::MetroSharded => {
                RbcaerConfig { content_aggregation: false, ..RbcaerConfig::default() }
            }
            _ => RbcaerConfig::default(),
        }
    }

    fn scheme(self) -> Box<dyn Scheme> {
        match self {
            Workload::MetroSharded => {
                Box::new(ShardedRbcaer::new(self.planner_config(), ShardConfig::default()))
            }
            _ => Box::new(Rbcaer::new(self.planner_config())),
        }
    }

    /// The flat planner whose stages traced passes re-run as side probes.
    fn probe_planner(self) -> Option<Rbcaer> {
        matches!(self, Workload::PaperDay | Workload::PaperHourly)
            .then(|| Rbcaer::new(self.planner_config()))
    }

    pub fn is_sharded(self) -> bool {
        self == Workload::MetroSharded
    }

    pub fn is_online(self) -> bool {
        self == Workload::OnlineWeek
    }

    pub fn has_probes(self) -> bool {
        self.probe_planner().is_some()
    }

    fn redirects(self) -> Redirects {
        match self {
            Workload::PaperDay | Workload::MetroSharded => Redirects::Some,
            Workload::PaperHourly => Redirects::None,
            Workload::OnlineWeek => Redirects::Unchecked,
        }
    }
}

/// The generated inputs and the timings of the set-ups that made them.
pub struct Setup {
    pub traces: Vec<Trace>,
    /// Per repeat: synthesis plus runner construction, in seconds.
    pub seconds: Vec<f64>,
    /// Per repeat: trace synthesis alone, in ms.
    pub generate_ms: Vec<f64>,
    /// Per repeat: `Runner::new` / `OnlineRunner::new` alone, in ms.
    pub runner_new_ms: Vec<f64>,
}

impl Setup {
    /// Generates the workload's traces and builds their runners
    /// [`SETUP_REPEATS`] times, keeping the last traces.
    pub fn run(workload: Workload, seed: u64, scale: Scale) -> Setup {
        let configs = workload.trace_configs(seed, scale);
        let mut setup = Setup {
            traces: Vec::new(),
            seconds: Vec::new(),
            generate_ms: Vec::new(),
            runner_new_ms: Vec::new(),
        };
        for _ in 0..SETUP_REPEATS {
            drop(std::mem::take(&mut setup.traces));
            let (traces, generate) =
                ccdn_obs::timed(|| configs.iter().map(TraceConfig::generate).collect::<Vec<_>>());
            let ((), build) = ccdn_obs::timed(|| {
                for trace in &traces {
                    if workload.is_online() {
                        std::hint::black_box(OnlineRunner::new(trace));
                    } else {
                        std::hint::black_box(Runner::new(trace));
                    }
                }
            });
            setup.seconds.push((generate + build).as_secs_f64());
            setup.generate_ms.push(generate.as_secs_f64() * 1e3);
            setup.runner_new_ms.push(build.as_secs_f64() * 1e3);
            setup.traces = traces;
        }
        setup
    }
}

/// Outcome of one measured `Runner::run` / `OnlineRunner::run` call.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    pub wall_ns: u64,
    pub requests: u64,
    pub slots: u64,
    /// Per scheduling call, in ns.
    pub plan_ns: Vec<u64>,
    pub totals: MetricsTotals,
    pub disrupted: u64,
    pub failed_over: u64,
    pub orphaned: u64,
    /// Why the run's outputs are wrong, if they are.
    pub problem: Option<String>,
    /// Every deterministic output, which must repeat on the same input.
    pub fingerprint: String,
}

/// A workload ready to run: its runners over the set-up's traces.
pub struct Case<'t> {
    pub workload: Workload,
    seed: u64,
    traces: &'t [Trace],
    runners: Vec<Runner<'t>>,
}

impl<'t> Case<'t> {
    pub fn new(workload: Workload, setup: &'t Setup, seed: u64) -> Self {
        let runners = if workload.is_online() {
            Vec::new()
        } else {
            setup.traces.iter().map(Runner::new).collect()
        };
        Case { workload, seed, traces: &setup.traces, runners }
    }

    /// Distinct inputs in one pass: one per trace.
    pub fn inputs(&self) -> usize {
        self.traces.len()
    }

    /// Runs input `i` with a fresh planner; spans go to `rec` when given.
    pub fn run(&self, i: usize, rec: Option<&RefCell<Recorder>>) -> RunStats {
        let w = self.workload;
        let mut scheme = match rec {
            Some(rec) => Timed::traced(w.scheme(), rec, w.probe_planner()),
            None => Timed::new(w.scheme()),
        };
        let mut stats = if w.is_online() {
            self.run_online(i, &mut scheme, rec)
        } else {
            self.run_offline(i, &mut scheme, rec)
        };
        match w.redirects() {
            Redirects::Some if scheme.redirected == 0 => {
                stats.problem.get_or_insert_with(|| "no request was redirected".to_owned());
            }
            Redirects::None if scheme.redirected != 0 => {
                stats.problem.get_or_insert_with(|| {
                    format!("{} requests redirected where none may be", scheme.redirected)
                });
            }
            _ => {}
        }
        stats.plan_ns = scheme.latencies_ns;
        stats.fingerprint = format!("{} redirected={}", stats.fingerprint, scheme.redirected);
        if let Some(problem) = &mut stats.problem {
            *problem = format!("{} input {i}: {problem}", w.name());
        }
        stats
    }

    fn run_offline(
        &self,
        i: usize,
        scheme: &mut Timed<'_>,
        rec: Option<&RefCell<Recorder>>,
    ) -> RunStats {
        let trace = &self.traces[i];
        let (result, wall) =
            within(rec, "sim.run", None, false, || ccdn_obs::timed(|| self.runners[i].run(scheme)));
        let mut stats = RunStats {
            wall_ns: nanos(wall),
            requests: trace.requests.len() as u64,
            slots: u64::from(trace.slot_count),
            ..RunStats::default()
        };
        match result {
            Err(e) => stats.problem = Some(format!("plan failed validation: {e}")),
            Ok(report) => {
                if report.total.sums.total_requests != stats.requests {
                    stats.problem = Some(format!(
                        "{} of {} requests carried",
                        report.total.sums.total_requests, stats.requests
                    ));
                }
                stats.totals = report.total;
                stats.fingerprint = format!("{:?}", report.total);
            }
        }
        stats
    }

    /// Online run over trace `i`, with failure and chaos seeds `seed + i`.
    fn run_online(
        &self,
        i: usize,
        scheme: &mut Timed<'_>,
        rec: Option<&RefCell<Recorder>>,
    ) -> RunStats {
        let trace = &self.traces[i];
        let k = self.seed + i as u64;
        let failures =
            FailureModel::markov(24.0, 2.0, k).expect("constant Markov parameters are valid");
        let chaos = ChaosConfig::at_intensity(k, 0.2).expect("constant chaos intensity is valid");
        let plan = FaultPlan::new(chaos).expect("a preset chaos configuration is valid");
        let runner = OnlineRunner::new(trace)
            .with_failures(failures)
            .with_chaos(ChaosOptions::new(plan).with_degraded_mode());
        let mut predictor = TimedPredictor::new(Ewma::new(0.3), rec);
        let (result, wall) = within(rec, "sim.online.run", None, false, || {
            ccdn_obs::timed(|| runner.run(scheme, &mut predictor))
        });
        let mut stats = RunStats {
            wall_ns: nanos(wall),
            requests: trace.requests.len() as u64,
            slots: u64::from(trace.slot_count),
            ..RunStats::default()
        };
        match result {
            Err(e) => stats.problem = Some(format!("routing failed validation: {e}")),
            Ok(report) => {
                stats.problem = if report.total.sums.total_requests != stats.requests {
                    Some(format!(
                        "{} of {} requests carried",
                        report.total.sums.total_requests, stats.requests
                    ))
                } else if report.disrupted != report.failed_over + report.orphaned {
                    Some("disrupted requests are neither failed over nor orphaned".to_owned())
                } else if report.disrupted == 0 {
                    Some("no request was disrupted, so failover never ran".to_owned())
                } else if report.degraded_slots == 0 {
                    Some("no slot was served in degraded mode".to_owned())
                } else {
                    None
                };
                stats.totals = report.total;
                stats.disrupted = report.disrupted;
                stats.failed_over = report.failed_over;
                stats.orphaned = report.orphaned;
                stats.fingerprint = format!(
                    "{:?} disrupted={} failed_over={} orphaned={} spilled={} degraded={}",
                    report.total,
                    report.disrupted,
                    report.failed_over,
                    report.orphaned,
                    report.origin_spilled,
                    report.degraded_slots
                );
            }
        }
        stats
    }
}
