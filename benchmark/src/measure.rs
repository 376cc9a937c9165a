//! The measured loops: untraced passes give the end-to-end metrics,
//! traced passes (probes on) the per-layer ones.

use crate::spans::Recorder;
use crate::stats;
use crate::workloads::{Case, RunStats, Scale, Setup, Workload};
use ccdn_obs::{ObsReport, Stopwatch};
use ccdn_sim::MetricsTotals;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Fewest timed scheduling calls an untraced run measures, so that ten
/// lie beyond the p90 it reports.
pub const MIN_PLAN_SAMPLES: usize = 100;

/// Fewest whole passes a run makes, so that the fastest of each input's
/// repeats sheds a transient stall of the machine.
pub const MIN_REPEATS: usize = 3;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Everything one benchmark run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Scheduling slots attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Metrics,
    /// Span records of the traced passes, as JSON lines.
    pub spans: String,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Accumulates measured runs per input and checks that each input's
/// outputs repeat.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Per input: requests carried by one run.
    requests: BTreeMap<usize, u64>,
    /// Per input: wall time of each repeat.
    walls: BTreeMap<usize, Vec<u64>>,
    /// Per input, per scheduling call of a run: latency of each repeat.
    calls: BTreeMap<usize, Vec<Vec<u64>>>,
    /// Fingerprint of the first run on each input.
    first: BTreeMap<usize, String>,
    /// Request-weighted totals over the first run on each input.
    quality: MetricsTotals,
}

impl Tally {
    fn record(&mut self, input: usize, run: &RunStats) {
        self.attempted += run.slots;
        self.requests.insert(input, run.requests);
        self.walls.entry(input).or_default().push(run.wall_ns);
        let calls = self.calls.entry(input).or_default();
        if calls.len() < run.plan_ns.len() {
            calls.resize(run.plan_ns.len(), Vec::new());
        }
        for (repeats, &ns) in calls.iter_mut().zip(&run.plan_ns) {
            repeats.push(ns);
        }
        if let Some(problem) = &run.problem {
            self.fail(run.slots, problem.clone());
        } else if let Some(first) = self.first.get(&input) {
            if *first != run.fingerprint {
                self.fail(run.slots, format!("input {input}: outputs differ from its first run"));
            }
        } else {
            self.first.insert(input, run.fingerprint.clone());
            self.quality.add(&run.totals.sums);
        }
    }

    fn fail(&mut self, slots: u64, problem: String) {
        self.failed += slots;
        self.problems.push(problem);
    }

    /// One untraced pass over every input; returns its requests/s.
    fn pass(&mut self, case: &Case<'_>) -> f64 {
        let (mut requests, mut wall) = (0, 0);
        for i in 0..case.inputs() {
            let run = case.run(i, None);
            requests += run.requests;
            wall += run.wall_ns;
            self.record(i, &run);
        }
        per_second(requests, wall)
    }

    /// Every timed scheduling call, each taken as the lowest latency of
    /// the same call (same input, same position in the run) over the
    /// run's repeats, in ms.
    fn plan_samples(&self) -> Vec<f64> {
        let per_call = self.calls.values().flatten();
        per_call.flat_map(|reps| std::iter::repeat_n(ms(fastest(reps)), reps.len())).collect()
    }

    /// Requests of one pass over the sum of each input's fastest run.
    fn requests_per_s(&self) -> f64 {
        let wall = self.walls.values().map(|w| fastest(w)).sum();
        per_second(self.requests.values().sum(), wall)
    }

    fn repeats(&self) -> usize {
        self.walls.values().map(Vec::len).min().unwrap_or(0)
    }
}

fn fastest(ns: &[u64]) -> u64 {
    ns.iter().copied().min().unwrap_or(0)
}

fn per_second(count: u64, ns: u64) -> f64 {
    count as f64 / (ns.max(1) as f64 / 1e9)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// The untraced run: whole passes until `seconds` have passed, every
/// input ran [`MIN_REPEATS`] times and enough scheduling calls were timed.
pub fn untraced(workload: Workload, seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let setup = Setup::run(workload, seed, scale);
    let case = Case::new(workload, &setup, seed);
    let mut tally = Tally::default();
    let clock = Stopwatch::start();
    while clock.elapsed().as_secs_f64() < seconds
        || tally.repeats() < MIN_REPEATS
        || tally.plan_samples().len() < MIN_PLAN_SAMPLES
    {
        tally.pass(&case);
        if tally.failed > 0 {
            break;
        }
    }

    let plan = tally.plan_samples();
    let p90 = stats::percentile(&plan, 90).unwrap_or_else(|e| {
        tally.problems.push(format!("plan_p90_ms: {e}"));
        0.0
    });
    let rss = peak_rss_mb().unwrap_or_else(|e| {
        tally.problems.push(e);
        0.0
    });
    let q = tally.quality;
    let metrics = Metrics::from([
        ("setup_s", stats::median(&setup.seconds)),
        ("plan_p50_ms", stats::median(&plan)),
        ("plan_p90_ms", p90),
        ("requests_per_s", tally.requests_per_s()),
        ("peak_rss_mb", rss),
        ("serving_ratio", q.hotspot_serving_ratio()),
        ("avg_distance_km", q.average_distance_km()),
        ("replication_cost", q.replication_cost()),
        ("cdn_load", q.cdn_server_load()),
    ]);
    let calls: usize = tally.calls.values().map(Vec::len).sum();
    eprintln!(
        "{}: {} timed scheduling calls ({calls} distinct, {} repeats each) over {} slots",
        workload.name(),
        plan.len(),
        tally.repeats(),
        tally.attempted,
    );
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        metrics,
        spans: String::new(),
    }
}

/// The traced run: alternating untraced and traced passes until
/// `seconds` have passed; each per-layer metric is the median over the
/// traced passes.
pub fn traced(workload: Workload, seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let setup = Setup::run(workload, seed, scale);
    let case = Case::new(workload, &setup, seed);
    let mut tally = Tally::default();
    let mut passes: Vec<Metrics> = Vec::new();
    let mut overheads = Vec::new();
    let mut spans = String::new();
    let clock = Stopwatch::start();
    while passes.is_empty() || clock.elapsed().as_secs_f64() < seconds {
        let untraced_rate = tally.pass(&case);

        let rec = RefCell::new(Recorder::new());
        ccdn_obs::set_enabled(true);
        let before = ObsReport::capture();
        let runs: Vec<RunStats> = (0..case.inputs()).map(|i| case.run(i, Some(&rec))).collect();
        let obs = ObsReport::capture().delta(&before);
        ccdn_obs::set_enabled(false);

        let rec = rec.into_inner();
        for (i, run) in runs.iter().enumerate() {
            tally.record(i, run);
        }
        let layers = layer_metrics(workload, &rec, &obs, &runs);
        let requests = runs.iter().map(|r| r.requests).sum();
        let traced_rate = per_second(requests, traced_wall_ns(&rec, &runs));
        overheads.push(untraced_rate / traced_rate);
        if workload.is_sharded()
            && (layers["flow.mcmf.solves"] == 0.0 || layers["core.sharded.border_moved"] == 0.0)
        {
            let slots = runs.iter().map(|r| r.slots).sum();
            tally.fail(slots, "metro-sharded: no MCMF solve or no border move".to_owned());
        }
        spans.push_str(&rec.to_jsonl(passes.len()));
        passes.push(layers);
        if tally.failed > 0 {
            break;
        }
    }

    let mut metrics: Metrics = passes[0]
        .keys()
        .map(|&name| {
            let values: Vec<f64> = passes.iter().map(|p| p[name]).collect();
            (name, stats::median(&values))
        })
        .collect();
    metrics.insert("trace.generate_ms", stats::median(&setup.generate_ms));
    metrics.insert("geo.runner_new_ms", stats::median(&setup.runner_new_ms));
    metrics.insert("bench.trace_overhead", stats::median(&overheads));
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        metrics,
        spans,
    }
}

/// Library counters reported per pass as they are.
const COUNTERS: [&str; 19] = [
    "cluster.merges",
    "core.balance.theta_steps",
    "core.balance.gd_edges",
    "core.balance.guide_nodes",
    "flow.mcmf.solves",
    "flow.mcmf.dijkstra_rounds",
    "flow.mcmf.dial_rounds",
    "core.procedure.redirected_requests",
    "core.procedure.placements",
    "core.procedure.local_placements",
    "core.sharded.tiles_cold",
    "core.sharded.tiles_topped_up",
    "core.sharded.tiles_reused",
    "core.sharded.border_moved",
    "sim.online.replica_delta",
    "sim.online.cache_wipes",
    "sim.online.chaos.faults_injected",
    "sim.online.chaos.retries",
    "sim.online.degraded_slots",
];

/// Wall time of a traced pass's runs, probe spans excluded.
fn traced_wall_ns(rec: &Recorder, runs: &[RunStats]) -> u64 {
    runs.iter().map(|r| r.wall_ns).sum::<u64>().saturating_sub(rec.probe_ns())
}

/// Per-layer metrics of one traced pass, from the benchmark's spans and
/// the library's own counters and spans.
fn layer_metrics(
    workload: Workload,
    rec: &Recorder,
    obs: &ObsReport,
    runs: &[RunStats],
) -> Metrics {
    let count = |name: &str| obs.counters.get(name).copied().unwrap_or(0) as f64;
    let obs_ms = |name: &str| obs.spans.get(name).map_or(0.0, |s| ms(s.total_ns));
    let rec_ms = |name: &str| ms(rec.total_ns(name));
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let sum = |field: fn(&RunStats) -> u64| runs.iter().map(field).sum::<u64>() as f64;

    let requests = sum(|r| r.requests);
    let wall = ms(traced_wall_ns(rec, runs));
    let schedule = rec_ms("core.schedule");
    let predict = rec_ms("sim.predict");
    let cluster = rec_ms("probe.cluster");
    let balance_only = rec_ms("probe.balance_only");
    let mcmf = obs_ms("flow.mcmf.solve");
    let aggregate = obs_ms("sim.runner.aggregate") + obs_ms("sim.online.aggregate");
    let evaluate = obs_ms("sim.runner.evaluate");
    let online_phases: f64 = ["aggregate", "plan", "replay", "route", "merge"]
        .iter()
        .map(|phase| obs_ms(&format!("sim.online.{phase}")))
        .sum();
    let attributed =
        if workload.is_online() { online_phases } else { aggregate + evaluate + schedule };
    let warm = count("core.sharded.tiles_topped_up") + count("core.sharded.tiles_reused");
    let probed = workload.has_probes();

    let mut m: Metrics = COUNTERS.iter().map(|&name| (name, count(name))).collect();
    m.insert("sim.aggregate_ms", aggregate);
    m.insert("sim.aggregate_ns_per_request", ratio(aggregate * 1e6, requests));
    m.insert("cluster.ms", cluster);
    m.insert("core.balance_ms", if probed { balance_only - cluster } else { 0.0 });
    m.insert("flow.mcmf_ms", mcmf);
    m.insert(
        "flow.mcmf.rounds_per_solve",
        ratio(count("flow.mcmf.dijkstra_rounds"), count("flow.mcmf.solves")),
    );
    m.insert("core.procedure_ms", if probed { schedule - balance_only } else { 0.0 });
    m.insert("core.sharded.self_ms", if workload.is_sharded() { schedule - mcmf } else { 0.0 });
    m.insert("core.sharded.warm_hit_ratio", ratio(warm, warm + count("core.sharded.tiles_cold")));
    m.insert("sim.evaluate_ms", evaluate);
    m.insert("sim.evaluate_ns_per_request", ratio(evaluate * 1e6, requests));
    m.insert("sim.predict_ms", predict);
    m.insert("sim.online.aggregate_ms", obs_ms("sim.online.aggregate"));
    let plan_self = obs_ms("sim.online.plan") - schedule - predict;
    m.insert("sim.online.plan_self_ms", if workload.is_online() { plan_self } else { 0.0 });
    m.insert("sim.online.route_ms", obs_ms("sim.online.route"));
    m.insert("sim.online.replay_ms", obs_ms("sim.online.replay"));
    m.insert(
        "sim.online.failover_success_ratio",
        ratio(sum(|r| r.failed_over), sum(|r| r.disrupted)),
    );
    m.insert("sim.online.orphaned_share", ratio(sum(|r| r.orphaned), requests));
    m.insert("bench.unattributed_share", ratio(wall - attributed, wall));
    m
}
