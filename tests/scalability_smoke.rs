//! Small-N scalability smoke test for the planning pipeline.
//!
//! The full scalability study lives in the `scalability` bench binary
//! (`cargo run --release -p ccdn-bench --bin scalability`) at
//! paper-scale sizes; this suite shrinks the same sweep — `Runner` +
//! RBCAer over growing hotspot counts — to seconds and asserts the
//! *scaling shape* survives the CSR rework:
//!
//! - every size completes and validates end to end;
//! - the deterministic plan-work proxy (solver counters: Dijkstra and
//!   Dinic rounds, placements) grows monotonically with the deployment
//!   size. Wall-clock plan time is proportional to exactly these
//!   counters but too noisy to compare on shared CI machines, so the
//!   smoke test pins the counter curve and leaves timing to the
//!   repository benchmark (`benchmark/`), which bounds plan time;
//! - measured plan time stays nonzero and finite at every size (the
//!   spans actually fire under the arena-reuse refactor).

use ccdn_core::{Rbcaer, RbcaerConfig};
use ccdn_sim::Runner;
use ccdn_trace::TraceConfig;
use std::sync::{Mutex, MutexGuard};

/// Serialises the tests of this binary. The monotonicity test diffs the
/// process-global `ccdn-obs` registry around each run, so a planner run of
/// a sibling test on another thread would leak its counters into the diff.
static OBS_REGISTRY: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock; the registry is still usable.
    OBS_REGISTRY.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Hotspot counts with requests scaled in proportion, tiny enough for a
/// debug-profile test run.
const SIZES: [(usize, usize); 3] = [(20, 4_000), (40, 8_000), (80, 16_000)];

/// Sum of the counters that dominate plan time: MCMF rounds (balancing),
/// Dinic rounds (the `maxflow` bound), and placement decisions.
fn plan_work(report: &ccdn_obs::ObsReport) -> u64 {
    ["flow.mcmf.dijkstra_rounds", "flow.dinic.bfs_rounds", "core.procedure.placements"]
        .iter()
        .map(|key| report.counters.get(*key).copied().unwrap_or(0))
        .sum()
}

#[test]
fn plan_work_scales_monotonically_with_deployment_size() {
    let _registry = exclusive();
    ccdn_obs::set_enabled(true);
    let mut curve = Vec::new();
    for (hotspots, requests) in SIZES {
        let trace = TraceConfig::small_test()
            .with_slot_count(1)
            .with_hotspot_count(hotspots)
            .with_request_count(requests)
            .generate();
        let runner = Runner::new(&trace);
        let before = ccdn_obs::ObsReport::capture();
        let report = runner.run(&mut Rbcaer::new(RbcaerConfig::default())).expect("plan validates");
        let delta = ccdn_obs::ObsReport::capture().delta(&before);
        assert!(
            report.scheduling_time.as_nanos() > 0,
            "{hotspots} hotspots: scheduling time was not measured"
        );
        assert!(
            report.total.hotspot_serving_ratio().is_finite(),
            "{hotspots} hotspots: degenerate report"
        );
        let work = plan_work(&delta);
        assert!(work > 0, "{hotspots} hotspots: no solver work recorded");
        curve.push((hotspots, work));
    }
    for pair in curve.windows(2) {
        let ((small_n, small_work), (big_n, big_work)) = (pair[0], pair[1]);
        assert!(
            big_work > small_work,
            "plan work must grow with deployment size: {small_n} hotspots -> {small_work}, \
             {big_n} hotspots -> {big_work}"
        );
    }
}

#[test]
fn scalability_sweep_is_thread_count_invariant_at_small_n() {
    let _registry = exclusive();
    // The same sweep, re-planned at 1/2/8 worker threads: reports must
    // be identical (the scalability binary asserts this at paper scale;
    // this keeps the property in the tier-1 loop).
    let trace = TraceConfig::small_test()
        .with_slot_count(2)
        .with_hotspot_count(30)
        .with_request_count(6_000)
        .generate();
    let mut reports = Vec::new();
    for threads in [1usize, 2, 8] {
        let runner = Runner::new(&trace).with_threads(threads);
        let report = runner.run(&mut Rbcaer::new(RbcaerConfig::default())).expect("plan validates");
        let slots: Vec<_> = report.slots.iter().map(|s| (s.slot, s.metrics)).collect();
        reports.push((threads, slots, report.total));
    }
    for (threads, slots, total) in &reports[1..] {
        assert_eq!(
            (slots, total),
            (&reports[0].1, &reports[0].2),
            "plan diverged at {threads} threads"
        );
    }
}
