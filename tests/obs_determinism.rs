//! Observability determinism and replication-budget properties.
//!
//! The `ccdn-obs` contract has two halves:
//!
//! 1. **Probes never change results.** Every counter, histogram, and span
//!    is add-only — nothing in the workspace branches on them — so any
//!    seeded output (figure CSV bytes, `RunReport` metrics, a full
//!    `OnlineReport`) is identical with observability on or off.
//! 2. **Metrics are deterministic except durations.** Counters,
//!    histogram buckets, and span *counts* are pure functions of the
//!    seeded input: two runs of the same workload — at any thread counts
//!    — agree on everything but nanoseconds.
//!
//! The observability switch and registry are process-wide, so every test
//! that touches them serializes on [`OBS_LOCK`].
//!
//! The file also holds the Procedure 1 replication-budget property: with
//! `B_peak` configured, no plan ever places more videos than the budget
//! (the bug this PR fixes), and the strict `check_plan` validator agrees.

use ccdn_bench::figures;
use crowdsourced_cdn::core::{
    validate::check_plan, Rbcaer, RbcaerConfig, ShardConfig, ShardedRbcaer,
};
use crowdsourced_cdn::obs::{self, ObsReport};
use crowdsourced_cdn::par;
use crowdsourced_cdn::sim::{
    Ewma, FailureModel, HotspotGeometry, OnlineRunner, Runner, SlotDemand, SlotInput,
};
use crowdsourced_cdn::trace::TraceConfig;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes tests that flip the process-wide observability switch or
/// read the global registry.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_guard() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` with probes enabled and returns its result plus the delta
/// report the workload produced. Leaves probes disabled afterwards.
fn with_obs<R>(f: impl FnOnce() -> R) -> (R, ObsReport) {
    obs::set_enabled(true);
    let base = ObsReport::capture();
    let result = f();
    let delta = ObsReport::capture().delta(&base);
    obs::set_enabled(false);
    (result, delta)
}

#[test]
fn figure_csv_bytes_identical_with_obs_on_and_off() {
    let _guard = obs_guard();
    let config = figures::golden_config().with_slot_count(1);
    obs::set_enabled(false);
    let off: Vec<String> = figures::balance(&config).csvs.iter().map(|b| b.to_csv()).collect();
    let (on, delta) = with_obs(|| {
        figures::balance(&config).csvs.iter().map(|b| b.to_csv()).collect::<Vec<String>>()
    });
    assert_eq!(on, off, "balance CSV bytes changed when probes were enabled");
    assert!(!delta.counters.is_empty(), "the balance figure recorded no counters");
}

#[test]
fn run_report_identical_with_obs_on_and_off() {
    let _guard = obs_guard();
    let trace = TraceConfig::small_test().generate();
    obs::set_enabled(false);
    let off = Runner::new(&trace).run(&mut Rbcaer::new(RbcaerConfig::default())).unwrap();
    let (on, delta) =
        with_obs(|| Runner::new(&trace).run(&mut Rbcaer::new(RbcaerConfig::default())).unwrap());
    // Scheduling times are wall-clock; compare everything else.
    let strip = |r: &crowdsourced_cdn::sim::RunReport| {
        (r.scheme.clone(), r.slots.iter().map(|s| (s.slot, s.metrics)).collect::<Vec<_>>(), r.total)
    };
    assert_eq!(strip(&on), strip(&off), "RunReport changed when probes were enabled");
    assert!(delta.spans.contains_key("sim.runner.schedule"), "runner spans missing: {delta:?}");
}

#[test]
fn online_report_identical_with_obs_on_and_off() {
    let _guard = obs_guard();
    let trace = TraceConfig::small_test().generate();
    let run = || {
        OnlineRunner::new(&trace)
            .with_failures(FailureModel::iid(0.3, 11).unwrap())
            .run(&mut Rbcaer::new(RbcaerConfig::default()), &mut Ewma::new(0.5))
            .unwrap()
    };
    obs::set_enabled(false);
    let off = run();
    let (on, delta) = with_obs(run);
    // OnlineReport carries no wall-clock fields: full equality holds.
    assert_eq!(on, off, "OnlineReport changed when probes were enabled");
    assert!(delta.counters.contains_key("sim.online.cache_wipes"), "wipe counter missing");
    assert!(
        delta.histograms.contains_key("sim.online.failover_chain_depth"),
        "failover histogram missing: {:?}",
        delta.histograms.keys().collect::<Vec<_>>()
    );
}

/// Runs `workload` with probes on at 1, 2 and 8 worker threads, asserts
/// the obs totals agree, and returns the 1-thread delta.
fn thread_invariant_delta(workload: impl Fn(usize)) -> ObsReport {
    let thread_counts = [1usize, 2, 8];
    let deltas: Vec<ObsReport> =
        thread_counts.into_iter().map(|threads| with_obs(|| workload(threads)).1).collect();
    for (threads, d) in thread_counts.iter().zip(&deltas).skip(1) {
        assert!(
            d.deterministic_eq(&deltas[0]),
            "obs totals diverged between 1 thread and {threads} threads:\n{}\nvs\n{}",
            d.to_json(),
            deltas[0].to_json()
        );
    }
    deltas.into_iter().next().expect("one delta per thread count")
}

#[test]
fn counter_totals_are_thread_count_invariant() {
    let _guard = obs_guard();
    thread_invariant_delta(|threads| {
        let trace = TraceConfig::small_test().with_threads(threads).generate();
        OnlineRunner::new(&trace)
            .with_threads(threads)
            .with_failures(FailureModel::iid(0.25, 7).unwrap())
            .run(&mut Rbcaer::new(RbcaerConfig::default()), &mut Ewma::new(0.5))
            .unwrap();
    });
}

/// The sharded planner's counters are thread-count invariant too, on an
/// overloaded multi-tile deployment: 4 km tiles split the region, service
/// capacity sits below demand, so slots solve per-tile MCMFs and reconcile
/// border hotspots.
#[test]
fn sharded_counter_totals_are_thread_count_invariant() {
    let _guard = obs_guard();
    let config = TraceConfig::small_test()
        .with_hotspot_count(120)
        .with_request_count(12_000)
        .with_video_count(400)
        .with_slot_count(4)
        .with_service_capacity_fraction(0.01);
    let shard = ShardConfig { tile_km: 4.0, ..ShardConfig::default() };
    let delta = thread_invariant_delta(|threads| {
        // Tiles fan out on the global pool, not the runner's.
        par::set_threads(threads);
        let trace = config.clone().with_threads(threads).generate();
        Runner::new(&trace)
            .with_threads(threads)
            .run(&mut ShardedRbcaer::new(RbcaerConfig::default(), shard))
            .unwrap();
    });
    par::set_threads(0);
    let counter = |name: &str| delta.counters.get(name).copied().unwrap_or(0);
    assert!(counter("flow.mcmf.solves") > 0, "no tile overloaded: {}", delta.to_json());
    assert!(counter("core.sharded.border_moved") > 0, "no flow crossed a tile border");
}

#[test]
fn perf_report_json_is_valid_and_schema_complete() {
    let _guard = obs_guard();
    let (_, delta) = with_obs(|| {
        let trace = TraceConfig::small_test().generate();
        Runner::new(&trace).run(&mut Rbcaer::new(RbcaerConfig::default())).unwrap()
    });
    // The exact JSON a bench bin's `--obs` flag emits.
    let json = delta.to_json_labeled("schema-test", 4, Some(std::time::Duration::from_millis(3)));
    let value = obs::json::parse(&json).expect("perf report must be valid JSON");
    let root = value.as_object().expect("perf report must be a JSON object");
    assert_eq!(root.get("label").and_then(|v| v.as_str()), Some("schema-test"));
    assert_eq!(root.get("threads").and_then(|v| v.as_u64()), Some(4));
    assert!(root.get("wall_ns").and_then(|v| v.as_u64()).is_some());
    for section in ["counters", "spans", "histograms"] {
        assert!(
            root.get(section).and_then(|v| v.as_object()).is_some(),
            "missing `{section}` section in {json}"
        );
    }
    let counters = root.get("counters").and_then(|v| v.as_object()).unwrap();
    assert!(!counters.is_empty(), "a full offline run must record counters");
    for (name, v) in counters {
        assert!(v.as_u64().is_some(), "counter `{name}` is not a u64");
    }
    for (name, v) in root.get("spans").and_then(|v| v.as_object()).unwrap() {
        let span = v.as_object().unwrap_or_else(|| panic!("span `{name}` is not an object"));
        assert!(span.get("count").and_then(|s| s.as_u64()).is_some());
        assert!(span.get("total_ns").and_then(|s| s.as_u64()).is_some());
    }

    // The on-disk form round-trips through the same parser.
    let path = std::env::temp_dir().join(format!("ccdn-obs-test-{}.json", std::process::id()));
    delta.write_json(&path, "schema-test", 4, None).expect("write perf report");
    let body = std::fs::read_to_string(&path).expect("read perf report back");
    obs::json::validate(&body).expect("on-disk perf report must be valid JSON");
    let _ = std::fs::remove_file(&path);
}

/// Builds per-slot inputs for `trace` and runs `check` on each planned
/// slot (capacities are the trace's own, all hotspots alive).
fn for_each_slot_plan(
    trace: &crowdsourced_cdn::trace::Trace,
    mut check: impl FnMut(&SlotInput<'_>, u32),
) {
    let geometry = HotspotGeometry::new(trace.region, &trace.hotspots);
    let service: Vec<u64> = trace.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect();
    let cache: Vec<u64> = trace.hotspots.iter().map(|h| u64::from(h.cache_capacity)).collect();
    for slot in 0..trace.slot_count {
        let demand = SlotDemand::aggregate(trace.slot_requests(slot), &geometry);
        let input = SlotInput {
            geometry: &geometry,
            demand: &demand,
            service_capacity: &service,
            cache_capacity: &cache,
            video_count: trace.video_count,
        };
        check(&input, slot);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Procedure 1 honours `B_peak`: however tight the budget, the plan
    /// never places more videos than it allows, and the scheduler-internal
    /// validator agrees slot by slot.
    #[test]
    fn procedure_never_exceeds_replication_budget(
        budget in 0u64..40,
        seed in 0u64..500,
        requests in 50usize..800,
        hotspots in 3usize..15,
    ) {
        // Planner runs record into the global registry whenever a sibling
        // test has probes on, which would leak into that test's delta.
        let _guard = obs_guard();
        let trace = TraceConfig::small_test()
            .with_seed(seed)
            .with_request_count(requests)
            .with_hotspot_count(hotspots)
            .with_slot_count(2)
            .generate();
        let config =
            RbcaerConfig { replication_budget: Some(budget), ..RbcaerConfig::default() };
        let scheme = Rbcaer::new(config);
        for_each_slot_plan(&trace, |input, slot| {
            let (outcome, decision) = scheme.plan_parts(input);
            let placed = decision.replica_count();
            assert!(
                placed <= budget,
                "slot {slot}: placed {placed} videos with B_peak = {budget}"
            );
            check_plan(input, &config, &outcome, &decision)
                .unwrap_or_else(|v| panic!("slot {slot}: {v}"));
        });
    }
}
