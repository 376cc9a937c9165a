//! Cross-crate integration tests: the full pipeline from trace generation
//! through scheduling to validated metrics, for every scheme.

use crowdsourced_cdn::core::{LocalRandom, LpBased, Nearest, Rbcaer, RbcaerConfig};
use crowdsourced_cdn::sim::{
    Ewma, FailureModel, HotspotGeometry, OnlineRunner, RunReport, Runner, Scheme, SeasonalNaive,
};
use crowdsourced_cdn::trace::{Trace, TraceConfig};

fn mid_trace() -> Trace {
    TraceConfig::small_test()
        .with_hotspot_count(50)
        .with_request_count(12_000)
        .with_video_count(800)
        .with_seed(99)
        .generate()
}

/// A copy of `trace` whose hotspots offline in `failures`' first slot
/// have zero service and cache capacity: capacity loss every scheme must
/// plan around.
fn with_offline_hotspots(trace: &Trace, failures: FailureModel) -> Trace {
    let geometry = HotspotGeometry::new(trace.region, &trace.hotspots);
    let alive = failures.process().advance(0, &geometry);
    let mut degraded = trace.clone();
    for (hotspot, up) in degraded.hotspots.iter_mut().zip(alive) {
        if !up {
            hotspot.service_capacity = 0;
            hotspot.cache_capacity = 0;
        }
    }
    degraded
}

fn all_schemes() -> Vec<Box<dyn Scheme>> {
    vec![
        Box::new(Nearest::new()),
        Box::new(LocalRandom::new()),
        Box::new(Rbcaer::new(RbcaerConfig::default())),
        Box::new(Rbcaer::new(RbcaerConfig {
            content_aggregation: false,
            ..RbcaerConfig::default()
        })),
        Box::new(LpBased::new(25)),
    ]
}

#[test]
fn every_scheme_validates_and_conserves_requests() {
    let trace = mid_trace();
    let runner = Runner::new(&trace);
    for mut scheme in all_schemes() {
        let report = runner
            .run(scheme.as_mut())
            .unwrap_or_else(|e| panic!("{} produced an invalid decision: {e}", scheme.name()));
        assert_eq!(
            report.total.sums.total_requests,
            trace.requests.len() as u64,
            "{} lost requests",
            report.scheme
        );
        assert_eq!(
            report.total.sums.hotspot_served + report.total.sums.cdn_served,
            trace.requests.len() as u64,
            "{} service accounting broken",
            report.scheme
        );
        // Metrics stay in their valid ranges.
        let ratio = report.total.hotspot_serving_ratio();
        assert!((0.0..=1.0).contains(&ratio), "{}: ratio {ratio}", report.scheme);
        let dist = report.total.average_distance_km();
        assert!((0.0..=20.0 + 1e-9).contains(&dist), "{}: distance {dist}", report.scheme);
        assert!(report.total.replication_cost() >= 0.0);
        assert!(report.total.cdn_server_load() >= 0.0);
    }
}

#[test]
fn deterministic_runs_produce_identical_reports() {
    let trace = mid_trace();
    let runner = Runner::new(&trace);
    let run = |scheme: &mut dyn Scheme| -> RunReport { runner.run(scheme).unwrap() };
    let a = run(&mut Rbcaer::new(RbcaerConfig::default()));
    let b = run(&mut Rbcaer::new(RbcaerConfig::default()));
    assert_eq!(a.total, b.total);
    for (sa, sb) in a.slots.iter().zip(&b.slots) {
        assert_eq!(sa.metrics, sb.metrics);
    }
    let r1 = run(&mut LocalRandom::new());
    let r2 = run(&mut LocalRandom::new());
    assert_eq!(r1.total, r2.total);
}

#[test]
fn rbcaer_dominates_nearest_on_the_paper_metrics() {
    let trace = mid_trace();
    let runner = Runner::new(&trace);
    let nearest = runner.run(&mut Nearest::new()).unwrap();
    let rbcaer = runner.run(&mut Rbcaer::new(RbcaerConfig::default())).unwrap();
    assert!(rbcaer.total.hotspot_serving_ratio() >= nearest.total.hotspot_serving_ratio() - 1e-9);
    assert!(rbcaer.total.average_distance_km() <= nearest.total.average_distance_km() + 1e-9);
    assert!(rbcaer.total.cdn_server_load() <= nearest.total.cdn_server_load() + 0.05);
}

#[test]
fn schemes_survive_heavy_churn() {
    let trace = mid_trace();
    for p in [0.25, 0.5, 0.9] {
        let degraded = with_offline_hotspots(&trace, FailureModel::iid(p, 3).unwrap());
        let runner = Runner::new(&degraded);
        for mut scheme in all_schemes() {
            let report = runner
                .run(scheme.as_mut())
                .unwrap_or_else(|e| panic!("{} invalid under churn {p}: {e}", scheme.name()));
            assert_eq!(report.total.sums.total_requests, trace.requests.len() as u64);
        }
    }
}

#[test]
fn schemes_survive_markov_failures_with_regional_outages() {
    let trace = mid_trace();
    let failures =
        FailureModel::markov(6.0, 3.0, 7).unwrap().with_regional_outages(0.2, 2.0).unwrap();
    let degraded = with_offline_hotspots(&trace, failures);
    let runner = Runner::new(&degraded);
    for mut scheme in all_schemes() {
        let report = runner
            .run(scheme.as_mut())
            .unwrap_or_else(|e| panic!("{} invalid under outages: {e}", scheme.name()));
        assert_eq!(report.total.sums.total_requests, trace.requests.len() as u64);
    }
}

#[test]
fn churn_degrades_serving_monotonically_for_rbcaer() {
    let trace = mid_trace();
    let mut last = f64::INFINITY;
    for p in [0.0, 0.3, 0.6, 0.95] {
        let degraded = with_offline_hotspots(&trace, FailureModel::iid(p, 11).unwrap());
        let report = Runner::new(&degraded).run(&mut Rbcaer::new(RbcaerConfig::default())).unwrap();
        let ratio = report.total.hotspot_serving_ratio();
        assert!(
            ratio <= last + 0.05,
            "serving ratio increased from {last} to {ratio} at churn {p}"
        );
        last = ratio;
    }
}

#[test]
fn single_slot_trace_schedules_the_whole_day_at_once() {
    let trace = TraceConfig::small_test().with_slot_count(1).with_request_count(5_000).generate();
    assert_eq!(trace.slot_count, 1);
    assert_eq!(trace.slot_requests(0).len(), 5_000);
    let report = Runner::new(&trace).run(&mut Rbcaer::new(RbcaerConfig::default())).unwrap();
    assert_eq!(report.slots.len(), 1);
}

#[test]
fn online_loop_with_rbcaer_and_predictors() {
    let trace = TraceConfig::small_test()
        .with_hotspot_count(40)
        .with_request_count(10_000)
        .with_video_count(600)
        .with_days(2)
        .with_seed(31)
        .generate();
    let runner = OnlineRunner::new(&trace);
    let mut scheduler = Rbcaer::new(RbcaerConfig::default());

    let oracle = runner.run_with_oracle(&mut scheduler).unwrap();
    assert_eq!(oracle.total.sums.total_requests, trace.requests.len() as u64);
    assert!(oracle.total.hotspot_serving_ratio() > 0.0);

    let ewma = runner.run(&mut scheduler, &mut Ewma::new(0.4)).unwrap();
    assert_eq!(ewma.total.sums.total_requests, trace.requests.len() as u64);
    // Real prediction cannot beat the oracle bound.
    assert!(ewma.total.hotspot_serving_ratio() <= oracle.total.hotspot_serving_ratio() + 0.02);
    // Persistent caches: delta replication well below a full refill per slot.
    let full_refill: u64 = trace.hotspots.iter().map(|h| u64::from(h.cache_capacity)).sum();
    assert!(ewma.total.sums.replicas < full_refill * u64::from(trace.slot_count) / 2);

    let seasonal =
        runner.run(&mut scheduler, &mut SeasonalNaive::new(trace.slots_per_day as usize)).unwrap();
    assert_eq!(seasonal.total.sums.total_requests, trace.requests.len() as u64);
}
