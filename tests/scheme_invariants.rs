//! Property-style invariants of the schedulers across many random seeds
//! and parameter settings — the cross-crate counterpart of the per-module
//! proptest suites.

use crowdsourced_cdn::core::{GuideCost, LocalRandom, Nearest, Rbcaer, RbcaerConfig};
use crowdsourced_cdn::sim::{Runner, SlotDemand, SlotInput};
use crowdsourced_cdn::trace::{Trace, TraceConfig};

fn trace_with_seed(seed: u64) -> Trace {
    TraceConfig::small_test()
        .with_hotspot_count(30)
        .with_request_count(5_000)
        .with_video_count(400)
        .with_seed(seed)
        .generate()
}

#[test]
fn rbcaer_never_serves_less_than_nearest_across_seeds() {
    for seed in 0..8 {
        let trace = trace_with_seed(seed);
        let runner = Runner::new(&trace);
        let nearest = runner.run(&mut Nearest::new()).unwrap();
        let rbcaer = runner.run(&mut Rbcaer::new(RbcaerConfig::default())).unwrap();
        assert!(
            rbcaer.total.hotspot_serving_ratio() >= nearest.total.hotspot_serving_ratio() - 1e-9,
            "seed {seed}: rbcaer {} < nearest {}",
            rbcaer.total.hotspot_serving_ratio(),
            nearest.total.hotspot_serving_ratio()
        );
    }
}

#[test]
fn guide_cost_variants_both_validate() {
    let trace = trace_with_seed(1);
    let runner = Runner::new(&trace);
    for guide_cost in [GuideCost::MeanLatency, GuideCost::PaperLiteral] {
        let report = runner
            .run(&mut Rbcaer::new(RbcaerConfig { guide_cost, ..RbcaerConfig::default() }))
            .unwrap();
        assert!(report.total.hotspot_serving_ratio() > 0.0, "{guide_cost:?}");
    }
}

#[test]
fn widening_theta_never_reduces_balanced_flow() {
    let trace = trace_with_seed(2);
    let runner = Runner::new(&trace);
    let geometry = runner.geometry();
    let demand = SlotDemand::aggregate(trace.slot_requests(20), geometry);
    let service: Vec<u64> = trace.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect();
    let cache: Vec<u64> = trace.hotspots.iter().map(|h| u64::from(h.cache_capacity)).collect();
    let input = SlotInput {
        geometry,
        demand: &demand,
        service_capacity: &service,
        cache_capacity: &cache,
        video_count: trace.video_count,
    };
    let mut last = 0u64;
    for theta2 in [0.5, 1.5, 3.0, 6.0, 12.0] {
        let scheduler = Rbcaer::new(RbcaerConfig {
            theta1_km: 0.5,
            theta2_km: theta2,
            ..RbcaerConfig::default()
        });
        let outcome = scheduler.balance_only(&input);
        assert!(
            outcome.moved >= last,
            "theta2 {theta2}: moved {} < previous {last}",
            outcome.moved
        );
        assert!(outcome.moved <= outcome.max_movable);
        last = outcome.moved;
    }
}

#[test]
fn replication_budget_is_respected() {
    let trace = trace_with_seed(3);
    let runner = Runner::new(&trace);
    let unbounded = runner.run(&mut Rbcaer::new(RbcaerConfig::default())).unwrap();
    for budget in [0u64, 5, 50] {
        let report = runner
            .run(&mut Rbcaer::new(RbcaerConfig {
                replication_budget: Some(budget),
                ..RbcaerConfig::default()
            }))
            .unwrap();
        // Per-slot budget ⇒ total replicas ≤ slots × budget (plus the
        // mandatory redirect placements, which the budget never blocks —
        // with budget 0 only those remain).
        let slots = report.slots.len() as u64;
        let max_fill = slots * budget;
        assert!(
            report.total.sums.replicas
                <= max_fill + unbounded.total.sums.replicas.min(slots * 1_000),
            "budget {budget} exceeded wildly"
        );
        assert!(report.total.sums.replicas <= unbounded.total.sums.replicas);
    }
}

#[test]
fn empty_and_degenerate_traces_do_not_break_schemes() {
    // No requests at all.
    let empty = TraceConfig::small_test().with_request_count(0).generate();
    let runner = Runner::new(&empty);
    for scheme in [
        &mut Nearest::new() as &mut dyn crowdsourced_cdn::sim::Scheme,
        &mut Rbcaer::new(RbcaerConfig::default()),
        &mut LocalRandom::new(),
    ] {
        let report = runner.run(scheme).unwrap();
        assert_eq!(report.total.sums.total_requests, 0);
        assert_eq!(report.total.hotspot_serving_ratio(), 0.0);
    }

    // One hotspot, everything lands on it.
    let single = TraceConfig::small_test().with_hotspot_count(1).with_request_count(500).generate();
    let runner = Runner::new(&single);
    let report = runner.run(&mut Rbcaer::new(RbcaerConfig::default())).unwrap();
    assert_eq!(report.total.sums.total_requests, 500);
}
