//! Property test of the plan-feasibility validator: every plan RBCAer
//! produces — any trace, any configuration, with or without churned-out
//! hotspots — must pass [`ccdn_core::validate::check_plan`].

use ccdn_core::validate::check_plan;
use ccdn_core::{GuideCost, Rbcaer, RbcaerConfig};
use ccdn_sim::{HotspotGeometry, SlotDemand, SlotInput};
use ccdn_trace::TraceConfig;
use proptest::prelude::*;

fn trace_strategy() -> impl Strategy<Value = ccdn_trace::Trace> {
    (
        1usize..25,    // hotspots
        0usize..1_500, // requests
        1usize..200,   // videos
        0u64..1_000,   // seed
        1u32..4,       // slots
        prop::sample::select(vec![0.01, 0.05, 0.2]),
        prop::sample::select(vec![0.01, 0.03, 0.3]),
    )
        .prop_map(|(hotspots, requests, videos, seed, slots, service, cache)| {
            TraceConfig::small_test()
                .with_hotspot_count(hotspots)
                .with_request_count(requests)
                .with_video_count(videos)
                .with_seed(seed)
                .with_slot_count(slots)
                .with_service_capacity_fraction(service)
                .with_cache_capacity_fraction(cache)
                .generate()
        })
}

fn config_strategy() -> impl Strategy<Value = RbcaerConfig> {
    (
        any::<bool>(),
        prop::sample::select(vec![GuideCost::MeanLatency, GuideCost::PaperLiteral]),
        prop::sample::select(vec![1.5, 3.0, 8.0]),
    )
        .prop_map(|(content_aggregation, guide_cost, theta2_km)| RbcaerConfig {
            theta2_km,
            content_aggregation,
            guide_cost,
            ..RbcaerConfig::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_plan_is_feasible(
        trace in trace_strategy(),
        config in config_strategy(),
        churn_mask in 0u32..16,
    ) {
        let geometry = HotspotGeometry::new(trace.region, &trace.hotspots);
        let scheme = Rbcaer::new(config);
        // Knock out a deterministic subset of hotspots to exercise the
        // offline-ownership invariants (zero service/cache capacity).
        let service: Vec<u64> = trace
            .hotspots
            .iter()
            .enumerate()
            .map(|(h, hs)| {
                if churn_mask & (1 << (h % 4)) != 0 { 0 } else { u64::from(hs.service_capacity) }
            })
            .collect();
        let cache: Vec<u64> = trace
            .hotspots
            .iter()
            .enumerate()
            .map(|(h, hs)| {
                if churn_mask & (1 << (h % 4)) != 0 { 0 } else { u64::from(hs.cache_capacity) }
            })
            .collect();
        for slot in 0..trace.slot_count {
            let demand = SlotDemand::aggregate(trace.slot_requests(slot), &geometry);
            let input = SlotInput {
                geometry: &geometry,
                demand: &demand,
                service_capacity: &service,
                cache_capacity: &cache,
                video_count: trace.video_count,
            };
            let (outcome, decision) = scheme.plan_parts(&input);
            check_plan(&input, &config, &outcome, &decision)
                .unwrap_or_else(|v| panic!("slot {slot}: {v}"));
        }
    }
}
