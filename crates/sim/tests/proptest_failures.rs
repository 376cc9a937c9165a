//! Property tests for the failure subsystem: failover routing safety and
//! Markov occupancy — the invariants the online loop's degraded-mode
//! serving rests on (see DESIGN.md). Cache-wipe delta accounting is
//! property-tested on the replication replay itself, in `online.rs`.

use ccdn_sim::{
    route_with_failover, FailureModel, HotspotGeometry, SlotDemand, Target, COLLABORATION_RADIUS_KM,
};
use ccdn_trace::{HotspotId, TraceConfig, VideoId};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A routing scenario: a small trace slot plus random planned placements
/// and a random liveness mask.
#[derive(Debug, Clone)]
struct Scenario {
    trace: ccdn_trace::Trace,
    placements: Vec<Vec<VideoId>>,
    alive: Vec<bool>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        2usize..25,    // hotspots
        0usize..1_500, // requests
        1usize..200,   // videos
        0u64..500,     // trace seed
        0u64..500,     // placement seed
        0.0f64..=1.0,  // per-hotspot offline probability
    )
        .prop_map(|(hotspots, requests, videos, seed, place_seed, p_off)| {
            let trace = TraceConfig::small_test()
                .with_hotspot_count(hotspots)
                .with_request_count(requests)
                .with_video_count(videos)
                .with_seed(seed)
                .with_slot_count(1)
                .generate();
            // Derive placements and the mask from cheap hash mixing so the
            // whole scenario shrinks with its seeds.
            let mix = |a: u64, b: u64| -> u64 {
                let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^ (x >> 31)
            };
            let n = trace.hotspots.len();
            let placements: Vec<Vec<VideoId>> = (0..n)
                .map(|h| {
                    let cap = u64::from(trace.hotspots[h].cache_capacity) as usize;
                    let want = mix(place_seed, h as u64) as usize % (cap + 1);
                    let mut vids: Vec<VideoId> = (0..want)
                        .map(|k| {
                            VideoId(
                                (mix(place_seed, (h * 1_000 + k) as u64) % videos as u64) as u32,
                            )
                        })
                        .collect();
                    vids.sort_unstable();
                    vids.dedup();
                    vids
                })
                .collect();
            let alive: Vec<bool> = (0..n)
                .map(|h| (mix(place_seed ^ 0xABCD, h as u64) as f64 / u64::MAX as f64) >= p_off)
                .collect();
            Scenario { trace, placements, alive }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Failover routing never assigns a request to an offline hotspot,
    /// never to an alive hotspot that does not cache the video, conserves
    /// every request, and sends cache misses (no alive in-radius copy)
    /// only to the CDN.
    #[test]
    fn failover_routing_is_safe(scenario in scenario_strategy()) {
        let Scenario { trace, placements, alive } = scenario;
        let geometry = HotspotGeometry::new(trace.region, &trace.hotspots);
        let demand = SlotDemand::aggregate(trace.slot_requests(0), &geometry);
        let service: Vec<u64> =
            trace.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect();
        let cached: Vec<BTreeSet<VideoId>> =
            placements.iter().map(|p| p.iter().copied().collect()).collect();

        let (decision, stats) =
            route_with_failover(&geometry, &demand, &service, &placements, &alive).unwrap();

        let mut served = 0u64;
        for a in &decision.assignments {
            served += a.count;
            if let Target::Hotspot(j) = a.target {
                prop_assert!(alive[j.0], "request routed to offline hotspot {j:?}");
                prop_assert!(
                    cached[j.0].contains(&a.video),
                    "hotspot {j:?} serves video {:?} it does not cache",
                    a.video
                );
                prop_assert!(
                    j == a.from || geometry.distance(a.from, j) <= COLLABORATION_RADIUS_KM + 1e-9,
                    "served outside the collaboration radius"
                );
            }
        }
        prop_assert_eq!(served, demand.total_requests(), "requests lost or duplicated");

        // Cache misses go only to the CDN: a batch whose video no alive
        // in-radius hotspot caches can have no hotspot-served portion.
        for h in 0..alive.len() {
            let hid = HotspotId(h);
            let mut reachable = geometry.within_radius(hid, COLLABORATION_RADIUS_KM);
            reachable.push(hid);
            for vd in demand.videos(hid) {
                let holder = reachable
                    .iter()
                    .any(|j| alive[j.0] && cached[j.0].contains(&vd.video));
                if !holder {
                    for a in &decision.assignments {
                        if a.from == hid && a.video == vd.video {
                            prop_assert_eq!(
                                a.target,
                                Target::Cdn,
                                "cache miss served by a hotspot"
                            );
                        }
                    }
                }
            }
        }

        // The disruption counters stay within the slot's demand.
        prop_assert!(stats.failed_over + stats.orphaned <= demand.total_requests());
    }

    /// The two-state Markov process spends the configured fraction of
    /// slot-hotspot samples alive: occupancy converges to
    /// `availability() = up / (up + down)`.
    #[test]
    fn markov_occupancy_converges_to_availability(
        up in 2.0f64..20.0,
        down in 1.0f64..10.0,
        seed in 0u64..1_000,
    ) {
        let trace = TraceConfig::small_test().with_hotspot_count(30).generate();
        let geometry = HotspotGeometry::new(trace.region, &trace.hotspots);
        let model = FailureModel::markov(up, down, seed).expect("valid durations");
        let mut process = model.process();
        let (mut alive, mut total) = (0u64, 0u64);
        for slot in 0..400u32 {
            let mask = process.advance(slot, &geometry);
            alive += mask.iter().filter(|&&a| a).count() as u64;
            total += mask.len() as u64;
        }
        let occupancy = alive as f64 / total as f64;
        prop_assert!(
            (occupancy - model.availability()).abs() < 0.1,
            "occupancy {occupancy:.3} vs availability {:.3} (up {up:.1}, down {down:.1})",
            model.availability()
        );
    }
}
