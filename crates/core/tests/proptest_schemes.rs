//! Property tests over randomly generated traces and configurations:
//! every scheme must produce a valid decision (the `Runner` enforces the
//! paper's Eqs. 4–7) on *any* input, and RBCAer's balancing invariants
//! must hold regardless of parameters.

use ccdn_core::{LocalRandom, Nearest, Rbcaer, RbcaerConfig, ShardConfig, ShardedRbcaer};
use ccdn_sim::{Runner, Scheme, SlotDecision, SlotInput, Target};
use ccdn_trace::TraceConfig;
use proptest::prelude::*;

/// Wraps a scheme and records the longest hotspot-to-hotspot redirect of
/// any slot's decision.
struct LongestRedirect<S> {
    inner: S,
    km: f64,
}

impl<S: Scheme> Scheme for LongestRedirect<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, input: &SlotInput<'_>) -> SlotDecision {
        let decision = self.inner.schedule(input);
        for a in &decision.assignments {
            if let Target::Hotspot(to) = a.target {
                self.km = self.km.max(input.geometry.distance(a.from, to));
            }
        }
        decision
    }
}

fn trace_strategy() -> impl Strategy<Value = ccdn_trace::Trace> {
    (
        1usize..30,    // hotspots
        0usize..2_000, // requests
        1usize..300,   // videos
        0u64..1_000,   // seed
        1u32..5,       // slots
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rbcaer_is_always_valid_and_conserving(trace in trace_strategy()) {
        let report = Runner::new(&trace)
            .run(&mut Rbcaer::new(RbcaerConfig::default()))
            .expect("rbcaer must validate on every input");
        prop_assert_eq!(report.total.sums.total_requests, trace.requests.len() as u64);
        prop_assert!(report.total.hotspot_serving_ratio() <= 1.0);
    }

    #[test]
    fn baselines_are_always_valid(trace in trace_strategy()) {
        let runner = Runner::new(&trace);
        runner.run(&mut Nearest::new()).expect("nearest validates");
        runner.run(&mut LocalRandom::new()).expect("random validates");
    }

    #[test]
    fn sharded_is_always_valid_within_theta2(
        trace in trace_strategy(),
        tile_km in prop::sample::select(vec![0.5, 2.0, 4.0, 8.0]),
        border_km in prop::sample::select(vec![0.0, 0.5, 1.5]),
    ) {
        let config = RbcaerConfig::default();
        let shard = ShardConfig { tile_km, border_km };
        let mut scheme = LongestRedirect { inner: ShardedRbcaer::new(config, shard), km: 0.0 };
        Runner::new(&trace).run(&mut scheme).expect("sharded validates");
        // The paper's collaboration radius (§IV-A) binds tile-local and
        // border flows alike.
        prop_assert!(
            scheme.km <= config.theta2_km + 1e-6,
            "a request moved {} km, past θ₂ = {} km",
            scheme.km,
            config.theta2_km
        );
    }

    #[test]
    fn rbcaer_valid_under_random_parameters(
        trace in trace_strategy(),
        theta1 in 0.0f64..2.0,
        extra in 0.0f64..6.0,
        delta in prop::sample::select(vec![0.1, 0.5, 1.0, 2.0]),
        top in prop::sample::select(vec![0.05, 0.2, 1.0]),
        threshold in 0.0f64..=1.0,
        aggregation in any::<bool>(),
    ) {
        let config = RbcaerConfig {
            theta1_km: theta1,
            theta2_km: theta1 + extra,
            delta_km: delta,
            top_fraction: top,
            cluster_threshold: threshold,
            content_aggregation: aggregation,
            ..RbcaerConfig::default()
        };
        let report = Runner::new(&trace)
            .run(&mut Rbcaer::new(config))
            .expect("rbcaer must validate under any legal config");
        prop_assert_eq!(report.total.sums.total_requests, trace.requests.len() as u64);
    }

    #[test]
    fn rbcaer_never_loses_to_nearest_on_serving(trace in trace_strategy()) {
        let runner = Runner::new(&trace);
        let nearest = runner.run(&mut Nearest::new()).expect("nearest validates");
        let rbcaer = runner
            .run(&mut Rbcaer::new(RbcaerConfig::default()))
            .expect("rbcaer validates");
        prop_assert!(
            rbcaer.total.hotspot_serving_ratio()
                >= nearest.total.hotspot_serving_ratio() - 1e-9,
            "rbcaer {} < nearest {}",
            rbcaer.total.hotspot_serving_ratio(),
            nearest.total.hotspot_serving_ratio()
        );
    }
}
