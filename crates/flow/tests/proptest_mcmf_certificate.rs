//! Property tests of the flow validators: on arbitrary networks, every
//! solver output must carry a full optimality certificate — capacity
//! bounds, conservation, maximality, and reduced-cost complementary
//! slackness (no negative residual cycle).

use ccdn_flow::validate::{check_max_flow, check_mcmf_optimal, check_min_cost_flow};
use ccdn_flow::{FlowNetwork, McmfAlgorithm};
use proptest::prelude::*;

/// A random directed network with non-negative costs, plus distinct
/// source/sink node ids.
fn network_strategy() -> impl Strategy<Value = (FlowNetwork, usize, usize)> {
    (2usize..12, prop::collection::vec((0usize..12, 0usize..12, 0i64..25, 0.0f64..10.0), 0..40))
        .prop_map(|(n, edges)| {
            let mut net = FlowNetwork::with_nodes(n);
            for (from, to, cap, cost) in edges {
                net.add_edge(from % n, to % n, cap, cost).expect("generated edge is valid");
            }
            (net, 0, 1)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_algorithm_produces_a_certified_optimum(
        (net, s, t) in network_strategy(),
    ) {
        for algo in [McmfAlgorithm::SspDijkstra, McmfAlgorithm::CycleCanceling] {
            let mut solved = net.clone();
            let result = solved.min_cost_max_flow(s, t, algo).expect("valid endpoints");
            prop_assert!(result.flow >= 0);
            prop_assert!(result.cost >= -1e-9);
            check_mcmf_optimal(&solved, s, t).unwrap_or_else(|v| panic!("{algo:?}: {v}"));
        }
    }

    #[test]
    fn algorithms_agree_on_the_optimum(
        (net, s, t) in network_strategy(),
    ) {
        let mut a = net.clone();
        let mut c = net;
        let ra = a.min_cost_max_flow(s, t, McmfAlgorithm::SspDijkstra).expect("valid endpoints");
        let rc = c.min_cost_max_flow(s, t, McmfAlgorithm::CycleCanceling).expect("valid endpoints");
        prop_assert_eq!(ra.flow, rc.flow);
        prop_assert!((ra.cost - rc.cost).abs() < 1e-6, "{} vs {}", ra.cost, rc.cost);
    }

    #[test]
    fn bounded_flow_is_certified_min_cost_for_its_value(
        (net, s, t) in network_strategy(),
        limit in 0i64..30,
    ) {
        let mut solved = net;
        let result = solved.min_cost_flow_bounded(s, t, limit).expect("valid endpoints");
        prop_assert!(result.flow <= limit);
        check_min_cost_flow(&solved, s, t).unwrap_or_else(|v| panic!("{v}"));
        // When the limit binds below the max flow, maximality must fail —
        // and when it doesn't bind, the flow must be maximum.
        let mut unbounded = solved.clone();
        unbounded.reset_flow();
        let max = unbounded
            .min_cost_max_flow(s, t, McmfAlgorithm::SspDijkstra)
            .expect("valid endpoints");
        if result.flow < max.flow {
            prop_assert!(check_max_flow(&solved, s, t).is_err());
        } else {
            prop_assert!(check_max_flow(&solved, s, t).is_ok());
        }
    }
}
