//! Property tests of the flow validators: on arbitrary networks, every
//! solver output must carry a full optimality certificate — capacity
//! bounds, conservation, maximality, and reduced-cost complementary
//! slackness (no negative residual cycle).

use ccdn_flow::validate::check_mcmf_optimal;
use ccdn_flow::{FlowError, FlowNetwork, McmfResult};
use proptest::prelude::*;

type Solver = fn(&mut FlowNetwork, usize, usize) -> Result<McmfResult, FlowError>;

/// Successive shortest paths and its cycle-canceling oracle.
const SOLVERS: [(&str, Solver); 2] = [
    ("successive shortest paths", FlowNetwork::min_cost_max_flow),
    ("cycle canceling", FlowNetwork::min_cost_max_flow_cycle_canceling),
];

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
        for (name, solve) in SOLVERS {
            let mut solved = net.clone();
            let result = solve(&mut solved, s, t).expect("valid endpoints");
            prop_assert!(result.flow >= 0);
            prop_assert!(result.cost >= -1e-9);
            check_mcmf_optimal(&solved, s, t).unwrap_or_else(|v| panic!("{name}: {v}"));
        }
    }

    #[test]
    fn algorithms_agree_on_the_optimum(
        (net, s, t) in network_strategy(),
    ) {
        let mut a = net.clone();
        let mut c = net;
        let ra = a.min_cost_max_flow(s, t).expect("valid endpoints");
        let rc = c.min_cost_max_flow_cycle_canceling(s, t).expect("valid endpoints");
        prop_assert_eq!(ra.flow, rc.flow);
        prop_assert!((ra.cost - rc.cost).abs() < 1e-6, "{} vs {}", ra.cost, rc.cost);
    }
}
