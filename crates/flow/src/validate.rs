//! Runtime validators for flow solutions.
//!
//! The solvers in this crate are trusted with the paper's core
//! optimisation step (request balancing as min-cost max-flow, §IV-B), so
//! this module provides *certificates* that a solved [`FlowNetwork`]
//! actually holds a feasible, maximum, minimum-cost flow:
//!
//! - [`check_capacity_bounds`] — `0 ≤ f(e) ≤ u(e)` on every edge;
//! - [`check_conservation`] — net outflow is zero everywhere except the
//!   source/sink, which carry equal and opposite imbalance;
//! - [`check_max_flow`] — no augmenting path remains in the residual
//!   graph (Ford–Fulkerson optimality);
//! - [`check_min_cost_certificate`] — no negative-cost cycle exists in
//!   the residual graph. By linear-programming duality this is exactly
//!   reduced-cost complementary slackness: a potential function π with
//!   `c(u,v) + π(u) − π(v) ≥ 0` on all residual arcs exists **iff** the
//!   residual graph has no negative cycle (Bellman–Ford feasibility), and
//!   such potentials certify the flow is minimum-cost for its value.
//!
//! The functions are always available (tests and property checks use them
//! directly); with the `strict-invariants` feature the solvers also run
//! [`check_mcmf_optimal`] on every solution and abort on violation.

use crate::network::FlowNetwork;
use ccdn_obs::Counter;
use std::fmt;

/// Reduced-cost optimality certificates evaluated (one per
/// [`check_min_cost_certificate`] run).
static REDUCED_COST_CHECKS: Counter = Counter::new("flow.validate.reduced_cost_checks");

/// Slack tolerated in floating-point cost comparisons; matches the
/// relaxation tolerance used by the solvers themselves.
const COST_EPS: f64 = 1e-9;

/// A violated flow invariant, with context for debugging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowViolation(String);

impl FlowViolation {
    fn new(msg: impl Into<String>) -> Self {
        FlowViolation(msg.into())
    }
}

impl fmt::Display for FlowViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FlowViolation {}

/// Checks `0 ≤ flow ≤ capacity` on every forward edge.
///
/// # Errors
///
/// [`FlowViolation`] naming the first out-of-bounds edge.
pub fn check_capacity_bounds(net: &FlowNetwork) -> Result<(), FlowViolation> {
    // Find first, format outside the loop (hot-loop-alloc).
    let bad = net.edges().into_iter().find(|view| view.flow < 0 || view.flow > view.capacity);
    match bad {
        Some(view) => Err(FlowViolation::new(format!(
            "edge {}→{} carries flow {} outside [0, {}]",
            view.from, view.to, view.flow, view.capacity
        ))),
        None => Ok(()),
    }
}

/// Checks flow conservation: every node except `source` and `sink` has
/// zero net outflow, and the source's net outflow equals the sink's net
/// inflow.
///
/// # Errors
///
/// [`FlowViolation`] naming the first unbalanced node.
pub fn check_conservation(
    net: &FlowNetwork,
    source: usize,
    sink: usize,
) -> Result<(), FlowViolation> {
    let mut net_out = vec![0i64; net.node_count()];
    for view in net.edges() {
        // Endpoints of a stored edge are always in range.
        if let Some(out) = net_out.get_mut(view.from) {
            *out += view.flow;
        }
        if let Some(out) = net_out.get_mut(view.to) {
            *out -= view.flow;
        }
    }
    // Find first, format outside the loop (hot-loop-alloc).
    let unbalanced = net_out
        .iter()
        .enumerate()
        .find(|&(node, &imbalance)| node != source && node != sink && imbalance != 0);
    if let Some((node, imbalance)) = unbalanced {
        return Err(FlowViolation::new(format!(
            "node {node} has net outflow {imbalance}, expected 0"
        )));
    }
    let source_out = <[i64]>::get(&net_out, source).copied().unwrap_or(0);
    let sink_out = <[i64]>::get(&net_out, sink).copied().unwrap_or(0);
    if source_out + sink_out != 0 {
        return Err(FlowViolation::new(format!(
            "source net outflow {source_out} does not match sink net inflow {}",
            -sink_out
        )));
    }
    Ok(())
}

/// Checks that no augmenting path from `source` to `sink` remains in the
/// residual graph — the Ford–Fulkerson certificate that the flow is
/// *maximum*.
///
/// # Errors
///
/// [`FlowViolation`] if the sink is still reachable through positive
/// residual capacity.
pub fn check_max_flow(net: &FlowNetwork, source: usize, sink: usize) -> Result<(), FlowViolation> {
    let n = net.node_count();
    if source >= n || sink >= n {
        return Err(FlowViolation::new("source or sink out of range"));
    }
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::from([source]);
    if let Some(s) = seen.get_mut(source) {
        *s = true;
    }
    while let Some(u) = queue.pop_front() {
        for a in net.out_arcs(u) {
            let (Some(&to), Some(&cap)) =
                (<[usize]>::get(&net.arc_to, a), <[i64]>::get(&net.arc_cap, a))
            else {
                continue;
            };
            // Defaulting a missing entry to "seen" skips it safely.
            let visited = <[bool]>::get(&seen, to).copied().unwrap_or(true);
            if cap > 0 && !visited {
                if to == sink {
                    return Err(FlowViolation::new(
                        "an augmenting path remains in the residual graph; flow is not maximum",
                    ));
                }
                if let Some(s) = seen.get_mut(to) {
                    *s = true;
                }
                queue.push_back(to);
            }
        }
    }
    Ok(())
}

/// Checks the **reduced-cost optimality certificate**: the residual graph
/// contains no negative-cost cycle.
///
/// Runs Bellman–Ford from a virtual super-source at distance 0 to every
/// node. If the `n`-th relaxation round still improves a distance, a
/// negative residual cycle exists, meaning the flow's cost can be reduced
/// without changing its value — so it is *not* minimum-cost.
/// Conversely, convergence yields feasible node potentials π under which
/// every residual arc has non-negative reduced cost (complementary
/// slackness), certifying optimality.
///
/// # Errors
///
/// [`FlowViolation`] when a negative residual cycle is found.
pub fn check_min_cost_certificate(net: &FlowNetwork) -> Result<(), FlowViolation> {
    REDUCED_COST_CHECKS.incr();
    let n = net.node_count();
    let mut dist = vec![0.0f64; n];
    for round in 0..=n {
        let mut improved = false;
        for u in 0..n {
            for a in net.out_arcs(u) {
                let (Some(&to), Some(&cap), Some(&cost)) = (
                    <[usize]>::get(&net.arc_to, a),
                    <[i64]>::get(&net.arc_cap, a),
                    <[f64]>::get(&net.arc_cost, a),
                ) else {
                    continue;
                };
                if cap <= 0 {
                    continue;
                }
                let nd = <[f64]>::get(&dist, u).copied().unwrap_or(0.0) + cost;
                let Some(slot) = dist.get_mut(to) else {
                    continue;
                };
                if nd < *slot - COST_EPS {
                    *slot = nd;
                    improved = true;
                }
            }
        }
        if !improved {
            return Ok(());
        }
        if round == n {
            break;
        }
    }
    Err(FlowViolation::new(
        "negative-cost cycle in the residual graph; flow is not minimum-cost \
         (reduced-cost complementary slackness violated)",
    ))
}

/// Full certificate for [`FlowNetwork::min_cost_max_flow`]: capacity
/// bounds, conservation, maximality, and the reduced-cost optimality
/// certificate.
///
/// # Errors
///
/// The first [`FlowViolation`] found, if any.
pub fn check_mcmf_optimal(
    net: &FlowNetwork,
    source: usize,
    sink: usize,
) -> Result<(), FlowViolation> {
    check_capacity_bounds(net)?;
    check_conservation(net, source, sink)?;
    check_max_flow(net, source, sink)?;
    check_min_cost_certificate(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::McmfAlgorithm;

    fn diamond() -> (FlowNetwork, usize, usize) {
        // s → a → t and s → b → t with different costs.
        let mut net = FlowNetwork::with_nodes(4);
        net.add_edge(0, 1, 4, 1.0).unwrap();
        net.add_edge(0, 2, 4, 2.0).unwrap();
        net.add_edge(1, 3, 3, 1.0).unwrap();
        net.add_edge(2, 3, 5, 1.0).unwrap();
        (net, 0, 3)
    }

    #[test]
    fn solved_network_passes_all_checks() {
        for algo in [McmfAlgorithm::SspDijkstra, McmfAlgorithm::CycleCanceling] {
            let (mut net, s, t) = diamond();
            net.min_cost_max_flow(s, t, algo).unwrap();
            check_mcmf_optimal(&net, s, t).unwrap_or_else(|v| panic!("{algo:?}: {v}"));
        }
    }

    #[test]
    fn unsolved_network_fails_max_flow_check() {
        let (net, s, t) = diamond();
        check_capacity_bounds(&net).unwrap();
        check_conservation(&net, s, t).unwrap();
        assert!(check_max_flow(&net, s, t).is_err());
    }

    #[test]
    fn expensive_route_fails_cost_certificate() {
        // Push one unit down the pricey parallel edge by hand: the
        // residual graph then has the cycle cheap-forward → pricey-reverse
        // with cost 1.0 − 5.0 < 0.
        let mut net = FlowNetwork::with_nodes(2);
        net.add_edge(0, 1, 1, 1.0).unwrap();
        let pricey = net.add_edge(0, 1, 1, 5.0).unwrap();
        // Manually move a unit onto the expensive edge.
        net.arc_cap[pricey.0] -= 1;
        net.arc_cap[pricey.0 ^ 1] += 1;
        check_capacity_bounds(&net).unwrap();
        check_conservation(&net, 0, 1).unwrap();
        assert!(check_min_cost_certificate(&net).is_err());
    }

    #[test]
    fn over_capacity_flow_is_caught() {
        let mut net = FlowNetwork::with_nodes(2);
        let e = net.add_edge(0, 1, 2, 1.0).unwrap();
        net.arc_cap[e.0] = -1; // flow = 2 − (−1) = 3 > capacity 2
        assert!(check_capacity_bounds(&net).is_err());
    }

    #[test]
    fn unbalanced_interior_node_is_caught() {
        let mut net = FlowNetwork::with_nodes(3);
        let e = net.add_edge(0, 1, 2, 1.0).unwrap();
        net.add_edge(1, 2, 2, 1.0).unwrap();
        // Push flow into node 1 but not out of it.
        net.arc_cap[e.0] -= 2;
        net.arc_cap[e.0 ^ 1] += 2;
        assert!(check_conservation(&net, 0, 2).is_err());
    }
}
