//! Differential test: RBCAer's MCMF balancing vs the LP baseline's
//! rounded solution at the same threshold θ₂.
//!
//! Theory being checked: Algorithm 1's residual pass at θ₂ makes
//! RBCAer's total moved flow equal the max flow of the plain `Gd` graph
//! at θ₂ — so *any* feasible redirection pattern inside the balancing
//! polytope (overloaded → under-utilized pairs within θ₂, bounded by the
//! φ slacks) moves at most as much. The LP baseline's rounded solution,
//! projected into that polytope, is such a pattern.
//!
//! Both sides are certified with `ccdn_flow::validate`: the MCMF solve
//! carries an optimality certificate, and the LP projection is replayed
//! as a max-flow instance whose capacity/conservation/maximality checks
//! must all pass.

use ccdn_core::{LpBased, Rbcaer, RbcaerConfig};
use ccdn_flow::{validate, FlowNetwork};
use ccdn_sim::{HotspotGeometry, Scheme, SlotDemand, SlotInput, Target};
use ccdn_trace::{HotspotId, Trace, TraceConfig};
use std::collections::BTreeMap;

fn single_slot_trace(seed: u64) -> Trace {
    TraceConfig::small_test()
        .with_hotspot_count(30)
        .with_request_count(5_000)
        .with_video_count(300)
        .with_slot_count(1)
        .with_seed(seed)
        .generate()
}

struct Instance {
    service: Vec<u64>,
    cache: Vec<u64>,
    demand: SlotDemand,
    geometry: HotspotGeometry,
    video_count: usize,
}

impl Instance {
    fn build(trace: &Trace) -> Instance {
        let geometry = HotspotGeometry::new(trace.region, &trace.hotspots);
        let demand = SlotDemand::aggregate(trace.slot_requests(0), &geometry);
        Instance {
            service: trace.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect(),
            cache: trace.hotspots.iter().map(|h| u64::from(h.cache_capacity)).collect(),
            demand,
            geometry,
            video_count: trace.video_count,
        }
    }

    fn input(&self) -> SlotInput<'_> {
        SlotInput {
            geometry: &self.geometry,
            demand: &self.demand,
            service_capacity: &self.service,
            cache_capacity: &self.cache,
            video_count: self.video_count,
        }
    }

    /// `φ_i = λ_i − s_i` for overloaded hotspots.
    fn phi_over(&self) -> BTreeMap<usize, u64> {
        (0..self.service.len())
            .filter_map(|h| {
                let load = self.demand.load(HotspotId(h));
                (load > self.service[h]).then(|| (h, load - self.service[h]))
            })
            .collect()
    }

    /// `φ_j = s_j − λ_j` for under-utilized hotspots that can cache.
    fn phi_under(&self) -> BTreeMap<usize, u64> {
        (0..self.service.len())
            .filter_map(|h| {
                let load = self.demand.load(HotspotId(h));
                (load < self.service[h] && self.cache[h] > 0).then(|| (h, self.service[h] - load))
            })
            .collect()
    }
}

/// Projects a scheme's hotspot-to-hotspot redirections into the
/// balancing polytope at threshold `theta_km`: only overloaded → under
/// pairs strictly inside the threshold count, and each pair's flow is
/// capped by the remaining φ slack on both ends. The result is a
/// feasible flow of the plain `Gd` graph, so its total is a lower bound
/// on that graph's max flow.
fn project_redirections(
    inst: &Instance,
    decision: &ccdn_sim::SlotDecision,
    theta_km: f64,
) -> (BTreeMap<(usize, usize), u64>, u64) {
    let mut phi_over = inst.phi_over();
    let mut phi_under = inst.phi_under();

    // Aggregate the decision's cross-hotspot serving per (from, to) pair.
    let mut raw: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for a in &decision.assignments {
        if let Target::Hotspot(j) = a.target {
            if j != a.from {
                *raw.entry((a.from.0, j.0)).or_insert(0) += a.count;
            }
        }
    }

    let mut projected = BTreeMap::new();
    let mut total = 0u64;
    for ((i, j), count) in raw {
        let (Some(&pi), Some(&pj)) = (phi_over.get(&i), phi_under.get(&j)) else {
            continue;
        };
        if inst.geometry.distance(HotspotId(i), HotspotId(j)) >= theta_km {
            continue;
        }
        let f = count.min(pi).min(pj);
        if f == 0 {
            continue;
        }
        phi_over.insert(i, pi - f);
        phi_under.insert(j, pj - f);
        projected.insert((i, j), f);
        total += f;
    }
    (projected, total)
}

/// Builds the plain `Gd` max-flow instance at `theta_km` with the given
/// per-pair capacities and returns `(net, source, sink)`.
fn build_gd(
    inst: &Instance,
    pair_capacity: impl Fn(usize, usize, u64, u64) -> Option<u64>,
) -> (FlowNetwork, usize, usize) {
    let phi_over = inst.phi_over();
    let phi_under = inst.phi_under();
    let mut net = FlowNetwork::new();
    let source = net.add_node();
    let sink = net.add_node();
    let mut over_nodes = BTreeMap::new();
    for (&i, &phi) in &phi_over {
        let node = net.add_node();
        net.add_edge(source, node, phi as i64, 0.0).expect("valid edge");
        over_nodes.insert(i, node);
    }
    let mut under_nodes = BTreeMap::new();
    for (&j, &phi) in &phi_under {
        let node = net.add_node();
        net.add_edge(node, sink, phi as i64, 0.0).expect("valid edge");
        under_nodes.insert(j, node);
    }
    for (&i, &pi) in &phi_over {
        for (&j, &pj) in &phi_under {
            if let Some(cap) = pair_capacity(i, j, pi, pj) {
                let d = inst.geometry.distance(HotspotId(i), HotspotId(j));
                net.add_edge(over_nodes[&i], under_nodes[&j], cap as i64, d).expect("valid edge");
            }
        }
    }
    (net, source, sink)
}

#[test]
fn rbcaer_moves_at_least_the_projected_lp_flow() {
    let config = RbcaerConfig::default();
    for seed in [3u64, 17, 101] {
        let trace = single_slot_trace(seed);
        let inst = Instance::build(&trace);

        let rbcaer = Rbcaer::new(config);
        let outcome = rbcaer.balance_only(&inst.input());
        assert!(outcome.moved <= outcome.max_movable, "seed {seed}: moved exceeds bound");

        let mut lp = LpBased::new(120);
        let decision = lp.schedule(&inst.input());
        let (_, lp_projected) = project_redirections(&inst, &decision, config.theta2_km);

        assert!(
            outcome.moved >= lp_projected,
            "seed {seed}: RBCAer moved {} < LP's projected feasible flow {}",
            outcome.moved,
            lp_projected
        );
    }
}

#[test]
fn rbcaer_moved_equals_certified_gd_maxflow() {
    let config = RbcaerConfig::default();
    for seed in [3u64, 17, 101] {
        let trace = single_slot_trace(seed);
        let inst = Instance::build(&trace);
        let outcome = Rbcaer::new(config).balance_only(&inst.input());

        // Plain Gd at θ₂: pairs strictly inside the threshold, capacity
        // min(φ_i, φ_j) — exactly what Algorithm 1's residual pass sees.
        let (mut net, source, sink) = build_gd(&inst, |i, j, pi, pj| {
            (inst.geometry.distance(HotspotId(i), HotspotId(j)) < config.theta2_km)
                .then(|| pi.min(pj))
        });
        let result = net.min_cost_max_flow(source, sink).expect("valid endpoints");

        // Certify the solve before trusting it as the reference value.
        validate::check_capacity_bounds(&net).expect("capacity certificate");
        validate::check_conservation(&net, source, sink).expect("conservation certificate");
        validate::check_mcmf_optimal(&net, source, sink).expect("optimality certificate");

        assert_eq!(
            outcome.moved, result.flow as u64,
            "seed {seed}: the θ₂ residual pass must reach the Gd max flow"
        );
    }
}

#[test]
fn lp_projection_is_a_certified_feasible_flow() {
    let config = RbcaerConfig::default();
    for seed in [3u64, 17, 101] {
        let trace = single_slot_trace(seed);
        let inst = Instance::build(&trace);

        let mut lp = LpBased::new(120);
        let decision = lp.schedule(&inst.input());
        let (projected, total) = project_redirections(&inst, &decision, config.theta2_km);

        // Replay the projection as a max-flow instance whose pair
        // capacities are exactly the projected flows: the certified max
        // flow must then equal the projection total, proving it feasible.
        let (mut net, source, sink) = build_gd(&inst, |i, j, _, _| projected.get(&(i, j)).copied());
        let flow = net.max_flow_dinic(source, sink).expect("valid endpoints");
        validate::check_capacity_bounds(&net).expect("capacity certificate");
        validate::check_conservation(&net, source, sink).expect("conservation certificate");
        validate::check_max_flow(&net, source, sink).expect("maximality certificate");

        assert_eq!(
            flow as u64, total,
            "seed {seed}: projected LP flow must saturate its own replay network"
        );
    }
}
