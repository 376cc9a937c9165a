//! The request-balancing stage of RBCAer: `Gd`/`Gc` flow-network
//! construction and the Algorithm-1 threshold loop (§IV-A/§IV-C).

use crate::config::{GuideCost, RbcaerConfig};
use ccdn_flow::{EdgeId, FlowNetwork};
use ccdn_obs::Counter;
use ccdn_par::Threads;
use ccdn_sim::SlotInput;
use ccdn_trace::HotspotId;
use std::collections::BTreeMap;

/// θ-sweep rounds solved by Algorithm 1 (residual passes excluded).
static THETA_STEPS: Counter = Counter::new("core.balance.theta_steps");
/// Residual passes on the plain `Gd` at θ₂ (Algorithm 1 lines 11–13).
static RESIDUAL_ROUNDS: Counter = Counter::new("core.balance.residual_rounds");
/// `Gd`/`Gc` pair arcs built (direct arcs plus guide source arcs).
static GD_EDGES: Counter = Counter::new("core.balance.gd_edges");
/// Flow-guide nodes inserted for content aggregation (§IV-B).
static GUIDE_NODES: Counter = Counter::new("core.balance.guide_nodes");

/// Result of the balancing stage: how many requests each overloaded
/// hotspot redirects to each under-utilized hotspot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BalanceOutcome {
    /// `f_ij > 0` entries: requests redirected from hotspot `i` to `j`.
    /// Ordered so that downstream consumers (Procedure 1, the sharded
    /// planner's border pass) iterate deterministically under a fixed seed.
    pub flows: BTreeMap<(HotspotId, HotspotId), u64>,
    /// Total requests moved (`Σ f_ij`).
    pub moved: u64,
    /// The upper bound `maxflow = min(Σ_{Hs} φ_i, Σ_{Ht} φ_j)` of
    /// Algorithm 1 line 4.
    pub max_movable: u64,
}

/// Diagnostics of the `Gd` graph at a given threshold `θ` — the data
/// series of the paper's Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GdStats {
    /// The threshold the graph was built with, in km.
    pub theta_km: f64,
    /// Number of hotspots (`|V|` in the paper's normalization).
    pub hotspot_count: usize,
    /// Inter-hotspot edges present under the threshold.
    pub edges: usize,
    /// Max flow achievable under the threshold.
    pub maxflow_at_theta: u64,
    /// Max flow achievable with every overloaded–under-utilized pair
    /// connected (the paper's `maxflow` normalizer).
    pub max_movable: u64,
}

impl GdStats {
    /// Edge count normalized by `|V|²` (the paper's y-axis on the left of
    /// Fig. 9).
    pub fn edge_fraction(&self) -> f64 {
        if self.hotspot_count == 0 {
            0.0
        } else {
            // Squared in f64: exact for any count whose square fits the
            // mantissa, and no usize product to overflow.
            let n = self.hotspot_count as f64;
            self.edges as f64 / (n * n)
        }
    }

    /// Achieved flow normalized by the unconstrained `maxflow` (right
    /// y-axis of Fig. 9).
    pub fn flow_fraction(&self) -> f64 {
        if self.max_movable == 0 {
            0.0
        } else {
            self.maxflow_at_theta as f64 / self.max_movable as f64
        }
    }

    /// One Fig. 9 data point at threshold `theta_km`: `Gd` over the
    /// partition `parts`, rebuilt into the reusable `arena` network, and
    /// its size and max flow.
    fn compute_with(
        input: &SlotInput<'_>,
        parts: &Participants,
        theta_km: f64,
        arena: &mut FlowNetwork,
    ) -> GdStats {
        let mut builder = GraphBuilder::from_slacks(
            arena,
            parts.overloaded.iter().map(|&(_, phi)| phi),
            parts.under.iter().map(|&(_, phi)| phi),
        );
        for (si, &(i, phi_i)) in parts.overloaded.iter().enumerate() {
            for (ti, &(j, phi_j)) in parts.under.iter().enumerate() {
                let d = input.geometry.distance(HotspotId(i), HotspotId(j));
                if d < theta_km {
                    builder.direct_edge(si, ti, phi_i.min(phi_j), d);
                }
            }
        }
        let edges = builder.pair_edges.len();
        let (source, sink) = (builder.source, builder.sink);
        let maxflow_at_theta = builder
            .net
            .max_flow_dinic(source, sink)
            // lint: allow(no-panic): builder endpoints are two distinct freshly added nodes
            .expect("valid endpoints") as u64;
        GdStats {
            theta_km,
            hotspot_count: input.hotspot_count(),
            edges,
            maxflow_at_theta,
            max_movable: parts.max_movable(),
        }
    }

    /// The Fig. 9 data points of one slot, one per threshold in
    /// `thetas`: `Gd` over the slot's overloaded/under-utilized hotspots
    /// at each θ, with its size and max flow. The points are independent,
    /// so they fan out over the worker pool and come back in `thetas`
    /// order (the resolved thread count never changes the values, only
    /// the wall-clock time).
    ///
    /// The sweep is split into one contiguous chunk per worker, and each
    /// chunk reuses a single arena [`FlowNetwork`] across its θ points.
    /// Chunking varies with the resolved thread count, but every point is
    /// a pure function of `(input, parts, θ)` — the arena is fully
    /// cleared between points — so the output values stay thread-count
    /// invariant.
    // lint: allow(panic-reach): the only panic sinks behind the θ-sweep
    // fan-out are the Gd builder's infallible add_edge expects and the
    // Dinic solver.
    pub fn compute_sweep(input: &SlotInput<'_>, thetas: &[f64]) -> Vec<GdStats> {
        // One partition shared by every θ worker; the per-point work
        // only reads it.
        let parts = Participants::new(input, 0..input.hotspot_count());
        let workers = Threads::Auto.resolve().max(1);
        let chunk_len = thetas.len().div_ceil(workers).max(1);
        let chunks: Vec<&[f64]> = thetas.chunks(chunk_len).collect();
        let per_chunk = ccdn_par::par_map(Threads::Auto, &chunks, |chunk| {
            let mut arena = FlowNetwork::new();
            let mut out = Vec::with_capacity(chunk.len());
            for &theta in *chunk {
                out.push(GdStats::compute_with(input, &parts, theta, &mut arena));
            }
            out
        });
        per_chunk.into_iter().flatten().collect()
    }
}

/// Overloaded / under-utilized hotspot partition with their `φ` slacks
/// (Algorithm 1 lines 1–4).
#[derive(Debug, Clone)]
pub(crate) struct Participants {
    /// `(hotspot index, φ_i = λ_i − s_i)` for `λ_i > s_i`.
    pub overloaded: Vec<(usize, u64)>,
    /// `(hotspot index, φ_j = s_j − λ_j)` for `λ_j < s_j`, restricted to
    /// hotspots that can actually cache and serve (`c_j > 0`).
    pub under: Vec<(usize, u64)>,
}

impl Participants {
    /// The partition of the hotspots `members` yields, in that order
    /// (ascending, which fixes the node order of every graph built from
    /// it): one tile's members for the balancing loop, every hotspot for
    /// Fig. 9, the merged `max_movable` and the border pass's residuals.
    pub(crate) fn new(input: &SlotInput<'_>, members: impl IntoIterator<Item = usize>) -> Self {
        let mut overloaded = Vec::new();
        let mut under = Vec::new();
        for h in members {
            let load = input.demand.load(HotspotId(h));
            let cap = input.service_capacity[h];
            if load > cap {
                overloaded.push((h, load - cap));
            } else if load < cap && input.cache_capacity[h] > 0 {
                under.push((h, cap - load));
            }
        }
        Participants { overloaded, under }
    }

    pub(crate) fn max_movable(&self) -> u64 {
        let out: u64 = self.overloaded.iter().map(|&(_, p)| p).sum();
        let cap: u64 = self.under.iter().map(|&(_, p)| p).sum();
        out.min(cap)
    }
}

/// Incremental builder for `Gd`/`Gc`: source → overloaded → (guides) →
/// under-utilized → sink, with an edge-id map back to hotspot pairs.
///
/// Borrows its network from the caller so round/θ loops can rebuild into
/// one arena [`FlowNetwork`] (cleared, allocations kept) instead of
/// reallocating a graph per iteration.
struct GraphBuilder<'n> {
    net: &'n mut FlowNetwork,
    source: usize,
    sink: usize,
    /// Node id of overloaded hotspot `overloaded[k]` ([`NO_NODE`] when a
    /// round's skeleton leaves it out).
    s_nodes: Vec<usize>,
    /// Node id of under-utilized hotspot `under[k]` (or [`NO_NODE`]).
    t_nodes: Vec<usize>,
    /// Forward arcs carrying `(i, j)` pair flow (direct or via a guide).
    pair_edges: Vec<(EdgeId, usize, usize)>,
}

/// Node slot of a hotspot that has no node in this round's skeleton.
const NO_NODE: usize = usize::MAX;

/// The node-id and pair-arc buffers of [`GraphBuilder`], handed from one
/// θ round to the next so the round loop allocates none of them.
#[derive(Default)]
struct RoundScratch {
    s_nodes: Vec<usize>,
    t_nodes: Vec<usize>,
    pair_edges: Vec<(EdgeId, usize, usize)>,
    /// The round's arc plans, one list per under-utilized slot.
    plans: Vec<Vec<EdgePlan>>,
}

impl<'n> GraphBuilder<'n> {
    /// Builds the source/sink skeleton straight from slack iterators, with
    /// a node for every overloaded and under-utilized hotspot.
    fn from_slacks(
        net: &'n mut FlowNetwork,
        overloaded: impl Iterator<Item = u64>,
        under: impl Iterator<Item = u64>,
    ) -> Self {
        net.clear();
        let source = net.add_node();
        let sink = net.add_node();
        let s_nodes: Vec<usize> = overloaded
            .map(|phi| {
                let node = net.add_node();
                // lint: allow(no-panic): zero cost and in-range nodes make add_edge infallible
                net.add_edge(source, node, phi as i64, 0.0).expect("valid edge");
                node
            })
            .collect();
        let t_nodes: Vec<usize> = under
            .map(|phi| {
                let node = net.add_node();
                // lint: allow(no-panic): zero cost and in-range nodes make add_edge infallible
                net.add_edge(node, sink, phi as i64, 0.0).expect("valid edge");
                node
            })
            .collect();
        GraphBuilder { net, source, sink, s_nodes, t_nodes, pair_edges: Vec::new() }
    }

    /// Builds one round's skeleton with nodes only for the hotspots some
    /// arc in `plans` touches: the used overloaded hotspots in slot order,
    /// then the under-utilized slots with a non-empty plan, then (as the
    /// plans are added) the guides. Every other node of the full skeleton
    /// is a dead end or unreachable, so it never lies on an s–t path; the
    /// kept nodes and arcs keep their relative order, which is all the
    /// MCMF's `(dist, node)` tie-break and arc scan see. The solve is
    /// therefore the one the full skeleton gives. Reuses `scratch`'s
    /// buffers.
    fn pruned(
        net: &'n mut FlowNetwork,
        phi_s: &[u64],
        phi_t: &[u64],
        plans: &[Vec<EdgePlan>],
        scratch: &mut RoundScratch,
    ) -> Self {
        net.clear();
        let source = net.add_node();
        let sink = net.add_node();
        let mut s_nodes = std::mem::take(&mut scratch.s_nodes);
        s_nodes.clear();
        s_nodes.resize(phi_s.len(), NO_NODE);
        // Mark each overloaded slot an arc leaves (with the source id,
        // which no s-node can have), then number the marked ones in order.
        for plan in plans.iter().flatten() {
            match plan {
                EdgePlan::Direct { si, .. } => s_nodes[*si] = source,
                EdgePlan::Guide { sources, .. } => {
                    sources.iter().for_each(|&(si, _, _)| s_nodes[si] = source);
                }
            }
        }
        for (node, &phi) in s_nodes.iter_mut().zip(phi_s) {
            if *node == source {
                *node = net.add_node();
                // lint: allow(no-panic): zero cost and in-range nodes make add_edge infallible
                net.add_edge(source, *node, phi as i64, 0.0).expect("valid edge");
            }
        }
        let mut t_nodes = std::mem::take(&mut scratch.t_nodes);
        t_nodes.clear();
        t_nodes.extend(plans.iter().zip(phi_t).map(|(plan, &phi)| {
            if plan.is_empty() {
                return NO_NODE;
            }
            let node = net.add_node();
            // lint: allow(no-panic): zero cost and in-range nodes make add_edge infallible
            net.add_edge(node, sink, phi as i64, 0.0).expect("valid edge");
            node
        }));
        let mut pair_edges = std::mem::take(&mut scratch.pair_edges);
        pair_edges.clear();
        GraphBuilder { net, source, sink, s_nodes, t_nodes, pair_edges }
    }

    /// Adds a direct arc between overloaded slot `si` and under slot `ti`.
    fn direct_edge(&mut self, si: usize, ti: usize, capacity: u64, cost_km: f64) {
        let e = self
            .net
            .add_edge(self.s_nodes[si], self.t_nodes[ti], capacity as i64, cost_km)
            // lint: allow(no-panic): cost is a finite non-negative geometry distance
            .expect("valid edge");
        self.pair_edges.push((e, si, ti));
        GD_EDGES.incr();
    }

    /// Adds a flow-guide node draining overloaded slots `sources`
    /// (`(si, capacity, distance)`) into under slot `ti` (§IV-B): arcs
    /// `i → n_kj` (cost 0) and one arc `n_kj → j` with the aggregate
    /// capacity and the configured cost.
    fn guide_node(
        &mut self,
        sources: &[(usize, u64, f64)],
        ti: usize,
        out_capacity: u64,
        out_cost: f64,
    ) {
        let guide = self.net.add_node();
        GUIDE_NODES.incr();
        for &(si, cap, _) in sources {
            let e = self
                .net
                .add_edge(self.s_nodes[si], guide, cap as i64, 0.0)
                // lint: allow(no-panic): zero cost and in-range nodes make add_edge infallible
                .expect("valid edge");
            self.pair_edges.push((e, si, ti));
            GD_EDGES.incr();
        }
        self.net
            .add_edge(guide, self.t_nodes[ti], out_capacity as i64, out_cost)
            // lint: allow(no-panic): guide cost is a finite non-negative mean of distances
            .expect("valid edge");
    }

    /// Adds every under slot's planned arcs, in `ti` order — the order
    /// that pins node/edge ids (and with them MCMF tie-breaking).
    fn add_plans(&mut self, plans: impl IntoIterator<Item = Vec<EdgePlan>>) {
        for (ti, plan) in plans.into_iter().enumerate() {
            for p in plan {
                match p {
                    EdgePlan::Direct { si, capacity, cost_km } => {
                        self.direct_edge(si, ti, capacity, cost_km);
                    }
                    EdgePlan::Guide { sources, out_capacity, out_cost } => {
                        self.guide_node(&sources, ti, out_capacity, out_cost);
                    }
                }
            }
        }
    }

    /// Solves the min-cost max-flow and returns the positive pair flows
    /// `((si, ti), f)` in arc order, handing the buffers to `scratch`.
    fn solve(self, scratch: &mut RoundScratch) -> Vec<((usize, usize), u64)> {
        let GraphBuilder { net, source, sink, s_nodes, t_nodes, pair_edges } = self;
        let _ = net
            .min_cost_max_flow(source, sink)
            // lint: allow(no-panic): builder endpoints are two distinct freshly added nodes
            .expect("valid endpoints");
        let flows = pair_edges
            .iter()
            .filter_map(|&(e, si, ti)| {
                let f = net.edge_flow(e);
                (f > 0).then_some(((si, ti), f as u64))
            })
            .collect();
        (scratch.s_nodes, scratch.t_nodes, scratch.pair_edges) = (s_nodes, t_nodes, pair_edges);
        flows
    }
}

/// One planned arc of a balancing round, computed per under-utilized slot
/// and added to the [`GraphBuilder`] in `ti` order, which pins edge/node
/// ids (and with them MCMF tie-breaking).
enum EdgePlan {
    /// A direct `i → j` arc.
    Direct { si: usize, capacity: u64, cost_km: f64 },
    /// A flow-guide node draining `sources` (`(si, capacity, distance)`)
    /// into `j` (§IV-B).
    Guide { sources: Vec<(usize, u64, f64)>, out_capacity: u64, out_cost: f64 },
}

/// Runs Algorithm 1's balancing loop over the hotspots in `members`
/// (ascending) and returns the accumulated flows. Only members join the
/// overloaded/under-utilized partition, so the θ loop and its MCMF stay
/// local to them: flat RBCAer passes every hotspot, S-RBCAer one tile.
///
/// `cluster_of[h]` assigns every hotspot to a content cluster (ignored
/// when `config.content_aggregation` is false).
pub(crate) fn balance(
    input: &SlotInput<'_>,
    config: &RbcaerConfig,
    cluster_of: &[usize],
    members: &[usize],
) -> BalanceOutcome {
    let parts = Participants::new(input, members.iter().copied());
    let max_movable = parts.max_movable();
    let mut phi_s: Vec<u64> = parts.overloaded.iter().map(|&(_, p)| p).collect();
    let mut phi_t: Vec<u64> = parts.under.iter().map(|&(_, p)| p).collect();
    let mut flows: BTreeMap<(HotspotId, HotspotId), u64> = BTreeMap::new();
    let mut moved = 0u64;

    if max_movable > 0 {
        // Hoisted out of the θ loop: one arena network and one set of
        // round buffers rebuilt per round, and every pair the sweep can
        // reach, scanned once.
        let mut arena = FlowNetwork::new();
        let mut scratch = RoundScratch::default();
        let reach = sweep_candidates(input, config, &parts);
        let mut theta = config.theta1_km;
        // Guard against pathological δd ever looping forever.
        let mut iterations = 0;
        while theta <= config.theta2_km + SWEEP_SLACK_KM
            && moved < max_movable
            && iterations < 10_000
        {
            let round = solve_round(
                config,
                &parts,
                &reach,
                &phi_s,
                &phi_t,
                theta,
                config.content_aggregation,
                cluster_of,
                &mut arena,
                &mut scratch,
            );
            apply_round(&parts, &round, &mut phi_s, &mut phi_t, &mut flows, &mut moved);
            theta += config.delta_km;
            iterations += 1;
            THETA_STEPS.incr();
        }
        // Residual pass on the plain Gd at θ₂ (Algorithm 1 lines 11–13):
        // anything still unmoved within the collaboration radius moves on
        // latency alone; the rest will spill to the CDN server.
        if moved < max_movable {
            let round = solve_round(
                config,
                &parts,
                &reach,
                &phi_s,
                &phi_t,
                config.theta2_km,
                false,
                cluster_of,
                &mut arena,
                &mut scratch,
            );
            apply_round(&parts, &round, &mut phi_s, &mut phi_t, &mut flows, &mut moved);
            RESIDUAL_ROUNDS.incr();
        }
    }

    BalanceOutcome { flows, moved, max_movable }
}

/// Float slack on the sweep's last threshold: the θ loop runs while
/// `θ ≤ θ₂ + SWEEP_SLACK_KM`, so no round, residual pass included, ever
/// admits an arc of length `θ₂ + SWEEP_SLACK_KM` or more.
const SWEEP_SLACK_KM: f64 = 1e-9;

/// Every arc candidate `(si, d)` of each under-utilized slot over the
/// whole θ sweep: the pairs closer than the loop's last threshold bound,
/// in ascending `si` order. A round keeps the ones with slack left
/// and `d < θ`, so a `δd` that does not divide `θ₂ − θ₁` is covered too.
fn sweep_candidates(
    input: &SlotInput<'_>,
    config: &RbcaerConfig,
    parts: &Participants,
) -> Vec<Vec<(usize, f64)>> {
    let bound = config.theta2_km + SWEEP_SLACK_KM;
    parts
        .under
        .iter()
        .map(|&(j, _)| {
            parts
                .overloaded
                .iter()
                .enumerate()
                .filter_map(|(si, &(i, _))| {
                    let d = input.geometry.distance(HotspotId(i), HotspotId(j));
                    (d < bound).then_some((si, d))
                })
                .collect()
        })
        .collect()
}

/// One MCMF solve at threshold `theta` over the pairs in `reach` (see
/// [`sweep_candidates`]); returns per-(slot-index) flows.
#[allow(clippy::too_many_arguments)]
fn solve_round(
    config: &RbcaerConfig,
    parts: &Participants,
    reach: &[Vec<(usize, f64)>],
    phi_s: &[u64],
    phi_t: &[u64],
    theta: f64,
    with_guides: bool,
    cluster_of: &[usize],
    arena: &mut FlowNetwork,
    scratch: &mut RoundScratch,
) -> Vec<((usize, usize), u64)> {
    // Each under-utilized slot's arcs — this round's live candidates plus
    // flow-guide grouping — planned in `ti` order into the reused list.
    let mut plans = std::mem::take(&mut scratch.plans);
    plans.clear();
    plans.extend(parts.under.iter().zip(phi_t).zip(reach).map(|((&(j, _), &phi_j), reach)| {
        let live = reach.iter().copied().filter(|&(si, d)| phi_s[si] > 0 && d < theta);
        plan_arcs(config, parts, phi_s, j, phi_j, live, with_guides, cluster_of)
    }));
    let mut builder = GraphBuilder::pruned(arena, phi_s, phi_t, &plans, scratch);
    builder.add_plans(plans.drain(..));
    let flows = builder.solve(scratch);
    scratch.plans = plans;
    flows
}

/// The arcs of one round into under-utilized hotspot `j` with slack
/// `phi_j`, from its live candidates `(si, d)` in ascending `si` order:
/// direct arcs, or with `with_guides` one flow-guide node for each content
/// cluster of two or more candidates that can fill half of `φ_j` or is
/// `j`'s own cluster (§IV-B), and direct arcs for the rest.
#[allow(clippy::too_many_arguments)]
fn plan_arcs(
    config: &RbcaerConfig,
    parts: &Participants,
    phi_s: &[u64],
    j: usize,
    phi_j: u64,
    cands: impl Iterator<Item = (usize, f64)>,
    with_guides: bool,
    cluster_of: &[usize],
) -> Vec<EdgePlan> {
    if phi_j == 0 {
        return Vec::new();
    }
    if !with_guides {
        return cands
            .map(|(si, d)| EdgePlan::Direct { si, capacity: phi_s[si].min(phi_j), cost_km: d })
            .collect();
    }
    let j_cluster = cluster_of.get(j).copied().unwrap_or(usize::MAX);
    // Group candidate sources by content cluster; the ordered map fixes
    // the guide-node construction order (and with it arc ids).
    let mut by_cluster: BTreeMap<usize, Vec<(usize, u64, f64)>> = BTreeMap::new();
    for (si, d) in cands {
        let i_hotspot = parts.overloaded[si].0;
        let i_cluster = cluster_of.get(i_hotspot).copied().unwrap_or(usize::MAX);
        by_cluster.entry(i_cluster).or_default().push((si, phi_s[si].min(phi_j), d));
    }
    let mut plan = Vec::new();
    for (k, members) in by_cluster {
        let phi_sum: u64 = members.iter().map(|&(_, cap, _)| cap).sum();
        let eligible = phi_sum * 2 >= phi_j || k == j_cluster;
        if eligible && members.len() > 1 {
            let out_capacity = phi_sum.min(phi_j);
            let out_cost = match config.guide_cost {
                GuideCost::MeanLatency => {
                    members.iter().map(|&(_, _, d)| d).sum::<f64>() / members.len() as f64
                }
                GuideCost::PaperLiteral => phi_sum as f64 / members.len() as f64,
            };
            plan.push(EdgePlan::Guide { sources: members, out_capacity, out_cost });
        } else {
            plan.extend(members.into_iter().map(|(si, capacity, cost_km)| EdgePlan::Direct {
                si,
                capacity,
                cost_km,
            }));
        }
    }
    plan
}

fn apply_round(
    parts: &Participants,
    round: &[((usize, usize), u64)],
    phi_s: &mut [u64],
    phi_t: &mut [u64],
    flows: &mut BTreeMap<(HotspotId, HotspotId), u64>,
    moved: &mut u64,
) {
    for &((si, ti), f) in round {
        phi_s[si] -= f;
        phi_t[ti] -= f;
        let i = HotspotId(parts.overloaded[si].0);
        let j = HotspotId(parts.under[ti].0);
        *flows.entry((i, j)).or_insert(0) += f;
        *moved += f;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdn_geo::{Point, Rect};
    use ccdn_sim::{HotspotGeometry, SlotDemand};
    use ccdn_trace::{Hotspot, Request, UserId, VideoId};
    use proptest::prelude::*;

    /// One θ round as it was built before the sweep candidates and the
    /// pruned skeleton: every overloaded–under pair rescanned at `theta`,
    /// and a node for every participant.
    #[allow(clippy::too_many_arguments)]
    fn full_round(
        input: &SlotInput<'_>,
        config: &RbcaerConfig,
        parts: &Participants,
        phi_s: &[u64],
        phi_t: &[u64],
        theta: f64,
        with_guides: bool,
        cluster_of: &[usize],
        arena: &mut FlowNetwork,
    ) -> Vec<((usize, usize), u64)> {
        let mut builder =
            GraphBuilder::from_slacks(arena, phi_s.iter().copied(), phi_t.iter().copied());
        let plans: Vec<Vec<EdgePlan>> = parts
            .under
            .iter()
            .zip(phi_t)
            .map(|(&(j, _), &phi_j)| {
                let cands = parts
                    .overloaded
                    .iter()
                    .enumerate()
                    .filter(|&(si, _)| phi_s[si] > 0)
                    .filter_map(|(si, &(i, _))| {
                        let d = input.geometry.distance(HotspotId(i), HotspotId(j));
                        (d < theta).then_some((si, d))
                    });
                plan_arcs(config, parts, phi_s, j, phi_j, cands, with_guides, cluster_of)
            })
            .collect();
        builder.add_plans(plans);
        builder.solve(&mut RoundScratch::default())
    }

    /// Algorithm 1's loop over [`full_round`], on the hotspots of `parts`.
    fn reference_balance(
        input: &SlotInput<'_>,
        config: &RbcaerConfig,
        cluster_of: &[usize],
        parts: &Participants,
    ) -> BalanceOutcome {
        let max_movable = parts.max_movable();
        let mut phi_s: Vec<u64> = parts.overloaded.iter().map(|&(_, p)| p).collect();
        let mut phi_t: Vec<u64> = parts.under.iter().map(|&(_, p)| p).collect();
        let mut flows = BTreeMap::new();
        let mut moved = 0u64;
        let mut arena = FlowNetwork::new();
        if max_movable > 0 {
            let mut theta = config.theta1_km;
            let mut iterations = 0;
            while theta <= config.theta2_km + 1e-9 && moved < max_movable && iterations < 10_000 {
                let round = full_round(
                    input,
                    config,
                    parts,
                    &phi_s,
                    &phi_t,
                    theta,
                    config.content_aggregation,
                    cluster_of,
                    &mut arena,
                );
                apply_round(parts, &round, &mut phi_s, &mut phi_t, &mut flows, &mut moved);
                theta += config.delta_km;
                iterations += 1;
            }
            if moved < max_movable {
                let round = full_round(
                    input,
                    config,
                    parts,
                    &phi_s,
                    &phi_t,
                    config.theta2_km,
                    false,
                    cluster_of,
                    &mut arena,
                );
                apply_round(parts, &round, &mut phi_s, &mut phi_t, &mut flows, &mut moved);
            }
        }
        BalanceOutcome { flows, moved, max_movable }
    }

    /// A random slot in a 3 km square: hotspots `(x, y, s, c, cluster)`
    /// and requests `(x, y, video)`, each served by its nearest hotspot.
    struct Slot {
        geometry: HotspotGeometry,
        demand: SlotDemand,
        service: Vec<u64>,
        cache: Vec<u64>,
        cluster_of: Vec<usize>,
    }

    impl Slot {
        fn new(spots: &[(f64, f64, u32, u32, usize)], requests: &[(f64, f64, u32)]) -> Slot {
            let hotspots: Vec<Hotspot> = spots
                .iter()
                .enumerate()
                .map(|(h, &(x, y, s, c, _))| Hotspot {
                    id: HotspotId(h),
                    location: Point::new(x, y),
                    service_capacity: s,
                    cache_capacity: c,
                })
                .collect();
            let region = Rect::new(Point::new(0.0, 0.0), Point::new(3.0, 3.0));
            let geometry = HotspotGeometry::new(region, &hotspots);
            let requests: Vec<Request> = requests
                .iter()
                .map(|&(x, y, v)| Request {
                    user: UserId(0),
                    video: VideoId(v),
                    timeslot: 0,
                    location: Point::new(x, y),
                })
                .collect();
            Slot {
                demand: SlotDemand::aggregate(&requests, &geometry),
                geometry,
                service: spots.iter().map(|s| u64::from(s.2)).collect(),
                cache: spots.iter().map(|s| u64::from(s.3)).collect(),
                cluster_of: spots.iter().map(|s| s.4).collect(),
            }
        }

        fn input(&self) -> SlotInput<'_> {
            SlotInput {
                geometry: &self.geometry,
                demand: &self.demand,
                service_capacity: &self.service,
                cache_capacity: &self.cache,
                video_count: 8,
            }
        }
    }

    /// The configurations the sweep must match the reference under:
    /// the paper's, a `δd` that does not divide `θ₂ − θ₁`, a single
    /// threshold, and content aggregation off.
    fn configs() -> [RbcaerConfig; 4] {
        let paper = RbcaerConfig::default();
        [
            paper,
            RbcaerConfig { delta_km: 0.3, ..paper },
            RbcaerConfig { theta1_km: 1.0, theta2_km: 1.0, ..paper },
            RbcaerConfig { content_aggregation: false, ..paper },
        ]
    }

    #[test]
    fn pruned_sweep_matches_full_rounds_on_a_fixed_slot() {
        // Two overloaded hotspots next to three idle ones, one of them
        // out of reach of every threshold.
        let spots = [
            (0.5, 0.5, 1, 0, 0),
            (0.9, 0.5, 1, 0, 0),
            (0.7, 1.2, 9, 3, 0),
            (1.6, 0.5, 9, 3, 1),
            (2.9, 2.9, 9, 3, 1),
        ];
        let requests: Vec<(f64, f64, u32)> =
            (0..12).map(|k| (if k % 2 == 0 { 0.5 } else { 0.9 }, 0.5, k % 4)).collect();
        let slot = Slot::new(&spots, &requests);
        let input = slot.input();
        let every: Vec<usize> = (0..spots.len()).collect();
        let parts = Participants::new(&input, every.iter().copied());
        configs().iter().for_each(|config| {
            let got = balance(&input, config, &slot.cluster_of, &every);
            assert!(got.moved > 0, "the fixture must move requests");
            assert_eq!(got, reference_balance(&input, config, &slot.cluster_of, &parts));
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_pruned_sweep_matches_full_rounds(
            spots in prop::collection::vec(
                (0.0f64..3.0, 0.0f64..3.0, 0u32..12, 0u32..3, 0usize..3),
                1..16,
            ),
            requests in prop::collection::vec((0.0f64..3.0, 0.0f64..3.0, 0u32..8), 0..120),
            config_ix in 0usize..4,
            mask in any::<u16>(),
        ) {
            let slot = Slot::new(&spots, &requests);
            let input = slot.input();
            let config = configs()[config_ix];
            // Every hotspot, as flat RBCAer's one tile holds them.
            let every: Vec<usize> = (0..spots.len()).collect();
            let parts = Participants::new(&input, every.iter().copied());
            let got = balance(&input, &config, &slot.cluster_of, &every);
            prop_assert_eq!(got, reference_balance(&input, &config, &slot.cluster_of, &parts));
            // An ascending member subset that `mask` picks, as one
            // S-RBCAer tile.
            let members: Vec<usize> = (0..spots.len()).filter(|&h| mask >> h & 1 == 1).collect();
            let parts = Participants::new(&input, members.iter().copied());
            let got = balance(&input, &config, &slot.cluster_of, &members);
            prop_assert_eq!(got, reference_balance(&input, &config, &slot.cluster_of, &parts));
        }
    }
}
