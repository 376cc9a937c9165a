use crate::network::{FlowError, FlowNetwork};
use ccdn_obs::Counter;
use std::cmp::Ordering;

/// MCMF solver entry points taken (all algorithms).
static SOLVES: Counter = Counter::new("flow.mcmf.solves");
/// Shortest-path rounds of the Dijkstra-with-potentials solver.
static DIJKSTRA_ROUNDS: Counter = Counter::new("flow.mcmf.dijkstra_rounds");
/// Negative residual cycles canceled by the Klein solver.
static CYCLES_CANCELED: Counter = Counter::new("flow.mcmf.cycles_canceled");
use std::collections::BinaryHeap;

/// Choice of minimum-cost max-flow algorithm.
///
/// Both variants compute the same optimum (verified by property tests).
/// Every planner solves with the default; the other is a test oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum McmfAlgorithm {
    /// Successive shortest paths with Dijkstra on reduced costs (Johnson
    /// potentials). Requires non-negative arc costs, which
    /// [`FlowNetwork::add_edge`] already enforces. The default.
    #[default]
    SspDijkstra,
    /// Klein's cycle-canceling: compute any max flow (Dinic), then cancel
    /// negative-cost residual cycles until none remain. Slower than
    /// successive shortest paths, but it reaches the optimum by a
    /// completely different route — kept as an independent correctness
    /// oracle for [`SspDijkstra`](Self::SspDijkstra) in the property
    /// tests.
    CycleCanceling,
}

/// Result of a minimum-cost max-flow computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McmfResult {
    /// Total flow pushed from source to sink (always the maximum flow).
    pub flow: i64,
    /// Total cost `Σ flow(e) · cost(e)` of that flow (minimal among all
    /// maximum flows).
    pub cost: f64,
}

/// Heap entry for Dijkstra over `f64` distances.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the max-heap pops the smallest distance.
        other.dist.total_cmp(&self.dist).then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl FlowNetwork {
    /// Computes a **minimum-cost maximum flow** from `source` to `sink`.
    ///
    /// Pushes the maximum possible flow while minimizing total cost, which
    /// is exactly what RBCAer needs: move as much excess workload as the
    /// capacities allow, over the cheapest (lowest-latency) inter-hotspot
    /// arcs. Flows remain recorded on the network; inspect them with
    /// [`FlowNetwork::edge_flow`].
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::NodeOutOfRange`] or [`FlowError::SourceIsSink`]
    /// for invalid endpoints.
    ///
    /// # Examples
    ///
    /// ```
    /// use ccdn_flow::{FlowNetwork, McmfAlgorithm};
    ///
    /// // Overloaded hotspot 0 can shed 2 requests to hotspots 1 (1 km
    /// // away, capacity 1) or 2 (3 km away, capacity 5).
    /// let mut net = FlowNetwork::with_nodes(4);
    /// let (s, a, b, t) = (0, 1, 2, 3);
    /// net.add_edge(s, a, 1, 1.0)?;
    /// net.add_edge(s, b, 5, 3.0)?;
    /// net.add_edge(a, t, 1, 0.0)?;
    /// net.add_edge(b, t, 5, 0.0)?;
    /// let r = net.min_cost_max_flow(s, t, McmfAlgorithm::default())?;
    /// assert_eq!(r.flow, 6);
    /// assert_eq!(r.cost, 1.0 + 5.0 * 3.0);
    /// # Ok::<(), ccdn_flow::FlowError>(())
    /// ```
    pub fn min_cost_max_flow(
        &mut self,
        source: usize,
        sink: usize,
        algorithm: McmfAlgorithm,
    ) -> Result<McmfResult, FlowError> {
        self.check_endpoints(source, sink)?;
        SOLVES.incr();
        let _span = ccdn_obs::span("flow.mcmf.solve");
        let result = match algorithm {
            McmfAlgorithm::SspDijkstra => self.mcmf_dijkstra(source, sink),
            McmfAlgorithm::CycleCanceling => self.mcmf_cycle_canceling(source, sink)?,
        };
        #[cfg(feature = "strict-invariants")]
        if let Err(violation) = crate::validate::check_mcmf_optimal(self, source, sink) {
            // lint: allow(no-panic): strict-invariants deliberately aborts on a violated invariant
            panic!("strict-invariants: MCMF solution is not optimal: {violation}");
        }
        Ok(result)
    }

    fn mcmf_cycle_canceling(
        &mut self,
        source: usize,
        sink: usize,
    ) -> Result<McmfResult, FlowError> {
        let flow = self.max_flow_dinic(source, sink)?;
        let n = self.node_count();
        let mut canceled = 0u64;
        // Cancel negative residual cycles found by Bellman–Ford from a
        // virtual super-source (distance 0 to every node). Scratch
        // buffers live outside the cancellation loop (hot-loop-alloc).
        let mut dist = vec![0.0f64; n];
        let mut prev_arc = vec![usize::MAX; n];
        loop {
            dist.iter_mut().for_each(|d| *d = 0.0);
            prev_arc.iter_mut().for_each(|p| *p = usize::MAX);
            let mut updated_node = usize::MAX;
            for round in 0..n {
                updated_node = usize::MAX;
                for u in 0..n {
                    if !dist[u].is_finite() {
                        continue;
                    }
                    for a in self.out_arcs(u) {
                        if self.arc_cap[a] <= 0 {
                            continue;
                        }
                        let to = self.arc_to[a];
                        let nd = dist[u] + self.arc_cost[a];
                        if nd + 1e-9 < dist[to] {
                            dist[to] = nd;
                            prev_arc[to] = a;
                            updated_node = to;
                        }
                    }
                }
                if updated_node == usize::MAX {
                    break;
                }
                let _ = round;
            }
            if updated_node == usize::MAX {
                break; // no negative cycle remains
            }
            // A node updated in round n lies on (or reaches) a negative
            // cycle; walk n predecessors to land inside it.
            let mut v = updated_node;
            for _ in 0..n {
                v = self.arc_to[prev_arc[v] ^ 1];
            }
            // Collect the cycle and its bottleneck.
            let start = v;
            let mut bottleneck = i64::MAX;
            loop {
                let a = prev_arc[v];
                bottleneck = bottleneck.min(self.arc_cap[a]);
                v = self.arc_to[a ^ 1];
                if v == start {
                    break;
                }
            }
            let mut v = start;
            loop {
                let a = prev_arc[v];
                self.arc_cap[a] -= bottleneck;
                self.arc_cap[a ^ 1] += bottleneck;
                v = self.arc_to[a ^ 1];
                if v == start {
                    break;
                }
            }
            canceled += 1;
        }
        CYCLES_CANCELED.add(canceled);
        // Recompute the cost from the recorded edge flows.
        let cost = self.edges().iter().map(|e| e.flow as f64 * e.cost).sum();
        Ok(McmfResult { flow, cost })
    }

    fn mcmf_dijkstra(&mut self, source: usize, sink: usize) -> McmfResult {
        let n = self.node_count();
        let mut potential = vec![0.0f64; n];
        let mut total_flow = 0i64;
        let mut total_cost = 0.0f64;
        let mut dist = vec![f64::INFINITY; n];
        let mut prev_arc = vec![usize::MAX; n];
        // One heap for every augmentation round; cleared, not
        // reallocated (hot-loop-alloc).
        let mut heap = BinaryHeap::new();
        let mut rounds = 0u64;

        while total_flow < i64::MAX {
            rounds += 1;
            dist.iter_mut().for_each(|d| *d = f64::INFINITY);
            prev_arc.iter_mut().for_each(|p| *p = usize::MAX);
            dist[source] = 0.0;
            heap.clear();
            heap.push(HeapEntry { dist: 0.0, node: source });
            while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
                if d > dist[u] {
                    continue;
                }
                for a in self.out_arcs(u) {
                    if self.arc_cap[a] <= 0 {
                        continue;
                    }
                    let to = self.arc_to[a];
                    // Reduced cost is non-negative for arcs on shortest
                    // paths; tiny negative values from float rounding are
                    // clamped to keep Dijkstra sound.
                    let reduced = (self.arc_cost[a] + potential[u] - potential[to]).max(0.0);
                    let nd = d + reduced;
                    if nd + 1e-12 < dist[to] {
                        dist[to] = nd;
                        prev_arc[to] = a;
                        heap.push(HeapEntry { dist: nd, node: to });
                    }
                }
            }
            if !dist[sink].is_finite() {
                break;
            }
            for v in 0..n {
                if dist[v].is_finite() {
                    potential[v] += dist[v];
                }
            }
            // Find bottleneck along the shortest path, then push.
            let mut bottleneck = i64::MAX - total_flow;
            let mut v = sink;
            while v != source {
                let a = prev_arc[v];
                bottleneck = bottleneck.min(self.arc_cap[a]);
                v = self.arc_to[a ^ 1];
            }
            let mut v = sink;
            while v != source {
                let a = prev_arc[v];
                self.arc_cap[a] -= bottleneck;
                self.arc_cap[a ^ 1] += bottleneck;
                total_cost += self.arc_cost[a] * bottleneck as f64;
                v = self.arc_to[a ^ 1];
            }
            total_flow += bottleneck;
        }
        DIJKSTRA_ROUNDS.add(rounds);
        McmfResult { flow: total_flow, cost: total_cost }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Solves clones of `net` with the default solver and with the
    /// cycle-canceling oracle.
    fn both(net: &FlowNetwork, s: usize, t: usize) -> (McmfResult, McmfResult) {
        let mut a = net.clone();
        let mut b = net.clone();
        (
            a.min_cost_max_flow(s, t, McmfAlgorithm::SspDijkstra).unwrap(),
            b.min_cost_max_flow(s, t, McmfAlgorithm::CycleCanceling).unwrap(),
        )
    }

    #[test]
    fn cycle_canceling_matches_ssp_on_fixed_cases() {
        // The rerouting case where an initial max flow is suboptimal.
        let mut net = FlowNetwork::with_nodes(4);
        net.add_edge(0, 1, 1, 1.0).unwrap();
        net.add_edge(0, 2, 1, 2.0).unwrap();
        net.add_edge(1, 2, 1, 0.0).unwrap();
        net.add_edge(1, 3, 1, 3.0).unwrap();
        net.add_edge(2, 3, 1, 1.0).unwrap();
        let (ssp, r) = both(&net, 0, 3);
        assert_eq!(r.flow, 2);
        assert!((r.cost - 7.0).abs() < 1e-9);
        assert_eq!(ssp.flow, r.flow);
        assert!((ssp.cost - r.cost).abs() < 1e-9);
    }

    #[test]
    fn prefers_cheap_path() {
        let mut net = FlowNetwork::with_nodes(4);
        net.add_edge(0, 1, 1, 1.0).unwrap();
        net.add_edge(0, 2, 1, 10.0).unwrap();
        net.add_edge(1, 3, 1, 1.0).unwrap();
        net.add_edge(2, 3, 1, 10.0).unwrap();
        let r = net.min_cost_max_flow(0, 3, McmfAlgorithm::SspDijkstra).unwrap();
        assert_eq!(r.flow, 2);
        assert_eq!(r.cost, 22.0);
        // Cheap route saturates first; expensive is used only for extra flow.
        let views = net.edges();
        assert_eq!(views[0].flow, 1);
        assert_eq!(views[1].flow, 1);
    }

    #[test]
    fn min_cost_among_max_flows() {
        // Max flow is 1 and can go via cost-1 or cost-100 route.
        let mut net = FlowNetwork::with_nodes(4);
        net.add_edge(0, 1, 1, 100.0).unwrap();
        net.add_edge(0, 2, 1, 1.0).unwrap();
        net.add_edge(1, 3, 1, 0.0).unwrap();
        net.add_edge(2, 3, 1, 0.0).unwrap();
        net.add_edge(3, 3, 0, 0.0).unwrap();
        // Bottleneck at the sink side: only one unit can leave node 3? No —
        // make a real bottleneck:
        let mut net2 = FlowNetwork::with_nodes(5);
        net2.add_edge(0, 1, 1, 100.0).unwrap();
        net2.add_edge(0, 2, 1, 1.0).unwrap();
        net2.add_edge(1, 3, 1, 0.0).unwrap();
        net2.add_edge(2, 3, 1, 0.0).unwrap();
        net2.add_edge(3, 4, 1, 0.0).unwrap();
        let r = net2.min_cost_max_flow(0, 4, McmfAlgorithm::SspDijkstra).unwrap();
        assert_eq!(r.flow, 1);
        assert_eq!(r.cost, 1.0);
        let _ = net;
    }

    #[test]
    fn zero_flow_when_disconnected() {
        let mut net = FlowNetwork::with_nodes(3);
        net.add_edge(0, 1, 5, 1.0).unwrap();
        let r = net.min_cost_max_flow(0, 2, McmfAlgorithm::SspDijkstra).unwrap();
        assert_eq!(r, McmfResult { flow: 0, cost: 0.0 });
    }

    #[test]
    fn rerouting_through_residual_arcs() {
        // Classic case where the optimum needs to "undo" an earlier push;
        // SSP handles this via the negative-cost reverse arcs.
        let mut net = FlowNetwork::with_nodes(4);
        net.add_edge(0, 1, 1, 1.0).unwrap();
        net.add_edge(0, 2, 1, 2.0).unwrap();
        net.add_edge(1, 2, 1, 0.0).unwrap();
        net.add_edge(1, 3, 1, 3.0).unwrap();
        net.add_edge(2, 3, 1, 1.0).unwrap();
        let r = net.min_cost_max_flow(0, 3, McmfAlgorithm::SspDijkstra).unwrap();
        assert_eq!(r.flow, 2);
        // Optimal: 0→1→2→3 (cost 2) + 0→2 is full... enumerate: best max
        // flow of 2 costs: 0→1→3 (4) + 0→2→3 (3) = 7, or
        // 0→1→2→3 (2) + 0→2?→ can't (2→3 full). So optimum is 7.
        assert_eq!(r.cost, 7.0);
    }

    #[test]
    fn endpoints_validated() {
        let mut net = FlowNetwork::with_nodes(2);
        assert_eq!(
            net.min_cost_max_flow(1, 1, McmfAlgorithm::SspDijkstra),
            Err(FlowError::SourceIsSink)
        );
        assert!(matches!(
            net.min_cost_max_flow(0, 7, McmfAlgorithm::CycleCanceling),
            Err(FlowError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    // lint: allow(hot-loop-alloc): the reference side of this differential
    // test must solve a fresh clone per probe — that is the point.
    fn reset_flow_reuse_matches_fresh_clone_per_probe() {
        // Differential check for the reset_flow reuse pattern: probing
        // one network towards every sink after reset_flow() must give
        // exactly the results (totals and per-edge flows) of solving a
        // fresh clone for that sink.
        let mut rng = StdRng::seed_from_u64(9001);
        for _ in 0..10 {
            let n = rng.gen_range(3..8);
            let mut net = FlowNetwork::with_nodes(n);
            for _ in 0..18 {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    net.add_edge(u, v, rng.gen_range(0..12), rng.gen_range(0.0..6.0)).unwrap();
                }
            }
            let pristine = net.clone();
            for sink in 1..n {
                net.reset_flow();
                let reused = net.min_cost_max_flow(0, sink, McmfAlgorithm::SspDijkstra).unwrap();
                let mut fresh = pristine.clone();
                let expected =
                    fresh.min_cost_max_flow(0, sink, McmfAlgorithm::SspDijkstra).unwrap();
                assert_eq!(reused.flow, expected.flow, "flow diverged at sink {sink}");
                assert_eq!(
                    reused.cost.to_bits(),
                    expected.cost.to_bits(),
                    "cost diverged at sink {sink}: {} vs {}",
                    reused.cost,
                    expected.cost
                );
                let reused_edges: Vec<i64> = net.edges().iter().map(|e| e.flow).collect();
                let fresh_edges: Vec<i64> = fresh.edges().iter().map(|e| e.flow).collect();
                assert_eq!(reused_edges, fresh_edges, "edge flows diverged at sink {sink}");
            }
        }
    }

    #[test]
    fn flow_value_matches_dinic_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..25 {
            let n = rng.gen_range(2..10);
            let m = rng.gen_range(0..30);
            let mut net = FlowNetwork::with_nodes(n);
            for _ in 0..m {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u == v {
                    continue;
                }
                net.add_edge(u, v, rng.gen_range(0..15), rng.gen_range(0.0..10.0)).unwrap();
            }
            // Run Dinic on the shared network, then reset it so the MCMF
            // helpers see pristine capacities — no per-iteration clone.
            let maxflow = net.max_flow_dinic(0, n - 1).unwrap();
            net.reset_flow();
            let (a, b) = both(&net, 0, n - 1);
            assert_eq!(a.flow, maxflow);
            assert_eq!(b.flow, maxflow);
            assert!((a.cost - b.cost).abs() < 1e-6, "costs differ: {} vs {}", a.cost, b.cost);
        }
    }

    #[test]
    fn recorded_edge_flows_reproduce_total_cost() {
        let mut rng = StdRng::seed_from_u64(4242);
        for _ in 0..10 {
            let n = rng.gen_range(3..9);
            let mut net = FlowNetwork::with_nodes(n);
            for _ in 0..20 {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    net.add_edge(u, v, rng.gen_range(0..10), rng.gen_range(0.0..5.0)).unwrap();
                }
            }
            let r = net.min_cost_max_flow(0, n - 1, McmfAlgorithm::SspDijkstra).unwrap();
            let recomputed: f64 = net.edges().iter().map(|e| e.flow as f64 * e.cost).sum();
            assert!((recomputed - r.cost).abs() < 1e-6);
            // Conservation at interior nodes.
            for v in 1..n - 1 {
                assert_eq!(net.net_outflow(v), 0);
            }
            assert_eq!(net.net_outflow(0), r.flow);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_dijkstra_and_cycle_canceling_agree(
            edges in prop::collection::vec(
                (0usize..8, 0usize..8, 0i64..12, 0.0f64..9.0),
                0..28,
            ),
        ) {
            let mut net = FlowNetwork::with_nodes(8);
            for (u, v, c, w) in edges {
                if u != v {
                    net.add_edge(u, v, c, w).unwrap();
                }
            }
            let (a, c) = both(&net, 0, 7);
            prop_assert_eq!(a.flow, c.flow);
            prop_assert!((a.cost - c.cost).abs() < 1e-6,
                "cost mismatch: dijkstra={} cycle-canceling={}", a.cost, c.cost);
        }

        #[test]
        fn prop_flow_respects_capacities(
            edges in prop::collection::vec(
                (0usize..6, 0usize..6, 0i64..10, 0.0f64..5.0),
                0..20,
            ),
        ) {
            let mut net = FlowNetwork::with_nodes(6);
            for (u, v, c, w) in edges {
                if u != v {
                    net.add_edge(u, v, c, w).unwrap();
                }
            }
            net.min_cost_max_flow(0, 5, McmfAlgorithm::SspDijkstra).unwrap();
            for e in net.edges() {
                prop_assert!(e.flow >= 0);
                prop_assert!(e.flow <= e.capacity);
            }
        }
    }
}
