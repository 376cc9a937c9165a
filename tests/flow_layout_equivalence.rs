//! Differential properties for the flow-network CSR layout.
//!
//! The `ccdn-flow` adjacency moved from per-node `Vec<Vec<usize>>` arc
//! lists to a struct-of-arrays CSR layout (intrusive tail-append arc
//! list). That was a pure layout change: the solver must visit arcs in
//! the same insertion order and settle nodes in the same `(distance,
//! node)` order, so flows, costs, and `EdgeId` assignment must be
//! *identical* — byte for byte, not just optimal.
//!
//! This suite pins that contract differentially: a test-only reference
//! solver on the **old layout** (per-node `Vec<Vec<usize>>` adjacency,
//! float-heap Dijkstra) is driven on random graphs next to the
//! production [`FlowNetwork`]. The MCMF comparison repeats under
//! worker-pool settings 1/2/8 — the solvers are sequential, so the
//! global thread count must be invisible in every byte.

use ccdn_flow::FlowNetwork;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The pre-CSR flow-network layout: arcs in paired parallel vectors,
/// adjacency as one `Vec<usize>` of arc ids per node. Algorithms are
/// transcribed from the production solver with the same tie-breaking
/// (insertion-order arc visits, `(dist, node)` heap order, `1e-12`
/// relaxation epsilon) so any divergence is a layout bug, not noise.
struct VecVecNetwork {
    adj: Vec<Vec<usize>>,
    arc_to: Vec<usize>,
    arc_cap: Vec<i64>,
    arc_cost: Vec<f64>,
    original_caps: Vec<i64>,
}

/// Heap entry replicating the production float-heap ordering.
#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.dist.total_cmp(&self.dist).then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl VecVecNetwork {
    fn with_nodes(n: usize) -> Self {
        VecVecNetwork {
            adj: vec![Vec::new(); n],
            arc_to: Vec::new(),
            arc_cap: Vec::new(),
            arc_cost: Vec::new(),
            original_caps: Vec::new(),
        }
    }

    /// Returns the edge index (the production `EdgeId` orders edges the
    /// same way: one id per `add_edge` call, in call order).
    fn add_edge(&mut self, from: usize, to: usize, capacity: i64, cost: f64) -> usize {
        let fwd = self.arc_to.len();
        self.arc_to.push(to);
        self.arc_cap.push(capacity);
        self.arc_cost.push(cost);
        self.arc_to.push(from);
        self.arc_cap.push(0);
        self.arc_cost.push(-cost);
        self.adj[from].push(fwd);
        self.adj[to].push(fwd + 1);
        self.original_caps.push(capacity);
        fwd / 2
    }

    fn edge_flow(&self, edge: usize) -> i64 {
        self.original_caps[edge] - self.arc_cap[edge * 2]
    }

    fn max_flow_dinic(&mut self, source: usize, sink: usize) -> i64 {
        let n = self.adj.len();
        let mut total = 0i64;
        let mut level = vec![-1i32; n];
        let mut iter = vec![0usize; n];
        loop {
            level.iter_mut().for_each(|l| *l = -1);
            level[source] = 0;
            let mut queue = std::collections::VecDeque::from([source]);
            while let Some(u) = queue.pop_front() {
                for &a in &self.adj[u] {
                    let to = self.arc_to[a];
                    if self.arc_cap[a] > 0 && level[to] < 0 {
                        level[to] = level[u] + 1;
                        queue.push_back(to);
                    }
                }
            }
            if level[sink] < 0 {
                break;
            }
            iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let pushed = self.dfs_augment(source, sink, i64::MAX, &level, &mut iter);
                if pushed == 0 {
                    break;
                }
                total += pushed;
            }
        }
        total
    }

    fn dfs_augment(
        &mut self,
        u: usize,
        sink: usize,
        limit: i64,
        level: &[i32],
        iter: &mut [usize],
    ) -> i64 {
        if u == sink {
            return limit;
        }
        while iter[u] < self.adj[u].len() {
            let a = self.adj[u][iter[u]];
            let (to, cap) = (self.arc_to[a], self.arc_cap[a]);
            if cap > 0 && level[to] == level[u] + 1 {
                let pushed = self.dfs_augment(to, sink, limit.min(cap), level, iter);
                if pushed > 0 {
                    self.arc_cap[a] -= pushed;
                    self.arc_cap[a ^ 1] += pushed;
                    return pushed;
                }
            }
            iter[u] += 1;
        }
        0
    }

    /// Successive shortest paths with Johnson potentials over the float
    /// binary heap.
    fn min_cost_max_flow(&mut self, source: usize, sink: usize) -> (i64, f64) {
        let n = self.adj.len();
        let mut potential = vec![0.0f64; n];
        let mut total_flow = 0i64;
        let mut total_cost = 0.0f64;
        let mut dist = vec![f64::INFINITY; n];
        let mut prev_arc = vec![usize::MAX; n];
        let mut heap = std::collections::BinaryHeap::new();
        while total_flow < i64::MAX {
            dist.iter_mut().for_each(|d| *d = f64::INFINITY);
            prev_arc.iter_mut().for_each(|p| *p = usize::MAX);
            dist[source] = 0.0;
            heap.clear();
            heap.push(HeapEntry { dist: 0.0, node: source });
            while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
                if d > dist[u] {
                    continue;
                }
                for &a in &self.adj[u] {
                    if self.arc_cap[a] <= 0 {
                        continue;
                    }
                    let to = self.arc_to[a];
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
        (total_flow, total_cost)
    }
}

/// A random instance shared between the layouts: `(u, v, capacity,
/// cost numerator)` per edge with `u != v`.
#[derive(Debug, Clone)]
struct Instance {
    nodes: usize,
    edges: Vec<(usize, usize, i64, u32)>,
}

fn instance_strategy(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = Instance> {
    (2usize..max_nodes, 0usize..max_edges, any::<u64>()).prop_map(|(nodes, m, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = (0..m)
            .map(|_| {
                (
                    rng.gen_range(0..nodes),
                    rng.gen_range(0..nodes),
                    rng.gen_range(0..30i64),
                    rng.gen_range(0u32..64),
                )
            })
            .filter(|&(u, v, _, _)| u != v)
            .collect();
        Instance { nodes, edges }
    })
}

/// Builds the production CSR network; costs are `numerator / denom`.
fn build_csr(inst: &Instance, denom: f64) -> (FlowNetwork, Vec<ccdn_flow::EdgeId>) {
    let mut net = FlowNetwork::with_nodes(inst.nodes);
    let mut ids = Vec::with_capacity(inst.edges.len());
    for &(u, v, cap, w) in &inst.edges {
        ids.push(net.add_edge(u, v, cap, f64::from(w) / denom).expect("nodes in range"));
    }
    (net, ids)
}

/// Builds the old-layout reference on the same instance.
fn build_vecvec(inst: &Instance, denom: f64) -> VecVecNetwork {
    let mut net = VecVecNetwork::with_nodes(inst.nodes);
    for &(u, v, cap, w) in &inst.edges {
        net.add_edge(u, v, cap, f64::from(w) / denom);
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dinic on CSR vs Dinic on the old layout: same max-flow value and
    /// the same per-edge flows in the same `EdgeId` order.
    #[test]
    fn dinic_matches_vecvec_reference(inst in instance_strategy(14, 60)) {
        let (mut csr, ids) = build_csr(&inst, 1.0);
        let mut reference = build_vecvec(&inst, 1.0);
        let (source, sink) = (0, inst.nodes - 1);
        let got = csr.max_flow_dinic(source, sink).expect("valid endpoints");
        let want = reference.max_flow_dinic(source, sink);
        prop_assert_eq!(got, want);
        for (edge, id) in ids.iter().enumerate() {
            prop_assert_eq!(
                csr.edge_flow(*id),
                reference.edge_flow(edge),
                "edge {} flow diverged between layouts",
                edge
            );
        }
        let views = csr.edges();
        prop_assert_eq!(views.len(), ids.len());
        for (view, id) in views.iter().zip(&ids) {
            prop_assert_eq!(view.id, *id, "EdgeId ordering changed under CSR");
        }
    }

    /// MCMF on CSR vs the float-heap solver on the old layout, under
    /// worker-pool settings 1/2/8: identical flow, bitwise identical
    /// cost, identical per-edge flows at every thread count.
    /// Quarter-integer costs make equal-distance ties common, so the
    /// settle order is pinned, not just the optimum.
    #[test]
    fn mcmf_matches_vecvec_reference(inst in instance_strategy(12, 50)) {
        let (template, ids) = build_csr(&inst, 4.0);
        let mut reference = build_vecvec(&inst, 4.0);
        let (source, sink) = (0, inst.nodes - 1);
        let (want_flow, want_cost) = reference.min_cost_max_flow(source, sink);
        for threads in THREAD_COUNTS {
            ccdn_par::set_threads(threads);
            let mut csr = template.clone();
            let got = csr
                .min_cost_max_flow(source, sink)
                .expect("valid endpoints");
            prop_assert_eq!(got.flow, want_flow, "flow diverged at {} threads", threads);
            prop_assert_eq!(
                got.cost.to_bits(),
                want_cost.to_bits(),
                "cost diverged at {} threads: {} vs {}",
                threads,
                got.cost,
                want_cost
            );
            for (edge, id) in ids.iter().enumerate() {
                prop_assert_eq!(
                    csr.edge_flow(*id),
                    reference.edge_flow(edge),
                    "edge {} flow diverged at {} threads",
                    edge,
                    threads
                );
            }
        }
        ccdn_par::set_threads(0);
    }
}
