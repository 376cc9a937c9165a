use std::fmt;

/// Identifier of a forward arc returned by [`FlowNetwork::add_edge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub(crate) usize);

/// Error type for flow-network construction and solving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// An endpoint referenced a node that does not exist.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// Number of nodes in the network.
        nodes: usize,
    },
    /// Edge capacity was negative.
    NegativeCapacity,
    /// Edge cost was negative or non-finite (solvers require costs ≥ 0).
    BadCost,
    /// Source and sink were the same node.
    SourceIsSink,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range for network of {nodes} nodes")
            }
            FlowError::NegativeCapacity => write!(f, "edge capacity must be non-negative"),
            FlowError::BadCost => write!(f, "edge cost must be finite and non-negative"),
            FlowError::SourceIsSink => write!(f, "source and sink must differ"),
        }
    }
}

impl std::error::Error for FlowError {}

/// Sentinel terminating a node's out-arc list ("no arc"). Out of range
/// for every arc array, so checked lookups on it safely return `None`.
pub(crate) const NO_ARC: usize = usize::MAX;

/// A directed flow network in the paired-arc residual representation.
///
/// Every call to [`add_edge`](FlowNetwork::add_edge) stores a forward arc
/// and its zero-capacity reverse companion at adjacent indices, so the
/// reverse of arc `e` is always `e ^ 1` — the standard competitive-
/// programming layout, chosen here for cache-friendliness on the dense
/// bipartite graphs RBCAer builds every timeslot.
///
/// Arc storage is struct-of-arrays: flat `arc_to`/`arc_cap`/`arc_cost`
/// columns plus an intrusive `head`/`arc_next` adjacency list (CSR-style,
/// no per-node `Vec`). Appending at the *tail* of each node's list keeps
/// out-arc iteration in insertion order — load-bearing, because MCMF
/// tie-breaking (first-set-wins predecessor arcs under strict `<`
/// relaxation) depends on that order, and plan bytes must not move when
/// the layout changes.
///
/// Capacities are `i64` (request counts in the paper's model); costs are
/// non-negative `f64` (geographic distances standing in for latency).
///
/// # Examples
///
/// ```
/// use ccdn_flow::FlowNetwork;
///
/// let mut net = FlowNetwork::with_nodes(3);
/// let e = net.add_edge(0, 1, 10, 2.5)?;
/// net.add_edge(1, 2, 5, 0.0)?;
/// assert_eq!(net.node_count(), 3);
/// assert_eq!(net.edge_count(), 2);
/// assert_eq!(net.edge_flow(e), 0);
/// # Ok::<(), ccdn_flow::FlowError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    /// Head node of each arc (arc `a` points *to* `arc_to[a]`; the tail
    /// of `a` is therefore `arc_to[a ^ 1]`).
    pub(crate) arc_to: Vec<usize>,
    /// Remaining (residual) capacity of each arc.
    pub(crate) arc_cap: Vec<i64>,
    /// Per-unit cost of each arc (negated on reverse companions).
    pub(crate) arc_cost: Vec<f64>,
    /// Next arc out of the same tail node ([`NO_ARC`] terminates).
    pub(crate) arc_next: Vec<usize>,
    /// First out-arc per node ([`NO_ARC`] for isolated nodes).
    pub(crate) head: Vec<usize>,
    /// Last out-arc per node — lets `add_edge` append in O(1) while
    /// preserving insertion order.
    tail: Vec<usize>,
    /// Original capacity of each *forward* arc, indexed by `EdgeId.0 / 2`.
    original_caps: Vec<i64>,
}

/// A read-only view of one forward arc, as returned by
/// [`FlowNetwork::edges`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeView {
    /// The arc's identifier.
    pub id: EdgeId,
    /// Tail node.
    pub from: usize,
    /// Head node.
    pub to: usize,
    /// Original capacity.
    pub capacity: i64,
    /// Flow currently assigned.
    pub flow: i64,
    /// Per-unit cost.
    pub cost: f64,
}

/// Iterator over a node's out-arc ids in insertion order (see
/// [`FlowNetwork::out_arcs`]). Non-panicking: the [`NO_ARC`] sentinel is
/// out of range for `next`, so the checked lookup ends the walk.
pub(crate) struct OutArcs<'a> {
    next: &'a [usize],
    cur: usize,
}

impl Iterator for OutArcs<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let a = self.cur;
        let &nxt = <[usize]>::get(self.next, a)?;
        self.cur = nxt;
        Some(a)
    }
}

impl FlowNetwork {
    /// Creates an empty network with no nodes.
    pub fn new() -> Self {
        FlowNetwork::default()
    }

    /// Creates a network with `n` isolated nodes `0..n`.
    pub fn with_nodes(n: usize) -> Self {
        FlowNetwork { head: vec![NO_ARC; n], tail: vec![NO_ARC; n], ..FlowNetwork::default() }
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self) -> usize {
        let id = self.head.len();
        self.head.push(NO_ARC);
        self.tail.push(NO_ARC);
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.head.len()
    }

    /// Number of forward edges.
    pub fn edge_count(&self) -> usize {
        self.arc_to.len() / 2
    }

    /// Empties the network (no nodes, no edges) while keeping every
    /// backing allocation, so a solver loop can rebuild per-round graphs
    /// into the same arena instead of reallocating them.
    pub fn clear(&mut self) {
        self.arc_to.clear();
        self.arc_cap.clear();
        self.arc_cost.clear();
        self.arc_next.clear();
        self.head.clear();
        self.tail.clear();
        self.original_caps.clear();
    }

    /// Out-arc ids of `u` in insertion order (forward and reverse arcs
    /// alike); empty for out-of-range nodes.
    pub(crate) fn out_arcs(&self, u: usize) -> OutArcs<'_> {
        OutArcs {
            next: &self.arc_next,
            cur: <[usize]>::get(&self.head, u).copied().unwrap_or(NO_ARC),
        }
    }

    /// Appends one arc `from → to`, linking it at the tail of `from`'s
    /// out-list so iteration stays in insertion order.
    fn push_arc(&mut self, from: usize, to: usize, cap: i64, cost: f64) {
        let a = self.arc_to.len();
        self.arc_to.push(to);
        self.arc_cap.push(cap);
        self.arc_cost.push(cost);
        self.arc_next.push(NO_ARC);
        match <[usize]>::get(&self.tail, from).copied() {
            Some(t) if t != NO_ARC => {
                if let Some(slot) = self.arc_next.get_mut(t) {
                    *slot = a;
                }
            }
            _ => {
                if let Some(slot) = self.head.get_mut(from) {
                    *slot = a;
                }
            }
        }
        if let Some(slot) = self.tail.get_mut(from) {
            *slot = a;
        }
    }

    /// Adds a directed edge `from → to` with the given capacity and
    /// per-unit cost, returning its id.
    ///
    /// # Errors
    ///
    /// - [`FlowError::NodeOutOfRange`] if an endpoint does not exist;
    /// - [`FlowError::NegativeCapacity`] if `capacity < 0`;
    /// - [`FlowError::BadCost`] if `cost` is negative or non-finite (the
    ///   Dijkstra-based solver requires non-negative costs; all costs in
    ///   the paper's networks are distances or averaged distances, hence
    ///   non-negative).
    pub fn add_edge(
        &mut self,
        from: usize,
        to: usize,
        capacity: i64,
        cost: f64,
    ) -> Result<EdgeId, FlowError> {
        let nodes = self.node_count();
        for node in [from, to] {
            if node >= nodes {
                return Err(FlowError::NodeOutOfRange { node, nodes });
            }
        }
        if capacity < 0 {
            return Err(FlowError::NegativeCapacity);
        }
        if !cost.is_finite() || cost < 0.0 {
            return Err(FlowError::BadCost);
        }
        let fwd = self.arc_to.len();
        self.push_arc(from, to, capacity, cost);
        self.push_arc(to, from, 0, -cost);
        self.original_caps.push(capacity);
        Ok(EdgeId(fwd))
    }

    /// Checked O(1) original capacity of forward-arc pair `pair`
    /// (`EdgeId.0 / 2`); zero for ids that never came from this network.
    fn original_cap(&self, pair: usize) -> i64 {
        <[i64]>::get(&self.original_caps, pair).copied().unwrap_or(0)
    }

    /// Flow currently assigned to edge `id` (original capacity minus
    /// remaining residual capacity). Returns 0 for an id that did not
    /// come from this network.
    pub fn edge_flow(&self, id: EdgeId) -> i64 {
        let residual = <[i64]>::get(&self.arc_cap, id.0).copied().unwrap_or(0);
        self.original_cap(id.0 / 2) - residual
    }

    /// Original capacity of edge `id`, or 0 for an id that did not come
    /// from this network.
    pub fn edge_capacity(&self, id: EdgeId) -> i64 {
        self.original_cap(id.0 / 2)
    }

    /// Views over all forward edges in insertion order.
    pub fn edges(&self) -> Vec<EdgeView> {
        self.original_caps
            .iter()
            .enumerate()
            .filter_map(|(i, &capacity)| {
                let fwd = 2 * i;
                Some(EdgeView {
                    id: EdgeId(fwd),
                    from: <[usize]>::get(&self.arc_to, fwd + 1).copied()?,
                    to: <[usize]>::get(&self.arc_to, fwd).copied()?,
                    capacity,
                    flow: capacity - <[i64]>::get(&self.arc_cap, fwd).copied()?,
                    cost: <[f64]>::get(&self.arc_cost, fwd).copied()?,
                })
            })
            .collect()
    }

    /// Resets all flows to zero, restoring original capacities.
    pub fn reset_flow(&mut self) {
        for (pair, &cap) in self.arc_cap.chunks_exact_mut(2).zip(&self.original_caps) {
            if let [fwd, rev] = pair {
                *fwd = cap;
                *rev = 0;
            }
        }
    }

    /// Net flow out of `node` (outgoing minus incoming flow on forward
    /// edges). Zero for every node except sources/sinks of a valid flow —
    /// used by tests to assert conservation.
    pub fn net_outflow(&self, node: usize) -> i64 {
        let mut net = 0;
        for view in self.edges() {
            if view.from == node {
                net += view.flow;
            }
            if view.to == node {
                net -= view.flow;
            }
        }
        net
    }

    pub(crate) fn check_endpoints(&self, source: usize, sink: usize) -> Result<(), FlowError> {
        let nodes = self.node_count();
        for node in [source, sink] {
            if node >= nodes {
                return Err(FlowError::NodeOutOfRange { node, nodes });
            }
        }
        if source == sink {
            return Err(FlowError::SourceIsSink);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_inspect() {
        let mut net = FlowNetwork::with_nodes(2);
        let e = net.add_edge(0, 1, 7, 3.0).unwrap();
        assert_eq!(net.node_count(), 2);
        assert_eq!(net.edge_count(), 1);
        assert_eq!(net.edge_capacity(e), 7);
        assert_eq!(net.edge_flow(e), 0);
        let views = net.edges();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].from, 0);
        assert_eq!(views[0].to, 1);
        assert_eq!(views[0].capacity, 7);
        assert_eq!(views[0].cost, 3.0);
    }

    #[test]
    fn add_node_grows_network() {
        let mut net = FlowNetwork::new();
        assert_eq!(net.node_count(), 0);
        let a = net.add_node();
        let b = net.add_node();
        assert_eq!((a, b), (0, 1));
        assert!(net.add_edge(a, b, 1, 0.0).is_ok());
    }

    #[test]
    fn rejects_bad_edges() {
        let mut net = FlowNetwork::with_nodes(2);
        assert_eq!(
            net.add_edge(0, 5, 1, 0.0),
            Err(FlowError::NodeOutOfRange { node: 5, nodes: 2 })
        );
        assert_eq!(net.add_edge(0, 1, -1, 0.0), Err(FlowError::NegativeCapacity));
        assert_eq!(net.add_edge(0, 1, 1, -2.0), Err(FlowError::BadCost));
        assert_eq!(net.add_edge(0, 1, 1, f64::NAN), Err(FlowError::BadCost));
    }

    #[test]
    fn zero_capacity_edge_is_allowed() {
        let mut net = FlowNetwork::with_nodes(2);
        let e = net.add_edge(0, 1, 0, 1.0).unwrap();
        assert_eq!(net.edge_capacity(e), 0);
    }

    #[test]
    fn self_loop_edge_is_allowed_but_carries_no_useful_flow() {
        let mut net = FlowNetwork::with_nodes(1);
        let e = net.add_edge(0, 0, 5, 1.0).unwrap();
        assert_eq!(net.edge_flow(e), 0);
    }

    #[test]
    fn out_arcs_iterate_in_insertion_order() {
        // Mixed forward and reverse arcs out of node 1: arc ids must come
        // back exactly in the order add_edge created them.
        let mut net = FlowNetwork::with_nodes(3);
        let e0 = net.add_edge(1, 0, 1, 1.0).unwrap(); // fwd arc 0 out of 1
        let e1 = net.add_edge(0, 1, 1, 1.0).unwrap(); // rev arc 3 out of 1
        let e2 = net.add_edge(1, 2, 1, 1.0).unwrap(); // fwd arc 4 out of 1
        assert_eq!((e0, e1, e2), (EdgeId(0), EdgeId(2), EdgeId(4)));
        let out: Vec<usize> = net.out_arcs(1).collect();
        assert_eq!(out, vec![0, 3, 4]);
        assert_eq!(net.out_arcs(0).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(net.out_arcs(2).collect::<Vec<_>>(), vec![5]);
        assert_eq!(net.out_arcs(99).count(), 0);
    }

    #[test]
    fn clear_keeps_capacity_and_resets_contents() {
        let mut net = FlowNetwork::with_nodes(4);
        net.add_edge(0, 1, 3, 1.0).unwrap();
        net.add_edge(1, 2, 3, 1.0).unwrap();
        net.clear();
        assert_eq!(net.node_count(), 0);
        assert_eq!(net.edge_count(), 0);
        assert!(net.edges().is_empty());
        // The arena is fully reusable after clear().
        let a = net.add_node();
        let b = net.add_node();
        let e = net.add_edge(a, b, 9, 2.0).unwrap();
        assert_eq!(e, EdgeId(0));
        assert_eq!(net.edge_capacity(e), 9);
        assert_eq!(net.out_arcs(a).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn error_display_nonempty() {
        for err in [
            FlowError::NodeOutOfRange { node: 3, nodes: 1 },
            FlowError::NegativeCapacity,
            FlowError::BadCost,
            FlowError::SourceIsSink,
        ] {
            assert!(!format!("{err}").is_empty());
        }
    }
}
