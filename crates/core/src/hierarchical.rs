use crate::config::RbcaerConfig;
use crate::rbcaer::{balancing, clustering, procedure};
use ccdn_flow::McmfAlgorithm;
use ccdn_geo::Rect;
use ccdn_sim::{Scheme, SlotDecision, SlotInput};
use ccdn_trace::HotspotId;
use std::collections::BTreeMap;

/// A grid partition of the deployment region into `rows × cols`
/// rectangular regions; every hotspot belongs to exactly one region.
///
/// This implements the cross-region organization sketched in the paper's
/// related-work discussion (§VI, citing the authors' region-partition
/// work \[28\]): "if we aggregate all hotspots in each region to a virtual
/// hotspot, RBCAer could be used to make cross-region cooperation to
/// further increase the algorithm scalability".
///
/// # Examples
///
/// ```
/// use ccdn_core::RegionPartition;
/// use ccdn_geo::{Point, Rect};
///
/// let region = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
/// let partition = RegionPartition::grid(region, 2, 2);
/// assert_eq!(partition.region_count(), 4);
/// assert_eq!(partition.region_of_point(Point::new(1.0, 1.0)), 0);
/// assert_eq!(partition.region_of_point(Point::new(9.0, 9.0)), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RegionPartition {
    bounds: Rect,
    rows: usize,
    cols: usize,
}

impl RegionPartition {
    /// Creates a `rows × cols` grid partition of `bounds`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn grid(bounds: Rect, rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "partition must have at least one region");
        RegionPartition { bounds, rows, cols }
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Region index of a point (points outside the bounds clamp into the
    /// boundary regions).
    pub fn region_of_point(&self, p: ccdn_geo::Point) -> usize {
        let q = self.bounds.clamp(p);
        let col = (((q.x - self.bounds.min().x) / self.bounds.width() * self.cols as f64) as usize)
            .min(self.cols - 1);
        let row = (((q.y - self.bounds.min().y) / self.bounds.height() * self.rows as f64)
            as usize)
            .min(self.rows - 1);
        row * self.cols + col
    }
}

/// **Hierarchical RBCAer**: intra-region RBCAer balancing plus an optional
/// coarse cross-region pass over *virtual hotspots* (one per region).
///
/// Level 1 runs the standard Algorithm-1 loop with candidate arcs
/// restricted to same-region hotspot pairs — the per-region subproblems
/// are independent, so the MCMF instances stay small no matter how large
/// the deployment grows. Level 2 (when `cross_region` is on) aggregates
/// each region's *residual* overload and spare capacity into one virtual
/// hotspot at the region's hotspot centroid, solves a tiny MCMF between
/// regions, and expands each inter-region flow back to concrete hotspot
/// pairs (largest residual first, nearest pairs first). Procedure 1 then
/// realizes all flows exactly as in flat RBCAer.
///
/// # Examples
///
/// ```
/// use ccdn_core::{HierarchicalRbcaer, RbcaerConfig};
/// use ccdn_sim::Runner;
/// use ccdn_trace::TraceConfig;
///
/// let trace = TraceConfig::small_test().generate();
/// let mut scheme = HierarchicalRbcaer::new(RbcaerConfig::default(), 2, 2);
/// let report = Runner::new(&trace).run(&mut scheme).unwrap();
/// assert!(report.total.hotspot_serving_ratio() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct HierarchicalRbcaer {
    config: RbcaerConfig,
    rows: usize,
    cols: usize,
    cross_region: bool,
}

impl HierarchicalRbcaer {
    /// Creates the scheduler with a `rows × cols` region grid and the
    /// cross-region pass enabled.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid or the grid is empty; use
    /// [`HierarchicalRbcaer::try_new`] for the fallible form.
    pub fn new(config: RbcaerConfig, rows: usize, cols: usize) -> Self {
        match Self::try_new(config, rows, cols) {
            Ok(scheduler) => scheduler,
            // lint: allow(no-panic): documented constructor contract; try_new is the typed path
            Err(e) => panic!("invalid hierarchical RBCAer configuration: {e}"),
        }
    }

    /// Fallible form of [`HierarchicalRbcaer::new`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `config` fails
    /// [`RbcaerConfig::validate`] or the region grid is empty.
    pub fn try_new(
        config: RbcaerConfig,
        rows: usize,
        cols: usize,
    ) -> Result<Self, crate::ConfigError> {
        config.validate()?;
        if rows == 0 || cols == 0 {
            return Err(crate::ConfigError::new("partition must have at least one region"));
        }
        Ok(HierarchicalRbcaer { config, rows, cols, cross_region: true })
    }

    /// Disables the level-2 cross-region pass (pure intra-region RBCAer).
    pub fn without_cross_region(mut self) -> Self {
        self.cross_region = false;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &RbcaerConfig {
        &self.config
    }
}

impl Scheme for HierarchicalRbcaer {
    fn name(&self) -> &str {
        if self.cross_region {
            "H-RBCAer"
        } else {
            "H-RBCAer(intra-only)"
        }
    }

    #[allow(clippy::needless_range_loop)] // region aggregation loops are index-parallel
    fn schedule(&mut self, input: &SlotInput<'_>) -> SlotDecision {
        let n = input.hotspot_count();
        let partition = RegionPartition::grid(input.geometry.region(), self.rows, self.cols);
        let region_of: Vec<usize> = (0..n)
            .map(|h| partition.region_of_point(input.geometry.location(HotspotId(h))))
            .collect();

        // Cluster each region independently: Σ n_r² working-matrix
        // entries instead of the flat scheduler's n².
        let clusters = if self.config.content_aggregation {
            let mut cluster_of = vec![0usize; n];
            let mut next_id = 0;
            for r in 0..partition.region_count() {
                let members: Vec<usize> = (0..n).filter(|&h| region_of[h] == r).collect();
                if members.is_empty() {
                    continue;
                }
                let (ids, k) = clustering::content_clusters_subset(input, &self.config, &members);
                for (&h, &c) in members.iter().zip(&ids) {
                    cluster_of[h] = next_id + c;
                }
                next_id += k;
            }
            cluster_of
        } else {
            vec![0; n]
        };

        // Level 1: intra-region balancing.
        let mut outcome = balancing::balance_filtered(input, &self.config, &clusters, &|i, j| {
            region_of[i] == region_of[j]
        });

        // Level 2: cross-region balancing of the residuals via virtual
        // hotspots.
        if self.cross_region {
            let mut residual_over: Vec<i64> = vec![0; n];
            let mut residual_under: Vec<i64> = vec![0; n];
            for h in 0..n {
                let load = input.demand.load(HotspotId(h)) as i64;
                let cap = input.service_capacity[h] as i64;
                if load > cap {
                    residual_over[h] = load - cap;
                } else if load < cap && input.cache_capacity[h] > 0 {
                    residual_under[h] = cap - load;
                }
            }
            for (&(i, j), &f) in &outcome.flows {
                residual_over[i.0] -= f as i64;
                residual_under[j.0] -= f as i64;
            }

            // Aggregate per region.
            let regions = partition.region_count();
            let mut over_by_region: Vec<i64> = vec![0; regions];
            let mut under_by_region: Vec<i64> = vec![0; regions];
            let mut centroid: Vec<(f64, f64, usize)> = vec![(0.0, 0.0, 0); regions];
            for h in 0..n {
                let r = region_of[h];
                over_by_region[r] += residual_over[h];
                under_by_region[r] += residual_under[h];
                let p = input.geometry.location(HotspotId(h));
                centroid[r].0 += p.x;
                centroid[r].1 += p.y;
                centroid[r].2 += 1;
            }

            // Tiny MCMF between virtual hotspots, costs = centroid
            // distances. Each region gets separate over/under nodes so a
            // region that is both cannot act as a relay.
            let mut net = ccdn_flow::FlowNetwork::with_nodes(2 + 2 * regions);
            let (source, sink) = (0, 1);
            let over_node = |r: usize| 2 + r;
            let under_node = |r: usize| 2 + regions + r;
            let mut pair_edges = Vec::new();
            for r in 0..regions {
                if over_by_region[r] > 0 {
                    // lint: allow(no-panic): zero cost, positive capacity, in-range nodes
                    net.add_edge(source, over_node(r), over_by_region[r], 0.0).expect("valid edge");
                }
                if under_by_region[r] > 0 {
                    // lint: allow(no-panic): zero cost, positive capacity, in-range nodes
                    net.add_edge(under_node(r), sink, under_by_region[r], 0.0).expect("valid edge");
                }
            }
            let center = |r: usize| {
                let (x, y, c) = centroid[r];
                ccdn_geo::Point::new(x / c.max(1) as f64, y / c.max(1) as f64)
            };
            for a in 0..regions {
                if over_by_region[a] <= 0 {
                    continue;
                }
                for b in 0..regions {
                    if b == a || under_by_region[b] <= 0 || centroid[b].2 == 0 {
                        continue;
                    }
                    let d = center(a).distance(center(b));
                    let cap = over_by_region[a].min(under_by_region[b]);
                    // lint: allow(no-panic): cost is a finite non-negative centroid distance
                    let e = net.add_edge(over_node(a), under_node(b), cap, d).expect("valid edge");
                    pair_edges.push((e, a, b));
                }
            }
            let _ = net
                .min_cost_max_flow(source, sink, McmfAlgorithm::SspDijkstra)
                // lint: allow(no-panic): source and sink are the distinct nodes 0 and 1
                .expect("endpoints");

            // Expand region flows to hotspot pairs: largest residuals
            // first, nearest cross pairs first.
            for (e, a, b) in pair_edges {
                let mut flow = net.edge_flow(e) as u64;
                if flow == 0 {
                    continue;
                }
                let mut sources: Vec<usize> =
                    (0..n).filter(|&h| region_of[h] == a && residual_over[h] > 0).collect();
                sources.sort_by_key(|&h| std::cmp::Reverse(residual_over[h]));
                for i in sources {
                    if flow == 0 {
                        break;
                    }
                    let mut targets: Vec<usize> =
                        (0..n).filter(|&h| region_of[h] == b && residual_under[h] > 0).collect();
                    targets.sort_by(|&x, &y| {
                        input
                            .geometry
                            .distance(HotspotId(i), HotspotId(x))
                            .total_cmp(&input.geometry.distance(HotspotId(i), HotspotId(y)))
                    });
                    for j in targets {
                        if flow == 0 || residual_over[i] == 0 {
                            break;
                        }
                        let m = (residual_over[i].min(residual_under[j]) as u64).min(flow);
                        if m == 0 {
                            continue;
                        }
                        residual_over[i] -= m as i64;
                        residual_under[j] -= m as i64;
                        flow -= m;
                        *outcome.flows.entry((HotspotId(i), HotspotId(j))).or_insert(0) += m;
                        outcome.moved += m;
                    }
                }
            }
        }

        procedure::content_aggregation_replication(input, &outcome, &self.config)
    }
}

/// Statistics helper for the scalability bench: flows grouped by whether
/// they stay within a region.
pub fn split_flows_by_region(
    flows: &BTreeMap<(HotspotId, HotspotId), u64>,
    region_of: &[usize],
) -> (u64, u64) {
    let mut intra = 0;
    let mut cross = 0;
    for (&(i, j), &f) in flows {
        if region_of[i.0] == region_of[j.0] {
            intra += f;
        } else {
            cross += f;
        }
    }
    (intra, cross)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Nearest, Rbcaer};
    use ccdn_sim::Runner;
    use ccdn_trace::TraceConfig;

    fn trace() -> ccdn_trace::Trace {
        TraceConfig::small_test()
            .with_hotspot_count(40)
            .with_request_count(8_000)
            .with_video_count(500)
            .with_seed(21)
            .generate()
    }

    #[test]
    fn partition_covers_all_points() {
        let region = Rect::paper_eval_region();
        let p = RegionPartition::grid(region, 3, 4);
        assert_eq!(p.region_count(), 12);
        for &(x, y) in &[(0.0, 0.0), (17.0, 11.0), (8.5, 5.5), (-5.0, 50.0)] {
            let r = p.region_of_point(ccdn_geo::Point::new(x, y));
            assert!(r < 12);
        }
        // Corners map to the extreme regions.
        assert_eq!(p.region_of_point(ccdn_geo::Point::new(0.0, 0.0)), 0);
        assert_eq!(p.region_of_point(ccdn_geo::Point::new(17.0, 11.0)), 11);
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn empty_partition_panics() {
        let _ = RegionPartition::grid(Rect::paper_eval_region(), 0, 3);
    }

    #[test]
    fn hierarchical_validates_and_covers() {
        let trace = trace();
        let report = Runner::new(&trace)
            .run(&mut HierarchicalRbcaer::new(RbcaerConfig::default(), 2, 3))
            .unwrap();
        assert_eq!(report.total.sums.total_requests, trace.requests.len() as u64);
    }

    #[test]
    fn intra_only_also_validates() {
        let trace = trace();
        let mut scheme =
            HierarchicalRbcaer::new(RbcaerConfig::default(), 2, 3).without_cross_region();
        let report = Runner::new(&trace).run(&mut scheme).unwrap();
        assert!(report.total.hotspot_serving_ratio() > 0.0);
    }

    #[test]
    fn cross_region_pass_never_hurts_serving() {
        let trace = trace();
        let runner = Runner::new(&trace);
        let with = runner.run(&mut HierarchicalRbcaer::new(RbcaerConfig::default(), 3, 3)).unwrap();
        let without = runner
            .run(&mut HierarchicalRbcaer::new(RbcaerConfig::default(), 3, 3).without_cross_region())
            .unwrap();
        assert!(with.total.hotspot_serving_ratio() >= without.total.hotspot_serving_ratio() - 1e-9);
    }

    #[test]
    fn one_region_grid_matches_flat_rbcaer_closely() {
        // A 1×1 partition with cross-region disabled is flat RBCAer.
        let trace = trace();
        let runner = Runner::new(&trace);
        let flat = runner.run(&mut Rbcaer::new(RbcaerConfig::default())).unwrap();
        let hier = runner
            .run(&mut HierarchicalRbcaer::new(RbcaerConfig::default(), 1, 1).without_cross_region())
            .unwrap();
        assert_eq!(flat.total, hier.total);
    }

    #[test]
    fn hierarchical_beats_nearest() {
        let trace = trace();
        let runner = Runner::new(&trace);
        let nearest = runner.run(&mut Nearest::new()).unwrap();
        let hier = runner.run(&mut HierarchicalRbcaer::new(RbcaerConfig::default(), 2, 2)).unwrap();
        assert!(hier.total.hotspot_serving_ratio() >= nearest.total.hotspot_serving_ratio() - 1e-9);
    }

    #[test]
    fn split_flows_partitions_totals() {
        let mut flows = BTreeMap::new();
        flows.insert((HotspotId(0), HotspotId(1)), 5u64);
        flows.insert((HotspotId(0), HotspotId(2)), 3u64);
        let region_of = vec![0, 0, 1];
        assert_eq!(split_flows_by_region(&flows, &region_of), (5, 3));
    }

    #[test]
    fn names_reflect_mode() {
        let h = HierarchicalRbcaer::new(RbcaerConfig::default(), 2, 2);
        assert_eq!(h.name(), "H-RBCAer");
        assert_eq!(h.without_cross_region().name(), "H-RBCAer(intra-only)");
    }
}
