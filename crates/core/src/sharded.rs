//! **Sharded RBCAer**: metro-scale planning by geo-tile decomposition,
//! and the tile pipeline flat RBCAer runs as its one-tile case.
//!
//! One tile holding every hotspot solves one MCMF over every
//! overloaded/under-utilized hotspot pair within `θ₂` — fine at the
//! paper's 5 000-hotspot scale, but the `Gd` candidate scan alone is
//! `O(|Hs| · |Ht|)` and the clustering stage's working matrix `O(n²)`.
//! [`ShardedRbcaer`] restores near-linear plan time by cutting the
//! deployment into square geo-tiles (via [`ccdn_geo::GridIndex`] cells),
//! clustering and balancing each tile independently on the worker pool
//! ([`balance_tiles`]), and stitching the tile plans back together with a
//! cross-tile *border reconciliation* pass before Procedure 1.
//!
//! Because `θ₂` is ~1.5 km while a tile is several km wide, almost every
//! admissible balancing arc is tile-local; only hotspots within the border
//! band can have cross-tile partners, and the reconciliation pass routes
//! exactly those residuals. The gap to the monolithic plan is therefore
//! bounded by the border population, not the deployment size.
//!
//! Each slot is planned from that slot's input alone: every tile goes
//! through the full θ-sweep, and the planner keeps no state between
//! slots, so a long-lived planner returns the same plan as a fresh one.
//!
//! # Determinism
//!
//! Tile membership is a pure function of the static geometry; per-tile
//! solves fan out over [`ccdn_par::par_map`] (ordered join) and merge
//! sequentially in ascending tile order; the border pass is sequential.
//! Plan bytes are invariant under `CCDN_THREADS`.

use crate::config::RbcaerConfig;
use crate::rbcaer::balancing::{self, BalanceOutcome, Participants};
use crate::rbcaer::{clustering, procedure};
use crate::ConfigError;
use ccdn_flow::FlowNetwork;
use ccdn_geo::{GridIndex, Point};
use ccdn_obs::Counter;
use ccdn_par::Threads;
use ccdn_sim::{Scheme, SlotDecision, SlotInput};
use ccdn_trace::HotspotId;
use std::collections::BTreeMap;

/// Tiles solved through the full θ-sweep.
static TILES_COLD: Counter = Counter::new("core.sharded.tiles_cold");
/// Requests moved across tiles by the border reconciliation pass.
static BORDER_MOVED: Counter = Counter::new("core.sharded.border_moved");

/// Tiling geometry of [`ShardedRbcaer`].
///
/// # Examples
///
/// ```
/// use ccdn_core::ShardConfig;
///
/// let shard = ShardConfig::default();
/// assert!(shard.validate().is_ok());
/// assert!(shard.tile_km > shard.border_km);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardConfig {
    /// Side length of a square geo-tile in km. Must comfortably exceed
    /// `θ₂` or every hotspot is a border hotspot and sharding buys
    /// nothing.
    pub tile_km: f64,
    /// Width of the border band: hotspots closer than this to an interior
    /// tile boundary join the cross-tile reconciliation pass. `0` disables
    /// the pass.
    pub border_km: f64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { tile_km: 8.0, border_km: 1.5 }
    }
}

impl ShardConfig {
    /// Checks the geometric parameters.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if `tile_km` is not strictly positive and finite,
    /// or `border_km` is negative or non-finite.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.tile_km.is_finite() && self.tile_km > 0.0) {
            return Err(ConfigError::new("tile_km must be positive and finite"));
        }
        if !(self.border_km.is_finite() && self.border_km >= 0.0) {
            return Err(ConfigError::new("border_km must be non-negative and finite"));
        }
        Ok(())
    }
}

/// The sharded scheduler: geo-tiled RBCAer with border reconciliation.
/// Each tile is clustered and balanced on its own, a border pass moves
/// residual overload across tile edges, and Procedure 1 runs on the
/// merged flows. With one tile this is flat [`Rbcaer`](crate::Rbcaer).
///
/// # Examples
///
/// ```
/// use ccdn_core::{RbcaerConfig, ShardConfig, ShardedRbcaer};
/// use ccdn_sim::Runner;
/// use ccdn_trace::TraceConfig;
///
/// let trace = TraceConfig::small_test().generate();
/// let mut scheme = ShardedRbcaer::new(RbcaerConfig::default(), ShardConfig::default());
/// let report = Runner::new(&trace).run(&mut scheme).unwrap();
/// assert!(report.total.hotspot_serving_ratio() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedRbcaer {
    config: RbcaerConfig,
    shard: ShardConfig,
}

impl ShardedRbcaer {
    /// Creates the scheduler.
    ///
    /// # Panics
    ///
    /// Panics if either config is invalid; use [`ShardedRbcaer::try_new`]
    /// for the fallible form.
    // lint: allow(panic-reach): documented constructor contract — try_new is the typed path
    pub fn new(config: RbcaerConfig, shard: ShardConfig) -> Self {
        match Self::try_new(config, shard) {
            Ok(scheduler) => scheduler,
            // lint: allow(no-panic): documented constructor contract; try_new is the typed path
            Err(e) => panic!("invalid sharded RBCAer configuration: {e}"),
        }
    }

    /// Fallible form of [`ShardedRbcaer::new`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `config` fails
    /// [`RbcaerConfig::validate`] or `shard` fails
    /// [`ShardConfig::validate`].
    pub fn try_new(config: RbcaerConfig, shard: ShardConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        shard.validate()?;
        Ok(ShardedRbcaer { config, shard })
    }

    /// The active RBCAer configuration.
    pub fn config(&self) -> &RbcaerConfig {
        &self.config
    }

    /// The active sharding configuration.
    pub fn shard_config(&self) -> &ShardConfig {
        &self.shard
    }

    /// Tile id per hotspot plus the tiling grid itself. Falls back to one
    /// tile covering everything when the region degenerates below a single
    /// cell (`try_build` rejecting the geometry).
    fn assign_tiles(&self, input: &SlotInput<'_>) -> (Vec<usize>, Option<GridIndex>) {
        let n = input.hotspot_count();
        let region = input.geometry.region();
        match GridIndex::try_build(region, self.shard.tile_km, std::iter::empty()) {
            Ok(grid) => {
                let tile_of: Vec<usize> =
                    (0..n).map(|h| grid.cell_of(input.geometry.location(HotspotId(h)))).collect();
                (tile_of, Some(grid))
            }
            Err(_) => (vec![0; n], None),
        }
    }
}

impl Scheme for ShardedRbcaer {
    fn name(&self) -> &str {
        "S-RBCAer"
    }

    fn schedule(&mut self, input: &SlotInput<'_>) -> SlotDecision {
        let (tile_of, grid) = self.assign_tiles(input);

        // Non-empty tiles with their members, ascending in both keys.
        let mut members_of: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (h, &tile) in tile_of.iter().enumerate() {
            members_of.entry(tile).or_default().push(h);
        }
        let tiles: Vec<&[usize]> = members_of.values().map(Vec::as_slice).collect();
        TILES_COLD.add(tiles.len() as u64);

        let (_, mut outcome) = balance_tiles(input, &self.config, &tiles);
        if let Some(grid) = &grid {
            border_reconcile(input, &self.config, &self.shard, grid, &tile_of, &mut outcome);
        }
        procedure::run(input, &outcome, &self.config)
    }
}

/// Clusters and balances each tile of `tiles` (ascending hotspot ids) on
/// its own and merges the flows in tile order; flat RBCAer passes one tile
/// that holds every hotspot. Returns every hotspot's content cluster (all
/// 0 without content aggregation) and the merged outcome, whose
/// `max_movable` is the bound over the whole input.
///
/// Tiles fan out over the worker pool (`par_map` joins in input order),
/// and cluster ids are offset sequentially in tile order, so the result
/// is thread-count invariant.
pub(crate) fn balance_tiles(
    input: &SlotInput<'_>,
    config: &RbcaerConfig,
    tiles: &[&[usize]],
) -> (Vec<usize>, BalanceOutcome) {
    let n = input.hotspot_count();
    let mut cluster_of = vec![0usize; n];
    if config.content_aggregation {
        let local: Vec<(Vec<usize>, usize)> = ccdn_par::par_map(Threads::Auto, tiles, |&members| {
            clustering::content_clusters(input, config, members)
        });
        let mut next_id = 0usize;
        for (members, (ids, k)) in tiles.iter().zip(&local) {
            for (&h, &c) in members.iter().zip(ids) {
                cluster_of[h] = next_id + c;
            }
            next_id += k;
        }
    }

    let solved: Vec<BalanceOutcome> = ccdn_par::par_map(Threads::Auto, tiles, |&members| {
        balancing::balance(input, config, &cluster_of, members)
    });
    let mut outcome = BalanceOutcome {
        max_movable: Participants::new(input, 0..n).max_movable(),
        ..Default::default()
    };
    for tile in solved {
        for (pair, f) in tile.flows {
            *outcome.flows.entry(pair).or_insert(0) += f;
            outcome.moved += f;
        }
    }
    (cluster_of, outcome)
}

/// Maximum cross-tile partners considered per border hotspot — keeps the
/// reconciliation graph linear in the border population.
const BORDER_FANOUT: usize = 4;

/// Routes residual overload across tile boundaries: hotspots within
/// `border_km` of an interior tile edge trade their leftover `φ` through
/// small MCMFs whose arcs are nearest cross-tile pairs within `θ₂`.
///
/// The pass is batched per tile — each batch solves one MCMF over a
/// single tile's overloaded border hotspots and their (cross-tile)
/// candidates, with under-utilized slack decremented between batches in
/// ascending tile order. One global border MCMF would be `O(F·E)` with
/// both the total flow `F` and the arc count `E` proportional to the
/// deployment size — quadratic; batching keeps every solve constant-size
/// at constant hotspot density, so the pass stays linear. The price is
/// that earlier tiles grab contested slack first, a greedy split of an
/// already-heuristic stitching pass.
fn border_reconcile(
    input: &SlotInput<'_>,
    config: &RbcaerConfig,
    shard: &ShardConfig,
    grid: &GridIndex,
    tile_of: &[usize],
    outcome: &mut BalanceOutcome,
) {
    if grid.cell_count() <= 1 || shard.border_km <= 0.0 {
        return;
    }
    let n = input.hotspot_count();

    // Residual slack after the tile-local flows.
    let parts = Participants::new(input, 0..n);
    let mut residual_over: Vec<i64> = vec![0; n];
    let mut residual_under: Vec<i64> = vec![0; n];
    for &(h, phi) in &parts.overloaded {
        residual_over[h] = phi as i64;
    }
    for &(h, phi) in &parts.under {
        residual_under[h] = phi as i64;
    }
    for (&(i, j), &f) in &outcome.flows {
        residual_over[i.0] -= f as i64;
        residual_under[j.0] -= f as i64;
    }

    let is_border = |p: Point| border_distance(grid, p) < shard.border_km;
    let over: Vec<usize> = (0..n)
        .filter(|&h| residual_over[h] > 0 && is_border(input.geometry.location(HotspotId(h))))
        .collect();
    let under: Vec<usize> = (0..n)
        .filter(|&h| residual_under[h] > 0 && is_border(input.geometry.location(HotspotId(h))))
        .collect();
    if over.is_empty() || under.is_empty() {
        return;
    }

    // Candidate partners per overloaded border hotspot: nearest cross-tile
    // under-utilized border hotspots within θ₂, found through a grid over
    // the (small) border population.
    let under_points: Vec<Point> =
        under.iter().map(|&h| input.geometry.location(HotspotId(h))).collect();
    let Ok(under_index) = GridIndex::try_build(
        grid.bounds(),
        config.theta2_km.max(0.5),
        under_points.iter().copied(),
    ) else {
        return;
    };

    // Candidate partners per overloaded border hotspot, precomputed once:
    // nearest cross-tile under-utilized border hotspots within θ₂.
    let candidates: Vec<Vec<(f64, usize)>> = over
        .iter()
        .map(|&i| {
            let p = input.geometry.location(HotspotId(i));
            let mut cands: Vec<(f64, usize)> = under_index
                .within_radius(p, config.theta2_km)
                .into_iter()
                .filter(|&uk| tile_of[under[uk]] != tile_of[i])
                .map(|uk| (p.distance(under_points[uk]), uk))
                .filter(|&(d, _)| d < config.theta2_km)
                .collect();
            cands.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            cands.truncate(BORDER_FANOUT);
            cands
        })
        .collect();

    // Batch the overloaded hotspots by their own tile, ascending.
    let mut batches: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (oi, &i) in over.iter().enumerate() {
        if !candidates[oi].is_empty() {
            batches.entry(tile_of[i]).or_default().push(oi);
        }
    }

    let mut border_moved = 0u64;
    for overs in batches.values() {
        // Compact under-node numbering for this batch only.
        let mut under_of: BTreeMap<usize, usize> = BTreeMap::new();
        for &oi in overs {
            for &(_, uk) in &candidates[oi] {
                if residual_under[under[uk]] > 0 {
                    let next = under_of.len();
                    under_of.entry(uk).or_insert(next);
                }
            }
        }
        if under_of.is_empty() {
            continue;
        }
        let nodes = 2usize.saturating_add(overs.len()).saturating_add(under_of.len());
        let mut net = FlowNetwork::with_nodes(nodes);
        let (source, sink) = (0, 1);
        let under_node = |k: usize| 2 + overs.len() + k;
        let mut pair_edges = Vec::new();
        for (slot, &oi) in overs.iter().enumerate() {
            let i = over[oi];
            let over_node = 2 + slot;
            let mut linked = false;
            for &(d, uk) in &candidates[oi] {
                let Some(&us) = under_of.get(&uk) else { continue };
                let cap = residual_over[i].min(residual_under[under[uk]]);
                if cap == 0 {
                    continue;
                }
                // lint: allow(no-panic): cost is a finite non-negative geometry distance
                let e = net.add_edge(over_node, under_node(us), cap, d).expect("valid edge");
                pair_edges.push((e, i, under[uk]));
                linked = true;
            }
            if linked {
                // lint: allow(no-panic): zero cost, positive capacity, in-range nodes
                net.add_edge(source, over_node, residual_over[i], 0.0).expect("valid edge");
            }
        }
        if pair_edges.is_empty() {
            continue;
        }
        for (&uk, &us) in &under_of {
            let cap = residual_under[under[uk]];
            // lint: allow(no-panic): zero cost, positive capacity, in-range nodes
            net.add_edge(under_node(us), sink, cap, 0.0).expect("valid edge");
        }
        // lint: allow(no-panic): source and sink are the distinct nodes 0 and 1
        let _ = net.min_cost_max_flow(source, sink).expect("endpoints");

        for (e, i, j) in pair_edges {
            let f = net.edge_flow(e);
            if f == 0 {
                continue;
            }
            // Later batches see the slack this one consumed.
            residual_over[i] -= f;
            residual_under[j] -= f;
            let f = f as u64;
            *outcome.flows.entry((HotspotId(i), HotspotId(j))).or_insert(0) += f;
            outcome.moved += f;
            border_moved += f;
        }
    }
    BORDER_MOVED.add(border_moved);
}

/// Distance from `p` to the nearest **interior** tile boundary line of the
/// grid (the outer region edges are not boundaries between tiles). Returns
/// infinity for a 1×1 grid.
fn border_distance(grid: &GridIndex, p: Point) -> f64 {
    let min = grid.bounds().min();
    let axis = |coord: f64, origin: f64, cells: usize| -> f64 {
        if cells <= 1 {
            return f64::INFINITY;
        }
        let t = (coord - origin) / grid.cell_km();
        let k = t.round().clamp(1.0, (cells - 1) as f64);
        (coord - (origin + k * grid.cell_km())).abs()
    };
    axis(p.x, min.x, grid.cols()).min(axis(p.y, min.y, grid.rows()))
}
