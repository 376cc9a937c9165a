//! **Sharded RBCAer**: metro-scale planning by geo-tile decomposition.
//!
//! The flat scheduler solves one MCMF over every overloaded/under-utilized
//! hotspot pair within `θ₂` — fine at the paper's 5 000-hotspot scale, but
//! the `Gd` candidate scan alone is `O(|Hs| · |Ht|)` and the clustering
//! stage's working matrix `O(n²)`. [`ShardedRbcaer`] restores near-linear
//! plan time by cutting the deployment into square geo-tiles (via
//! [`ccdn_geo::GridIndex`] cells), solving each tile's Algorithm-1 loop
//! independently on the worker pool, and stitching the tile plans back
//! together with a cross-tile *border reconciliation* pass.
//!
//! Because `θ₂` is ~1.5 km while a tile is several km wide, almost every
//! admissible balancing arc is tile-local; only hotspots within the border
//! band can have cross-tile partners, and the reconciliation pass routes
//! exactly those residuals. The gap to the monolithic plan is therefore
//! bounded by the border population, not the deployment size.
//!
//! # Incremental re-planning (warm start)
//!
//! Demand drifts slowly between timeslots, so most tiles barely change.
//! The scheduler keeps each tile's previous flows and, per slot, picks one
//! of three paths:
//!
//! - **reuse** — the tile's loads are byte-identical to the previous slot:
//!   the cached flows are replayed without touching the solver;
//! - **top-up** — the relative load delta is within
//!   [`ShardConfig::warm_delta`]: cached flows are clamped to the current
//!   slacks, committed into a fresh `Gd(θ₂)` via
//!   [`FlowNetwork::preload_edge_flow`], and a bounded min-cost completion
//!   routes only the remainder;
//! - **cold** — anything else re-runs the full θ-sweep for that tile.
//!
//! The top-up trades a little optimality (committed flow is never
//! re-routed, and it skips the θ-sweep and flow guides) for an MCMF over
//! the *delta* instead of the tile; `warm_delta` bounds when that trade is
//! taken, and `warm_delta = 0` degenerates to reuse-or-cold, which is
//! byte-identical to always solving cold. The tile cache itself is always
//! kept; [`ShardedRbcaer::reset_warm_state`] drops it between slots.
//!
//! # Determinism
//!
//! Tile membership is a pure function of the static geometry; per-tile
//! solves fan out over [`ccdn_par::par_map`] (ordered join) and merge
//! sequentially in ascending tile order; the border pass is sequential.
//! Plan bytes are invariant under `CCDN_THREADS`.

use crate::config::RbcaerConfig;
use crate::rbcaer::{balancing, clustering, procedure};
use crate::ConfigError;
use ccdn_flow::{FlowNetwork, McmfAlgorithm};
use ccdn_geo::{GridIndex, Point};
use ccdn_obs::Counter;
use ccdn_par::Threads;
use ccdn_sim::{Scheme, SlotDecision, SlotInput};
use ccdn_trace::HotspotId;
use std::collections::BTreeMap;

/// Tiles whose cached flows were replayed verbatim this slot.
static TILES_REUSED: Counter = Counter::new("core.sharded.tiles_reused");
/// Tiles warm-started via clamp + preload + bounded top-up.
static TILES_TOPPED_UP: Counter = Counter::new("core.sharded.tiles_topped_up");
/// Tiles solved cold through the full θ-sweep.
static TILES_COLD: Counter = Counter::new("core.sharded.tiles_cold");
/// Requests moved across tiles by the border reconciliation pass.
static BORDER_MOVED: Counter = Counter::new("core.sharded.border_moved");

/// Geometry and warm-start knobs of [`ShardedRbcaer`].
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
    /// Relative L1 load delta (`Σ|λ − λ_prev| / Σλ_prev`) below which a
    /// changed tile takes the top-up path instead of a cold solve. `0`
    /// keeps only the replay of unchanged tiles, which plans the same
    /// bytes as always solving cold.
    pub warm_delta: f64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { tile_km: 8.0, border_km: 1.5, warm_delta: 0.25 }
    }
}

impl ShardConfig {
    /// Checks the geometric and warm-start parameters.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if `tile_km` is not strictly positive and finite,
    /// or `border_km` / `warm_delta` are negative or non-finite.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.tile_km.is_finite() && self.tile_km > 0.0) {
            return Err(ConfigError::new("tile_km must be positive and finite"));
        }
        if !(self.border_km.is_finite() && self.border_km >= 0.0) {
            return Err(ConfigError::new("border_km must be non-negative and finite"));
        }
        if !(self.warm_delta.is_finite() && self.warm_delta >= 0.0) {
            return Err(ConfigError::new("warm_delta must be non-negative and finite"));
        }
        Ok(())
    }
}

/// Previous-slot state of one tile, keyed by its grid cell id.
#[derive(Debug, Clone)]
struct TileCache {
    /// Hotspot ids of the tile, ascending (static geometry ⇒ static).
    members: Vec<usize>,
    /// Per-member demand load of the slot the flows were planned for.
    loads: Vec<u64>,
    /// The planned `(i, j) → f` arcs, ascending by pair.
    flows: Vec<((usize, usize), u64)>,
}

/// How one tile gets its flows this slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TileMode {
    Reuse,
    TopUp,
    Cold,
}

/// The sharded scheduler: geo-tiled RBCAer with border reconciliation and
/// incremental re-planning. See the [module docs](self) for the design.
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
    /// Warm-start state: one entry per non-empty tile, kept across slots.
    tiles: BTreeMap<usize, TileCache>,
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
        Ok(ShardedRbcaer { config, shard, tiles: BTreeMap::new() })
    }

    /// The active RBCAer configuration.
    pub fn config(&self) -> &RbcaerConfig {
        &self.config
    }

    /// The active sharding configuration.
    pub fn shard_config(&self) -> &ShardConfig {
        &self.shard
    }

    /// Drops all warm-start state; the next slot solves every tile cold.
    pub fn reset_warm_state(&mut self) {
        self.tiles.clear();
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

    /// Chooses reuse / top-up / cold for one tile from its cached state.
    fn tile_mode(&self, tile: usize, members: &[usize], loads: &[u64]) -> TileMode {
        let Some(cache) = self.tiles.get(&tile) else {
            return TileMode::Cold;
        };
        if cache.members != members {
            return TileMode::Cold;
        }
        if cache.loads == loads {
            return TileMode::Reuse;
        }
        let prev: u64 = cache.loads.iter().sum();
        let delta: u64 = cache.loads.iter().zip(loads).map(|(&a, &b)| a.abs_diff(b)).sum();
        if (delta as f64) <= self.shard.warm_delta * prev.max(1) as f64 {
            TileMode::TopUp
        } else {
            TileMode::Cold
        }
    }
}

impl Scheme for ShardedRbcaer {
    fn name(&self) -> &str {
        "S-RBCAer"
    }

    fn schedule(&mut self, input: &SlotInput<'_>) -> SlotDecision {
        let n = input.hotspot_count();
        let (tile_of, grid) = self.assign_tiles(input);

        // Non-empty tiles with their members, ascending in both keys.
        let mut members_of: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (h, &tile) in tile_of.iter().enumerate().take(n) {
            members_of.entry(tile).or_default().push(h);
        }

        // Decide each tile's path before clustering: reuse and top-up skip
        // the (expensive) clustering stage entirely.
        let mut plan: Vec<(usize, &[usize], Vec<u64>, TileMode)> = Vec::new();
        for (&tile, members) in &members_of {
            let loads: Vec<u64> =
                members.iter().map(|&h| input.demand.load(HotspotId(h))).collect();
            let mode = self.tile_mode(tile, members, &loads);
            plan.push((tile, members.as_slice(), loads, mode));
        }

        // Cluster only the cold tiles, each independently on the pool;
        // cluster ids are offset sequentially in tile order so the merged
        // assignment is thread-count invariant.
        let cold_tiles: Vec<&[usize]> = plan
            .iter()
            .filter(|&&(_, _, _, mode)| mode == TileMode::Cold)
            .map(|&(_, members, _, _)| members)
            .collect();
        let mut cluster_of = vec![0usize; n];
        if self.config.content_aggregation && !cold_tiles.is_empty() {
            let local: Vec<(Vec<usize>, usize)> =
                ccdn_par::par_map(Threads::Auto, &cold_tiles, |&members| {
                    clustering::content_clusters_subset(input, &self.config, members)
                });
            let mut next_id = 0usize;
            for (members, (ids, k)) in cold_tiles.iter().zip(&local) {
                for (&h, &c) in members.iter().zip(ids) {
                    cluster_of[h] = next_id + c;
                }
                next_id += k;
            }
        }

        // Solve every tile on the pool (reuse replays the cache inline —
        // `par_map` joins in input order, so the fan-out stays
        // deterministic) and merge sequentially in ascending tile order.
        let solved: Vec<Vec<((usize, usize), u64)>> =
            ccdn_par::par_map(Threads::Auto, &plan, |(tile, members, _, mode)| match mode {
                TileMode::Reuse => self.tiles[tile].flows.clone(),
                TileMode::TopUp => {
                    topup_tile(input, &self.config, members, &self.tiles[tile].flows)
                }
                TileMode::Cold => {
                    let outcome =
                        balancing::balance_subset(input, &self.config, &cluster_of, members);
                    outcome.flows.iter().map(|(&(i, j), &f)| ((i.0, j.0), f)).collect()
                }
            });

        let mut outcome = balancing::BalanceOutcome {
            max_movable: crate::rbcaer::balancing::Participants::from_input(input).max_movable(),
            ..Default::default()
        };
        let mut next_tiles: BTreeMap<usize, TileCache> = BTreeMap::new();
        for ((tile, members, loads, mode), flows) in plan.into_iter().zip(solved) {
            match mode {
                TileMode::Reuse => TILES_REUSED.incr(),
                TileMode::TopUp => TILES_TOPPED_UP.incr(),
                TileMode::Cold => TILES_COLD.incr(),
            }
            for &((i, j), f) in &flows {
                *outcome.flows.entry((HotspotId(i), HotspotId(j))).or_insert(0) += f;
                outcome.moved += f;
            }
            next_tiles.insert(tile, TileCache { members: members.to_vec(), loads, flows });
        }
        self.tiles = next_tiles;

        if let Some(grid) = &grid {
            border_reconcile(input, &self.config, &self.shard, grid, &tile_of, &mut outcome);
        }

        let decision = procedure::content_aggregation_replication(input, &outcome, &self.config);
        #[cfg(feature = "strict-invariants")]
        if let Err(violation) =
            crate::validate::check_plan(input, &self.config, &outcome, &decision)
        {
            // lint: allow(no-panic): strict-invariants deliberately aborts on a violated invariant
            panic!("strict-invariants: sharded plan violates feasibility: {violation}");
        }
        decision
    }
}

/// Warm top-up for one tile: clamp the cached flows to the current slacks,
/// commit them into a plain `Gd(θ₂)` over the tile, and route the
/// remainder as a bounded min-cost completion. Committed flow is never
/// re-routed — see `crates/flow/tests/warm_start.rs` for the contract.
fn topup_tile(
    input: &SlotInput<'_>,
    config: &RbcaerConfig,
    members: &[usize],
    cached: &[((usize, usize), u64)],
) -> Vec<((usize, usize), u64)> {
    let parts = balancing::Participants::from_members(input, members.iter().copied());
    if parts.overloaded.is_empty() || parts.under.is_empty() {
        return Vec::new();
    }

    let mut net = FlowNetwork::new();
    let source = net.add_node();
    let sink = net.add_node();
    let mut s_edges = Vec::with_capacity(parts.overloaded.len());
    let mut t_edges = Vec::with_capacity(parts.under.len());
    let s_nodes: Vec<usize> = parts
        .overloaded
        .iter()
        .map(|&(_, phi)| {
            let node = net.add_node();
            // lint: allow(no-panic): zero cost and in-range nodes make add_edge infallible
            s_edges.push(net.add_edge(source, node, phi as i64, 0.0).expect("valid edge"));
            node
        })
        .collect();
    let t_nodes: Vec<usize> = parts
        .under
        .iter()
        .map(|&(_, phi)| {
            let node = net.add_node();
            // lint: allow(no-panic): zero cost and in-range nodes make add_edge infallible
            t_edges.push(net.add_edge(node, sink, phi as i64, 0.0).expect("valid edge"));
            node
        })
        .collect();

    // Plain Gd at θ₂ — the top-up deliberately skips the θ-sweep and the
    // flow guides; `warm_delta` bounds how much demand takes this cheaper
    // path.
    let mut pair_edge: BTreeMap<(usize, usize), ccdn_flow::EdgeId> = BTreeMap::new();
    for (si, &(i, phi_i)) in parts.overloaded.iter().enumerate() {
        for (ti, &(j, phi_j)) in parts.under.iter().enumerate() {
            let d = input.geometry.distance(HotspotId(i), HotspotId(j));
            if d < config.theta2_km {
                let e = net
                    .add_edge(s_nodes[si], t_nodes[ti], phi_i.min(phi_j) as i64, d)
                    // lint: allow(no-panic): cost is a finite non-negative geometry distance
                    .expect("valid edge");
                pair_edge.insert((i, j), e);
            }
        }
    }

    // Clamp the previous flows to today's slacks and commit them.
    let over_slot: BTreeMap<usize, usize> =
        parts.overloaded.iter().enumerate().map(|(si, &(i, _))| (i, si)).collect();
    let under_slot: BTreeMap<usize, usize> =
        parts.under.iter().enumerate().map(|(ti, &(j, _))| (j, ti)).collect();
    let mut over_left: Vec<u64> = parts.overloaded.iter().map(|&(_, p)| p).collect();
    let mut under_left: Vec<u64> = parts.under.iter().map(|&(_, p)| p).collect();
    let mut committed_out: Vec<u64> = vec![0; parts.overloaded.len()];
    let mut committed_in: Vec<u64> = vec![0; parts.under.len()];
    for &((i, j), f) in cached {
        let (Some(&si), Some(&ti)) = (over_slot.get(&i), under_slot.get(&j)) else {
            continue;
        };
        let Some(&edge) = pair_edge.get(&(i, j)) else {
            continue;
        };
        let keep = f.min(over_left[si]).min(under_left[ti]);
        if keep == 0 {
            continue;
        }
        // lint: allow(no-panic): keep ≤ the pair arc's min(φ_i, φ_j) capacity by the clamps
        net.preload_edge_flow(edge, keep as i64).expect("preload within residual");
        over_left[si] -= keep;
        under_left[ti] -= keep;
        committed_out[si] += keep;
        committed_in[ti] += keep;
    }
    for (si, &e) in s_edges.iter().enumerate() {
        if committed_out[si] > 0 {
            // lint: allow(no-panic): the skeleton arc's capacity is the full slack φ_i
            net.preload_edge_flow(e, committed_out[si] as i64).expect("preload within residual");
        }
    }
    for (ti, &e) in t_edges.iter().enumerate() {
        if committed_in[ti] > 0 {
            // lint: allow(no-panic): the skeleton arc's capacity is the full slack φ_j
            net.preload_edge_flow(e, committed_in[ti] as i64).expect("preload within residual");
        }
    }

    // lint: allow(no-panic): source and sink are two distinct freshly added nodes
    let _ = net.min_cost_flow_bounded(source, sink, i64::MAX).expect("valid endpoints");
    pair_edge
        .into_iter()
        .filter_map(|((i, j), e)| {
            let f = net.edge_flow(e);
            (f > 0).then_some(((i, j), f as u64))
        })
        .collect()
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
    outcome: &mut balancing::BalanceOutcome,
) {
    if grid.cell_count() <= 1 || shard.border_km <= 0.0 {
        return;
    }
    let n = input.hotspot_count();

    // Residual slack after the tile-local flows.
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
        let _ = net.min_cost_max_flow(source, sink, McmfAlgorithm::SspDijkstra).expect("endpoints");

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
