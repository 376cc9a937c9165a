use crate::serving::{serve_locally, LocalServeOutcome};
use ccdn_lp::{LpError, LpProblem, Relation};
use ccdn_sim::{Scheme, SlotDecision, SlotInput, Target, VideoDemand, COLLABORATION_RADIUS_KM};
use ccdn_trace::{HotspotId, VideoId};
use std::collections::{BTreeMap, BTreeSet};

/// Maximum redirection candidates per LP pair: the nearest hotspots
/// within the collaboration radius.
const MAX_CANDIDATES: usize = 4;
/// Weight `β` of the replication term relative to latency (`α = 1`).
const BETA: f64 = 1.0;

/// The **LP-based** baseline of Fig. 8: solve the linear relaxation of the
/// joint request-redirection / content-placement ILP (problem *U*, §III-B)
/// and round the solution.
///
/// Variables: `x[(i,v),t]` = requests for video `v` aggregated at hotspot
/// `i` served by target `t` (a nearby hotspot or the CDN), and relaxed
/// placement indicators `y[v,j] ∈ [0, 1]`. The objective mirrors `U`:
/// `α·Σ x·distance + β·Σ y` under coverage (Eq. 4), linking (Eq. 5),
/// service capacity (Eq. 6), and cache capacity (Eq. 7).
///
/// This scheme exists to reproduce the paper's running-time comparison:
/// even at a fraction of the instance size it is orders of magnitude
/// slower than RBCAer, which is the figure's point. Quality-wise the
/// rounding is a plain greedy (largest fractional value first), so do not
/// expect it to dominate RBCAer.
///
/// # Examples
///
/// ```
/// use ccdn_core::LpBased;
/// use ccdn_sim::Runner;
/// use ccdn_trace::TraceConfig;
///
/// let trace = TraceConfig::small_test().with_request_count(300).generate();
/// let mut scheme = LpBased::new(40);
/// let report = Runner::new(&trace).run(&mut scheme).unwrap();
/// assert_eq!(report.total.sums.total_requests, 300);
/// ```
#[derive(Debug, Clone)]
pub struct LpBased {
    max_pairs: usize,
}

impl LpBased {
    /// Creates the scheme. At most `max_pairs` `(hotspot, video)` demand
    /// pairs go to the LP, the highest-demand ones; the rest fall back
    /// to local greedy serving. The paper likewise sampled (10 K
    /// requests) because the full LP was infeasible to solve.
    pub fn new(max_pairs: usize) -> Self {
        LpBased { max_pairs }
    }

    /// Assembles problem *U*'s relaxation for the selected pairs.
    ///
    /// Constraints are emitted in a fixed order (pair order, then sorted
    /// hotspot order for the capacity rows): simplex pivoting is
    /// order-sensitive, and under degeneracy a different row order can
    /// round to a different plan, breaking seeded reproduction.
    fn build_lp(&self, input: &SlotInput<'_>, layout: &LpLayout<'_>) -> Result<LpProblem, LpError> {
        let LpLayout { selected, candidates, x_index, cdn_index, y_index, y_keys, var_count } =
            *layout;
        let mut lp = LpProblem::minimize(var_count);
        // Objective: latency (base + hop for hotspots, flat for CDN) + β·y.
        for (p, &(i, _, _)) in selected.iter().enumerate() {
            let base = input.demand.mean_base_distance(i);
            for (c, &j) in candidates[p].iter().enumerate() {
                let hop = if j == i { 0.0 } else { input.geometry.distance(i, j) };
                lp.set_objective_coefficient(x_index[p][c], base + hop)?;
            }
            lp.set_objective_coefficient(cdn_index[p], input.geometry.cdn_distance())?;
        }
        for key in y_keys {
            lp.set_objective_coefficient(y_index[key], BETA)?;
        }
        // Coverage: Σ_t x = λ_iv (Eq. 4).
        for (p, &(_, _, count)) in selected.iter().enumerate() {
            let mut coeffs: Vec<(usize, f64)> = x_index[p].iter().map(|&v| (v, 1.0)).collect();
            coeffs.push((cdn_index[p], 1.0));
            lp.add_constraint(&coeffs, Relation::Eq, count as f64)?;
        }
        // Linking: x ≤ λ_iv · y (Eq. 5) and y ≤ 1.
        for (p, &(_, v, count)) in selected.iter().enumerate() {
            for (c, &j) in candidates[p].iter().enumerate() {
                let y = y_index[&(v, j)];
                lp.add_constraint(
                    &[(x_index[p][c], 1.0), (y, -(count as f64))],
                    Relation::Le,
                    0.0,
                )?;
            }
        }
        for key in y_keys {
            lp.add_constraint(&[(y_index[key], 1.0)], Relation::Le, 1.0)?;
        }
        // Service capacity (Eq. 6); the ordered map fixes the row order.
        let mut per_target: BTreeMap<HotspotId, Vec<(usize, f64)>> = BTreeMap::new();
        for (p, cands) in candidates.iter().enumerate() {
            for (c, &j) in cands.iter().enumerate() {
                per_target.entry(j).or_default().push((x_index[p][c], 1.0));
            }
        }
        for (j, coeffs) in &per_target {
            lp.add_constraint(coeffs, Relation::Le, input.service_capacity[j.0] as f64)?;
        }
        // Cache capacity (Eq. 7).
        let mut per_cache: BTreeMap<HotspotId, Vec<(usize, f64)>> = BTreeMap::new();
        for key in y_keys {
            per_cache.entry(key.1).or_default().push((y_index[key], 1.0));
        }
        for (j, coeffs) in &per_cache {
            lp.add_constraint(coeffs, Relation::Le, input.cache_capacity[j.0] as f64)?;
        }
        Ok(lp)
    }
}

/// Variable layout shared between [`LpBased::build_lp`] and the rounding
/// pass.
#[derive(Clone, Copy)]
struct LpLayout<'a> {
    selected: &'a [(HotspotId, VideoId, u64)],
    candidates: &'a [Vec<HotspotId>],
    x_index: &'a [Vec<usize>],
    cdn_index: &'a [usize],
    y_index: &'a BTreeMap<(VideoId, HotspotId), usize>,
    y_keys: &'a [(VideoId, HotspotId)],
    var_count: usize,
}

impl Scheme for LpBased {
    fn name(&self) -> &str {
        "LP-based"
    }

    fn schedule(&mut self, input: &SlotInput<'_>) -> SlotDecision {
        let n = input.hotspot_count();
        let mut decision = SlotDecision::new(n);

        // Select the highest-demand (i, v) pairs for the LP.
        let mut pairs: Vec<(HotspotId, VideoId, u64)> =
            input.demand.per_video().map(|(h, vd)| (h, vd.video, vd.count)).collect();
        pairs.sort_by(|a, b| b.2.cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
        let selected: Vec<(HotspotId, VideoId, u64)> =
            pairs.iter().take(self.max_pairs).copied().collect();
        let selected_set: BTreeSet<(HotspotId, VideoId)> =
            selected.iter().map(|&(h, v, _)| (h, v)).collect();

        // Candidate targets per pair: the pair's own hotspot plus the
        // nearest hotspots within the radius.
        let candidates: Vec<Vec<HotspotId>> = selected
            .iter()
            .map(|&(i, _, _)| {
                let mut near: Vec<(f64, HotspotId)> = input
                    .geometry
                    .within_radius(i, COLLABORATION_RADIUS_KM)
                    .into_iter()
                    .filter(|&j| input.service_capacity[j.0] > 0 && input.cache_capacity[j.0] > 0)
                    .map(|j| (input.geometry.distance(i, j), j))
                    .collect();
                near.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let mut c = vec![i];
                c.extend(near.into_iter().take(MAX_CANDIDATES).map(|(_, j)| j));
                c
            })
            .collect();

        // Variable layout: x vars per (pair, candidate), one CDN var per
        // pair, then y vars per distinct (video, hotspot) pair.
        let mut x_index: Vec<Vec<usize>> = Vec::with_capacity(selected.len());
        let mut cdn_index: Vec<usize> = Vec::with_capacity(selected.len());
        let mut y_index: BTreeMap<(VideoId, HotspotId), usize> = BTreeMap::new();
        let mut next = 0usize;
        for (p, &(_, v, _)) in selected.iter().enumerate() {
            let mut row = Vec::new();
            for &j in &candidates[p] {
                row.push(next);
                next += 1;
                y_index.entry((v, j)).or_insert_with(|| {
                    // Reserve after x/cdn vars; patched below.
                    usize::MAX
                });
            }
            x_index.push(row);
            cdn_index.push(next);
            next += 1;
        }
        let y_keys: Vec<(VideoId, HotspotId)> = y_index.keys().copied().collect();
        for key in &y_keys {
            y_index.insert(*key, next);
            next += 1;
        }

        let layout = LpLayout {
            selected: &selected,
            candidates: &candidates,
            x_index: &x_index,
            cdn_index: &cdn_index,
            y_index: &y_index,
            y_keys: &y_keys,
            var_count: next,
        };
        let solution = self.build_lp(input, &layout).and_then(|lp| lp.solve()).ok();

        // Round: per pair, hand out demand to targets by descending
        // fractional x, respecting integral capacity and cache feasibility.
        let mut capacity_left: Vec<u64> = input.service_capacity.to_vec();
        let mut cache_left: Vec<u64> = input.cache_capacity.to_vec();
        // Videos placed at each hotspot, one sorted row each.
        let mut placed: Vec<Vec<VideoId>> = vec![Vec::new(); n];
        // Local (non-redirected) demand per hotspot, filled as we round.
        let mut local_remaining: Vec<BTreeMap<VideoId, u64>> = vec![BTreeMap::new(); n];

        for (p, &(i, v, count)) in selected.iter().enumerate() {
            let mut remaining = count;
            if let Some(sol) = &solution {
                let mut options: Vec<(f64, HotspotId)> = candidates[p]
                    .iter()
                    .enumerate()
                    .map(|(c, &j)| (sol.values[x_index[p][c]], j))
                    .collect();
                options.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                for (frac, j) in options {
                    if remaining == 0 || frac <= 1e-9 {
                        break;
                    }
                    if j == i {
                        // Local serving is handled by the shared greedy
                        // tail below so cache priorities stay consistent.
                        continue;
                    }
                    let held = placed[j.0].binary_search(&v);
                    let can_cache = held.is_ok() || cache_left[j.0] > 0;
                    if !can_cache {
                        continue;
                    }
                    let grant = remaining.min(capacity_left[j.0]).min(frac.ceil() as u64);
                    if grant == 0 {
                        continue;
                    }
                    if let Err(at) = held {
                        placed[j.0].insert(at, v);
                        cache_left[j.0] -= 1;
                        decision.place(j, v);
                    }
                    capacity_left[j.0] -= grant;
                    decision.assign(i, v, Target::Hotspot(j), grant);
                    remaining -= grant;
                }
            }
            if remaining > 0 {
                *local_remaining[i.0].entry(v).or_insert(0) += remaining;
            }
        }

        // Non-selected pairs stay local.
        for (h, vd) in input.demand.per_video() {
            if !selected_set.contains(&(h, vd.video)) {
                *local_remaining[h.0].entry(vd.video).or_insert(0) += vd.count;
            }
        }

        // Shared greedy tail: local serving + cache fill.
        let mut local = LocalServeOutcome::default();
        let mut demand: Vec<VideoDemand> = Vec::new();
        let mut by_popularity = Vec::new();
        for h in 0..n {
            demand.clear();
            demand.extend(
                local_remaining[h].iter().map(|(&video, &count)| VideoDemand { video, count }),
            );
            local.absorb(serve_locally(
                &mut decision,
                HotspotId(h),
                &demand,
                &placed[h],
                cache_left[h],
                capacity_left[h],
                &mut None,
                &mut by_popularity,
            ));
        }
        local.add_to_counters();
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Nearest;
    use ccdn_sim::Runner;
    use ccdn_trace::TraceConfig;

    fn small_trace() -> ccdn_trace::Trace {
        TraceConfig::small_test().with_request_count(600).with_seed(4).generate()
    }

    #[test]
    fn validates_and_covers_all_demand() {
        let trace = small_trace();
        let mut scheme = LpBased::new(30);
        let report = Runner::new(&trace).run(&mut scheme).unwrap();
        assert_eq!(report.total.sums.total_requests, trace.requests.len() as u64);
    }

    #[test]
    fn zero_pairs_degenerates_to_local_greedy() {
        let trace = small_trace();
        let runner = Runner::new(&trace);
        let mut lp = LpBased::new(0);
        let lp_report = runner.run(&mut lp).unwrap();
        let nearest = runner.run(&mut Nearest::new()).unwrap();
        assert_eq!(lp_report.total, nearest.total);
    }

    #[test]
    fn is_slower_than_nearest() {
        let trace = small_trace();
        let runner = Runner::new(&trace);
        let mut lp = LpBased::new(60);
        let lp_report = runner.run(&mut lp).unwrap();
        let nearest_report = runner.run(&mut Nearest::new()).unwrap();
        assert!(lp_report.scheduling_time >= nearest_report.scheduling_time);
    }
}
