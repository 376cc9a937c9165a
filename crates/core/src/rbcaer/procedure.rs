//! Procedure 1 — ContentAggregationReplication (§IV-D): turn the
//! balancing flows `f_ij` into concrete per-video redirections and cache
//! placements, maximizing per-video aggregation so the content-replication
//! cost stays low.

use crate::config::RbcaerConfig;
use crate::rbcaer::balancing::BalanceOutcome;
use crate::serving::serve_locally;
use ccdn_obs::Counter;
use ccdn_sim::{SlotDecision, SlotInput, Target};
use ccdn_trace::{HotspotId, VideoId};
use std::collections::{BTreeMap, BTreeSet};

/// Requests redirected to balancing targets (Phases 1 and 2 combined).
static REDIRECTED: Counter = Counter::new("core.procedure.redirected_requests");
/// Replica placements made for incoming redirections (Phases 1 and 2;
/// local cache fill is counted separately in `serve_locally`).
static PLACEMENTS: Counter = Counter::new("core.procedure.placements");
/// Units of the `B_peak` replication budget consumed by Phases 1 and 2.
static BUDGET_SPENT: Counter = Counter::new("core.procedure.budget_spent");
/// `e_u`-ranked candidates skipped because the budget was exhausted.
static BUDGET_BLOCKED: Counter = Counter::new("core.procedure.budget_blocked");

/// `e_u(v, j) = Σ_i min(f_ij, λ_iv)` for every `(v, j)` with a positive
/// term, ascending by `(v, j)`. The terms go into one flat list, sorted
/// by key and summed per key: the entries and order of a `(v, j)`-keyed
/// map, without its per-term tree walk.
fn efficiency_index(
    f: &BTreeMap<(HotspotId, HotspotId), u64>,
    remaining: &[Vec<(VideoId, u64)>],
) -> Vec<((VideoId, HotspotId), u64)> {
    let mut eu = Vec::new();
    for (&(i, j), &fij) in f {
        for &(video, demand) in &remaining[i.0] {
            let ef = fij.min(demand);
            if ef > 0 {
                eu.push(((video, j), ef));
            }
        }
    }
    eu.sort_unstable_by_key(|&(key, _)| key);
    eu.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    eu
}

/// Executes Procedure 1 and assembles the slot decision.
pub(crate) fn content_aggregation_replication(
    input: &SlotInput<'_>,
    balance: &BalanceOutcome,
    config: &RbcaerConfig,
) -> SlotDecision {
    let n = input.hotspot_count();
    let mut decision = SlotDecision::new(n);

    // Remaining local demand per hotspot, mutated as videos redirect away.
    // Kept as video-sorted vectors (the aggregation order) rather than
    // per-hotspot maps: iteration order is identical, but at metro scale
    // (10⁶ hotspots) the flat layout avoids millions of tree-node
    // allocations that dominated the plan-assembly profile.
    let mut remaining: Vec<Vec<(VideoId, u64)>> = (0..n)
        .map(|h| input.demand.videos(HotspotId(h)).iter().map(|vd| (vd.video, vd.count)).collect())
        .collect();
    let demand_slot = |list: &[(VideoId, u64)], video: VideoId| {
        list.binary_search_by_key(&video, |&(v, _)| v).ok()
    };

    // Residual flows f_ij, plus per-target source lists.
    let mut f: BTreeMap<(HotspotId, HotspotId), u64> = balance.flows.clone();
    let mut sources_of: BTreeMap<HotspotId, Vec<HotspotId>> = BTreeMap::new();
    for &(i, j) in f.keys() {
        sources_of.entry(j).or_default().push(i);
    }
    for list in sources_of.values_mut() {
        list.sort_unstable();
    }

    // Efficiency index e_u(v, j) = Σ_i min(f_ij, λ_iv): how much of video
    // v's demand could aggregate at target j (Procedure 1 lines 1–7).
    //
    // With content aggregation disabled (the DESIGN.md ablation), the
    // e_u-guided phase is skipped entirely and every flow is realized by
    // the per-pair greedy phase below — i.e. pure load balancing with
    // arbitrary video selection.
    let mut eu =
        if config.content_aggregation { efficiency_index(&f, &remaining) } else { Vec::new() };
    // Descending by e_u, deterministic tie-breaks.
    eu.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    // Placement bookkeeping.
    let mut placed: Vec<BTreeSet<VideoId>> = vec![BTreeSet::new(); n];
    let mut cache_left: Vec<u64> = input.cache_capacity.to_vec();
    let mut incoming: Vec<u64> = vec![0; n];
    let mut budget = config.replication_budget;
    // Aggregated redirection batches (i, v, j) → count.
    let mut redirects: BTreeMap<(HotspotId, VideoId, HotspotId), u64> = BTreeMap::new();
    // Probe totals, flushed with one atomic add each before returning.
    let mut obs_redirected = 0u64;
    let mut obs_placements = 0u64;
    let mut obs_budget_spent = 0u64;
    let mut obs_budget_blocked = 0u64;

    // Phase 1: consume the e_u-ranked list (lines 8–13). Redirecting
    // (v', j') moves v'-demand from *all* of j'-s sources at once,
    // aggregating one video into one cache slot.
    for &((video, j), _) in &eu {
        let Some(sources) = sources_of.get(&j) else { continue };
        // Can j cache this video? A *new* placement needs both a free
        // cache slot and remaining replication budget — `B_peak` bounds
        // every placement (Procedure 1 line 15), not just local fill.
        let already = placed[j.0].contains(&video);
        if !already && cache_left[j.0] == 0 {
            continue;
        }
        if !already && budget == Some(0) {
            obs_budget_blocked += 1;
            continue;
        }
        let mut moved_any = false;
        for &i in sources {
            let Some(fij) = f.get_mut(&(i, j)) else { continue };
            if *fij == 0 {
                continue;
            }
            let Some(slot) = demand_slot(&remaining[i.0], video) else { continue };
            let demand = &mut remaining[i.0][slot].1;
            let m = (*fij).min(*demand);
            if m == 0 {
                continue;
            }
            *fij -= m;
            *demand -= m;
            *redirects.entry((i, video, j)).or_insert(0) += m;
            incoming[j.0] += m;
            obs_redirected += m;
            moved_any = true;
        }
        if moved_any && !already {
            placed[j.0].insert(video);
            cache_left[j.0] -= 1;
            decision.place(j, video);
            obs_placements += 1;
            if let Some(b) = &mut budget {
                #[cfg(feature = "strict-invariants")]
                debug_assert!(*b > 0, "strict-invariants: placement budget decrement saturated");
                *b = b.saturating_sub(1);
                obs_budget_spent += 1;
            }
        }
    }

    // Phase 2: leftover flows (demand shifted under other targets while
    // this one waited). Greedily move whatever video still has demand,
    // preferring videos j already caches; drop the flow when j's cache is
    // full and nothing cached matches (the requests then stay home and may
    // spill to the CDN — strictly no worse than never balancing).
    let mut leftover: Vec<((HotspotId, HotspotId), u64)> =
        f.iter().filter(|&(_, &v)| v > 0).map(|(&k, &v)| (k, v)).collect();
    leftover.sort_unstable_by_key(|&((i, j), _)| (i, j));
    for ((i, j), mut fij) in leftover {
        while fij > 0 {
            // Most-demanded video at i that j can take.
            let mut best: Option<(VideoId, u64, bool)> = None;
            for &(video, demand) in &remaining[i.0] {
                if demand == 0 {
                    continue;
                }
                let cached = placed[j.0].contains(&video);
                // An exhausted budget behaves like a full cache: only
                // videos j already holds stay candidates, the rest of the
                // flow is dropped (requests stay home / spill to the CDN).
                if !cached && (cache_left[j.0] == 0 || budget == Some(0)) {
                    continue;
                }
                let better = match best {
                    None => true,
                    // Prefer cached videos, then higher demand, then id.
                    // The balance-only ablation drops the cached
                    // preference: video choice ignores the replication it
                    // causes, as a content-blind balancer would.
                    Some((bv, bd, bc)) => {
                        if config.content_aggregation {
                            (cached, demand, std::cmp::Reverse(video))
                                > (bc, bd, std::cmp::Reverse(bv))
                        } else {
                            (demand, std::cmp::Reverse(video)) > (bd, std::cmp::Reverse(bv))
                        }
                    }
                };
                if better {
                    best = Some((video, demand, cached));
                }
            }
            let Some((video, demand, cached)) = best else { break };
            let m = fij.min(demand);
            fij -= m;
            if let Some(slot) = demand_slot(&remaining[i.0], video) {
                remaining[i.0][slot].1 -= m;
            }
            *redirects.entry((i, video, j)).or_insert(0) += m;
            incoming[j.0] += m;
            obs_redirected += m;
            if !cached {
                placed[j.0].insert(video);
                cache_left[j.0] -= 1;
                decision.place(j, video);
                obs_placements += 1;
                if let Some(b) = &mut budget {
                    #[cfg(feature = "strict-invariants")]
                    debug_assert!(
                        *b > 0,
                        "strict-invariants: placement budget decrement saturated"
                    );
                    *b = b.saturating_sub(1);
                    obs_budget_spent += 1;
                }
            }
        }
    }

    // Emit redirection assignments; `BTreeMap` iteration is already
    // (i, v, j)-ordered, so the emission order is deterministic.
    for ((i, video, j), count) in redirects {
        decision.assign(i, video, Target::Hotspot(j), count);
    }

    // Phase 3: local serving + remaining cache fill at every hotspot
    // (Procedure 1 lines 14–18, with `B_peak` as the budget).
    for h in 0..n {
        let hid = HotspotId(h);
        // `remaining[h]` is already video-sorted — the order the
        // deterministic emission relies on.
        let demand = std::mem::take(&mut remaining[h]);
        let capacity_left = input.service_capacity[h].saturating_sub(incoming[h]);
        serve_locally(
            &mut decision,
            hid,
            &demand,
            &placed[h],
            cache_left[h],
            capacity_left,
            &mut budget,
        );
    }

    REDIRECTED.add(obs_redirected);
    PLACEMENTS.add(obs_placements);
    BUDGET_SPENT.add(obs_budget_spent);
    BUDGET_BLOCKED.add(obs_budget_blocked);

    decision
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdn_geo::{Point, Rect};
    use ccdn_sim::{HotspotGeometry, SlotDemand, SlotMetrics};
    use ccdn_trace::{Hotspot, Request, UserId};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_efficiency_index_matches_a_keyed_map(
            flows in prop::collection::vec((0usize..5, 0usize..5, 0u64..6), 0..12),
            rows in prop::collection::vec(
                prop::collection::btree_set((0u32..10, 0u64..5), 0..8),
                5,
            ),
        ) {
            let f: BTreeMap<(HotspotId, HotspotId), u64> =
                flows.iter().map(|&(i, j, x)| ((HotspotId(i), HotspotId(j)), x)).collect();
            // One entry per video, ascending, as `remaining` holds them.
            let remaining: Vec<Vec<(VideoId, u64)>> = rows
                .iter()
                .map(|row| {
                    let by_video: BTreeMap<u32, u64> = row.iter().copied().collect();
                    by_video.into_iter().map(|(v, d)| (VideoId(v), d)).collect()
                })
                .collect();
            // The map Procedure 1 summed into before the flat list.
            let mut expected: BTreeMap<(VideoId, HotspotId), u64> = BTreeMap::new();
            f.iter().for_each(|(&(i, j), &fij)| {
                remaining[i.0].iter().filter(|&&(_, d)| fij.min(d) > 0).for_each(|&(v, d)| {
                    *expected.entry((v, j)).or_insert(0) += fij.min(d);
                });
            });
            let expected: Vec<((VideoId, HotspotId), u64)> = expected.into_iter().collect();
            prop_assert_eq!(efficiency_index(&f, &remaining), expected);
        }
    }

    /// Three hotspots in a row, 1 km apart; requests pinned at hotspot
    /// locations so aggregation is unambiguous.
    struct Fixture {
        geometry: HotspotGeometry,
        demand: SlotDemand,
        service: Vec<u64>,
        cache: Vec<u64>,
    }

    impl Fixture {
        fn new(requests: &[(usize, u32)], service: Vec<u64>, cache: Vec<u64>) -> Self {
            let region = Rect::paper_eval_region();
            let hotspots: Vec<Hotspot> = (0..3)
                .map(|i| Hotspot {
                    id: HotspotId(i),
                    location: Point::new(2.0 + i as f64, 5.0),
                    service_capacity: 100,
                    cache_capacity: 100,
                })
                .collect();
            let geometry = HotspotGeometry::new(region, &hotspots);
            let reqs: Vec<Request> = requests
                .iter()
                .map(|&(h, v)| Request {
                    user: UserId(0),
                    video: VideoId(v),
                    timeslot: 0,
                    location: Point::new(2.0 + h as f64, 5.0),
                })
                .collect();
            let demand = SlotDemand::aggregate(&reqs, &geometry);
            Fixture { geometry, demand, service, cache }
        }

        fn input(&self) -> SlotInput<'_> {
            SlotInput {
                geometry: &self.geometry,
                demand: &self.demand,
                service_capacity: &self.service,
                cache_capacity: &self.cache,
                video_count: 50,
            }
        }
    }

    fn flows(entries: &[(usize, usize, u64)]) -> BalanceOutcome {
        let mut f = BTreeMap::new();
        let mut moved = 0;
        for &(i, j, m) in entries {
            f.insert((HotspotId(i), HotspotId(j)), m);
            moved += m;
        }
        BalanceOutcome { flows: f, moved, max_movable: moved }
    }

    #[test]
    fn redirected_videos_are_placed_at_targets() {
        // Hotspot 0: 4 requests (3×v1, 1×v2), capacity 2 → φ=2; send 2 to
        // hotspot 1.
        let f = Fixture::new(&[(0, 1), (0, 1), (0, 1), (0, 2)], vec![2, 10, 10], vec![10, 10, 10]);
        let input = f.input();
        let decision =
            content_aggregation_replication(&input, &flows(&[(0, 1, 2)]), &RbcaerConfig::default());
        let metrics = SlotMetrics::evaluate(&input, &decision).expect("valid decision");
        assert_eq!(metrics.total_requests, 4);
        assert_eq!(metrics.hotspot_served, 4, "everything fits after balancing");
        // v1 is the aggregative choice: 2 of its 3 requests move to j=1,
        // so v1 must be cached at hotspot 1.
        assert!(decision.placements[1].contains(&VideoId(1)));
    }

    #[test]
    fn eu_ordering_moves_the_most_aggregative_video() {
        // Hotspots 0 and 2 both overloaded with v7; hotspot 1 idle in the
        // middle. Both should drain v7 into hotspot 1 → one replica there.
        let f = Fixture::new(
            &[(0, 7), (0, 7), (0, 8), (2, 7), (2, 7), (2, 9)],
            vec![1, 10, 1],
            vec![10, 10, 10],
        );
        let input = f.input();
        let decision = content_aggregation_replication(
            &input,
            &flows(&[(0, 1, 2), (2, 1, 2)]),
            &RbcaerConfig::default(),
        );
        SlotMetrics::evaluate(&input, &decision).expect("valid decision");
        let placed_at_1 = &decision.placements[1];
        assert!(placed_at_1.contains(&VideoId(7)), "shared video aggregates at the target");
        // Redirections for v7 exist from both sources.
        let v7_moves: u64 = decision
            .assignments
            .iter()
            .filter(|a| a.video == VideoId(7) && a.target == Target::Hotspot(HotspotId(1)))
            .map(|a| a.count)
            .sum();
        assert_eq!(v7_moves, 4);
    }

    #[test]
    fn cache_full_target_drops_leftover_flow_gracefully() {
        // Target hotspot 1 has cache 0: it can serve nothing new; flows
        // must be dropped, requests spill to the CDN, and the decision
        // still validates.
        let f = Fixture::new(&[(0, 1), (0, 2), (0, 3)], vec![1, 10, 10], vec![10, 0, 10]);
        let input = f.input();
        let decision =
            content_aggregation_replication(&input, &flows(&[(0, 1, 2)]), &RbcaerConfig::default());
        let metrics = SlotMetrics::evaluate(&input, &decision).expect("valid decision");
        assert!(decision.placements[1].is_empty());
        assert_eq!(metrics.hotspot_served, 1, "source still serves up to its capacity");
        assert_eq!(metrics.cdn_served, 2);
    }

    #[test]
    fn zero_flows_degenerate_to_local_serving() {
        let f = Fixture::new(&[(0, 1), (1, 2)], vec![10, 10, 10], vec![10, 10, 10]);
        let input = f.input();
        let decision = content_aggregation_replication(
            &input,
            &BalanceOutcome::default(),
            &RbcaerConfig::default(),
        );
        let metrics = SlotMetrics::evaluate(&input, &decision).expect("valid decision");
        assert_eq!(metrics.hotspot_served, 2);
        assert_eq!(metrics.cdn_served, 0);
        assert!(decision
            .assignments
            .iter()
            .all(|a| matches!(a.target, Target::Hotspot(h) if h == a.from)));
    }

    #[test]
    fn budget_zero_blocks_every_placement() {
        // With B_peak = 0 no replica may be placed anywhere — redirect
        // placements included. The flows are dropped like a full cache
        // (cache_full_target_drops_leftover_flow_gracefully) and every
        // request either rides the source's capacity or spills to the CDN.
        let f = Fixture::new(&[(0, 1), (0, 1), (0, 2), (1, 3)], vec![1, 10, 10], vec![10, 10, 10]);
        let input = f.input();
        let config = RbcaerConfig { replication_budget: Some(0), ..RbcaerConfig::default() };
        let decision = content_aggregation_replication(&input, &flows(&[(0, 1, 2)]), &config);
        let metrics = SlotMetrics::evaluate(&input, &decision).expect("valid decision");
        assert!(decision.placements.iter().all(|p| p.is_empty()), "B_peak = 0 places nothing");
        assert_eq!(decision.replica_count(), 0);
        assert_eq!(metrics.total_requests, 4);
        assert!(metrics.cdn_served > 0, "unplaceable demand spills");
    }

    #[test]
    fn tight_budget_spends_on_aggregative_redirects_first() {
        // B_peak = 1: the single replica goes to the e_u-ranked redirect
        // placement (Phase 1 precedes local fill), then every later
        // placement — including local cache fill — is blocked.
        let f = Fixture::new(&[(0, 1), (0, 1), (0, 2), (1, 3)], vec![1, 10, 10], vec![10, 10, 10]);
        let input = f.input();
        let config = RbcaerConfig { replication_budget: Some(1), ..RbcaerConfig::default() };
        let decision = content_aggregation_replication(&input, &flows(&[(0, 1, 2)]), &config);
        SlotMetrics::evaluate(&input, &decision).expect("valid decision");
        assert_eq!(decision.replica_count(), 1, "exactly the budget is spent");
        assert_eq!(decision.placements[1], vec![VideoId(1)], "the aggregative redirect wins");
        assert!(decision.placements[0].is_empty());
        assert!(decision.placements[2].is_empty());
    }
}
