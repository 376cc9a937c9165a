//! Procedure 1 — ContentAggregationReplication (§IV-D): turn the
//! balancing flows `f_ij` into concrete per-video redirections and cache
//! placements, maximizing per-video aggregation so the content-replication
//! cost stays low.

use crate::config::RbcaerConfig;
use crate::rbcaer::balancing::BalanceOutcome;
use crate::serving::{serve_locally, LocalServeOutcome};
use ccdn_obs::Counter;
use ccdn_sim::{SlotDecision, SlotDemand, SlotInput, Target, VideoDemand};
use ccdn_trace::{HotspotId, VideoId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Requests redirected to balancing targets (Phases 1 and 2 combined).
static REDIRECTED: Counter = Counter::new("core.procedure.redirected_requests");
/// Replica placements made for incoming redirections (Phases 1 and 2;
/// Phase 3's local cache fill is `core.procedure.local_placements`).
static PLACEMENTS: Counter = Counter::new("core.procedure.placements");
/// Units of the `B_peak` replication budget consumed by Phases 1 and 2.
static BUDGET_SPENT: Counter = Counter::new("core.procedure.budget_spent");
/// `e_u`-ranked candidates skipped because the budget was exhausted.
static BUDGET_BLOCKED: Counter = Counter::new("core.procedure.budget_blocked");

/// What one Procedure 1 call did: the totals behind its six
/// `core.procedure.*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Work {
    redirected: u64,
    placements: u64,
    budget_spent: u64,
    budget_blocked: u64,
    /// Phase 3: local serving and cache fill at every hotspot.
    local: LocalServeOutcome,
}

impl Work {
    /// Adds the totals to the counters, one atomic add each.
    fn add_to_counters(&self) {
        REDIRECTED.add(self.redirected);
        PLACEMENTS.add(self.placements);
        BUDGET_SPENT.add(self.budget_spent);
        BUDGET_BLOCKED.add(self.budget_blocked);
        self.local.add_to_counters();
    }
}

/// Remaining local demand: `λ_hv` minus what was redirected away, one
/// video-sorted row per hotspot (the aggregation order). Only the flows'
/// sources lose demand, so only their rows are copied, into one buffer;
/// every other row is the slot's own.
struct DemandRows<'a> {
    demand: &'a SlotDemand,
    /// The sources, ascending; source `k`'s row is
    /// `items[starts[k]..starts[k + 1]]`.
    sources: Vec<HotspotId>,
    items: Vec<VideoDemand>,
    starts: Vec<usize>,
}

impl<'a> DemandRows<'a> {
    fn new(demand: &'a SlotDemand, flows: &[Flow]) -> Self {
        let mut sources: Vec<HotspotId> = flows.iter().map(|flow| flow.i).collect();
        sources.dedup();
        let total = sources.iter().map(|&i| demand.videos(i).len()).sum();
        let mut items = Vec::with_capacity(total);
        let mut starts = Vec::with_capacity(sources.len() + 1);
        starts.push(0);
        for &i in &sources {
            items.extend_from_slice(demand.videos(i));
            starts.push(items.len());
        }
        DemandRows { demand, sources, items, starts }
    }

    fn row_of(&self, h: HotspotId) -> &[VideoDemand] {
        match self.sources.binary_search(&h) {
            Ok(k) => &self.items[self.starts[k]..self.starts[k + 1]],
            Err(_) => self.demand.videos(h),
        }
    }

    /// Source `i`'s row (empty for a hotspot that sends no flow).
    fn row_of_mut(&mut self, i: HotspotId) -> &mut [VideoDemand] {
        match self.sources.binary_search(&i) {
            Ok(k) => &mut self.items[self.starts[k]..self.starts[k + 1]],
            Err(_) => &mut [],
        }
    }
}

/// One residual balancing flow `f_ij`.
#[derive(Debug, Clone, Copy)]
struct Flow {
    i: HotspotId,
    j: HotspotId,
    f: u64,
}

/// A balancing target `j` and the flows into it: `into[start..end]`,
/// sources ascending.
struct Sink {
    j: HotspotId,
    start: usize,
    end: usize,
}

/// Packs a ranked candidate `(v, j)` into one integer, so that the
/// max-heap orders it with a single comparison: `e_u` in the high half,
/// then the video and `g`, the target's position in `sinks`, both
/// bit-inverted so that smaller ids pop first. The packing is exact:
/// `VideoId` is a `u32`, and `g` is at most the target's hotspot id,
/// which fits in a `u32` because a deployment's grid index refuses more
/// than `u32::MAX` hotspots.
fn rank_key(eu: u64, video: VideoId, g: usize) -> u128 {
    (u128::from(eu) << 64) | (u128::from(!video.0) << 32) | u128::from(!(g as u32))
}

/// The video and target position packed into a [`rank_key`].
fn candidate(key: u128) -> (VideoId, usize) {
    (VideoId(!((key >> 32) as u32)), !(key as u32) as usize)
}

/// Cache state while Procedure 1 places replicas: each hotspot's pinned
/// videos as a sorted row, its free cache slots, and the replication
/// budget left (`None`: unbounded).
struct Caches {
    pinned: Vec<Vec<VideoId>>,
    free: Vec<u64>,
    budget: Option<u64>,
}

impl Caches {
    /// Whether `video` is pinned at `h`.
    fn holds(&self, h: HotspotId, video: VideoId) -> bool {
        self.pinned[h.0].binary_search(&video).is_ok()
    }

    /// Whether `h` can take a *new* placement: it needs both a free cache
    /// slot and budget left, because `B_peak` bounds every placement
    /// (Procedure 1 line 15), not just local fill.
    fn has_room(&self, h: HotspotId) -> bool {
        self.free[h.0] > 0 && self.budget != Some(0)
    }

    /// Places `video` at `h` for its incoming redirections, spending a
    /// cache slot and a unit of budget.
    fn pin(&mut self, decision: &mut SlotDecision, work: &mut Work, h: HotspotId, video: VideoId) {
        let row = &mut self.pinned[h.0];
        if let Err(at) = row.binary_search(&video) {
            row.insert(at, video);
        }
        self.free[h.0] -= 1;
        decision.place(h, video);
        work.placements += 1;
        if let Some(b) = &mut self.budget {
            #[cfg(feature = "strict-invariants")]
            debug_assert!(*b > 0, "strict-invariants: placement budget decrement saturated");
            *b = b.saturating_sub(1);
            work.budget_spent += 1;
        }
    }
}

/// Runs Procedure 1 on the balancing outcome and, with the
/// `strict-invariants` feature, checks the plan against
/// [`crate::validate::check_plan`], aborting on a violation. Flat and
/// sharded RBCAer both turn their flows into a decision here.
pub(crate) fn run(
    input: &SlotInput<'_>,
    balance: &BalanceOutcome,
    config: &RbcaerConfig,
) -> SlotDecision {
    let (decision, work) = content_aggregation_replication(input, balance, config);
    work.add_to_counters();
    #[cfg(feature = "strict-invariants")]
    if let Err(violation) = crate::validate::check_plan(input, config, balance, &decision) {
        // lint: allow(no-panic): strict-invariants deliberately aborts on a violated invariant
        panic!("strict-invariants: RBCAer plan violates feasibility: {violation}");
    }
    decision
}

/// Executes Procedure 1 and assembles the slot decision. Flow a target
/// cannot take (no cache room or budget left) is dropped, and its
/// requests are served locally or by the CDN.
fn content_aggregation_replication(
    input: &SlotInput<'_>,
    balance: &BalanceOutcome,
    config: &RbcaerConfig,
) -> (SlotDecision, Work) {
    let n = input.hotspot_count();
    let mut decision = SlotDecision::new(n);
    let mut work = Work::default();

    // Residual flows f_ij in `balance.flows` order (i, j). `into` lists
    // them by target, sources ascending within one (the sort is stable),
    // and `sinks[g]` is the g-th target j with its run of `into`.
    let mut flows: Vec<Flow> = balance.flows.iter().map(|(&(i, j), &f)| Flow { i, j, f }).collect();
    let mut into: Vec<usize> = (0..flows.len()).collect();
    into.sort_by_key(|&k| flows[k].j);
    let mut sinks: Vec<Sink> = Vec::new();
    for (at, &k) in into.iter().enumerate() {
        let j = flows[k].j;
        match sinks.last_mut() {
            Some(sink) if sink.j == j => sink.end = at + 1,
            _ => sinks.push(Sink { j, start: at, end: at + 1 }),
        }
    }
    let mut remaining = DemandRows::new(input.demand, &flows);

    // Efficiency index e_u(v, j) = Σ_i min(f_ij, λ_iv): how much of video
    // v's demand could aggregate at target j (Procedure 1 lines 1–7).
    // Each target's terms come from its sources' video-sorted rows; a
    // stable sort by video merges those runs, and equal videos sum.
    //
    // The list is ranked lazily: a max-heap pops e_u descending, then
    // (v, j) ascending (`sinks` ascend by j, so g orders as j does), and
    // Phase 1 pops only until every flow is placed.
    //
    // With content aggregation disabled (the DESIGN.md ablation), the
    // e_u-guided phase is skipped entirely and every flow is realized by
    // the per-pair greedy phase below — i.e. pure load balancing with
    // arbitrary video selection.
    let mut ranked: Vec<u128> = Vec::new();
    if config.content_aggregation {
        let mut terms: Vec<(VideoId, u64)> = Vec::new();
        for (g, sink) in sinks.iter().enumerate() {
            terms.clear();
            for &k in &into[sink.start..sink.end] {
                let Flow { i, f, .. } = flows[k];
                terms.extend(
                    remaining
                        .row_of(i)
                        .iter()
                        .map(|d| (d.video, f.min(d.count)))
                        .filter(|&(_, ef)| ef > 0),
                );
            }
            terms.sort_by_key(|&(video, _)| video);
            for same in terms.chunk_by(|a, b| a.0 == b.0) {
                let eu = same.iter().map(|&(_, ef)| ef).sum();
                ranked.push(rank_key(eu, same[0].0, g));
            }
        }
    }
    let mut ranked = BinaryHeap::from(ranked);

    let mut caches = Caches {
        pinned: vec![Vec::new(); n],
        free: input.cache_capacity.to_vec(),
        budget: config.replication_budget,
    };
    let mut incoming: Vec<u64> = vec![0; n];
    // Redirection batches (i, v, j, count), summed per (i, v, j) before
    // emission.
    let mut redirects: Vec<(HotspotId, VideoId, HotspotId, u64)> = Vec::new();

    // Phase 1: consume the e_u-ranked list (lines 8–13) until all f_ij
    // are satisfied. Redirecting (v', j') moves v'-demand from *all* of
    // j'-s sources at once, aggregating one video into one cache slot.
    // Each (v, j) is ranked once and nothing is placed before this phase,
    // so j never holds a candidate's video yet: every candidate needs a
    // new placement.
    let mut flows_left = flows.iter().filter(|flow| flow.f > 0).count();
    while flows_left > 0 {
        let Some(key) = ranked.pop() else { break };
        let (video, g) = candidate(key);
        let Sink { j, start, end } = sinks[g];
        if caches.free[j.0] == 0 {
            continue;
        }
        if caches.budget == Some(0) {
            work.budget_blocked += 1;
            continue;
        }
        let mut moved_any = false;
        for &k in &into[start..end] {
            let flow = &mut flows[k];
            if flow.f == 0 {
                continue;
            }
            let row = remaining.row_of_mut(flow.i);
            let Ok(slot) = row.binary_search_by_key(&video, |d| d.video) else { continue };
            let demand = &mut row[slot].count;
            let m = flow.f.min(*demand);
            if m == 0 {
                continue;
            }
            flow.f -= m;
            if flow.f == 0 {
                flows_left -= 1;
            }
            *demand -= m;
            redirects.push((flow.i, video, j, m));
            incoming[j.0] += m;
            work.redirected += m;
            moved_any = true;
        }
        if moved_any {
            caches.pin(&mut decision, &mut work, j, video);
        }
    }
    // Once every f_ij is 0 no candidate left can move a request, so none
    // changes the plan. A spent budget would still block each one whose
    // target has a free slot; the state no longer changes, so they count
    // in any order.
    if caches.budget == Some(0) {
        let blocked = ranked.iter().filter(|&&key| caches.free[sinks[candidate(key).1].j.0] > 0);
        work.budget_blocked += blocked.count() as u64;
    }

    // Phase 2: leftover flows (demand shifted under other targets while
    // this one waited), in (i, j) order. Greedily move whatever video
    // still has demand, preferring videos j already caches; drop the flow
    // when j's cache is full and nothing cached matches (the requests then
    // stay home and may spill to the CDN — strictly no worse than never
    // balancing).
    for &Flow { i, j, f } in &flows {
        let mut fij = f;
        while fij > 0 {
            // Most-demanded video at i that j can take.
            let mut best: Option<(usize, VideoId, u64, bool)> = None;
            for (slot, &VideoDemand { video, count: demand }) in
                remaining.row_of(i).iter().enumerate()
            {
                if demand == 0 {
                    continue;
                }
                let cached = caches.holds(j, video);
                // An exhausted budget behaves like a full cache: only
                // videos j already holds stay candidates, the rest of the
                // flow is dropped (requests stay home / spill to the CDN).
                if !cached && !caches.has_room(j) {
                    continue;
                }
                let better = match best {
                    None => true,
                    // Prefer cached videos, then higher demand, then id.
                    // The balance-only ablation drops the cached
                    // preference: video choice ignores the replication it
                    // causes, as a content-blind balancer would.
                    Some((_, bv, bd, bc)) => {
                        if config.content_aggregation {
                            (cached, demand, Reverse(video)) > (bc, bd, Reverse(bv))
                        } else {
                            (demand, Reverse(video)) > (bd, Reverse(bv))
                        }
                    }
                };
                if better {
                    best = Some((slot, video, demand, cached));
                }
            }
            let Some((slot, video, demand, cached)) = best else { break };
            let m = fij.min(demand);
            fij -= m;
            remaining.row_of_mut(i)[slot].count -= m;
            redirects.push((i, video, j, m));
            incoming[j.0] += m;
            work.redirected += m;
            if !cached {
                caches.pin(&mut decision, &mut work, j, video);
            }
        }
    }

    // Emit redirection assignments, one per (i, v, j) in that order.
    redirects.sort_unstable_by_key(|&(i, video, j, _)| (i, video, j));
    for batch in redirects.chunk_by(|a, b| (a.0, a.1, a.2) == (b.0, b.1, b.2)) {
        let (i, video, j, _) = batch[0];
        let count = batch.iter().map(|&(.., m)| m).sum();
        decision.assign(i, video, Target::Hotspot(j), count);
    }

    // Phase 3: local serving + remaining cache fill at every hotspot
    // (Procedure 1 lines 14–18, with `B_peak` as the budget).
    let mut by_popularity = Vec::new();
    for (h, &arriving) in incoming.iter().enumerate() {
        let hid = HotspotId(h);
        let capacity_left = input.service_capacity[h].saturating_sub(arriving);
        work.local.absorb(serve_locally(
            &mut decision,
            hid,
            remaining.row_of(hid),
            &caches.pinned[h],
            caches.free[h],
            capacity_left,
            &mut caches.budget,
            &mut by_popularity,
        ));
    }

    (decision, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdn_geo::{Point, Rect};
    use ccdn_sim::{HotspotGeometry, SlotDemand, SlotMetrics};
    use ccdn_trace::{Hotspot, Request, UserId};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn plan(
        input: &SlotInput<'_>,
        balance: &BalanceOutcome,
        config: &RbcaerConfig,
    ) -> SlotDecision {
        content_aggregation_replication(input, balance, config).0
    }

    /// Procedure 1 as it was written on tree containers: the `e_u` list
    /// sorted whole and walked to its end, placed videos in a `BTreeSet`
    /// per hotspot, redirects in a `(i, v, j)`-keyed `BTreeMap`, and local
    /// serving on a popularity sort with an explicit video tie-break. The
    /// differential proptest below holds the flat body to it.
    fn reference(
        input: &SlotInput<'_>,
        balance: &BalanceOutcome,
        config: &RbcaerConfig,
    ) -> (SlotDecision, Work) {
        let n = input.hotspot_count();
        let mut decision = SlotDecision::new(n);
        let mut work = Work::default();
        let mut remaining: Vec<Vec<(VideoId, u64)>> = (0..n)
            .map(|h| {
                input.demand.videos(HotspotId(h)).iter().map(|vd| (vd.video, vd.count)).collect()
            })
            .collect();
        let demand_slot = |list: &[(VideoId, u64)], video: VideoId| {
            list.binary_search_by_key(&video, |&(v, _)| v).ok()
        };
        let mut f: BTreeMap<(HotspotId, HotspotId), u64> = balance.flows.clone();
        let mut sources_of: BTreeMap<HotspotId, Vec<HotspotId>> = BTreeMap::new();
        for &(i, j) in f.keys() {
            sources_of.entry(j).or_default().push(i);
        }
        let mut eu: BTreeMap<(VideoId, HotspotId), u64> = BTreeMap::new();
        if config.content_aggregation {
            for (&(i, j), &fij) in &f {
                for &(video, demand) in &remaining[i.0] {
                    if fij.min(demand) > 0 {
                        *eu.entry((video, j)).or_insert(0) += fij.min(demand);
                    }
                }
            }
        }
        let mut eu: Vec<((VideoId, HotspotId), u64)> = eu.into_iter().collect();
        eu.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        let mut placed: Vec<BTreeSet<VideoId>> = vec![BTreeSet::new(); n];
        let mut cache_left: Vec<u64> = input.cache_capacity.to_vec();
        let mut incoming: Vec<u64> = vec![0; n];
        let mut budget = config.replication_budget;
        let mut redirects: BTreeMap<(HotspotId, VideoId, HotspotId), u64> = BTreeMap::new();

        for &((video, j), _) in &eu {
            let already = placed[j.0].contains(&video);
            if !already && cache_left[j.0] == 0 {
                continue;
            }
            if !already && budget == Some(0) {
                work.budget_blocked += 1;
                continue;
            }
            let mut moved_any = false;
            for &i in &sources_of[&j] {
                let fij = f.get_mut(&(i, j)).expect("listed flow");
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
                work.redirected += m;
                moved_any = true;
            }
            if moved_any && !already {
                placed[j.0].insert(video);
                cache_left[j.0] -= 1;
                decision.place(j, video);
                work.placements += 1;
                if let Some(b) = &mut budget {
                    *b = b.saturating_sub(1);
                    work.budget_spent += 1;
                }
            }
        }

        let leftover: Vec<((HotspotId, HotspotId), u64)> =
            f.iter().filter(|&(_, &v)| v > 0).map(|(&k, &v)| (k, v)).collect();
        for ((i, j), mut fij) in leftover {
            while fij > 0 {
                let mut best: Option<(VideoId, u64, bool)> = None;
                for &(video, demand) in &remaining[i.0] {
                    if demand == 0 {
                        continue;
                    }
                    let cached = placed[j.0].contains(&video);
                    if !cached && (cache_left[j.0] == 0 || budget == Some(0)) {
                        continue;
                    }
                    let better = match best {
                        None => true,
                        Some((bv, bd, bc)) => {
                            if config.content_aggregation {
                                (cached, demand, Reverse(video)) > (bc, bd, Reverse(bv))
                            } else {
                                (demand, Reverse(video)) > (bd, Reverse(bv))
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
                work.redirected += m;
                if !cached {
                    placed[j.0].insert(video);
                    cache_left[j.0] -= 1;
                    decision.place(j, video);
                    work.placements += 1;
                    if let Some(b) = &mut budget {
                        *b = b.saturating_sub(1);
                        work.budget_spent += 1;
                    }
                }
            }
        }

        for ((i, video, j), count) in redirects {
            decision.assign(i, video, Target::Hotspot(j), count);
        }

        for h in 0..n {
            let hid = HotspotId(h);
            let mut cache_slots_left = cache_left[h];
            let mut capacity_left = input.service_capacity[h].saturating_sub(incoming[h]);
            let mut by_popularity: Vec<(VideoId, u64)> =
                remaining[h].iter().copied().filter(|&(_, c)| c > 0).collect();
            by_popularity.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            for (video, count) in by_popularity {
                let mut local = placed[h].contains(&video);
                if !local && cache_slots_left > 0 && capacity_left > 0 {
                    let budget_ok = match &mut budget {
                        Some(b) if *b > 0 => {
                            *b -= 1;
                            true
                        }
                        Some(_) => false,
                        None => true,
                    };
                    if budget_ok {
                        decision.place(hid, video);
                        cache_slots_left -= 1;
                        local = true;
                        work.local.placed += 1;
                    } else {
                        work.local.budget_blocked += 1;
                    }
                }
                let served = if local { count.min(capacity_left) } else { 0 };
                if served > 0 {
                    decision.assign(hid, video, Target::Hotspot(hid), served);
                    capacity_left -= served;
                    work.local.served += served;
                }
                if count > served {
                    decision.assign(hid, video, Target::Cdn, count - served);
                    work.local.to_cdn += count - served;
                }
            }
        }
        (decision, work)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The flat body makes the reference's decision, assignment order
        /// included, and the same six counter totals, over random flows,
        /// demand rows, capacities and budgets, with aggregation on and
        /// off. The flows need not be a feasible balancing outcome (a
        /// hotspot may send and receive, or receive beyond its capacity):
        /// the two bodies must agree on any input.
        #[test]
        fn prop_flat_body_matches_the_tree_reference(
            flows in prop::collection::vec((0usize..6, 0usize..6, 0u64..24), 0..8),
            requests in prop::collection::vec((0usize..6, 0u32..80), 0..400),
            videos in 1u32..80,
            service in prop::collection::vec(0u64..14, 6),
            cache in prop::collection::vec(0u64..5, 6),
            budget in prop::sample::select(vec![None, Some(0), Some(1), Some(2), Some(3), Some(6)]),
            content_aggregation in any::<bool>(),
        ) {
            // Few videos make long-tailed counts that one redirect can
            // exhaust; many make long rows with tied counts.
            let requests: Vec<(usize, u32)> =
                requests.iter().map(|&(h, v)| (h, v % videos)).collect();
            let fixture = Fixture::new(&requests, service, cache);
            let input = fixture.input();
            let flows: BTreeMap<(HotspotId, HotspotId), u64> = flows
                .iter()
                .filter(|&&(i, j, _)| i != j)
                .map(|&(i, j, f)| ((HotspotId(i), HotspotId(j)), f))
                .collect();
            let moved = flows.values().sum();
            let balance = BalanceOutcome { flows, moved, max_movable: moved };
            let config = RbcaerConfig {
                replication_budget: budget,
                content_aggregation,
                ..RbcaerConfig::default()
            };
            let (decision, work) = content_aggregation_replication(&input, &balance, &config);
            let (want_decision, want_work) = reference(&input, &balance, &config);
            prop_assert_eq!(&decision, &want_decision);
            prop_assert_eq!(work, want_work);
        }
    }

    /// The placement that spends the last unit of budget also satisfies
    /// the last flow: Phase 1 stops there, and the candidates it never
    /// pops still count as budget-blocked wherever their target has a
    /// free slot.
    #[test]
    fn candidates_left_after_the_last_flow_count_as_budget_blocked() {
        // Hotspot 0 sends 2 requests to 1; v1 ranks first (e_u 2), v2 and
        // v3 follow (e_u 1 each).
        let f = Fixture::new(&[(0, 1), (0, 1), (0, 2), (0, 3)], vec![1, 10, 10], vec![10, 10, 10]);
        let input = f.input();
        let config = RbcaerConfig { replication_budget: Some(1), ..RbcaerConfig::default() };
        let balance = flows(&[(0, 1, 2)]);
        let (decision, work) = content_aggregation_replication(&input, &balance, &config);
        assert_eq!(decision.placements[1], vec![VideoId(1)]);
        assert_eq!(work.budget_blocked, 2, "v2 and v3 at hotspot 1 stay unpopped");
        assert_eq!(work, reference(&input, &balance, &config).1);
    }

    /// One hotspot per service capacity (three in most tests), in a row
    /// 1 km apart; requests pinned at hotspot locations so aggregation is
    /// unambiguous.
    struct Fixture {
        geometry: HotspotGeometry,
        demand: SlotDemand,
        service: Vec<u64>,
        cache: Vec<u64>,
    }

    impl Fixture {
        fn new(requests: &[(usize, u32)], service: Vec<u64>, cache: Vec<u64>) -> Self {
            let region = Rect::paper_eval_region();
            let hotspots: Vec<Hotspot> = (0..service.len())
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
        let decision = plan(&input, &flows(&[(0, 1, 2)]), &RbcaerConfig::default());
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
        let decision = plan(&input, &flows(&[(0, 1, 2), (2, 1, 2)]), &RbcaerConfig::default());
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
        let decision = plan(&input, &flows(&[(0, 1, 2)]), &RbcaerConfig::default());
        let metrics = SlotMetrics::evaluate(&input, &decision).expect("valid decision");
        assert!(decision.placements[1].is_empty());
        assert_eq!(metrics.hotspot_served, 1, "source still serves up to its capacity");
        assert_eq!(metrics.cdn_served, 2);
    }

    #[test]
    fn zero_flows_degenerate_to_local_serving() {
        let f = Fixture::new(&[(0, 1), (1, 2)], vec![10, 10, 10], vec![10, 10, 10]);
        let input = f.input();
        let decision = plan(&input, &BalanceOutcome::default(), &RbcaerConfig::default());
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
        let decision = plan(&input, &flows(&[(0, 1, 2)]), &config);
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
        let decision = plan(&input, &flows(&[(0, 1, 2)]), &config);
        SlotMetrics::evaluate(&input, &decision).expect("valid decision");
        assert_eq!(decision.replica_count(), 1, "exactly the budget is spent");
        assert_eq!(decision.placements[1], vec![VideoId(1)], "the aggregative redirect wins");
        assert!(decision.placements[0].is_empty());
        assert!(decision.placements[2].is_empty());
    }
}
