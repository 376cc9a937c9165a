use ccdn_obs::Counter;
use ccdn_sim::{SlotDecision, Target, VideoDemand};
use ccdn_trace::{HotspotId, VideoId};
use std::cmp::Reverse;

/// Local cache-fill placements (the Phase 3 / scheme-tail placements).
static LOCAL_PLACEMENTS: Counter = Counter::new("core.procedure.local_placements");
/// Local placements skipped because the replication budget was spent.
static LOCAL_BUDGET_BLOCKED: Counter = Counter::new("core.procedure.local_budget_blocked");

/// Outcome of [`serve_locally`] at one hotspot, or summed over several.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct LocalServeOutcome {
    /// Requests served at the hotspot.
    pub served: u64,
    /// Requests pushed to the CDN server.
    pub to_cdn: u64,
    /// New cache placements.
    pub placed: u64,
    /// New placements skipped because the replication budget was spent.
    pub budget_blocked: u64,
}

impl LocalServeOutcome {
    /// Adds another hotspot's outcome to this one.
    pub(crate) fn absorb(&mut self, other: LocalServeOutcome) {
        self.served += other.served;
        self.to_cdn += other.to_cdn;
        self.placed += other.placed;
        self.budget_blocked += other.budget_blocked;
    }

    /// Adds the placement totals to the `core.procedure.local_*` counters.
    pub(crate) fn add_to_counters(&self) {
        LOCAL_PLACEMENTS.add(self.placed);
        LOCAL_BUDGET_BLOCKED.add(self.budget_blocked);
    }
}

/// Greedy local serving and cache fill at one hotspot — the common tail of
/// every scheme: once redirections are fixed, each hotspot serves its own
/// remaining demand most-popular-first (ties by video id), caching videos
/// as cache slots (and the optional replication budget) allow, and spills
/// the rest to the CDN.
///
/// `demand` is the remaining local demand (`λ_hv` minus whatever was
/// redirected away), sorted by video with each video once, as
/// [`SlotDemand`](ccdn_sim::SlotDemand) rows are; `already_placed` are
/// the videos previously pinned into `h`'s cache this slot (e.g. by
/// Procedure 1 for incoming redirections), sorted — they can be served
/// without consuming a new cache slot. New placements are appended to
/// `decision` and consume `cache_slots_left` and one unit of
/// `replication_budget` each; a video is only newly placed while some
/// serving capacity remains (placing an unservable video would be pure
/// replication waste). `by_popularity` is scratch space, so a loop over
/// hotspots reuses one buffer.
#[allow(clippy::too_many_arguments)]
pub(crate) fn serve_locally(
    decision: &mut SlotDecision,
    h: HotspotId,
    demand: &[VideoDemand],
    already_placed: &[VideoId],
    mut cache_slots_left: u64,
    mut capacity_left: u64,
    replication_budget: &mut Option<u64>,
    by_popularity: &mut Vec<VideoDemand>,
) -> LocalServeOutcome {
    // `demand` ascends by video, so a stable sort on the count alone
    // orders by count descending, then video ascending.
    by_popularity.clear();
    by_popularity.extend(demand.iter().filter(|d| d.count > 0));
    by_popularity.sort_by_key(|d| Reverse(d.count));

    let mut outcome = LocalServeOutcome::default();
    for &VideoDemand { video, count } in by_popularity.iter() {
        let mut placed = already_placed.binary_search(&video).is_ok();
        if !placed && cache_slots_left > 0 && capacity_left > 0 {
            let budget_ok = match replication_budget {
                Some(b) => {
                    if *b > 0 {
                        *b -= 1;
                        true
                    } else {
                        false
                    }
                }
                None => true,
            };
            if budget_ok {
                decision.place(h, video);
                cache_slots_left -= 1;
                placed = true;
                outcome.placed += 1;
            } else {
                outcome.budget_blocked += 1;
            }
        }
        let served = if placed { count.min(capacity_left) } else { 0 };
        if served > 0 {
            decision.assign(h, video, Target::Hotspot(h), served);
            capacity_left -= served;
            outcome.served += served;
        }
        let spill = count - served;
        if spill > 0 {
            decision.assign(h, video, Target::Cdn, spill);
            outcome.to_cdn += spill;
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand() -> Vec<VideoDemand> {
        [(1, 5), (2, 3), (3, 1)]
            .into_iter()
            .map(|(v, count)| VideoDemand { video: VideoId(v), count })
            .collect()
    }

    /// `serve_locally` at hotspot 0 of a one-hotspot decision.
    fn serve(
        d: &mut SlotDecision,
        demand: &[VideoDemand],
        pinned: &[VideoId],
        cache: u64,
        capacity: u64,
        budget: &mut Option<u64>,
    ) -> LocalServeOutcome {
        serve_locally(d, HotspotId(0), demand, pinned, cache, capacity, budget, &mut Vec::new())
    }

    #[test]
    fn serves_most_popular_first_under_tight_capacity() {
        let mut d = SlotDecision::new(1);
        let out = serve(&mut d, &demand(), &[], 10, 6, &mut None);
        assert_eq!(out.served, 6);
        assert_eq!(out.to_cdn, 3);
        // v1 fully served, v2 partially (1 of 3), v3 unserved but not placed
        // (capacity exhausted).
        let placed: Vec<VideoId> = d.placements[0].clone();
        assert_eq!(placed, vec![VideoId(1), VideoId(2)]);
        assert_eq!(out.placed, 2);
    }

    #[test]
    fn equal_counts_serve_in_video_order() {
        let mut d = SlotDecision::new(1);
        let demand: Vec<VideoDemand> = [(2, 1), (4, 3), (6, 1), (8, 3)]
            .into_iter()
            .map(|(v, count)| VideoDemand { video: VideoId(v), count })
            .collect();
        let mut scratch = vec![VideoDemand { video: VideoId(9), count: 9 }];
        serve_locally(&mut d, HotspotId(0), &demand, &[], 10, 100, &mut None, &mut scratch);
        let order: Vec<u32> = d.assignments.iter().map(|a| a.video.0).collect();
        assert_eq!(order, [4, 8, 2, 6], "count descending, then video ascending");
    }

    #[test]
    fn cache_limit_spills_to_cdn() {
        let mut d = SlotDecision::new(1);
        let out = serve(&mut d, &demand(), &[], 1, 100, &mut None);
        assert_eq!(out.served, 5);
        assert_eq!(out.to_cdn, 4);
        assert_eq!(d.placements[0], vec![VideoId(1)]);
    }

    #[test]
    fn already_placed_videos_consume_no_cache_slot() {
        let mut d = SlotDecision::new(1);
        let out = serve(&mut d, &demand(), &[VideoId(2)], 1, 100, &mut None);
        // v1 takes the single slot; v2 rides the pinned placement; v3 spills.
        assert_eq!(out.served, 8);
        assert_eq!(out.to_cdn, 1);
        assert_eq!(d.placements[0], vec![VideoId(1)]);
    }

    #[test]
    fn replication_budget_caps_new_placements() {
        let mut d = SlotDecision::new(1);
        let mut budget = Some(1);
        let out = serve(&mut d, &demand(), &[], 10, 100, &mut budget);
        assert_eq!(d.placements[0].len(), 1);
        assert_eq!(out.served, 5);
        assert_eq!(out.to_cdn, 4);
        assert_eq!((out.placed, out.budget_blocked), (1, 2));
        assert_eq!(budget, Some(0));
    }

    #[test]
    fn zero_capacity_serves_nothing_and_places_nothing() {
        let mut d = SlotDecision::new(1);
        let out = serve(&mut d, &demand(), &[], 10, 0, &mut None);
        assert_eq!(out.served, 0);
        assert_eq!(out.to_cdn, 9);
        assert!(d.placements[0].is_empty());
    }

    #[test]
    fn zero_count_entries_are_ignored() {
        let mut d = SlotDecision::new(1);
        let zero = [VideoDemand { video: VideoId(1), count: 0 }];
        let out = serve(&mut d, &zero, &[], 10, 10, &mut None);
        assert_eq!(out, LocalServeOutcome::default());
        assert!(d.assignments.is_empty());
    }
}
