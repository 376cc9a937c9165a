use ccdn_sim::{Scheme, SlotDecision, SlotInput, Target, COLLABORATION_RADIUS_KM};
use ccdn_trace::{HotspotId, VideoId};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The **Local Random** routing baseline (§V-A; the paper's "Random
/// scheme", after \[5\], \[7\]).
///
/// Each hotspot caches the most popular videos of its 1.5 km
/// neighbourhood (demand summed over all hotspots within the radius,
/// itself included). A request is then routed uniformly at random to a
/// hotspot within the radius that caches the video and still has serving
/// capacity; if none exists it falls through to the CDN server.
///
/// Every instance draws from the same seeded stream, so runs are
/// reproducible.
///
/// # Examples
///
/// ```
/// use ccdn_core::LocalRandom;
/// use ccdn_sim::Runner;
/// use ccdn_trace::TraceConfig;
///
/// let trace = TraceConfig::small_test().generate();
/// let report = Runner::new(&trace).run(&mut LocalRandom::new()).unwrap();
/// assert!(report.total.hotspot_serving_ratio() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct LocalRandom {
    rng: StdRng,
}

/// Seed of every instance's routing stream.
const SEED: u64 = 42;

impl LocalRandom {
    /// Creates the scheme.
    pub fn new() -> Self {
        LocalRandom { rng: StdRng::seed_from_u64(SEED) }
    }
}

impl Default for LocalRandom {
    fn default() -> Self {
        LocalRandom::new()
    }
}

impl Scheme for LocalRandom {
    fn name(&self) -> &str {
        "Random"
    }

    #[allow(clippy::needless_range_loop)] // hotspot ids are the natural loop variable
    fn schedule(&mut self, input: &SlotInput<'_>) -> SlotDecision {
        let n = input.hotspot_count();
        let mut decision = SlotDecision::new(n);

        // 1. Neighbourhood-popularity caching: each hotspot aggregates the
        //    demand of every hotspot within the radius and caches the top
        //    videos that fit.
        let mut placed: Vec<BTreeSet<VideoId>> = vec![BTreeSet::new(); n];
        for j in 0..n {
            if input.cache_capacity[j] == 0 || input.service_capacity[j] == 0 {
                continue;
            }
            let hj = HotspotId(j);
            let mut agg: BTreeMap<VideoId, u64> = BTreeMap::new();
            for vd in input.demand.videos(hj) {
                *agg.entry(vd.video).or_insert(0) += vd.count;
            }
            for i in input.geometry.within_radius(hj, COLLABORATION_RADIUS_KM) {
                for vd in input.demand.videos(i) {
                    *agg.entry(vd.video).or_insert(0) += vd.count;
                }
            }
            let mut by_pop: Vec<(VideoId, u64)> = agg.into_iter().collect();
            by_pop.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            for (video, _) in by_pop.into_iter().take(input.cache_capacity[j] as usize) {
                decision.place(hj, video);
                placed[j].insert(video);
            }
        }

        // 2. Random routing among radius neighbours holding the video.
        let mut capacity_left: Vec<u64> = input.service_capacity.to_vec();
        // (from, video, target) → count, to emit compact assignments.
        let mut batches: BTreeMap<(HotspotId, VideoId, Target), u64> = BTreeMap::new();
        for i in 0..n {
            let hi = HotspotId(i);
            // Neighbour list once per source hotspot.
            let mut neighbourhood = vec![hi];
            neighbourhood.extend(input.geometry.within_radius(hi, COLLABORATION_RADIUS_KM));
            for vd in input.demand.videos(hi) {
                let mut holders: Vec<usize> = neighbourhood
                    .iter()
                    .filter(|h| placed[h.0].contains(&vd.video))
                    .map(|h| h.0)
                    .collect();
                for _ in 0..vd.count {
                    holders.retain(|&h| capacity_left[h] > 0);
                    let target = if holders.is_empty() {
                        Target::Cdn
                    } else {
                        let pick = holders[self.rng.gen_range(0..holders.len())];
                        capacity_left[pick] -= 1;
                        Target::Hotspot(HotspotId(pick))
                    };
                    *batches.entry((hi, vd.video, target)).or_insert(0) += 1;
                }
            }
        }
        let mut batches: Vec<_> = batches.into_iter().collect();
        batches.sort_by_key(|&((from, video, target), _)| {
            (
                from,
                video,
                match target {
                    Target::Hotspot(h) => h.0,
                    Target::Cdn => usize::MAX,
                },
            )
        });
        for ((from, video, target), count) in batches {
            decision.assign(from, video, target, count);
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdn_sim::Runner;
    use ccdn_trace::TraceConfig;

    #[test]
    fn covers_all_demand_and_validates() {
        let trace = TraceConfig::small_test().generate();
        let report = Runner::new(&trace).run(&mut LocalRandom::new()).unwrap();
        assert_eq!(report.total.sums.total_requests, trace.requests.len() as u64);
    }

    #[test]
    fn deterministic_across_instances() {
        let trace = TraceConfig::small_test().generate();
        let a = Runner::new(&trace).run(&mut LocalRandom::new()).unwrap();
        let b = Runner::new(&trace).run(&mut LocalRandom::new()).unwrap();
        assert_eq!(a.total, b.total);
    }
}
