//! Content-similarity clustering of hotspots (§IV-B): Top-`fraction`
//! content sets, Jaccard distance, agglomerative clustering at the
//! configured threshold.

use crate::config::RbcaerConfig;
use ccdn_cluster::cluster_jaccard;
use ccdn_sim::SlotInput;
use ccdn_trace::{HotspotId, VideoId};

/// Assigns every hotspot a cluster id (`cluster_of[h]`) by clustering on
/// `Jd(i, j) = 1 − Jaccard(Top-20 % sets)` with the configured linkage and
/// cut threshold.
///
/// Hotspots with no demand this slot form natural singletons: their
/// content set is empty, making their Jaccard distance 1 to every
/// non-empty set (and 0 to other empty sets — idle hotspots cluster
/// together, harmlessly, since they are never overloaded).
pub(crate) fn content_clusters(input: &SlotInput<'_>, config: &RbcaerConfig) -> Vec<usize> {
    let members: Vec<usize> = (0..input.hotspot_count()).collect();
    content_clusters_subset(input, config, &members).0
}

/// Clusters only the hotspots in `members` and returns one local cluster
/// id per member (`ids[k]` for `members[k]`, ids `0..count` in order of
/// each cluster's first member) plus the cluster `count`. The sharded
/// planner clusters each tile on its own and offsets the ids itself, so
/// no caller needs an `n`-sized buffer per subset.
pub(crate) fn content_clusters_subset(
    input: &SlotInput<'_>,
    config: &RbcaerConfig,
    members: &[usize],
) -> (Vec<usize>, usize) {
    // Every member's Top set back to back in one buffer, ranked through
    // one shared scratch.
    let mut scratch = Vec::new();
    let mut top = Vec::new();
    let mut flat: Vec<VideoId> = Vec::new();
    let mut bounds = vec![0];
    bounds.reserve(members.len());
    for &h in members {
        input.demand.top_videos_into(HotspotId(h), config.top_fraction, &mut scratch, &mut top);
        flat.extend_from_slice(&top);
        bounds.push(flat.len());
    }
    let sets: Vec<&[VideoId]> = bounds.windows(2).map(|w| &flat[w[0]..w[1]]).collect();
    let clusters = cluster_jaccard(&sets, config.linkage, config.cluster_threshold);
    let mut ids = vec![0usize; members.len()];
    for (k, cluster) in clusters.iter().enumerate() {
        for &local in cluster {
            ids[local] = k;
        }
    }
    (ids, clusters.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdn_sim::{HotspotGeometry, SlotDemand};
    use ccdn_trace::{Hotspot, Request, UserId};

    fn input_with_requests(requests: &[Request]) -> (HotspotGeometry, SlotDemand) {
        use ccdn_geo::{Point, Rect};
        let region = Rect::paper_eval_region();
        let hotspots: Vec<Hotspot> = (0..3)
            .map(|i| Hotspot {
                id: HotspotId(i),
                location: Point::new(2.0 + 6.0 * i as f64, 5.0),
                service_capacity: 10,
                cache_capacity: 10,
            })
            .collect();
        let geometry = HotspotGeometry::new(region, &hotspots);
        let demand = SlotDemand::aggregate(requests, &geometry);
        (geometry, demand)
    }

    fn req(x: f64, video: u32) -> Request {
        Request {
            user: UserId(0),
            video: VideoId(video),
            timeslot: 0,
            location: ccdn_geo::Point::new(x, 5.0),
        }
    }

    #[test]
    fn similar_hotspots_share_a_cluster() {
        // Hotspots 0 and 1 request the same videos; hotspot 2 different.
        let mut requests = Vec::new();
        for v in 0..5 {
            requests.push(req(2.0, v));
            requests.push(req(8.0, v));
            requests.push(req(14.0, v + 100));
        }
        let (geometry, demand) = input_with_requests(&requests);
        let service = vec![10, 10, 10];
        let cache = vec![10, 10, 10];
        let input = ccdn_sim::SlotInput {
            geometry: &geometry,
            demand: &demand,
            service_capacity: &service,
            cache_capacity: &cache,
            video_count: 200,
        };
        // Use top_fraction = 1.0 so the sets are the full request sets.
        let config = RbcaerConfig { top_fraction: 1.0, ..RbcaerConfig::default() };
        let clusters = content_clusters(&input, &config);
        assert_eq!(clusters.len(), 3);
        assert_eq!(clusters[0], clusters[1]);
        assert_ne!(clusters[0], clusters[2]);
    }

    #[test]
    fn idle_hotspots_cluster_together_but_apart_from_active() {
        let requests: Vec<Request> = (0..6).map(|v| req(2.0, v)).collect();
        let (geometry, demand) = input_with_requests(&requests);
        let service = vec![10, 10, 10];
        let cache = vec![10, 10, 10];
        let input = ccdn_sim::SlotInput {
            geometry: &geometry,
            demand: &demand,
            service_capacity: &service,
            cache_capacity: &cache,
            video_count: 200,
        };
        let clusters = content_clusters(&input, &RbcaerConfig::default());
        assert_eq!(clusters[1], clusters[2], "both idle");
        assert_ne!(clusters[0], clusters[1], "active vs idle");
    }
}
