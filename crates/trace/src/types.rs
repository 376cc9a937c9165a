use ccdn_geo::{Point, Rect};
use std::fmt;

/// Identifier of a video in the catalog.
///
/// Videos are unit-sized, matching the paper's model where "each video has
/// an identical size 1" (§III — videos can be split into equal chunks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VideoId(pub u32);

impl fmt::Display for VideoId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of a content hotspot (an edge device such as a smart Wi-Fi
/// AP). Indexes into [`Trace::hotspots`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HotspotId(pub usize);

impl fmt::Display for HotspotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// Identifier of a user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(pub u32);

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// A content hotspot: location plus per-timeslot service capacity and
/// cache capacity, mirroring `s_h` and `c_h` of the paper's system model
/// (§III-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hotspot {
    /// The hotspot's id (equal to its index in [`Trace::hotspots`]).
    pub id: HotspotId,
    /// Geographic location.
    pub location: Point,
    /// Requests it can serve per timeslot (`s_h`).
    pub service_capacity: u32,
    /// Videos it can cache (`c_h`); each video is unit-sized.
    pub cache_capacity: u32,
}

/// One video request: a user at a location asking for a video during a
/// timeslot. Mirrors the fields of the paper's session trace (user id,
/// timestamp, video title, GPS location).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// The requesting user.
    pub user: UserId,
    /// The requested video.
    pub video: VideoId,
    /// Timeslot index (hour of day for the default 24-slot day).
    pub timeslot: u32,
    /// Where the user is watching from.
    pub location: Point,
}

/// A complete synthetic trace: the region, the hotspot deployment, the
/// request log, and catalog metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Evaluation region.
    pub region: Rect,
    /// Deployed content hotspots, indexed by [`HotspotId`].
    pub hotspots: Vec<Hotspot>,
    /// All requests, sorted by timeslot.
    pub requests: Vec<Request>,
    /// Number of distinct videos in the catalog.
    pub video_count: usize,
    /// Number of timeslots in the trace (requests have
    /// `timeslot < slot_count`); equals `days × slots_per_day` for
    /// multi-day traces.
    pub slot_count: u32,
    /// Timeslots per simulated day (used by seasonal predictors).
    pub slots_per_day: u32,
}

impl Trace {
    /// Requests belonging to timeslot `slot`, as a sub-slice (requests are
    /// sorted by timeslot at generation).
    pub fn slot_requests(&self, slot: u32) -> &[Request] {
        let start = self.requests.partition_point(|r| r.timeslot < slot);
        let end = self.requests.partition_point(|r| r.timeslot <= slot);
        &self.requests[start..end]
    }

    /// Distinct videos actually requested in the trace.
    pub fn requested_video_count(&self) -> usize {
        let mut ids: Vec<u32> = self.requests.iter().map(|r| r.video.0).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

/// Stable counting sort of the concatenation of `parts` by `key`: the
/// items come out by ascending key, equal keys in input order, as a
/// stable `sort_by_key` over the concatenation orders them. One counting
/// pass sizes the buckets; the scatter pass then moves every part into
/// the one output vector and frees the part, so no third full-size buffer
/// exists. Memory is the items plus one counter per key.
///
/// Keys are expected in `0..keys`; a larger key sorts into the last
/// bucket instead of panicking.
pub(crate) fn bucket_sort<T: Copy>(
    parts: Vec<Vec<T>>,
    keys: usize,
    key: impl Fn(&T) -> usize,
) -> Vec<T> {
    let last = keys.saturating_sub(1);
    let bucket = |item: &T| key(item).min(last);
    // `next[k]`: items in buckets below `k`, then, while scattering, the
    // position the next item of bucket `k` goes to.
    let mut next = vec![0usize; last.saturating_add(2)];
    for item in parts.iter().flatten() {
        if let Some(count) = next.get_mut(bucket(item).saturating_add(1)) {
            *count = count.saturating_add(1);
        }
    }
    let mut len = 0usize;
    for start in &mut next {
        len = len.saturating_add(*start);
        *start = len;
    }
    let Some(&fill) = parts.iter().flatten().next() else {
        return Vec::new();
    };
    let mut sorted = vec![fill; len];
    for part in parts {
        for item in part {
            if let Some(at) = next.get_mut(bucket(&item)) {
                if let Some(slot) = sorted.get_mut(*at) {
                    *slot = item;
                }
                *at = at.saturating_add(1);
            }
        }
    }
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let region = Rect::paper_eval_region();
        Trace {
            region,
            hotspots: vec![Hotspot {
                id: HotspotId(0),
                location: Point::new(1.0, 1.0),
                service_capacity: 10,
                cache_capacity: 5,
            }],
            requests: vec![
                Request {
                    user: UserId(0),
                    video: VideoId(3),
                    timeslot: 0,
                    location: Point::new(0.5, 0.5),
                },
                Request {
                    user: UserId(1),
                    video: VideoId(3),
                    timeslot: 1,
                    location: Point::new(0.6, 0.5),
                },
                Request {
                    user: UserId(2),
                    video: VideoId(9),
                    timeslot: 1,
                    location: Point::new(0.7, 0.5),
                },
            ],
            video_count: 10,
            slot_count: 24,
            slots_per_day: 24,
        }
    }

    #[test]
    fn slot_requests_partitions_by_slot() {
        let t = sample_trace();
        assert_eq!(t.slot_requests(0).len(), 1);
        assert_eq!(t.slot_requests(1).len(), 2);
        assert_eq!(t.slot_requests(2).len(), 0);
        assert_eq!(t.slot_requests(23).len(), 0);
    }

    #[test]
    fn requested_video_count_deduplicates() {
        let t = sample_trace();
        assert_eq!(t.requested_video_count(), 2);
    }

    #[test]
    fn bucket_sort_matches_stable_sort_by_key() {
        let parts: Vec<Vec<(u32, usize)>> = vec![
            vec![(3, 0), (1, 1), (3, 2)],
            vec![],
            vec![(0, 3), (1, 4), (9, 5), (3, 6)],
            vec![(1, 7)],
        ];
        let mut expect: Vec<(u32, usize)> = parts.concat();
        expect.sort_by_key(|&(k, _)| k);
        assert_eq!(bucket_sort(parts.clone(), 10, |&(k, _)| k as usize), expect);
        // Keys past the bound join the last bucket, in input order.
        let clamped: Vec<usize> =
            bucket_sort(parts, 4, |&(k, _)| k as usize).iter().map(|&(_, i)| i).collect();
        assert_eq!(clamped, [3, 1, 4, 7, 0, 2, 5, 6]);
        assert!(bucket_sort(Vec::<Vec<u8>>::new(), 0, |_| 0).is_empty());
        assert_eq!(bucket_sort(vec![vec![7u8, 5]], 0, |&b| usize::from(b)), [7, 5]);
    }

    #[test]
    fn ids_display() {
        assert_eq!(VideoId(3).to_string(), "v3");
        assert_eq!(HotspotId(1).to_string(), "h1");
        assert_eq!(UserId(9).to_string(), "u9");
    }
}
