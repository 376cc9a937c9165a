use crate::HotspotGeometry;
use ccdn_trace::{HotspotId, Request, VideoId};

/// Demand for one video at one hotspot during a timeslot — an entry of the
/// paper's `λ_hv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VideoDemand {
    /// The requested video.
    pub video: VideoId,
    /// Number of requests for it aggregated at the hotspot.
    pub count: u64,
}

/// A timeslot's request demand aggregated to nearest hotspots.
///
/// The paper simplifies scheduling by aggregating every user request to
/// its nearest hotspot (§III-C): `λ_h` is the number of requests arriving
/// at hotspot `h` and `λ_hv` the per-video breakdown. This struct also
/// tracks the mean user→hotspot distance per hotspot, which the metrics
/// use as the base access distance of locally-served requests.
///
/// # Examples
///
/// ```
/// use ccdn_sim::{HotspotGeometry, SlotDemand};
/// use ccdn_trace::TraceConfig;
///
/// let trace = TraceConfig::small_test().generate();
/// let geo = HotspotGeometry::new(trace.region, &trace.hotspots);
/// let demand = SlotDemand::aggregate(trace.slot_requests(20), &geo);
/// assert_eq!(demand.total_requests(), trace.slot_requests(20).len() as u64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SlotDemand {
    /// `λ_h` per hotspot.
    per_hotspot: Vec<u64>,
    /// `λ_hv`: per hotspot, the demanded videos sorted by id.
    per_video: Vec<Vec<VideoDemand>>,
    /// Sum of user→nearest-hotspot distances per hotspot, in km.
    base_distance_sum: Vec<f64>,
    total: u64,
}

impl SlotDemand {
    /// Aggregates `requests` to their nearest hotspots.
    ///
    /// Three passes over flat buffers:
    ///
    /// 1. [`HotspotGeometry::nearest_batch`] maps every request to its
    ///    nearest hotspot, batching the requests of each grid cell.
    /// 2. In request order, `λ_h` and the per-hotspot distance sums are
    ///    accumulated. The sums are added in request order on purpose:
    ///    f64 addition is not associative, and this order is the one the
    ///    result is defined by.
    /// 3. The video ids are counting-sorted by hotspot into one buffer;
    ///    each hotspot's slice is sorted and run-length encoded into its
    ///    exactly sized `λ_hv` vector.
    ///
    /// Cost: `O(m)` for the lookup and the counting sort of `m` requests,
    /// plus `O(m_h log m_h)` to sort the `m_h` requests of each hotspot.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is empty while `requests` is not.
    pub fn aggregate(requests: &[Request], geometry: &HotspotGeometry) -> Self {
        let n = geometry.len();
        assert!(n > 0 || requests.is_empty(), "cannot aggregate onto zero hotspots");
        let nearest = geometry.nearest_batch(requests, |r| r.location).unwrap_or_default();
        let mut per_hotspot = vec![0u64; n];
        let mut base_distance_sum = vec![0.0f64; n];
        for &(h, d) in &nearest {
            per_hotspot[h.0] += 1;
            base_distance_sum[h.0] += d;
        }
        // Counting sort by hotspot: `next[h]` walks hotspot `h`'s slice.
        let mut next: Vec<usize> = per_hotspot
            .iter()
            .scan(0, |end, &load| {
                let start = *end;
                *end += load as usize;
                Some(start)
            })
            .collect();
        let mut videos = vec![VideoId(0); requests.len()];
        for (r, &(h, _)) in requests.iter().zip(&nearest) {
            videos[next[h.0]] = r.video;
            next[h.0] += 1;
        }
        let mut rest = videos.as_mut_slice();
        let per_video = per_hotspot
            .iter()
            .map(|&load| {
                let (own, tail) = std::mem::take(&mut rest).split_at_mut(load as usize);
                rest = tail;
                own.sort_unstable();
                run_lengths(own)
            })
            .collect();
        SlotDemand { per_hotspot, per_video, base_distance_sum, total: requests.len() as u64 }
    }

    /// Builds a demand object from explicit per-hotspot per-video counts
    /// and mean base distances — used by popularity predictors to present
    /// *forecast* demand to a scheduler through the same interface as
    /// observed demand (§III: hotspots prefetch based on predicted
    /// popularity).
    ///
    /// # Panics
    ///
    /// Panics if the two vectors differ in length, or a base distance is
    /// negative/non-finite.
    pub fn from_parts(per_video: Vec<Vec<VideoDemand>>, mean_base_distances: Vec<f64>) -> Self {
        assert_eq!(
            per_video.len(),
            mean_base_distances.len(),
            "per-video and base-distance vectors must align"
        );
        assert!(
            mean_base_distances.iter().all(|d| d.is_finite() && *d >= 0.0),
            "base distances must be finite and non-negative"
        );
        let per_video: Vec<Vec<VideoDemand>> = per_video
            .into_iter()
            .map(|mut v| {
                v.retain(|d| d.count > 0);
                v.sort_unstable_by_key(|d| d.video);
                v
            })
            .collect();
        let per_hotspot: Vec<u64> =
            per_video.iter().map(|v| v.iter().map(|d| d.count).sum()).collect();
        let base_distance_sum: Vec<f64> = per_hotspot
            .iter()
            .zip(&mean_base_distances)
            .map(|(&load, &mean)| mean * load as f64)
            .collect();
        let total = per_hotspot.iter().sum();
        SlotDemand { per_hotspot, per_video, base_distance_sum, total }
    }

    /// Number of hotspots the demand is defined over.
    pub fn hotspot_count(&self) -> usize {
        self.per_hotspot.len()
    }

    /// Total requests in the slot.
    pub fn total_requests(&self) -> u64 {
        self.total
    }

    /// `λ_h`: requests aggregated at hotspot `h`.
    pub fn load(&self, h: HotspotId) -> u64 {
        self.per_hotspot[h.0]
    }

    /// All loads, indexed by hotspot.
    pub fn loads(&self) -> &[u64] {
        &self.per_hotspot
    }

    /// `λ_hv` breakdown of hotspot `h`, sorted by video id.
    pub fn videos(&self, h: HotspotId) -> &[VideoDemand] {
        &self.per_video[h.0]
    }

    /// `λ_hv` for a specific `(h, v)` pair (0 when absent).
    pub fn video_demand(&self, h: HotspotId, video: VideoId) -> u64 {
        self.per_video[h.0]
            .binary_search_by_key(&video, |d| d.video)
            .map(|i| self.per_video[h.0][i].count)
            .unwrap_or(0)
    }

    /// Iterator over every `(hotspot, video-demand)` pair in the slot.
    pub fn per_video(&self) -> impl Iterator<Item = (HotspotId, VideoDemand)> + '_ {
        self.per_video
            .iter()
            .enumerate()
            .flat_map(|(h, v)| v.iter().map(move |d| (HotspotId(h), *d)))
    }

    /// Mean user→hotspot distance of the requests aggregated at `h`
    /// (0 when `h` received none).
    pub fn mean_base_distance(&self, h: HotspotId) -> f64 {
        if self.per_hotspot[h.0] == 0 {
            0.0
        } else {
            self.base_distance_sum[h.0] / self.per_hotspot[h.0] as f64
        }
    }

    /// The `fraction`-most-demanded videos at hotspot `h` (at least one
    /// video when the hotspot has any demand) — the paper's "Top-20 %"
    /// content set when `fraction = 0.2`. Returned sorted by video id.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]`.
    pub fn top_videos(&self, h: HotspotId, fraction: f64) -> Vec<VideoId> {
        assert!(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0, 1]");
        let mut scratch = Vec::new();
        let mut top = Vec::new();
        self.top_videos_into(h, fraction, &mut scratch, &mut top);
        top
    }

    /// Buffer-reusing form of [`SlotDemand::top_videos`]: ranks
    /// `(count, video)` pairs in `scratch` and writes the sorted top set
    /// into `top`, clearing both first. Callers that loop over hotspots
    /// (the Jaccard clustering stage does this every slot) amortize the
    /// ranking allocation across the whole sweep.
    ///
    /// Never panics: an out-of-range hotspot yields an empty set, and an
    /// out-of-range or NaN `fraction` degrades to the top-1 set (the
    /// checked contract lives on [`SlotDemand::top_videos`]).
    pub fn top_videos_into(
        &self,
        h: HotspotId,
        fraction: f64,
        scratch: &mut Vec<(u64, VideoId)>,
        top: &mut Vec<VideoId>,
    ) {
        top.clear();
        // `<[T]>::get` by path: ccdn-analyze's name-based call graph
        // resolves a `.get` method call to the panicking
        // `DistanceMatrix::get`, which would drag this accessor into the
        // panic-reach cone.
        let Some(demands) = <[Vec<VideoDemand>]>::get(&self.per_video, h.0) else {
            return;
        };
        if demands.is_empty() {
            return;
        }
        scratch.clear();
        scratch.extend(demands.iter().map(|d| (d.count, d.video)));
        scratch.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        // NaN or negative fractions float-cast to rank 0 and saturate up
        // to 1; oversized fractions saturate down to the full set.
        let k = ((demands.len() as f64 * fraction).ceil() as usize).max(1).min(demands.len());
        top.extend(scratch.iter().take(k).map(|&(_, v)| v));
        top.sort_unstable();
    }
}

/// Run-length encodes sorted video ids into an exactly sized `λ_hv` list.
fn run_lengths(sorted: &[VideoId]) -> Vec<VideoDemand> {
    let runs = sorted.chunk_by(|a, b| a == b);
    let mut demands = Vec::with_capacity(runs.clone().count());
    demands.extend(runs.filter_map(|run| {
        run.first().map(|&video| VideoDemand { video, count: run.len() as u64 })
    }));
    demands
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdn_geo::{Point, Rect};
    use ccdn_trace::{Hotspot, TraceConfig, UserId};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn two_hotspots() -> (Vec<Hotspot>, HotspotGeometry) {
        let region = Rect::paper_eval_region();
        let hotspots = vec![
            Hotspot {
                id: HotspotId(0),
                location: Point::new(2.0, 2.0),
                service_capacity: 10,
                cache_capacity: 5,
            },
            Hotspot {
                id: HotspotId(1),
                location: Point::new(15.0, 9.0),
                service_capacity: 10,
                cache_capacity: 5,
            },
        ];
        let geo = HotspotGeometry::new(region, &hotspots);
        (hotspots, geo)
    }

    fn req(x: f64, y: f64, video: u32) -> Request {
        Request { user: UserId(0), video: VideoId(video), timeslot: 0, location: Point::new(x, y) }
    }

    #[test]
    fn aggregates_to_nearest() {
        let (_, geo) = two_hotspots();
        let requests =
            vec![req(1.0, 1.0, 5), req(2.5, 2.0, 5), req(14.0, 9.0, 7), req(16.0, 9.0, 5)];
        let d = SlotDemand::aggregate(&requests, &geo);
        assert_eq!(d.total_requests(), 4);
        assert_eq!(d.load(HotspotId(0)), 2);
        assert_eq!(d.load(HotspotId(1)), 2);
        assert_eq!(d.video_demand(HotspotId(0), VideoId(5)), 2);
        assert_eq!(d.video_demand(HotspotId(1), VideoId(5)), 1);
        assert_eq!(d.video_demand(HotspotId(1), VideoId(7)), 1);
        assert_eq!(d.video_demand(HotspotId(0), VideoId(7)), 0);
    }

    #[test]
    fn base_distance_is_mean_of_user_distances() {
        let (_, geo) = two_hotspots();
        let requests = vec![req(2.0, 1.0, 1), req(2.0, 5.0, 2)]; // distances 1 and 3
        let d = SlotDemand::aggregate(&requests, &geo);
        assert!((d.mean_base_distance(HotspotId(0)) - 2.0).abs() < 1e-12);
        assert_eq!(d.mean_base_distance(HotspotId(1)), 0.0);
    }

    #[test]
    fn empty_slot() {
        let (_, geo) = two_hotspots();
        let d = SlotDemand::aggregate(&[], &geo);
        assert_eq!(d.total_requests(), 0);
        assert_eq!(d.loads(), &[0, 0]);
        assert!(d.per_video().next().is_none());
    }

    #[test]
    fn top_videos_ranks_by_count() {
        let (_, geo) = two_hotspots();
        let mut requests = Vec::new();
        for _ in 0..5 {
            requests.push(req(2.0, 2.0, 1));
        }
        for _ in 0..3 {
            requests.push(req(2.0, 2.0, 2));
        }
        requests.push(req(2.0, 2.0, 3));
        requests.push(req(2.0, 2.0, 4));
        requests.push(req(2.0, 2.0, 5));
        let d = SlotDemand::aggregate(&requests, &geo);
        // 5 distinct videos; top-20% = 1 video: the most demanded.
        assert_eq!(d.top_videos(HotspotId(0), 0.2), vec![VideoId(1)]);
        // top-40% = 2 videos.
        assert_eq!(d.top_videos(HotspotId(0), 0.4), vec![VideoId(1), VideoId(2)]);
        // Hotspot with no demand: empty top set.
        assert!(d.top_videos(HotspotId(1), 0.2).is_empty());
    }

    #[test]
    fn totals_match_loads_on_generated_trace() {
        let trace = TraceConfig::small_test().generate();
        let geo = HotspotGeometry::new(trace.region, &trace.hotspots);
        let mut sum = 0;
        for slot in 0..trace.slot_count {
            let d = SlotDemand::aggregate(trace.slot_requests(slot), &geo);
            assert_eq!(d.loads().iter().sum::<u64>(), d.total_requests());
            let per_video_total: u64 = d.per_video().map(|(_, vd)| vd.count).sum();
            assert_eq!(per_video_total, d.total_requests());
            sum += d.total_requests();
        }
        assert_eq!(sum, trace.requests.len() as u64);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_fraction_panics() {
        let (_, geo) = two_hotspots();
        let d = SlotDemand::aggregate(&[], &geo);
        let _ = d.top_videos(HotspotId(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "zero hotspots")]
    fn aggregating_onto_an_empty_geometry_panics() {
        let geo = HotspotGeometry::new(Rect::paper_eval_region(), &[]);
        let _ = SlotDemand::aggregate(&[req(1.0, 1.0, 1)], &geo);
    }

    #[test]
    fn empty_geometry_with_no_requests_is_empty() {
        let geo = HotspotGeometry::new(Rect::paper_eval_region(), &[]);
        let d = SlotDemand::aggregate(&[], &geo);
        assert_eq!(d.hotspot_count(), 0);
        assert_eq!(d.total_requests(), 0);
    }

    /// The definition `aggregate` must reproduce bit for bit: a brute-force
    /// nearest scan (ties to the lower id) and a `BTreeMap` per hotspot,
    /// with distances summed in request order.
    fn reference_aggregate(requests: &[Request], hotspots: &[Hotspot]) -> SlotDemand {
        let n = hotspots.len();
        let mut per_hotspot = vec![0u64; n];
        let mut base_distance_sum = vec![0.0f64; n];
        let mut maps: Vec<BTreeMap<VideoId, u64>> = vec![BTreeMap::new(); n];
        for r in requests {
            let (h, d) = hotspots
                .iter()
                .enumerate()
                .map(|(i, hs)| (i, hs.location.distance(r.location)))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                .unwrap();
            per_hotspot[h] += 1;
            base_distance_sum[h] += d;
            *maps[h].entry(r.video).or_insert(0) += 1;
        }
        let per_video = maps
            .into_iter()
            .map(|m| m.into_iter().map(|(video, count)| VideoDemand { video, count }).collect())
            .collect();
        SlotDemand { per_hotspot, per_video, base_distance_sum, total: requests.len() as u64 }
    }

    proptest! {
        #[test]
        fn prop_aggregate_matches_brute_force_reference(
            region in prop::sample::select(vec![
                Rect::paper_eval_region(),
                Rect::new(Point::new(-40.0, 10.0), Point::new(60.0, 70.0)),
            ]),
            spots in prop::collection::vec((-0.3f64..1.3, -0.3f64..1.3), 1..40),
            dups in prop::collection::vec(0usize..1000, 0..8),
            single in any::<bool>(),
            reqs in prop::collection::vec(((-0.3f64..1.3, -0.3f64..1.3), 0u32..25), 0..400),
            request_count in prop::sample::select(vec![0usize, 1, 400]),
        ) {
            // Coordinates are fractions of the region, reaching 30 % past
            // each side so hotspots and users also lie outside it.
            let at = |(fx, fy): (f64, f64)| {
                let (min, max) = (region.min(), region.max());
                Point::new(min.x + fx * (max.x - min.x), min.y + fy * (max.y - min.y))
            };
            let mut locations: Vec<Point> = spots.into_iter().map(at).collect();
            let copies: Vec<Point> = dups.iter().map(|&k| locations[k % locations.len()]).collect();
            locations.extend(copies);
            if single {
                locations.truncate(1);
            }
            let hotspots: Vec<Hotspot> = locations
                .into_iter()
                .enumerate()
                .map(|(i, location)| Hotspot {
                    id: HotspotId(i),
                    location,
                    service_capacity: 10,
                    cache_capacity: 5,
                })
                .collect();
            // Some users stand exactly on a hotspot (zero-distance ties).
            let mut requests: Vec<Request> = reqs
                .into_iter()
                .map(|(frac, video)| {
                    let p = at(frac);
                    Request { user: UserId(0), video: VideoId(video), timeslot: 0, location: p }
                })
                .collect();
            requests.extend(hotspots.iter().map(|h| Request {
                user: UserId(1),
                video: VideoId(3),
                timeslot: 0,
                location: h.location,
            }));
            requests.truncate(request_count);
            let geo = HotspotGeometry::new(region, &hotspots);
            let got = SlotDemand::aggregate(&requests, &geo);
            let want = reference_aggregate(&requests, &hotspots);
            let bits = |d: &SlotDemand| -> Vec<u64> {
                d.base_distance_sum.iter().map(|s| s.to_bits()).collect()
            };
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(got, want);
        }
    }
}
