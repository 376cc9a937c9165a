use crate::rows::FlatRows;
use crate::{SlotDecision, SlotInput, Target};
use ccdn_trace::{HotspotId, VideoId};
use std::collections::BTreeSet;
use std::fmt;

/// A constraint violation detected while scoring a [`SlotDecision`].
///
/// Each variant corresponds to one of the paper's model constraints
/// (Eqs. 4–7); the runner surfaces these instead of silently mis-scoring a
/// buggy scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// Demand for `(hotspot, video)` was not assigned exactly once
    /// (Eq. 4: every request is served by one hotspot or the CDN).
    DemandMismatch {
        /// The hotspot whose aggregated demand is inconsistent.
        hotspot: HotspotId,
        /// The video.
        video: VideoId,
        /// Requests demanded (`λ_hv`).
        demanded: u64,
        /// Requests the decision assigned.
        assigned: u64,
    },
    /// A hotspot was assigned more requests than its service capacity
    /// (Eq. 6).
    CapacityExceeded {
        /// The overloaded hotspot.
        hotspot: HotspotId,
        /// Requests assigned to it.
        assigned: u64,
        /// Its service capacity.
        capacity: u64,
    },
    /// A hotspot cached more videos than its cache capacity (Eq. 7).
    CacheExceeded {
        /// The hotspot.
        hotspot: HotspotId,
        /// Videos placed.
        placed: u64,
        /// Its cache capacity.
        capacity: u64,
    },
    /// A hotspot served a video it does not cache (Eq. 5).
    NotCached {
        /// The serving hotspot.
        hotspot: HotspotId,
        /// The video it served without caching.
        video: VideoId,
    },
    /// The same video was placed twice at a hotspot.
    DuplicatePlacement {
        /// The hotspot.
        hotspot: HotspotId,
        /// The duplicated video.
        video: VideoId,
    },
    /// The decision's placement vector length disagrees with the input.
    ShapeMismatch,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::DemandMismatch { hotspot, video, demanded, assigned } => write!(
                f,
                "demand mismatch at {hotspot}/{video}: demanded {demanded}, assigned {assigned}"
            ),
            ValidationError::CapacityExceeded { hotspot, assigned, capacity } => {
                write!(f, "{hotspot} serves {assigned} requests over capacity {capacity}")
            }
            ValidationError::CacheExceeded { hotspot, placed, capacity } => {
                write!(f, "{hotspot} caches {placed} videos over capacity {capacity}")
            }
            ValidationError::NotCached { hotspot, video } => {
                write!(f, "{hotspot} serves {video} without caching it")
            }
            ValidationError::DuplicatePlacement { hotspot, video } => {
                write!(f, "{video} placed twice at {hotspot}")
            }
            ValidationError::ShapeMismatch => write!(f, "decision shape mismatch"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Scored outcome of one timeslot.
///
/// Raw tallies plus the paper's four normalized metrics (§V-A1).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SlotMetrics {
    /// Requests in the slot.
    pub total_requests: u64,
    /// Requests served by hotspots.
    pub hotspot_served: u64,
    /// Requests served by the CDN server.
    pub cdn_served: u64,
    /// Replicas pushed to hotspot caches.
    pub replicas: u64,
    /// Sum over requests of their access distance in km.
    pub distance_sum_km: f64,
    /// Size of the full video catalog (for normalizing replication cost).
    pub video_count: u64,
}

impl SlotMetrics {
    /// Validates `decision` against every model constraint and scores it.
    ///
    /// Access distance per request:
    /// - served at its aggregation hotspot `i`: the mean user→`i` distance
    ///   of the slot;
    /// - redirected to hotspot `j`: mean user→`i` distance plus `d_ij`
    ///   (the request still traverses its nearest hotspot's vicinity);
    /// - served by the CDN: the flat CDN distance (20 km in the paper's
    ///   evaluation region).
    ///
    /// # Errors
    ///
    /// Any [`ValidationError`] listed on the enum.
    pub fn evaluate(
        input: &SlotInput<'_>,
        decision: &SlotDecision,
    ) -> Result<SlotMetrics, ValidationError> {
        let n = input.hotspot_count();
        if decision.placements.len() != n {
            return Err(ValidationError::ShapeMismatch);
        }

        // Placement rows, sorted, checked for duplicates and then cache
        // capacity, hotspot by hotspot.
        let placed_total = decision.placements.iter().map(Vec::len).sum();
        let mut cached = FlatRows::with_capacity(n, placed_total);
        let mut duplicated = None;
        for (h, placement) in decision.placements.iter().enumerate() {
            let row = cached.push_row(placement.iter().copied());
            row.sort_unstable();
            if row.windows(2).any(|pair| pair[0] == pair[1]) {
                duplicated = Some(h);
                break;
            }
            let placed = placement.len() as u64;
            if placed > input.cache_capacity[h] {
                return Err(ValidationError::CacheExceeded {
                    hotspot: HotspotId(h),
                    placed,
                    capacity: input.cache_capacity[h],
                });
            }
        }
        if let Some(h) = duplicated {
            // Name the first repeat in placement order.
            let mut seen = BTreeSet::new();
            if let Some(&video) = decision.placements[h].iter().find(|&&v| !seen.insert(v)) {
                return Err(ValidationError::DuplicatePlacement { hotspot: HotspotId(h), video });
            }
        }

        // Assigned counts per `(from, video)`, aligned with `per_video()`:
        // hotspot `h`'s demand row starts at `row_start[h]`. Assignments
        // for pairs with no demand are collected on the side.
        let demand = input.demand;
        let mut row_start = Vec::with_capacity(demand.hotspot_count());
        let mut demanded_pairs = 0;
        for h in 0..demand.hotspot_count() {
            row_start.push(demanded_pairs);
            demanded_pairs += demand.videos(HotspotId(h)).len();
        }
        let mut assigned = vec![0u64; demanded_pairs];
        let mut undemanded: Vec<(HotspotId, VideoId, u64)> = Vec::new();
        let mut served_at: Vec<u64> = vec![0; n];
        let mut hotspot_served = 0u64;
        let mut cdn_served = 0u64;
        let mut distance_sum = 0.0f64;
        for a in &decision.assignments {
            let pair = row_start.get(a.from.0).and_then(|&start| {
                let row = demand.videos(a.from);
                row.binary_search_by_key(&a.video, |d| d.video).ok().map(|i| start + i)
            });
            match pair {
                Some(i) => assigned[i] += a.count,
                None => undemanded.push((a.from, a.video, a.count)),
            }
            match a.target {
                Target::Hotspot(j) => {
                    if !cached.row_holds(j.0, a.video) {
                        return Err(ValidationError::NotCached { hotspot: j, video: a.video });
                    }
                    served_at[j.0] += a.count;
                    hotspot_served += a.count;
                    let base = demand.mean_base_distance(a.from);
                    let hop = if j == a.from { 0.0 } else { input.geometry.distance(a.from, j) };
                    distance_sum += a.count as f64 * (base + hop);
                }
                Target::Cdn => {
                    cdn_served += a.count;
                    distance_sum += a.count as f64 * input.geometry.cdn_distance();
                }
            }
        }

        // Coverage: every λ_hv exactly assigned (Eq. 4), nothing extra.
        for ((h, vd), &got) in demand.per_video().zip(&assigned) {
            if got != vd.count {
                return Err(ValidationError::DemandMismatch {
                    hotspot: h,
                    video: vd.video,
                    demanded: vd.count,
                    assigned: got,
                });
            }
        }
        undemanded.sort_unstable_by_key(|&(h, v, _)| (h, v));
        for run in undemanded.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (hotspot, video, _) = run[0];
            let count: u64 = run.iter().map(|&(_, _, c)| c).sum();
            if count > 0 {
                return Err(ValidationError::DemandMismatch {
                    hotspot,
                    video,
                    demanded: 0,
                    assigned: count,
                });
            }
        }

        // Service capacity (Eq. 6).
        for (h, &served) in served_at.iter().enumerate() {
            if served > input.service_capacity[h] {
                return Err(ValidationError::CapacityExceeded {
                    hotspot: HotspotId(h),
                    assigned: served,
                    capacity: input.service_capacity[h],
                });
            }
        }

        Ok(SlotMetrics {
            total_requests: demand.total_requests(),
            hotspot_served,
            cdn_served,
            replicas: decision.replica_count(),
            distance_sum_km: distance_sum,
            video_count: input.video_count as u64,
        })
    }

    /// Fraction of requests served by hotspots (0 when the slot is empty).
    pub fn hotspot_serving_ratio(&self) -> f64 {
        ratio(self.hotspot_served, self.total_requests)
    }

    /// Mean access distance per request in km (0 when empty).
    pub fn average_distance_km(&self) -> f64 {
        if self.total_requests == 0 {
            0.0
        } else {
            self.distance_sum_km / self.total_requests as f64
        }
    }

    /// Replicas normalized by the video-set size (the paper's "content
    /// replication cost").
    pub fn replication_cost(&self) -> f64 {
        ratio(self.replicas, self.video_count)
    }

    /// CDN server load: requests it serves plus replicas it pushes,
    /// normalized by the total request count.
    pub fn cdn_server_load(&self) -> f64 {
        ratio(self.cdn_served + self.replicas, self.total_requests)
    }
}

/// Requests served *at* each hotspot under `decision` (by serving target,
/// not by where they aggregated) — the utilization profile whose skew the
/// paper's request balancing exists to fix.
///
/// The decision is assumed valid (run [`SlotMetrics::evaluate`] first).
pub fn served_loads(hotspot_count: usize, decision: &SlotDecision) -> Vec<u64> {
    let mut served = vec![0u64; hotspot_count];
    for a in &decision.assignments {
        if let Target::Hotspot(j) = a.target {
            served[j.0] += a.count;
        }
    }
    served
}

/// Jain fairness index of per-hotspot *utilization* (served requests over
/// service capacity), ignoring zero-capacity hotspots. `1.0` is perfectly
/// even utilization; `None` when nothing is served.
///
/// The paper motivates RBCAer with the skew of this very distribution
/// (Fig. 2); a balanced scheduler should push the index up relative to
/// Nearest routing.
pub fn utilization_fairness(service_capacity: &[u64], decision: &SlotDecision) -> Option<f64> {
    let served = served_loads(service_capacity.len(), decision);
    let utilization: Vec<f64> = served
        .iter()
        .zip(service_capacity)
        .filter(|&(_, &cap)| cap > 0)
        .map(|(&s, &cap)| s as f64 / cap as f64)
        .collect();
    crate::metrics::jain(&utilization)
}

fn jain(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let sum: f64 = values.iter().sum();
    let sq: f64 = values.iter().map(|v| v * v).sum();
    (sq > 0.0).then(|| sum * sum / (values.len() as f64 * sq))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Request-weighted accumulation of [`SlotMetrics`] across timeslots.
///
/// Replication is counted per slot (each slot's placement is a fresh push
/// in the paper's model); the normalized metrics divide by the summed
/// denominators, so slots with more requests weigh more.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricsTotals {
    /// Summed raw tallies.
    pub sums: SlotMetrics,
    /// Number of slots accumulated.
    pub slots: u32,
}

impl MetricsTotals {
    /// Adds one slot's metrics.
    pub fn add(&mut self, m: &SlotMetrics) {
        self.sums.total_requests += m.total_requests;
        self.sums.hotspot_served += m.hotspot_served;
        self.sums.cdn_served += m.cdn_served;
        self.sums.replicas += m.replicas;
        self.sums.distance_sum_km += m.distance_sum_km;
        // The catalog size is constant across slots; keep the max so the
        // normalization never double-counts.
        self.sums.video_count = self.sums.video_count.max(m.video_count);
        self.slots += 1;
    }

    /// Overall hotspot serving ratio.
    pub fn hotspot_serving_ratio(&self) -> f64 {
        self.sums.hotspot_serving_ratio()
    }

    /// Overall mean access distance (km).
    pub fn average_distance_km(&self) -> f64 {
        self.sums.average_distance_km()
    }

    /// Total replicas normalized by the video-set size.
    pub fn replication_cost(&self) -> f64 {
        self.sums.replication_cost()
    }

    /// Overall CDN server load.
    pub fn cdn_server_load(&self) -> f64 {
        self.sums.cdn_server_load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{route_with_failover, Assignment, HotspotGeometry, SlotDemand};
    use ccdn_geo::{Point, Rect};
    use ccdn_trace::{Hotspot, Request, TraceConfig, UserId};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    struct Fixture {
        geometry: HotspotGeometry,
        demand: SlotDemand,
        service: Vec<u64>,
        cache: Vec<u64>,
    }

    impl Fixture {
        fn input(&self) -> SlotInput<'_> {
            SlotInput {
                geometry: &self.geometry,
                demand: &self.demand,
                service_capacity: &self.service,
                cache_capacity: &self.cache,
                video_count: 10,
            }
        }
    }

    /// Two hotspots 5 km apart; 3 requests for v1 and 1 for v2 at hotspot
    /// 0, all exactly 1 km from it; nothing at hotspot 1.
    fn fixture() -> Fixture {
        let region = Rect::paper_eval_region();
        let hotspots = vec![
            Hotspot {
                id: HotspotId(0),
                location: Point::new(5.0, 5.0),
                service_capacity: 10,
                cache_capacity: 5,
            },
            Hotspot {
                id: HotspotId(1),
                location: Point::new(10.0, 5.0),
                service_capacity: 10,
                cache_capacity: 5,
            },
        ];
        let geometry = HotspotGeometry::new(region, &hotspots);
        let mk = |v: u32| Request {
            user: UserId(0),
            video: VideoId(v),
            timeslot: 0,
            location: Point::new(4.0, 5.0),
        };
        let requests = vec![mk(1), mk(1), mk(1), mk(2)];
        let demand = SlotDemand::aggregate(&requests, &geometry);
        Fixture { geometry, demand, service: vec![10, 10], cache: vec![5, 5] }
    }

    #[test]
    fn local_serving_scores_base_distance() {
        let f = fixture();
        let input = f.input();
        let mut d = SlotDecision::new(2);
        d.place(HotspotId(0), VideoId(1));
        d.place(HotspotId(0), VideoId(2));
        d.assign(HotspotId(0), VideoId(1), Target::Hotspot(HotspotId(0)), 3);
        d.assign(HotspotId(0), VideoId(2), Target::Hotspot(HotspotId(0)), 1);
        let m = SlotMetrics::evaluate(&input, &d).unwrap();
        assert_eq!(m.hotspot_served, 4);
        assert_eq!(m.cdn_served, 0);
        assert_eq!(m.replicas, 2);
        assert!((m.average_distance_km() - 1.0).abs() < 1e-9);
        assert_eq!(m.hotspot_serving_ratio(), 1.0);
        assert!((m.replication_cost() - 0.2).abs() < 1e-12);
        assert!((m.cdn_server_load() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn redirection_adds_hop_distance() {
        let f = fixture();
        let input = f.input();
        let mut d = SlotDecision::new(2);
        d.place(HotspotId(1), VideoId(1));
        d.place(HotspotId(0), VideoId(2));
        d.assign(HotspotId(0), VideoId(1), Target::Hotspot(HotspotId(1)), 3);
        d.assign(HotspotId(0), VideoId(2), Target::Hotspot(HotspotId(0)), 1);
        let m = SlotMetrics::evaluate(&input, &d).unwrap();
        // 3 requests at 1 + 5 km, 1 request at 1 km → (18 + 1) / 4.
        assert!((m.average_distance_km() - 19.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn cdn_serving_charges_flat_distance() {
        let f = fixture();
        let input = f.input();
        let mut d = SlotDecision::new(2);
        d.assign(HotspotId(0), VideoId(1), Target::Cdn, 3);
        d.assign(HotspotId(0), VideoId(2), Target::Cdn, 1);
        let m = SlotMetrics::evaluate(&input, &d).unwrap();
        assert_eq!(m.hotspot_served, 0);
        assert_eq!(m.cdn_served, 4);
        assert!((m.average_distance_km() - 20.0).abs() < 1e-9);
        assert_eq!(m.cdn_server_load(), 1.0);
    }

    #[test]
    fn uncovered_demand_is_rejected() {
        let f = fixture();
        let input = f.input();
        let mut d = SlotDecision::new(2);
        d.assign(HotspotId(0), VideoId(1), Target::Cdn, 3);
        // video 2 demand left unassigned
        let err = SlotMetrics::evaluate(&input, &d).unwrap_err();
        assert!(matches!(err, ValidationError::DemandMismatch { .. }), "{err}");
    }

    #[test]
    fn over_assignment_is_rejected() {
        let f = fixture();
        let input = f.input();
        let mut d = SlotDecision::new(2);
        d.assign(HotspotId(0), VideoId(1), Target::Cdn, 5); // only 3 demanded
        d.assign(HotspotId(0), VideoId(2), Target::Cdn, 1);
        let err = SlotMetrics::evaluate(&input, &d).unwrap_err();
        assert!(matches!(err, ValidationError::DemandMismatch { demanded: 3, assigned: 5, .. }));
    }

    #[test]
    fn phantom_assignment_is_rejected() {
        let f = fixture();
        let input = f.input();
        let mut d = SlotDecision::new(2);
        d.assign(HotspotId(0), VideoId(1), Target::Cdn, 3);
        d.assign(HotspotId(0), VideoId(2), Target::Cdn, 1);
        d.assign(HotspotId(1), VideoId(9), Target::Cdn, 2); // no such demand
        let err = SlotMetrics::evaluate(&input, &d).unwrap_err();
        assert!(matches!(err, ValidationError::DemandMismatch { demanded: 0, .. }));
    }

    #[test]
    fn serving_uncached_video_is_rejected() {
        let f = fixture();
        let input = f.input();
        let mut d = SlotDecision::new(2);
        d.assign(HotspotId(0), VideoId(1), Target::Hotspot(HotspotId(0)), 3);
        d.assign(HotspotId(0), VideoId(2), Target::Cdn, 1);
        let err = SlotMetrics::evaluate(&input, &d).unwrap_err();
        assert_eq!(err, ValidationError::NotCached { hotspot: HotspotId(0), video: VideoId(1) });
    }

    #[test]
    fn capacity_violations_are_rejected() {
        let mut f = fixture();
        f.service = vec![2, 10];
        let input = f.input();
        let mut d = SlotDecision::new(2);
        d.place(HotspotId(0), VideoId(1));
        d.place(HotspotId(0), VideoId(2));
        d.assign(HotspotId(0), VideoId(1), Target::Hotspot(HotspotId(0)), 3);
        d.assign(HotspotId(0), VideoId(2), Target::Hotspot(HotspotId(0)), 1);
        let err = SlotMetrics::evaluate(&input, &d).unwrap_err();
        assert!(matches!(err, ValidationError::CapacityExceeded { assigned: 4, capacity: 2, .. }));
    }

    #[test]
    fn cache_violations_are_rejected() {
        let mut f = fixture();
        f.cache = vec![1, 1];
        let input = f.input();
        let mut d = SlotDecision::new(2);
        d.place(HotspotId(0), VideoId(1));
        d.place(HotspotId(0), VideoId(2));
        let err = SlotMetrics::evaluate(&input, &d).unwrap_err();
        assert!(matches!(err, ValidationError::CacheExceeded { placed: 2, capacity: 1, .. }));
    }

    #[test]
    fn duplicate_placement_is_rejected() {
        let f = fixture();
        let input = f.input();
        let mut d = SlotDecision::new(2);
        d.place(HotspotId(0), VideoId(1));
        d.place(HotspotId(0), VideoId(1));
        let err = SlotMetrics::evaluate(&input, &d).unwrap_err();
        assert_eq!(
            err,
            ValidationError::DuplicatePlacement { hotspot: HotspotId(0), video: VideoId(1) }
        );
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let f = fixture();
        let input = f.input();
        let d = SlotDecision::new(3);
        assert_eq!(SlotMetrics::evaluate(&input, &d).unwrap_err(), ValidationError::ShapeMismatch);
    }

    #[test]
    fn totals_accumulate_weighted() {
        let mut totals = MetricsTotals::default();
        totals.add(&SlotMetrics {
            total_requests: 10,
            hotspot_served: 10,
            cdn_served: 0,
            replicas: 5,
            distance_sum_km: 10.0,
            video_count: 100,
        });
        totals.add(&SlotMetrics {
            total_requests: 30,
            hotspot_served: 0,
            cdn_served: 30,
            replicas: 0,
            distance_sum_km: 600.0,
            video_count: 100,
        });
        assert_eq!(totals.slots, 2);
        assert!((totals.hotspot_serving_ratio() - 0.25).abs() < 1e-12);
        assert!((totals.average_distance_km() - 15.25).abs() < 1e-12);
        assert!((totals.replication_cost() - 0.05).abs() < 1e-12);
        assert!((totals.cdn_server_load() - 35.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn served_loads_counts_by_target() {
        let mut d = SlotDecision::new(3);
        d.assign(HotspotId(0), VideoId(1), Target::Hotspot(HotspotId(1)), 4);
        d.assign(HotspotId(0), VideoId(2), Target::Hotspot(HotspotId(0)), 2);
        d.assign(HotspotId(2), VideoId(1), Target::Cdn, 9);
        assert_eq!(served_loads(3, &d), vec![2, 4, 0]);
    }

    #[test]
    fn utilization_fairness_ranks_balanced_above_skewed() {
        let capacity = vec![10u64, 10, 10];
        let mut balanced = SlotDecision::new(3);
        let mut skewed = SlotDecision::new(3);
        for h in 0..3 {
            balanced.assign(HotspotId(h), VideoId(1), Target::Hotspot(HotspotId(h)), 5);
        }
        skewed.assign(HotspotId(0), VideoId(1), Target::Hotspot(HotspotId(0)), 10);
        let fb = utilization_fairness(&capacity, &balanced).unwrap();
        let fs = utilization_fairness(&capacity, &skewed).unwrap();
        assert!((fb - 1.0).abs() < 1e-12);
        assert!((fs - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_fairness_ignores_offline_hotspots() {
        let capacity = vec![10u64, 0, 10];
        let mut d = SlotDecision::new(3);
        d.assign(HotspotId(0), VideoId(1), Target::Hotspot(HotspotId(0)), 5);
        d.assign(HotspotId(2), VideoId(1), Target::Hotspot(HotspotId(2)), 5);
        assert!((utilization_fairness(&capacity, &d).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_fairness_none_when_nothing_served() {
        let capacity = vec![10u64, 10];
        let d = SlotDecision::new(2);
        assert_eq!(utilization_fairness(&capacity, &d), None);
    }

    #[test]
    fn empty_slot_metrics_are_zero() {
        let m = SlotMetrics::default();
        assert_eq!(m.hotspot_serving_ratio(), 0.0);
        assert_eq!(m.average_distance_km(), 0.0);
        assert_eq!(m.replication_cost(), 0.0);
        assert_eq!(m.cdn_server_load(), 0.0);
    }

    #[test]
    fn duplicate_placement_names_the_first_repeat_in_placement_order() {
        let f = fixture();
        let input = f.input();
        let mut d = SlotDecision::new(2);
        // Sorted, v1 is the smaller repeated video; in placement order the
        // first repeat is v2.
        for v in [1, 2, 2, 1] {
            d.place(HotspotId(0), VideoId(v));
        }
        let want = ValidationError::DuplicatePlacement { hotspot: HotspotId(0), video: VideoId(2) };
        assert_eq!(SlotMetrics::evaluate(&input, &d).unwrap_err(), want);
        assert_eq!(reference_evaluate(&input, &d).unwrap_err(), want);
    }

    /// `evaluate` over `BTreeSet` placements and a `BTreeMap` of assigned
    /// counts: the reference the row version must match error for error
    /// (see the differential test below).
    fn reference_evaluate(
        input: &SlotInput<'_>,
        decision: &SlotDecision,
    ) -> Result<SlotMetrics, ValidationError> {
        let n = input.hotspot_count();
        if decision.placements.len() != n {
            return Err(ValidationError::ShapeMismatch);
        }
        let mut cached: Vec<BTreeSet<VideoId>> = vec![BTreeSet::new(); n];
        for (h, placement) in decision.placements.iter().enumerate() {
            for &v in placement {
                if !cached[h].insert(v) {
                    return Err(ValidationError::DuplicatePlacement {
                        hotspot: HotspotId(h),
                        video: v,
                    });
                }
            }
            let placed = placement.len() as u64;
            if placed > input.cache_capacity[h] {
                return Err(ValidationError::CacheExceeded {
                    hotspot: HotspotId(h),
                    placed,
                    capacity: input.cache_capacity[h],
                });
            }
        }
        let mut assigned: BTreeMap<(HotspotId, VideoId), u64> = BTreeMap::new();
        let mut served_at: Vec<u64> = vec![0; n];
        let mut hotspot_served = 0u64;
        let mut cdn_served = 0u64;
        let mut distance_sum = 0.0f64;
        for a in &decision.assignments {
            *assigned.entry((a.from, a.video)).or_insert(0) += a.count;
            match a.target {
                Target::Hotspot(j) => {
                    if !cached[j.0].contains(&a.video) {
                        return Err(ValidationError::NotCached { hotspot: j, video: a.video });
                    }
                    served_at[j.0] += a.count;
                    hotspot_served += a.count;
                    let base = input.demand.mean_base_distance(a.from);
                    let hop = if j == a.from { 0.0 } else { input.geometry.distance(a.from, j) };
                    distance_sum += a.count as f64 * (base + hop);
                }
                Target::Cdn => {
                    cdn_served += a.count;
                    distance_sum += a.count as f64 * input.geometry.cdn_distance();
                }
            }
        }
        for (h, vd) in input.demand.per_video() {
            let got = assigned.remove(&(h, vd.video)).unwrap_or(0);
            if got != vd.count {
                return Err(ValidationError::DemandMismatch {
                    hotspot: h,
                    video: vd.video,
                    demanded: vd.count,
                    assigned: got,
                });
            }
        }
        if let Some(((h, v), count)) = assigned.into_iter().find(|&(_, c)| c > 0) {
            return Err(ValidationError::DemandMismatch {
                hotspot: h,
                video: v,
                demanded: 0,
                assigned: count,
            });
        }
        for (h, &served) in served_at.iter().enumerate() {
            if served > input.service_capacity[h] {
                return Err(ValidationError::CapacityExceeded {
                    hotspot: HotspotId(h),
                    assigned: served,
                    capacity: input.service_capacity[h],
                });
            }
        }
        Ok(SlotMetrics {
            total_requests: input.demand.total_requests(),
            hotspot_served,
            cdn_served,
            replicas: decision.replica_count(),
            distance_sum_km: distance_sum,
            video_count: input.video_count as u64,
        })
    }

    /// SplitMix-style mixing, so a mutation's picks follow from its seed.
    fn mix(a: u64, b: u64) -> u64 {
        let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^ (x >> 31)
    }

    /// One way to break a valid decision (or its capacities).
    #[derive(Debug, Clone, Copy)]
    enum Mutation {
        /// Repeat two different videos of a row, the later one first.
        DuplicatePlacement,
        /// Shrink a hotspot's cache below its placement count.
        OverfullCache,
        /// Remove an assignment.
        DropAssignment,
        /// Raise an assignment's count.
        InflateAssignment,
        /// Push a zero-count assignment for any pair straight onto the
        /// list (`assign` would drop it).
        ZeroCountAssignment,
        /// Push an assignment for a pair with no demand.
        UndemandedAssignment,
        /// Point an assignment at a hotspot that does not cache its video.
        UncachedTarget,
        /// Shrink a serving hotspot's service capacity below its load.
        OverservedHotspot,
    }

    const MUTATIONS: [Mutation; 8] = [
        Mutation::DuplicatePlacement,
        Mutation::OverfullCache,
        Mutation::DropAssignment,
        Mutation::InflateAssignment,
        Mutation::ZeroCountAssignment,
        Mutation::UndemandedAssignment,
        Mutation::UncachedTarget,
        Mutation::OverservedHotspot,
    ];

    fn mutate(
        m: Mutation,
        seed: u64,
        d: &mut SlotDecision,
        demand: &SlotDemand,
        service: &mut [u64],
        cache: &mut [u64],
        videos: u32,
    ) {
        let n = d.placements.len();
        let h = (seed % n as u64) as usize;
        let pick = |len: usize, salt: u64| (mix(seed, salt) % len.max(1) as u64) as usize;
        match m {
            Mutation::DuplicatePlacement => {
                let row = &mut d.placements[h];
                match row.len() {
                    0 => row.extend([VideoId(0), VideoId(0)]),
                    1 => row.push(row[0]),
                    len => {
                        let i = pick(len - 1, 1);
                        let j = i + 1 + pick(len - 1 - i, 2);
                        let (a, b) = (row[i], row[j]);
                        row.extend([b, a]);
                    }
                }
            }
            Mutation::OverfullCache => {
                if d.placements[h].is_empty() {
                    d.placements[h].push(VideoId(videos));
                }
                cache[h] = d.placements[h].len() as u64 - 1;
            }
            Mutation::DropAssignment => {
                if !d.assignments.is_empty() {
                    d.assignments.remove(pick(d.assignments.len(), 3));
                }
            }
            Mutation::InflateAssignment => {
                if !d.assignments.is_empty() {
                    let i = pick(d.assignments.len(), 4);
                    d.assignments[i].count += 1 + seed % 3;
                }
            }
            Mutation::ZeroCountAssignment => {
                let video = VideoId((mix(seed, 5) % u64::from(videos + 1)) as u32);
                d.assignments.push(Assignment {
                    from: HotspotId(h),
                    video,
                    target: Target::Cdn,
                    count: 0,
                });
            }
            Mutation::UndemandedAssignment => {
                let video = (0..=videos)
                    .map(VideoId)
                    .find(|&v| demand.video_demand(HotspotId(h), v) == 0)
                    .unwrap_or(VideoId(videos + 1));
                let target = match d.placements.iter().position(|p| p.contains(&video)) {
                    Some(j) if seed.is_multiple_of(2) => Target::Hotspot(HotspotId(j)),
                    _ => Target::Cdn,
                };
                d.assignments.push(Assignment {
                    from: HotspotId(h),
                    video,
                    target,
                    count: 1 + seed % 4,
                });
            }
            Mutation::UncachedTarget => {
                if !d.assignments.is_empty() {
                    let i = pick(d.assignments.len(), 6);
                    let video = d.assignments[i].video;
                    if let Some(j) = (0..n).find(|&j| !d.placements[j].contains(&video)) {
                        d.assignments[i].target = Target::Hotspot(HotspotId(j));
                    }
                }
            }
            Mutation::OverservedHotspot => {
                let loads = served_loads(n, d);
                if let Some(j) = (0..n).map(|k| (h + k) % n).find(|&j| loads[j] > 0) {
                    service[j] = loads[j] - 1;
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The row `evaluate` returns exactly the reference's `Result` —
        /// the same metrics, with the distance sum equal to the bit, or
        /// the same error variant and fields — for valid decisions and
        /// for any mix of the mutations above.
        #[test]
        fn prop_evaluate_matches_the_tree_reference(
            hotspots in 2usize..16,
            requests in 0usize..1_200,
            videos in 1u32..120,
            trace_seed in 0u64..1_000,
            place_seed in any::<u64>(),
            mutations in prop::collection::vec((0usize..8, any::<u64>()), 0..4),
        ) {
            let trace = TraceConfig::small_test()
                .with_hotspot_count(hotspots)
                .with_request_count(requests)
                .with_video_count(videos as usize)
                .with_seed(trace_seed)
                .with_slot_count(1)
                .generate();
            let geometry = HotspotGeometry::new(trace.region, &trace.hotspots);
            let demand = SlotDemand::aggregate(trace.slot_requests(0), &geometry);
            let mut service: Vec<u64> =
                trace.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect();
            let mut cache: Vec<u64> =
                trace.hotspots.iter().map(|h| u64::from(h.cache_capacity)).collect();
            // A valid decision: failover routing against random
            // placements within each cache.
            let placements: Vec<Vec<VideoId>> = (0..hotspots)
                .map(|h| {
                    let want = (mix(place_seed, h as u64) % (cache[h] + 1)) as usize;
                    let mut row: Vec<VideoId> = (0..want)
                        .map(|k| VideoId((mix(place_seed, (h * 1_000 + k) as u64) % u64::from(videos)) as u32))
                        .collect();
                    row.sort_unstable();
                    row.dedup();
                    // Planner order is not sorted order.
                    let shift = want / 2 % row.len().max(1);
                    row.rotate_left(shift);
                    row
                })
                .collect();
            let alive = vec![true; hotspots];
            let (mut decision, _) =
                route_with_failover(&geometry, &demand, &service, &placements, &alive);
            let valid = SlotInput {
                geometry: &geometry,
                demand: &demand,
                service_capacity: &service,
                cache_capacity: &cache,
                video_count: trace.video_count,
            };
            prop_assert!(reference_evaluate(&valid, &decision).is_ok());
            for &(kind, seed) in &mutations {
                mutate(MUTATIONS[kind], seed, &mut decision, &demand, &mut service, &mut cache, videos);
            }
            let input = SlotInput {
                geometry: &geometry,
                demand: &demand,
                service_capacity: &service,
                cache_capacity: &cache,
                video_count: trace.video_count,
            };
            let got = SlotMetrics::evaluate(&input, &decision);
            let want = reference_evaluate(&input, &decision);
            prop_assert_eq!(&got, &want, "mutations {:?}", mutations);
            if let (Ok(g), Ok(w)) = (&got, &want) {
                prop_assert_eq!(g.distance_sum_km.to_bits(), w.distance_sum_km.to_bits());
            }
        }
    }
}
