//! Popularity prediction.
//!
//! The paper's system model assumes "the popularity distribution of the
//! files changes slowly and can be learned through some popularity
//! prediction algorithm (like the regression model ARIMA)" (§III), after
//! which hotspots prefetch content for the *coming* slot. The offline
//! [`Runner`](crate::Runner) sidesteps this by showing schemes the
//! realized demand; the [`OnlineRunner`](crate::OnlineRunner) instead
//! feeds them a [`PopularityPredictor`]'s forecast and routes the real
//! requests against the resulting placement.
//!
//! Provided predictors: [`LastSlot`] (naive persistence), [`Ewma`]
//! (exponentially weighted moving average — our stand-in for the paper's
//! ARIMA, appropriate for slowly drifting popularity), and
//! [`WindowMean`] (mean of the last `k` slots).

use crate::rows::{merge_join, Joined};
use crate::{SlotDemand, VideoDemand};
use ccdn_trace::{HotspotId, VideoId};

/// Forecasts the next slot's per-hotspot per-video demand from the
/// history of observed demand.
pub trait PopularityPredictor {
    /// Human-readable name (used in experiment tables).
    fn name(&self) -> &str;

    /// Feeds the realized demand of a completed slot.
    fn observe(&mut self, demand: &SlotDemand);

    /// Predicts the next slot's demand, or `None` before the first
    /// observation (cold start).
    fn predict(&self) -> Option<SlotDemand>;
}

/// One hotspot's forecast rates, sorted by video id: the form every
/// predictor's state takes and [`rates_to_demand`] rounds into demand.
type RateRow = Vec<(VideoId, f64)>;

fn demand_to_rates(demand: &SlotDemand) -> Vec<RateRow> {
    (0..demand.hotspot_count())
        .map(|h| demand.videos(HotspotId(h)).iter().map(|vd| (vd.video, vd.count as f64)).collect())
        .collect()
}

fn rates_to_demand(rates: &[RateRow], base: &[f64]) -> SlotDemand {
    let per_video: Vec<Vec<VideoDemand>> = rates
        .iter()
        .map(|row| {
            row.iter()
                .filter_map(|&(video, rate)| {
                    let count = rate.round() as i64;
                    (count > 0).then_some(VideoDemand { video, count: count as u64 })
                })
                .collect()
        })
        .collect();
    SlotDemand::from_parts(per_video, base.to_vec())
}

/// Predicts that the next slot repeats the last observed slot exactly.
///
/// # Examples
///
/// ```
/// use ccdn_sim::{HotspotGeometry, LastSlot, PopularityPredictor, SlotDemand};
/// use ccdn_trace::TraceConfig;
///
/// let trace = TraceConfig::small_test().generate();
/// let geo = HotspotGeometry::new(trace.region, &trace.hotspots);
/// let observed = SlotDemand::aggregate(trace.slot_requests(20), &geo);
///
/// let mut predictor = LastSlot::new();
/// assert!(predictor.predict().is_none());
/// predictor.observe(&observed);
/// let forecast = predictor.predict().unwrap();
/// assert_eq!(forecast.total_requests(), observed.total_requests());
/// ```
#[derive(Debug, Clone, Default)]
pub struct LastSlot {
    last: Option<SlotDemand>,
}

impl LastSlot {
    /// Creates the predictor.
    pub fn new() -> Self {
        LastSlot::default()
    }
}

impl PopularityPredictor for LastSlot {
    fn name(&self) -> &str {
        "last-slot"
    }

    fn observe(&mut self, demand: &SlotDemand) {
        self.last = Some(demand.clone());
    }

    fn predict(&self) -> Option<SlotDemand> {
        self.last.clone()
    }
}

/// Exponentially weighted moving average of per-(hotspot, video) demand:
/// `rate ← (1 − α)·rate + α·observed`. Our stand-in for the paper's
/// ARIMA citation — apt for the slowly-drifting popularity the paper
/// assumes.
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    rates: Option<Vec<RateRow>>,
    base: Vec<f64>,
}

impl Ewma {
    /// Creates the predictor with smoothing factor `alpha ∈ (0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma { alpha, rates: None, base: Vec::new() }
    }

    /// The smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl PopularityPredictor for Ewma {
    fn name(&self) -> &str {
        "ewma"
    }

    fn observe(&mut self, demand: &SlotDemand) {
        self.base =
            (0..demand.hotspot_count()).map(|h| demand.mean_base_distance(HotspotId(h))).collect();
        let Some(rates) = &mut self.rates else {
            self.rates = Some(demand_to_rates(demand));
            return;
        };
        let alpha = self.alpha;
        let mut next = RateRow::new();
        for (row, h) in rates.iter_mut().zip(0..demand.hotspot_count()) {
            // Decay every rate, mix the new observation in, and drop
            // negligible remnants so state stays bounded.
            let observed = demand.videos(HotspotId(h));
            let mixed =
                merge_join(row, |r| r.0, observed, |d| d.video).map(|joined| match joined {
                    Joined::Left(&(video, rate)) => (video, rate * (1.0 - alpha)),
                    Joined::Right(d) => (d.video, 0.0 + alpha * d.count as f64),
                    Joined::Both(&(video, rate), d) => {
                        (video, rate * (1.0 - alpha) + alpha * d.count as f64)
                    }
                });
            next.clear();
            next.extend(mixed.filter(|&(_, rate)| rate >= 0.25));
            std::mem::swap(row, &mut next);
        }
    }

    fn predict(&self) -> Option<SlotDemand> {
        self.rates.as_ref().map(|r| rates_to_demand(r, &self.base))
    }
}

/// Mean demand over the last `k` observed slots.
#[derive(Debug, Clone)]
pub struct WindowMean {
    window: usize,
    history: std::collections::VecDeque<Vec<RateRow>>,
    base: Vec<f64>,
}

impl WindowMean {
    /// Creates the predictor with window length `window ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be at least 1");
        WindowMean { window, history: std::collections::VecDeque::new(), base: Vec::new() }
    }
}

impl PopularityPredictor for WindowMean {
    fn name(&self) -> &str {
        "window-mean"
    }

    fn observe(&mut self, demand: &SlotDemand) {
        self.base =
            (0..demand.hotspot_count()).map(|h| demand.mean_base_distance(HotspotId(h))).collect();
        self.history.push_back(demand_to_rates(demand));
        while self.history.len() > self.window {
            self.history.pop_front();
        }
    }

    fn predict(&self) -> Option<SlotDemand> {
        if self.history.is_empty() {
            return None;
        }
        let n = self.history[0].len();
        let mut mean: Vec<RateRow> = vec![RateRow::new(); n];
        let mut next = RateRow::new();
        // Sum each video's counts over the window, oldest slot first.
        for slot in &self.history {
            for (acc, obs) in mean.iter_mut().zip(slot) {
                next.clear();
                next.extend(merge_join(acc, |r| r.0, obs, |r| r.0).map(|joined| match joined {
                    Joined::Left(&sum) => sum,
                    Joined::Right(&(video, count)) => (video, 0.0 + count),
                    Joined::Both(&(video, sum), &(_, count)) => (video, sum + count),
                }));
                std::mem::swap(acc, &mut next);
            }
        }
        let k = self.history.len() as f64;
        for acc in &mut mean {
            for (_, rate) in acc.iter_mut() {
                *rate /= k;
            }
        }
        Some(rates_to_demand(&mean, &self.base))
    }
}

/// Seasonal-naive prediction: the next slot repeats the slot observed one
/// `period` ago (e.g. `period = 24` → "same hour yesterday").
///
/// Daily seasonality dominates video demand — the paper's §II measurement
/// is built on exactly that structure — so on multi-day traces this
/// simple predictor beats last-slot persistence once a full period of
/// history exists. Falls back to the most recent slot until then.
#[derive(Debug, Clone)]
pub struct SeasonalNaive {
    period: usize,
    history: std::collections::VecDeque<SlotDemand>,
}

impl SeasonalNaive {
    /// Creates the predictor with the given seasonality `period` (slots).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: usize) -> Self {
        assert!(period > 0, "period must be at least 1");
        SeasonalNaive { period, history: std::collections::VecDeque::new() }
    }

    /// The configured period.
    pub fn period(&self) -> usize {
        self.period
    }
}

impl PopularityPredictor for SeasonalNaive {
    fn name(&self) -> &str {
        "seasonal-naive"
    }

    fn observe(&mut self, demand: &SlotDemand) {
        self.history.push_back(demand.clone());
        while self.history.len() > self.period {
            self.history.pop_front();
        }
    }

    fn predict(&self) -> Option<SlotDemand> {
        if self.history.len() >= self.period {
            // The slot `period` ago is the front of the window.
            self.history.front().cloned()
        } else {
            self.history.back().cloned()
        }
    }
}

/// One hotspot's Holt state, `(video, (level, trend))` sorted by video id.
type TrendRow = Vec<(VideoId, (f64, f64))>;

/// Holt's double exponential smoothing per `(hotspot, video)` pair:
/// a level plus a linear trend, so ramping videos (new releases) are
/// anticipated rather than chased.
///
/// `level ← α·obs + (1−α)·(level + trend)`;
/// `trend ← β·(level − level_prev) + (1−β)·trend`;
/// forecast = `max(level + trend, 0)`.
#[derive(Debug, Clone)]
pub struct HoltLinear {
    alpha: f64,
    beta: f64,
    state: Option<Vec<TrendRow>>,
    base: Vec<f64>,
}

impl HoltLinear {
    /// Creates the predictor; `alpha, beta ∈ (0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if either factor is outside `(0, 1]`.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(beta > 0.0 && beta <= 1.0, "beta must be in (0, 1]");
        HoltLinear { alpha, beta, state: None, base: Vec::new() }
    }
}

impl PopularityPredictor for HoltLinear {
    fn name(&self) -> &str {
        "holt-linear"
    }

    fn observe(&mut self, demand: &SlotDemand) {
        self.base =
            (0..demand.hotspot_count()).map(|h| demand.mean_base_distance(HotspotId(h))).collect();
        let Some(state) = &mut self.state else {
            self.state = Some(
                demand_to_rates(demand)
                    .into_iter()
                    .map(|row| row.into_iter().map(|(v, c)| (v, (c, 0.0))).collect())
                    .collect(),
            );
            return;
        };
        let (alpha, beta) = (self.alpha, self.beta);
        let mut next = TrendRow::new();
        for (pairs, h) in state.iter_mut().zip(0..demand.hotspot_count()) {
            // Update or decay the tracked pairs; admit newly seen videos.
            let observed = demand.videos(HotspotId(h));
            let updated = merge_join(pairs, |p| p.0, observed, |d| d.video).filter_map(|joined| {
                let (video, (prev_level, trend), observation) = match joined {
                    Joined::Right(d) => return Some((d.video, (d.count as f64, 0.0))),
                    Joined::Left(&(video, pair)) => (video, pair, 0.0),
                    Joined::Both(&(video, pair), d) => (video, pair, d.count as f64),
                };
                let level = alpha * observation + (1.0 - alpha) * (prev_level + trend);
                let trend = beta * (level - prev_level) + (1.0 - beta) * trend;
                // An observed pair always stays: its count is at least one.
                (level > 0.25 || observation > 0.0).then_some((video, (level, trend)))
            });
            next.clear();
            next.extend(updated);
            std::mem::swap(pairs, &mut next);
        }
    }

    fn predict(&self) -> Option<SlotDemand> {
        self.state.as_ref().map(|state| {
            let rates: Vec<RateRow> = state
                .iter()
                .map(|pairs| {
                    pairs.iter().map(|&(v, (level, trend))| (v, (level + trend).max(0.0))).collect()
                })
                .collect();
            rates_to_demand(&rates, &self.base)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HotspotGeometry;
    use ccdn_trace::TraceConfig;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn demands() -> Vec<SlotDemand> {
        let trace = TraceConfig::small_test().with_request_count(4_000).generate();
        let geo = HotspotGeometry::new(trace.region, &trace.hotspots);
        (0..trace.slot_count).map(|s| SlotDemand::aggregate(trace.slot_requests(s), &geo)).collect()
    }

    #[test]
    fn cold_start_predicts_nothing() {
        assert!(LastSlot::new().predict().is_none());
        assert!(Ewma::new(0.5).predict().is_none());
        assert!(WindowMean::new(3).predict().is_none());
    }

    #[test]
    fn last_slot_echoes_observation() {
        let ds = demands();
        let mut p = LastSlot::new();
        p.observe(&ds[10]);
        p.observe(&ds[11]);
        assert_eq!(p.predict().unwrap(), ds[11]);
    }

    #[test]
    fn ewma_with_alpha_one_equals_last_slot() {
        let ds = demands();
        let mut ewma = Ewma::new(1.0);
        ewma.observe(&ds[12]);
        let predicted = ewma.predict().unwrap();
        assert_eq!(predicted.total_requests(), ds[12].total_requests());
        for h in 0..predicted.hotspot_count() {
            assert_eq!(predicted.videos(HotspotId(h)), ds[12].videos(HotspotId(h)), "hotspot {h}");
        }
    }

    #[test]
    fn ewma_converges_on_stationary_demand() {
        let ds = demands();
        let mut ewma = Ewma::new(0.3);
        for _ in 0..20 {
            ewma.observe(&ds[20]);
        }
        let predicted = ewma.predict().unwrap();
        // Repeatedly observing the same slot converges to it.
        let diff = predicted.total_requests().abs_diff(ds[20].total_requests());
        assert!(
            diff * 20 <= ds[20].total_requests().max(1),
            "ewma off by {diff} of {}",
            ds[20].total_requests()
        );
    }

    #[test]
    fn ewma_tracks_shift_in_demand() {
        let ds = demands();
        let mut ewma = Ewma::new(0.5);
        ewma.observe(&ds[2]); // quiet early-morning slot
        for _ in 0..10 {
            ewma.observe(&ds[20]); // busy evening slot
        }
        let predicted = ewma.predict().unwrap();
        let target = ds[20].total_requests() as f64;
        assert!(
            (predicted.total_requests() as f64 - target).abs() / target.max(1.0) < 0.2,
            "predicted {} vs target {target}",
            predicted.total_requests()
        );
    }

    #[test]
    fn window_mean_averages() {
        let ds = demands();
        let mut p = WindowMean::new(2);
        p.observe(&ds[20]);
        p.observe(&ds[21]);
        p.observe(&ds[22]); // window keeps [21, 22]
        let predicted = p.predict().unwrap();
        // Reference: round the per-(hotspot, video) mean of the two
        // windowed slots, exactly as the predictor does.
        let mut expected = 0u64;
        for h in 0..predicted.hotspot_count() {
            let hid = HotspotId(h);
            let mut union: BTreeMap<VideoId, f64> = BTreeMap::new();
            for d in [&ds[21], &ds[22]] {
                for vd in d.videos(hid) {
                    *union.entry(vd.video).or_insert(0.0) += vd.count as f64 / 2.0;
                }
            }
            for (&video, &mean) in &union {
                let rounded = mean.round() as u64;
                assert_eq!(
                    predicted.video_demand(hid, video),
                    rounded,
                    "hotspot {h}, video {video}"
                );
                expected += rounded;
            }
        }
        assert_eq!(predicted.total_requests(), expected);
        // Slot 20 fell out of the window: a window of 2 only sees 21, 22.
        assert_eq!(p.history.len(), 2);
    }

    #[test]
    fn seasonal_naive_repeats_same_slot_of_previous_period() {
        let ds = demands();
        let mut p = SeasonalNaive::new(3);
        p.observe(&ds[10]);
        p.observe(&ds[11]);
        // Not a full period yet: falls back to the latest slot.
        assert_eq!(p.predict().unwrap(), ds[11]);
        p.observe(&ds[12]);
        // Full period: predicts the slot 3 observations ago.
        assert_eq!(p.predict().unwrap(), ds[10]);
        p.observe(&ds[13]);
        assert_eq!(p.predict().unwrap(), ds[11]);
    }

    #[test]
    fn seasonal_naive_exact_on_periodic_demand() {
        let ds = demands();
        let mut p = SeasonalNaive::new(2);
        // Alternate two slots; after warm-up the prediction is exact.
        for _ in 0..3 {
            p.observe(&ds[18]);
            p.observe(&ds[21]);
        }
        assert_eq!(p.predict().unwrap(), ds[18]);
    }

    #[test]
    fn holt_tracks_a_linear_ramp() {
        // A single hotspot with one video ramping 10, 20, 30, ...: Holt
        // should forecast ahead of the last observation.
        let trace = TraceConfig::small_test().with_hotspot_count(1).generate();
        let geo = HotspotGeometry::new(trace.region, &trace.hotspots);
        let mk = |count: u64| {
            let reqs: Vec<ccdn_trace::Request> = (0..count)
                .map(|_| ccdn_trace::Request {
                    user: ccdn_trace::UserId(0),
                    video: VideoId(7),
                    timeslot: 0,
                    location: trace.hotspots[0].location,
                })
                .collect();
            SlotDemand::aggregate(&reqs, &geo)
        };
        let mut p = HoltLinear::new(0.8, 0.8);
        for c in [10u64, 20, 30, 40, 50] {
            p.observe(&mk(c));
        }
        let forecast = p.predict().unwrap();
        let predicted = forecast.video_demand(HotspotId(0), VideoId(7));
        assert!(
            predicted > 50,
            "holt should extrapolate the ramp beyond the last value, got {predicted}"
        );
        assert!(predicted < 80, "overshoot: {predicted}");
    }

    #[test]
    fn holt_decays_dead_videos() {
        let trace = TraceConfig::small_test().with_hotspot_count(1).generate();
        let geo = HotspotGeometry::new(trace.region, &trace.hotspots);
        let burst = {
            let reqs: Vec<ccdn_trace::Request> = (0..40)
                .map(|_| ccdn_trace::Request {
                    user: ccdn_trace::UserId(0),
                    video: VideoId(3),
                    timeslot: 0,
                    location: trace.hotspots[0].location,
                })
                .collect();
            SlotDemand::aggregate(&reqs, &geo)
        };
        let silence = SlotDemand::aggregate(&[], &geo);
        let mut p = HoltLinear::new(0.6, 0.3);
        p.observe(&burst);
        for _ in 0..12 {
            p.observe(&silence);
        }
        let forecast = p.predict().unwrap();
        assert_eq!(forecast.video_demand(HotspotId(0), VideoId(3)), 0);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn zero_period_panics() {
        let _ = SeasonalNaive::new(0);
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn bad_beta_panics() {
        let _ = HoltLinear::new(0.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let _ = WindowMean::new(0);
    }

    // Reference predictors with their state in one `BTreeMap` per
    // hotspot; the differential test below pins the row versions to them
    // after every observation.

    fn reference_demand_to_rates(demand: &SlotDemand) -> Vec<BTreeMap<VideoId, f64>> {
        (0..demand.hotspot_count())
            .map(|h| {
                demand.videos(HotspotId(h)).iter().map(|vd| (vd.video, vd.count as f64)).collect()
            })
            .collect()
    }

    fn reference_rates_to_demand(rates: &[BTreeMap<VideoId, f64>], base: &[f64]) -> SlotDemand {
        let per_video: Vec<Vec<VideoDemand>> = rates
            .iter()
            .map(|m| {
                m.iter()
                    .filter_map(|(&video, &rate)| {
                        let count = rate.round() as i64;
                        (count > 0).then_some(VideoDemand { video, count: count as u64 })
                    })
                    .collect()
            })
            .collect();
        SlotDemand::from_parts(per_video, base.to_vec())
    }

    fn reference_base(demand: &SlotDemand) -> Vec<f64> {
        (0..demand.hotspot_count()).map(|h| demand.mean_base_distance(HotspotId(h))).collect()
    }

    struct ReferenceEwma {
        alpha: f64,
        rates: Option<Vec<BTreeMap<VideoId, f64>>>,
        base: Vec<f64>,
    }

    impl ReferenceEwma {
        fn observe(&mut self, demand: &SlotDemand) {
            let observed = reference_demand_to_rates(demand);
            self.base = reference_base(demand);
            match &mut self.rates {
                None => self.rates = Some(observed),
                Some(rates) => {
                    for (slot_rates, obs) in rates.iter_mut().zip(&observed) {
                        for rate in slot_rates.values_mut() {
                            *rate *= 1.0 - self.alpha;
                        }
                        for (&video, &count) in obs {
                            *slot_rates.entry(video).or_insert(0.0) += self.alpha * count;
                        }
                        slot_rates.retain(|_, r| *r >= 0.25);
                    }
                }
            }
        }

        fn predict(&self) -> Option<SlotDemand> {
            self.rates.as_ref().map(|r| reference_rates_to_demand(r, &self.base))
        }
    }

    struct ReferenceWindowMean {
        window: usize,
        history: std::collections::VecDeque<Vec<BTreeMap<VideoId, f64>>>,
        base: Vec<f64>,
    }

    impl ReferenceWindowMean {
        fn observe(&mut self, demand: &SlotDemand) {
            self.base = reference_base(demand);
            self.history.push_back(reference_demand_to_rates(demand));
            while self.history.len() > self.window {
                self.history.pop_front();
            }
        }

        fn predict(&self) -> Option<SlotDemand> {
            let first = self.history.front()?;
            let mut mean: Vec<BTreeMap<VideoId, f64>> = vec![BTreeMap::new(); first.len()];
            for slot in &self.history {
                for (acc, obs) in mean.iter_mut().zip(slot) {
                    for (&video, &count) in obs {
                        *acc.entry(video).or_insert(0.0) += count;
                    }
                }
            }
            let k = self.history.len() as f64;
            for acc in &mut mean {
                for rate in acc.values_mut() {
                    *rate /= k;
                }
            }
            Some(reference_rates_to_demand(&mean, &self.base))
        }
    }

    struct ReferenceHolt {
        alpha: f64,
        beta: f64,
        state: Option<Vec<BTreeMap<VideoId, (f64, f64)>>>,
        base: Vec<f64>,
    }

    impl ReferenceHolt {
        fn observe(&mut self, demand: &SlotDemand) {
            let observed = reference_demand_to_rates(demand);
            self.base = reference_base(demand);
            match &mut self.state {
                None => {
                    self.state = Some(
                        observed
                            .into_iter()
                            .map(|m| m.into_iter().map(|(v, c)| (v, (c, 0.0))).collect())
                            .collect(),
                    );
                }
                Some(state) => {
                    for (pairs, obs) in state.iter_mut().zip(&observed) {
                        pairs.retain(|video, (level, trend)| {
                            let observation = obs.get(video).copied().unwrap_or(0.0);
                            let prev_level = *level;
                            *level = self.alpha * observation
                                + (1.0 - self.alpha) * (prev_level + *trend);
                            *trend = self.beta * (*level - prev_level) + (1.0 - self.beta) * *trend;
                            *level > 0.25 || observation > 0.0
                        });
                        for (&video, &count) in obs {
                            pairs.entry(video).or_insert((count, 0.0));
                        }
                    }
                }
            }
        }

        fn predict(&self) -> Option<SlotDemand> {
            self.state.as_ref().map(|state| {
                let rates: Vec<BTreeMap<VideoId, f64>> = state
                    .iter()
                    .map(|pairs| {
                        pairs
                            .iter()
                            .map(|(&v, &(level, trend))| (v, (level + trend).max(0.0)))
                            .collect()
                    })
                    .collect();
                reference_rates_to_demand(&rates, &self.base)
            })
        }
    }

    /// Rows as `(video, value bits)`, for exact state comparisons.
    fn row_bits<'a>(rows: impl IntoIterator<Item = (&'a VideoId, f64)>) -> Vec<(u32, u64)> {
        rows.into_iter().map(|(v, x)| (v.0, x.to_bits())).collect()
    }

    /// Demand over `hotspots` hotspots from `(video, count)` draws per
    /// hotspot; a hotspot's draws may repeat a video (the last count wins)
    /// or be empty.
    fn demand_from(draws: &[Vec<(u32, u64)>], hotspots: usize, base_seed: u64) -> SlotDemand {
        let per_video: Vec<Vec<VideoDemand>> = (0..hotspots)
            .map(|h| {
                let row: BTreeMap<u32, u64> = draws.get(h).into_iter().flatten().copied().collect();
                row.into_iter().map(|(v, count)| VideoDemand { video: VideoId(v), count }).collect()
            })
            .collect();
        let base = (0..hotspots).map(|h| ((base_seed >> (h % 32)) % 7) as f64 * 0.37).collect();
        SlotDemand::from_parts(per_video, base)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// After every observation of a random sequence — sparse and dense
        /// rows, empty slots, videos that come and go, counts small enough
        /// to decay below the 0.25 cut-off — each row predictor forecasts
        /// exactly what its tree reference does, and its state matches the
        /// reference's to the bit.
        #[test]
        fn prop_row_predictors_match_tree_references(
            hotspots in 1usize..6,
            slots in prop::collection::vec(
                prop::collection::vec(prop::collection::vec((0u32..24, 1u64..40), 0..10), 0..6),
                1..14,
            ),
            base_seed in any::<u64>(),
            alpha in prop::sample::select(vec![0.05, 0.3, 0.5, 0.77, 1.0]),
            beta in prop::sample::select(vec![0.1, 0.3, 0.8, 1.0]),
            window in 1usize..5,
        ) {
            let mut ewma = Ewma::new(alpha);
            let mut window_mean = WindowMean::new(window);
            let mut holt = HoltLinear::new(alpha, beta);
            let mut ref_ewma = ReferenceEwma { alpha, rates: None, base: Vec::new() };
            let mut ref_window = ReferenceWindowMean {
                window,
                history: std::collections::VecDeque::new(),
                base: Vec::new(),
            };
            let mut ref_holt = ReferenceHolt { alpha, beta, state: None, base: Vec::new() };
            for (t, draws) in slots.iter().enumerate() {
                let demand = demand_from(draws, hotspots, base_seed.rotate_left(t as u32));
                ewma.observe(&demand);
                window_mean.observe(&demand);
                holt.observe(&demand);
                ref_ewma.observe(&demand);
                ref_window.observe(&demand);
                ref_holt.observe(&demand);

                prop_assert_eq!(ewma.predict(), ref_ewma.predict(), "ewma after slot {}", t);
                prop_assert_eq!(window_mean.predict(), ref_window.predict(), "window after slot {}", t);
                prop_assert_eq!(holt.predict(), ref_holt.predict(), "holt after slot {}", t);

                let rows = ewma.rates.as_ref().unwrap();
                let maps = ref_ewma.rates.as_ref().unwrap();
                for (row, map) in rows.iter().zip(maps) {
                    prop_assert_eq!(
                        row_bits(row.iter().map(|(v, r)| (v, *r))),
                        row_bits(map.iter().map(|(v, r)| (v, *r)))
                    );
                }
                let rows = holt.state.as_ref().unwrap();
                let maps = ref_holt.state.as_ref().unwrap();
                for (row, map) in rows.iter().zip(maps) {
                    prop_assert_eq!(
                        row_bits(row.iter().flat_map(|(v, (l, t))| [(v, *l), (v, *t)])),
                        row_bits(map.iter().flat_map(|(v, (l, t))| [(v, *l), (v, *t)]))
                    );
                }
            }
        }
    }
}
