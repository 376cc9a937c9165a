//! Wrappers that time the planner and the predictor from outside the
//! library, through the public `Scheme` and `PopularityPredictor` traits.

use crate::spans::{within, Recorder};
use ccdn_cluster::{hierarchical_cluster, jaccard, DistanceMatrix};
use ccdn_core::Rbcaer;
use ccdn_sim::{PopularityPredictor, Scheme, SlotDecision, SlotDemand, SlotInput, Target};
use ccdn_trace::{HotspotId, VideoId};
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Duration;

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A scheme wrapper that records each slot's scheduling latency and
/// counts the requests each decision redirects away from the hotspot they
/// aggregated at.
pub struct Timed<'r> {
    inner: Box<dyn Scheme>,
    pub latencies_ns: Vec<u64>,
    pub redirected: u64,
    rec: Option<&'r RefCell<Recorder>>,
    /// In traced passes of flat RBCAer, the planner whose clustering and
    /// balancing stages are re-run as side probes after each slot.
    probe: Option<Rbcaer>,
}

impl<'r> Timed<'r> {
    pub fn new(inner: Box<dyn Scheme>) -> Self {
        Timed { inner, latencies_ns: Vec::new(), redirected: 0, rec: None, probe: None }
    }

    pub fn traced(
        inner: Box<dyn Scheme>,
        rec: &'r RefCell<Recorder>,
        probe: Option<Rbcaer>,
    ) -> Self {
        Timed { rec: Some(rec), probe, ..Timed::new(inner) }
    }
}

impl Scheme for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, input: &SlotInput<'_>) -> SlotDecision {
        let slot = Some(self.latencies_ns.len() as u32);
        let inner = &mut self.inner;
        let (decision, elapsed) = within(self.rec, "core.schedule", slot, false, || {
            ccdn_obs::timed(|| inner.schedule(input))
        });
        self.latencies_ns.push(nanos(elapsed));
        self.redirected += decision
            .assignments
            .iter()
            .filter(|a| matches!(a.target, Target::Hotspot(j) if j != a.from))
            .map(|a| a.count)
            .sum::<u64>();
        if let (Some(rec), Some(planner)) = (self.rec, &self.probe) {
            side_probes(rec, planner, input, slot);
        }
        decision
    }
}

/// Re-runs RBCAer's stages on the slot just planned, with the library's
/// probes off so its counters see only the real call: the clustering call
/// sequence of `rbcaer/clustering.rs`, then `balance_only` (clustering plus
/// balancing). The spans are tagged as probes.
fn side_probes(
    rec: &RefCell<Recorder>,
    planner: &Rbcaer,
    input: &SlotInput<'_>,
    slot: Option<u32>,
) {
    ccdn_obs::set_enabled(false);
    let config = planner.config();
    within(Some(rec), "probe.cluster", slot, true, || {
        let n = input.hotspot_count();
        let mut scratch = Vec::new();
        let sets: Vec<Vec<VideoId>> = (0..n)
            .map(|h| {
                let mut top = Vec::new();
                input.demand.top_videos_into(
                    HotspotId(h),
                    config.top_fraction,
                    &mut scratch,
                    &mut top,
                );
                top
            })
            .collect();
        let matrix = DistanceMatrix::from_fn(n, |i, j| 1.0 - jaccard(&sets[i], &sets[j]));
        black_box(hierarchical_cluster(&matrix, config.linkage, config.cluster_threshold));
    });
    within(Some(rec), "probe.balance_only", slot, true, || black_box(planner.balance_only(input)));
    ccdn_obs::set_enabled(true);
}

/// A predictor wrapper that spans `predict` and `observe` in traced
/// passes.
pub struct TimedPredictor<'r, P> {
    inner: P,
    rec: Option<&'r RefCell<Recorder>>,
}

impl<'r, P> TimedPredictor<'r, P> {
    pub fn new(inner: P, rec: Option<&'r RefCell<Recorder>>) -> Self {
        TimedPredictor { inner, rec }
    }
}

impl<P: PopularityPredictor> PopularityPredictor for TimedPredictor<'_, P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn observe(&mut self, demand: &SlotDemand) {
        let inner = &mut self.inner;
        within(self.rec, "sim.predict", None, false, || inner.observe(demand));
    }

    fn predict(&self) -> Option<SlotDemand> {
        within(self.rec, "sim.predict", None, false, || self.inner.predict())
    }
}
