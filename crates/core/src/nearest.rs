use crate::serving::{serve_locally, LocalServeOutcome};
use ccdn_sim::{Scheme, SlotDecision, SlotInput};
use ccdn_trace::HotspotId;

/// The **Nearest** routing baseline (§V-A).
///
/// Every request is served by its nearest hotspot, and "each hotspot
/// caches the most popular files based on the requests of the nearby
/// users independently from the others". No cooperation: a crowded
/// hotspot overflows straight to the CDN server while a neighbour idles —
/// the inefficiency the paper's Fig. 2 quantifies.
///
/// # Examples
///
/// ```
/// use ccdn_core::Nearest;
/// use ccdn_sim::Runner;
/// use ccdn_trace::TraceConfig;
///
/// let trace = TraceConfig::small_test().generate();
/// let report = Runner::new(&trace).run(&mut Nearest::new()).unwrap();
/// assert!(report.total.hotspot_serving_ratio() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Nearest {
    _private: (),
}

impl Nearest {
    /// Creates the scheme.
    pub fn new() -> Self {
        Nearest::default()
    }
}

impl Scheme for Nearest {
    fn name(&self) -> &str {
        "Nearest"
    }

    fn schedule(&mut self, input: &SlotInput<'_>) -> SlotDecision {
        let mut decision = SlotDecision::new(input.hotspot_count());
        let mut local = LocalServeOutcome::default();
        let mut by_popularity = Vec::new();
        for h in 0..input.hotspot_count() {
            let h = HotspotId(h);
            local.absorb(serve_locally(
                &mut decision,
                h,
                input.demand.videos(h),
                &[],
                input.cache_capacity[h.0],
                input.service_capacity[h.0],
                &mut None,
                &mut by_popularity,
            ));
        }
        local.add_to_counters();
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
        let report = Runner::new(&trace).run(&mut Nearest::new()).unwrap();
        assert_eq!(report.total.sums.total_requests, trace.requests.len() as u64);
        // Something is served locally, something overflows.
        assert!(report.total.hotspot_serving_ratio() > 0.0);
    }

    #[test]
    fn zero_capacity_sends_everything_to_cdn() {
        let mut trace = TraceConfig::small_test().generate();
        for h in &mut trace.hotspots {
            h.service_capacity = 0;
        }
        let report = Runner::new(&trace).run(&mut Nearest::new()).unwrap();
        assert_eq!(report.total.hotspot_serving_ratio(), 0.0);
        // Nothing is placed either: replication would be waste.
        assert_eq!(report.total.replication_cost(), 0.0);
    }

    #[test]
    fn more_capacity_never_hurts_serving_ratio() {
        let small = TraceConfig::small_test().with_service_capacity_fraction(0.02).generate();
        let big = TraceConfig::small_test().with_service_capacity_fraction(0.2).generate();
        let r_small = Runner::new(&small).run(&mut Nearest::new()).unwrap();
        let r_big = Runner::new(&big).run(&mut Nearest::new()).unwrap();
        assert!(
            r_big.total.hotspot_serving_ratio() >= r_small.total.hotspot_serving_ratio() - 1e-9
        );
    }
}
