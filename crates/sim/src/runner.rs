use crate::{
    HotspotGeometry, MetricsTotals, Scheme, SlotDemand, SlotInput, SlotMetrics, ValidationError,
};
use ccdn_par::Threads;
use ccdn_trace::Trace;
use std::time::Duration;

/// Per-slot record in a [`RunReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotOutcome {
    /// The timeslot index.
    pub slot: u32,
    /// The validated metrics.
    pub metrics: SlotMetrics,
    /// Wall-clock time the scheme spent deciding this slot.
    pub scheduling_time: Duration,
}

/// Outcome of driving a [`Scheme`] over every timeslot of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The scheme's name.
    pub scheme: String,
    /// One outcome per timeslot, in slot order.
    pub slots: Vec<SlotOutcome>,
    /// Request-weighted totals across slots.
    pub total: MetricsTotals,
    /// Total scheduling wall-clock time across slots (excludes
    /// aggregation, which is identical for every scheme).
    pub scheduling_time: Duration,
}

/// Drives schemes over a trace, slot by slot: aggregate → schedule →
/// validate → score.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug)]
pub struct Runner<'a> {
    trace: &'a Trace,
    geometry: HotspotGeometry,
    threads: Threads,
}

impl<'a> Runner<'a> {
    /// Creates a runner for `trace`.
    pub fn new(trace: &'a Trace) -> Self {
        let geometry = HotspotGeometry::new(trace.region, &trace.hotspots);
        Runner { trace, geometry, threads: Threads::Auto }
    }

    /// Sets the worker thread count for the pure per-slot phases (demand
    /// aggregation, metric evaluation). The report is bit-identical for
    /// every value — only wall-clock time changes. Scheduling itself is
    /// stateful and always runs sequentially in slot order.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = Threads::Fixed(n);
        self
    }

    /// The geometry the runner uses (shared with measurement tooling).
    pub fn geometry(&self) -> &HotspotGeometry {
        &self.geometry
    }

    /// Runs `scheme` over every timeslot.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ValidationError`] a slot decision violates.
    pub fn run<S: Scheme + ?Sized>(&self, scheme: &mut S) -> Result<RunReport, ValidationError> {
        let slot_ids: Vec<u32> = (0..self.trace.slot_count).collect();

        // Demand aggregation is pure per slot: fan out, merge in slot
        // order (ccdn-par's ordered join keeps the output bit-identical
        // for every thread count).
        let demands: Vec<SlotDemand> = {
            let _span = ccdn_obs::span("sim.runner.aggregate");
            ccdn_par::par_map(self.threads, &slot_ids, |&slot| {
                SlotDemand::aggregate(self.trace.slot_requests(slot), &self.geometry)
            })
        };

        // Every slot plans and is scored against the same capacities.
        let service_capacity: Vec<u64> =
            self.trace.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect();
        let cache_capacity: Vec<u64> =
            self.trace.hotspots.iter().map(|h| u64::from(h.cache_capacity)).collect();
        let input = |demand| SlotInput {
            geometry: &self.geometry,
            demand,
            service_capacity: &service_capacity,
            cache_capacity: &cache_capacity,
            video_count: self.trace.video_count,
        };

        // Scheduling is stateful (`&mut S`) and timed, so it stays
        // sequential in slot order.
        let _schedule_span = ccdn_obs::span("sim.runner.schedule");
        let mut scheduling_time = Duration::ZERO;
        let mut scheduled = Vec::with_capacity(slot_ids.len());
        for demand in &demands {
            let (decision, elapsed) = ccdn_obs::timed(|| scheme.schedule(&input(demand)));
            scheduling_time += elapsed;
            scheduled.push((decision, elapsed));
        }
        drop(_schedule_span);

        // Metric evaluation is pure per slot: fan out again.
        let _eval_span = ccdn_obs::span("sim.runner.evaluate");
        let evaluated =
            ccdn_par::par_map_indexed(self.threads, 0, &scheduled, |i, (decision, _)| {
                SlotMetrics::evaluate(&input(&demands[i]), decision)
            });
        drop(_eval_span);

        // Sequential merge: the first error in slot order propagates, so
        // error reporting matches the sequential path exactly.
        let mut slots = Vec::with_capacity(slot_ids.len());
        let mut total = MetricsTotals::default();
        for ((slot, result), (_, elapsed)) in
            slot_ids.iter().copied().zip(evaluated).zip(&scheduled)
        {
            let metrics = result?;
            #[cfg(feature = "strict-invariants")]
            if let Err(violation) = crate::validate::check_slot_accounting(&metrics) {
                // lint: allow(no-panic): strict-invariants deliberately aborts on a violated invariant
                panic!("strict-invariants: slot {slot} breaks demand conservation: {violation}");
            }
            total.add(&metrics);
            slots.push(SlotOutcome { slot, metrics, scheduling_time: *elapsed });
        }
        Ok(RunReport { scheme: scheme.name().to_owned(), slots, total, scheduling_time })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SlotDecision, Target};
    use ccdn_trace::TraceConfig;

    /// Serves everything from the CDN.
    struct CdnOnly;

    impl Scheme for CdnOnly {
        fn name(&self) -> &'static str {
            "cdn-only"
        }

        fn schedule(&mut self, input: &SlotInput<'_>) -> SlotDecision {
            let mut d = SlotDecision::new(input.hotspot_count());
            for (h, vd) in input.demand.per_video() {
                d.assign(h, vd.video, Target::Cdn, vd.count);
            }
            d
        }
    }

    /// A deliberately broken scheme that drops all demand.
    struct DropsEverything;

    impl Scheme for DropsEverything {
        fn name(&self) -> &'static str {
            "broken"
        }

        fn schedule(&mut self, input: &SlotInput<'_>) -> SlotDecision {
            SlotDecision::new(input.hotspot_count())
        }
    }

    #[test]
    fn cdn_only_covers_all_slots() {
        let trace = TraceConfig::small_test().generate();
        let report = Runner::new(&trace).run(&mut CdnOnly).unwrap();
        assert_eq!(report.scheme, "cdn-only");
        assert_eq!(report.slots.len(), trace.slot_count as usize);
        assert_eq!(report.total.sums.total_requests, trace.requests.len() as u64);
        assert_eq!(report.total.hotspot_serving_ratio(), 0.0);
        assert_eq!(report.total.cdn_server_load(), 1.0);
        assert!((report.total.average_distance_km() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_schemes_are_rejected() {
        let trace = TraceConfig::small_test().generate();
        let err = Runner::new(&trace).run(&mut DropsEverything).unwrap_err();
        assert!(matches!(err, ValidationError::DemandMismatch { .. }));
    }

    #[test]
    fn scheduling_time_accumulates() {
        let trace = TraceConfig::small_test().generate();
        let report = Runner::new(&trace).run(&mut CdnOnly).unwrap();
        let summed: Duration = report.slots.iter().map(|s| s.scheduling_time).sum();
        assert_eq!(summed, report.scheduling_time);
    }
}
