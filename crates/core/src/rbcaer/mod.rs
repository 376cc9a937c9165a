//! The RBCAer scheduler (§IV): clustering → balancing → Procedure 1.

pub(crate) mod balancing;
pub(crate) mod clustering;
pub(crate) mod procedure;

use crate::config::{RbcaerConfig, RobustConfig};
use crate::sharded;
use balancing::BalanceOutcome;
use ccdn_sim::{Scheme, SlotDecision, SlotInput};
use ccdn_trace::HotspotId;
use std::collections::BTreeSet;

/// The paper's **Request-Balancing and Content-Aggregation** scheduler.
///
/// Per timeslot (Algorithm 1 + Procedure 1):
///
/// 1. cluster hotspots by Jaccard content distance over their Top-20 %
///    requested videos (§IV-B);
/// 2. balance overload through min-cost max-flow over `Gc` — the
///    latency-cost network `Gd` rewired with flow-guide nodes so similar
///    overloaded hotspots drain into the same under-utilized hotspot —
///    sweeping the latency threshold `θ₁ → θ₂` (§IV-A/§IV-C);
/// 3. run Procedure 1 to pick the redirected videos (most aggregative
///    first), pin them into target caches, fill remaining cache with
///    local populars, and spill what no hotspot can serve to the CDN
///    (§IV-D).
///
/// The scheme is deterministic; the [`Runner`](ccdn_sim::Runner) validates
/// every decision against the model constraints (Eqs. 4–7). It is
/// [`ShardedRbcaer`](crate::ShardedRbcaer)'s pipeline on one tile that
/// holds every hotspot.
///
/// With [`RbcaerConfig::robustness`] set, the scheduler hardens against
/// hotspot failures: it plans against availability-discounted service
/// capacities and a cache reserve, then pins each hotspot's hottest
/// videos at `k` nearby cluster peers so failover routing finds alive
/// copies (see [`RobustConfig`]).
///
/// # Examples
///
/// ```
/// use ccdn_core::{Rbcaer, RbcaerConfig};
/// use ccdn_sim::Runner;
/// use ccdn_trace::TraceConfig;
///
/// let trace = TraceConfig::small_test().generate();
/// let report = Runner::new(&trace)
///     .run(&mut Rbcaer::new(RbcaerConfig::default()))
///     .unwrap();
/// assert!(report.total.hotspot_serving_ratio() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Rbcaer {
    config: RbcaerConfig,
}

impl Rbcaer {
    /// Creates the scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`RbcaerConfig::validate`]; use
    /// [`Rbcaer::try_new`] for the fallible form.
    pub fn new(config: RbcaerConfig) -> Self {
        match Self::try_new(config) {
            Ok(scheduler) => scheduler,
            // lint: allow(no-panic): documented constructor contract; try_new is the typed path
            Err(e) => panic!("invalid RBCAer configuration: {e}"),
        }
    }

    /// Fallible form of [`Rbcaer::new`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`](crate::ConfigError) when `config` fails
    /// [`RbcaerConfig::validate`].
    pub fn try_new(config: RbcaerConfig) -> Result<Self, crate::ConfigError> {
        config.validate()?;
        Ok(Rbcaer { config })
    }

    /// The active configuration.
    pub fn config(&self) -> &RbcaerConfig {
        &self.config
    }

    /// Runs only the clustering and balancing stages on one slot —
    /// exposed for the benchmark's per-phase probe and the flow-bound
    /// tests.
    pub fn balance_only(&self, input: &SlotInput<'_>) -> BalanceOutcome {
        self.balance(input).1
    }

    /// Runs the full clustering → balancing → Procedure 1 pipeline on one
    /// slot, without the robustness post-pass, and returns the balancing
    /// outcome with the decision — the pair
    /// [`crate::validate::check_plan`] consumes, exposed so tests and
    /// external validators can audit a plan against the flows that
    /// produced it. With the `strict-invariants` feature the check is
    /// asserted here.
    pub fn plan_parts(&self, input: &SlotInput<'_>) -> (BalanceOutcome, SlotDecision) {
        let (_, outcome) = self.balance(input);
        let decision = procedure::run(input, &outcome, &self.config);
        (outcome, decision)
    }

    /// Clusters and balances `input` as one tile that holds every
    /// hotspot; returns the content clusters with the outcome.
    fn balance(&self, input: &SlotInput<'_>) -> (Vec<usize>, BalanceOutcome) {
        let every: Vec<usize> = (0..input.hotspot_count()).collect();
        sharded::balance_tiles(input, &self.config, &[&every])
    }

    /// Pins each hotspot's hottest videos at `robust.redundancy` nearby
    /// peers — same content cluster preferred, ascending distance — using
    /// the cache space the reserve held back, within the remaining
    /// replication budget.
    fn add_redundancy(
        &self,
        input: &SlotInput<'_>,
        clusters: &[usize],
        robust: &RobustConfig,
        decision: &mut SlotDecision,
    ) {
        let n = input.hotspot_count();
        let mut budget =
            self.config.replication_budget.map(|b| b.saturating_sub(decision.replica_count()));
        let mut cached: Vec<BTreeSet<_>> =
            decision.placements.iter().map(|p| p.iter().copied().collect()).collect();
        let mut spare: Vec<u64> = (0..n)
            .map(|h| input.cache_capacity[h].saturating_sub(cached[h].len() as u64))
            .collect();

        for h in 0..n {
            let hid = HotspotId(h);
            // Candidate peers: cluster mates first, each group by distance.
            let mut peers: Vec<(bool, f64, usize)> = input
                .geometry
                .within_radius(hid, self.config.theta2_km)
                .into_iter()
                .map(|j| (clusters[j.0] != clusters[h], input.geometry.distance(hid, j), j.0))
                .collect();
            peers.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));

            let mut vids: Vec<_> = input.demand.videos(hid).to_vec();
            vids.sort_by(|a, b| b.count.cmp(&a.count).then(a.video.cmp(&b.video)));
            for vd in vids.into_iter().take(robust.hot_videos) {
                let mut copies =
                    peers.iter().filter(|&&(_, _, j)| cached[j].contains(&vd.video)).count();
                for &(_, _, j) in &peers {
                    if copies >= robust.redundancy {
                        break;
                    }
                    if budget == Some(0) {
                        return;
                    }
                    if spare[j] > 0 && !cached[j].contains(&vd.video) {
                        decision.place(HotspotId(j), vd.video);
                        cached[j].insert(vd.video);
                        spare[j] -= 1;
                        copies += 1;
                        if let Some(b) = &mut budget {
                            *b -= 1;
                        }
                    }
                }
            }
        }
    }
}

impl Scheme for Rbcaer {
    fn name(&self) -> &str {
        match (&self.config.robustness, self.config.content_aggregation) {
            (Some(_), _) => "RBCAer(robust)",
            (None, true) => "RBCAer",
            (None, false) => "RBCAer(balance-only)",
        }
    }

    fn schedule(&mut self, input: &SlotInput<'_>) -> SlotDecision {
        let Some(robust) = self.config.robustness else {
            return self.plan_parts(input).1;
        };
        // Plan with headroom: capacity the expected failures will eat is
        // not promised, and a cache reserve keeps room for the redundant
        // copies. Clustering reads demand only, so the discounted input
        // clusters as the real one does.
        let service: Vec<u64> = input
            .service_capacity
            .iter()
            .map(|&s| (s as f64 * robust.expected_availability).floor() as u64)
            .collect();
        let cache: Vec<u64> = input
            .cache_capacity
            .iter()
            .map(|&c| (c as f64 * (1.0 - robust.cache_reserve)).floor() as u64)
            .collect();
        let planning = SlotInput { service_capacity: &service, cache_capacity: &cache, ..*input };
        let (clusters, outcome) = self.balance(&planning);
        let mut decision = procedure::run(&planning, &outcome, &self.config);
        self.add_redundancy(input, &clusters, &robust, &mut decision);
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Nearest;
    use ccdn_sim::Runner;
    use ccdn_trace::TraceConfig;

    fn eval_trace() -> ccdn_trace::Trace {
        TraceConfig::small_test()
            .with_hotspot_count(40)
            .with_request_count(8_000)
            .with_video_count(500)
            .with_seed(11)
            .generate()
    }

    #[test]
    fn validates_and_covers_all_demand() {
        let trace = eval_trace();
        let report = Runner::new(&trace).run(&mut Rbcaer::new(RbcaerConfig::default())).unwrap();
        assert_eq!(report.total.sums.total_requests, trace.requests.len() as u64);
    }

    #[test]
    fn beats_nearest_on_serving_ratio_and_distance() {
        let trace = eval_trace();
        let runner = Runner::new(&trace);
        let nearest = runner.run(&mut Nearest::new()).unwrap();
        let rbcaer = runner.run(&mut Rbcaer::new(RbcaerConfig::default())).unwrap();
        assert!(
            rbcaer.total.hotspot_serving_ratio() >= nearest.total.hotspot_serving_ratio() - 1e-9,
            "rbcaer {} < nearest {}",
            rbcaer.total.hotspot_serving_ratio(),
            nearest.total.hotspot_serving_ratio()
        );
        assert!(
            rbcaer.total.average_distance_km() <= nearest.total.average_distance_km() + 1e-9,
            "rbcaer {} km > nearest {} km",
            rbcaer.total.average_distance_km(),
            nearest.total.average_distance_km()
        );
    }

    #[test]
    fn balance_only_ablation_also_validates() {
        let trace = eval_trace();
        let config = RbcaerConfig { content_aggregation: false, ..RbcaerConfig::default() };
        let report = Runner::new(&trace).run(&mut Rbcaer::new(config)).unwrap();
        assert!(report.total.hotspot_serving_ratio() > 0.0);
    }

    #[test]
    fn content_aggregation_does_not_replicate_more() {
        // The whole point of the aggregation stage: same or fewer replicas
        // than blind balancing.
        let trace = eval_trace();
        let runner = Runner::new(&trace);
        let with = runner.run(&mut Rbcaer::new(RbcaerConfig::default())).unwrap();
        let without = runner
            .run(&mut Rbcaer::new(RbcaerConfig {
                content_aggregation: false,
                ..RbcaerConfig::default()
            }))
            .unwrap();
        assert!(
            with.total.replication_cost() <= without.total.replication_cost() * 1.05 + 1e-9,
            "aggregation made replication worse: {} vs {}",
            with.total.replication_cost(),
            without.total.replication_cost()
        );
    }

    #[test]
    fn flows_respect_phi_bounds() {
        let trace = eval_trace();
        let runner = Runner::new(&trace);
        let geometry = runner.geometry();
        let scheduler = Rbcaer::new(RbcaerConfig::default());
        for slot in 0..trace.slot_count {
            let demand = ccdn_sim::SlotDemand::aggregate(trace.slot_requests(slot), geometry);
            let service: Vec<u64> =
                trace.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect();
            let cache: Vec<u64> =
                trace.hotspots.iter().map(|h| u64::from(h.cache_capacity)).collect();
            let input = ccdn_sim::SlotInput {
                geometry,
                demand: &demand,
                service_capacity: &service,
                cache_capacity: &cache,
                video_count: trace.video_count,
            };
            let outcome = scheduler.balance_only(&input);
            assert!(outcome.moved <= outcome.max_movable);
            // Per-source and per-target flow sums within φ.
            let mut out = std::collections::BTreeMap::new();
            let mut inc = std::collections::BTreeMap::new();
            for (&(i, j), &f) in &outcome.flows {
                *out.entry(i).or_insert(0u64) += f;
                *inc.entry(j).or_insert(0u64) += f;
                // Flows only leave overloaded hotspots for under-utilized
                // ones within θ₂.
                assert!(demand.load(i) > service[i.0]);
                assert!(demand.load(j) < service[j.0]);
                assert!(geometry.distance(i, j) < scheduler.config().theta2_km + 1e-9);
            }
            for (i, &o) in &out {
                assert!(o <= demand.load(*i) - service[i.0]);
            }
            for (j, &c) in &inc {
                assert!(c <= service[j.0] - demand.load(*j));
            }
        }
    }

    #[test]
    fn rejects_invalid_config() {
        let result = std::panic::catch_unwind(|| {
            Rbcaer::new(RbcaerConfig { delta_km: -1.0, ..RbcaerConfig::default() })
        });
        assert!(result.is_err());
    }

    #[test]
    fn name_reflects_ablation() {
        assert_eq!(Rbcaer::new(RbcaerConfig::default()).name(), "RBCAer");
        let ablated =
            Rbcaer::new(RbcaerConfig { content_aggregation: false, ..RbcaerConfig::default() });
        assert_eq!(ablated.name(), "RBCAer(balance-only)");
        let robust = Rbcaer::new(RbcaerConfig {
            robustness: Some(RobustConfig::default()),
            ..RbcaerConfig::default()
        });
        assert_eq!(robust.name(), "RBCAer(robust)");
    }

    fn robust_config() -> RbcaerConfig {
        RbcaerConfig { robustness: Some(RobustConfig::default()), ..RbcaerConfig::default() }
    }

    #[test]
    fn robust_variant_validates_and_covers_all_demand() {
        let trace = eval_trace();
        let report = Runner::new(&trace).run(&mut Rbcaer::new(robust_config())).unwrap();
        assert_eq!(report.total.sums.total_requests, trace.requests.len() as u64);
        assert!(report.total.hotspot_serving_ratio() > 0.0);
    }

    #[test]
    fn redundant_copies_exist_for_hot_videos() {
        let trace = eval_trace();
        let geometry = ccdn_sim::HotspotGeometry::new(trace.region, &trace.hotspots);
        let demand = ccdn_sim::SlotDemand::aggregate(trace.slot_requests(20), &geometry);
        let service: Vec<u64> =
            trace.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect();
        let cache: Vec<u64> = trace.hotspots.iter().map(|h| u64::from(h.cache_capacity)).collect();
        let input = ccdn_sim::SlotInput {
            geometry: &geometry,
            demand: &demand,
            service_capacity: &service,
            cache_capacity: &cache,
            video_count: trace.video_count,
        };
        let robust = RobustConfig::default();
        let stock = Rbcaer::new(RbcaerConfig::default()).schedule(&input);
        let hardened = Rbcaer::new(robust_config()).schedule(&input);

        // Count, over each hotspot's hottest videos, the in-radius peer
        // copies available to failover routing.
        let coverage = |d: &ccdn_sim::SlotDecision| -> usize {
            let cached: Vec<std::collections::BTreeSet<_>> =
                d.placements.iter().map(|p| p.iter().copied().collect()).collect();
            let mut satisfied = 0;
            for h in 0..input.hotspot_count() {
                let hid = HotspotId(h);
                let peers = geometry.within_radius(hid, 1.5);
                let mut vids: Vec<_> = demand.videos(hid).to_vec();
                vids.sort_by(|a, b| b.count.cmp(&a.count).then(a.video.cmp(&b.video)));
                for vd in vids.into_iter().take(robust.hot_videos) {
                    let copies = peers.iter().filter(|j| cached[j.0].contains(&vd.video)).count();
                    if copies >= robust.redundancy {
                        satisfied += 1;
                    }
                }
            }
            satisfied
        };
        assert!(
            coverage(&hardened) > coverage(&stock),
            "redundancy pass added no peer copies: {} vs {}",
            coverage(&hardened),
            coverage(&stock)
        );
    }

    #[test]
    fn redundancy_respects_replication_budget() {
        let trace = eval_trace();
        let geometry = ccdn_sim::HotspotGeometry::new(trace.region, &trace.hotspots);
        let demand = ccdn_sim::SlotDemand::aggregate(trace.slot_requests(20), &geometry);
        let service: Vec<u64> =
            trace.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect();
        let cache: Vec<u64> = trace.hotspots.iter().map(|h| u64::from(h.cache_capacity)).collect();
        let input = ccdn_sim::SlotInput {
            geometry: &geometry,
            demand: &demand,
            service_capacity: &service,
            cache_capacity: &cache,
            video_count: trace.video_count,
        };
        // The budget bounds discretionary placements (Procedure 1 line 15);
        // the redundancy pass must spend only what the plan left over.
        for budget in [0u64, 50, 5_000] {
            let scheme =
                Rbcaer::new(RbcaerConfig { replication_budget: Some(budget), ..robust_config() });
            let clusters = scheme.balance(&input).0;
            let mut decision = scheme.plan_parts(&input).1;
            let planned = decision.replica_count();
            scheme.add_redundancy(&input, &clusters, &RobustConfig::default(), &mut decision);
            let added = decision.replica_count() - planned;
            assert!(
                added <= budget.saturating_sub(planned),
                "budget {budget}: plan spent {planned}, redundancy added {added}"
            );
        }
        // With no budget the pass does add copies.
        let scheme = Rbcaer::new(robust_config());
        let clusters = scheme.balance(&input).0;
        let mut decision = scheme.plan_parts(&input).1;
        let planned = decision.replica_count();
        scheme.add_redundancy(&input, &clusters, &RobustConfig::default(), &mut decision);
        assert!(decision.replica_count() > planned, "unbounded redundancy pass added nothing");
    }
}
