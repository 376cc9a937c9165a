//! Plan-feasibility validators for RBCAer decisions.
//!
//! The simulation runner already enforces the paper's model constraints
//! (Eqs. 4–7) on every [`SlotDecision`]; this module checks the
//! *scheduler-internal* invariants the runner cannot see — the contract
//! between Algorithm 1's balancing stage and Procedure 1's aggregation
//! stage:
//!
//! - every redirection flow `f_ij` runs from an overloaded hotspot to an
//!   under-utilized one within the collaboration radius `θ₂` (§IV-A);
//! - per-hotspot flow totals respect the overload `φ_i = λ_i − s_i` and
//!   slack `φ_j = s_j − λ_j` that define the balancing network;
//! - the outcome's accounting (`moved`, `max_movable`) is consistent;
//! - hotspots with zero cache capacity receive no placements, and
//!   hotspots with zero service capacity (offline under churn) receive
//!   no flow and serve no assignments;
//! - the decision's cross-hotspot redirections never exceed the flows
//!   the balancing stage granted;
//! - when a replication budget `B_peak` is configured, the decision never
//!   places more videos than the budget allows (Procedure 1, §IV-C).
//!
//! [`check_plan`] is always available (property tests call it directly);
//! with the `strict-invariants` feature Procedure 1 also runs it on every
//! plan that [`Rbcaer`](crate::Rbcaer) or
//! [`ShardedRbcaer`](crate::ShardedRbcaer) assembles, and aborts on
//! violation.

use crate::config::RbcaerConfig;
use crate::rbcaer::balancing::BalanceOutcome;
use ccdn_sim::{SlotDecision, SlotInput, Target};
use ccdn_trace::HotspotId;
use std::collections::BTreeMap;
use std::fmt;

/// Slack tolerated when comparing distances against `θ₂`; covers the
/// `θ ≤ θ₂ + 1e-9` loop guard in Algorithm 1.
const THETA_EPS: f64 = 1e-6;

/// A violated plan invariant, with context for debugging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanViolation(String);

impl PlanViolation {
    fn new(msg: impl Into<String>) -> Self {
        PlanViolation(msg.into())
    }
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for PlanViolation {}

/// Checks an RBCAer plan (balancing outcome + final decision) against the
/// scheduler-internal feasibility invariants listed in the module docs.
///
/// # Errors
///
/// The first [`PlanViolation`] found, if any.
pub fn check_plan(
    input: &SlotInput<'_>,
    config: &RbcaerConfig,
    outcome: &BalanceOutcome,
    decision: &SlotDecision,
) -> Result<(), PlanViolation> {
    check_flows(input, config, outcome)?;
    check_offline_ownership(input, decision)?;
    check_redirections_granted(outcome, decision)?;
    check_replication_budget(config, decision)
}

/// With a configured replication budget `B_peak`, the decision's total
/// placement count must not exceed it — Procedure 1 charges every new
/// placement (aggregative or local) against the same budget.
fn check_replication_budget(
    config: &RbcaerConfig,
    decision: &SlotDecision,
) -> Result<(), PlanViolation> {
    if let Some(b) = config.replication_budget {
        let placed = decision.replica_count();
        if placed > b {
            return Err(PlanViolation::new(format!(
                "decision places {placed} videos but the replication budget B_peak is {b}"
            )));
        }
    }
    Ok(())
}

/// Allocation-free twin of [`check_flow_entry`]: `true` iff the entry
/// violates any invariant. The hot per-entry loop in [`check_flows`]
/// scans with this predicate and only then calls the formatting twin —
/// outside the loop — so messages materialize exclusively on the error
/// path (hot-loop-alloc).
fn flow_entry_is_invalid(
    input: &SlotInput<'_>,
    config: &RbcaerConfig,
    i: HotspotId,
    j: HotspotId,
    f: u64,
) -> bool {
    f == 0
        || i == j
        || input.geometry.distance(i, j) > config.theta2_km + THETA_EPS
        || input.demand.load(i) <= input.service_capacity[i.0]
        || input.demand.load(j) >= input.service_capacity[j.0]
        || input.cache_capacity[j.0] == 0
}

/// Invariants of one `(i → j, f)` flow entry, with the diagnostic
/// message for the first violation. Must mirror
/// [`flow_entry_is_invalid`] condition for condition.
fn check_flow_entry(
    input: &SlotInput<'_>,
    config: &RbcaerConfig,
    i: HotspotId,
    j: HotspotId,
    f: u64,
) -> Result<(), PlanViolation> {
    if f == 0 {
        return Err(PlanViolation::new(format!("zero-valued flow entry {i}→{j}")));
    }
    if i == j {
        return Err(PlanViolation::new(format!("self-flow at {i}")));
    }
    let d = input.geometry.distance(i, j);
    if d > config.theta2_km + THETA_EPS {
        return Err(PlanViolation::new(format!(
            "flow {i}→{j} spans {d:.3} km, beyond θ₂ = {} km",
            config.theta2_km
        )));
    }
    let load_i = input.demand.load(i);
    if load_i <= input.service_capacity[i.0] {
        return Err(PlanViolation::new(format!(
            "flow source {i} is not overloaded (λ = {load_i}, s = {})",
            input.service_capacity[i.0]
        )));
    }
    let load_j = input.demand.load(j);
    if load_j >= input.service_capacity[j.0] {
        return Err(PlanViolation::new(format!(
            "flow target {j} is not under-utilized (λ = {load_j}, s = {})",
            input.service_capacity[j.0]
        )));
    }
    if input.cache_capacity[j.0] == 0 {
        return Err(PlanViolation::new(format!("flow target {j} cannot cache anything")));
    }
    Ok(())
}

/// Flow-level invariants of the balancing stage.
fn check_flows(
    input: &SlotInput<'_>,
    config: &RbcaerConfig,
    outcome: &BalanceOutcome,
) -> Result<(), PlanViolation> {
    let mut out_per_source: BTreeMap<HotspotId, u64> = BTreeMap::new();
    let mut in_per_target: BTreeMap<HotspotId, u64> = BTreeMap::new();
    let mut total = 0u64;
    let invalid = outcome
        .flows
        .iter()
        .map(|(&(i, j), &f)| (i, j, f))
        .find(|&(i, j, f)| flow_entry_is_invalid(input, config, i, j, f));
    if let Some((i, j, f)) = invalid {
        check_flow_entry(input, config, i, j, f)?;
    }
    for (&(i, j), &f) in &outcome.flows {
        *out_per_source.entry(i).or_insert(0) += f;
        *in_per_target.entry(j).or_insert(0) += f;
        total += f;
    }
    // Find first, format outside the loops (hot-loop-alloc).
    let oversent = out_per_source
        .iter()
        .map(|(&i, &out)| (i, out, input.demand.load(i) - input.service_capacity[i.0]))
        .find(|&(_, out, phi)| out > phi);
    if let Some((i, out, phi)) = oversent {
        return Err(PlanViolation::new(format!(
            "{i} redirects {out} requests but is only overloaded by φ = {phi}"
        )));
    }
    let overfilled = in_per_target
        .iter()
        .map(|(&j, &inflow)| (j, inflow, input.service_capacity[j.0] - input.demand.load(j)))
        .find(|&(_, inflow, slack)| inflow > slack);
    if let Some((j, inflow, slack)) = overfilled {
        return Err(PlanViolation::new(format!(
            "{j} receives {inflow} requests but only has slack φ = {slack}"
        )));
    }
    if total != outcome.moved {
        return Err(PlanViolation::new(format!(
            "flow entries sum to {total} but the outcome claims moved = {}",
            outcome.moved
        )));
    }
    if outcome.moved > outcome.max_movable {
        return Err(PlanViolation::new(format!(
            "moved = {} exceeds the Algorithm-1 bound maxflow = {}",
            outcome.moved, outcome.max_movable
        )));
    }
    Ok(())
}

/// Zero-capacity hotspots own nothing: no placements without cache, no
/// served assignments without service capacity.
fn check_offline_ownership(
    input: &SlotInput<'_>,
    decision: &SlotDecision,
) -> Result<(), PlanViolation> {
    // Find first, format outside the loops (hot-loop-alloc).
    let cacheless = decision
        .placements
        .iter()
        .enumerate()
        .find(|&(h, placement)| input.cache_capacity[h] == 0 && !placement.is_empty());
    if let Some((h, placement)) = cacheless {
        return Err(PlanViolation::new(format!(
            "hotspot {h} has zero cache capacity but {} placements",
            placement.len()
        )));
    }
    let unserved = decision.assignments.iter().find_map(|a| match a.target {
        Target::Hotspot(j) if input.service_capacity[j.0] == 0 => Some((j, a.count)),
        _ => None,
    });
    if let Some((j, count)) = unserved {
        return Err(PlanViolation::new(format!(
            "{count} requests assigned to {j}, which has zero service capacity"
        )));
    }
    Ok(())
}

/// Cross-hotspot redirections in the decision must fit inside the flows
/// the balancing stage granted — Procedure 1 may move fewer requests
/// along a pair (content granularity is coarse) but never more.
fn check_redirections_granted(
    outcome: &BalanceOutcome,
    decision: &SlotDecision,
) -> Result<(), PlanViolation> {
    let mut redirected: BTreeMap<(HotspotId, HotspotId), u64> = BTreeMap::new();
    for a in &decision.assignments {
        if let Target::Hotspot(j) = a.target {
            if j != a.from {
                *redirected.entry((a.from, j)).or_insert(0) += a.count;
            }
        }
    }
    // Find first, format outside the loop (hot-loop-alloc).
    let ungranted = redirected
        .iter()
        .map(|(&(i, j), &count)| (i, j, count, outcome.flows.get(&(i, j)).copied().unwrap_or(0)))
        .find(|&(_, _, count, granted)| count > granted);
    if let Some((i, j, count, granted)) = ungranted {
        return Err(PlanViolation::new(format!(
            "decision redirects {count} requests {i}→{j} but balancing granted only {granted}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rbcaer, RbcaerConfig};
    use ccdn_sim::{HotspotGeometry, SlotDemand};
    use ccdn_trace::TraceConfig;

    #[test]
    fn real_plans_pass_on_generated_trace() {
        let trace = TraceConfig::small_test().generate();
        let geometry = HotspotGeometry::new(trace.region, &trace.hotspots);
        let config = RbcaerConfig::default();
        let scheme = Rbcaer::new(config);
        let service: Vec<u64> =
            trace.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect();
        let cache: Vec<u64> = trace.hotspots.iter().map(|h| u64::from(h.cache_capacity)).collect();
        for slot in 0..trace.slot_count {
            let demand = SlotDemand::aggregate(trace.slot_requests(slot), &geometry);
            let input = SlotInput {
                geometry: &geometry,
                demand: &demand,
                service_capacity: &service,
                cache_capacity: &cache,
                video_count: trace.video_count,
            };
            let (outcome, decision) = scheme.plan_parts(&input);
            check_plan(&input, &config, &outcome, &decision)
                .unwrap_or_else(|v| panic!("slot {slot}: {v}"));
        }
    }

    #[test]
    fn fabricated_overflow_is_caught() {
        let trace = TraceConfig::small_test().generate();
        let geometry = HotspotGeometry::new(trace.region, &trace.hotspots);
        let config = RbcaerConfig::default();
        let scheme = Rbcaer::new(config);
        let service: Vec<u64> =
            trace.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect();
        let cache: Vec<u64> = trace.hotspots.iter().map(|h| u64::from(h.cache_capacity)).collect();
        for slot in 0..trace.slot_count {
            let demand = SlotDemand::aggregate(trace.slot_requests(slot), &geometry);
            let input = SlotInput {
                geometry: &geometry,
                demand: &demand,
                service_capacity: &service,
                cache_capacity: &cache,
                video_count: trace.video_count,
            };
            let (mut outcome, decision) = scheme.plan_parts(&input);
            let Some((&pair, &f)) = outcome.flows.iter().next() else { continue };
            // Inflate one flow past the source's overload: must be caught.
            outcome.flows.insert(pair, f + 1_000_000);
            outcome.moved += 1_000_000;
            assert!(check_plan(&input, &config, &outcome, &decision).is_err());
            return;
        }
    }

    #[test]
    fn over_budget_decision_is_caught() {
        use ccdn_trace::VideoId;

        let trace = TraceConfig::small_test().generate();
        let geometry = HotspotGeometry::new(trace.region, &trace.hotspots);
        let config = RbcaerConfig { replication_budget: Some(3), ..RbcaerConfig::default() };
        let scheme = Rbcaer::new(config);
        let service: Vec<u64> =
            trace.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect();
        let cache: Vec<u64> = trace.hotspots.iter().map(|h| u64::from(h.cache_capacity)).collect();
        let demand = SlotDemand::aggregate(trace.slot_requests(0), &geometry);
        let input = SlotInput {
            geometry: &geometry,
            demand: &demand,
            service_capacity: &service,
            cache_capacity: &cache,
            video_count: trace.video_count,
        };
        let (outcome, mut decision) = scheme.plan_parts(&input);
        check_plan(&input, &config, &outcome, &decision)
            .unwrap_or_else(|v| panic!("honest plan rejected: {v}"));
        // Fabricate placements past B_peak: must be caught.
        let target = (0..decision.placements.len())
            .find(|&h| input.cache_capacity[h] > 0)
            .expect("some hotspot has cache capacity");
        while decision.replica_count() <= 3 {
            let v = VideoId(u32::try_from(decision.placements[target].len()).unwrap() + 10_000);
            decision.place(ccdn_trace::HotspotId(target), v);
        }
        let err = check_plan(&input, &config, &outcome, &decision).unwrap_err();
        assert!(err.to_string().contains("replication budget"), "{err}");
    }
}
