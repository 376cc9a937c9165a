//! Stateful hotspot failure injection.
//!
//! Crowdsourced-CDN hotspots are consumer devices (smart Wi-Fi APs in
//! people's homes): they disappear without notice, stay away for a while,
//! and come back with a cold cache. The original churn model flipped an
//! independent coin per hotspot per slot, which has the right *average*
//! availability but the wrong *dynamics* — real failures are sticky
//! (sessions and outages last multiple slots) and sometimes correlated
//! (a street-level power or uplink failure takes a neighbourhood down
//! together). This module replaces it:
//!
//! - [`FailureModel::iid`] reproduces the old i.i.d. behaviour exactly
//!   (same per-`(seed, slot)` mask), so existing experiments keep their
//!   numbers;
//! - [`FailureModel::markov`] runs each hotspot as a two-state Markov
//!   on/off process with configurable mean session and downtime lengths;
//! - [`FailureModel::with_regional_outages`] adds spatially-correlated
//!   shocks: with some probability per slot, an epicenter hotspot is
//!   sampled and everything within a radius goes down with it.
//!
//! A model is a cheap, copyable description; [`FailureModel::process`]
//! instantiates the mutable per-run state ([`FailureProcess`]) that
//! [`OnlineRunner`](crate::OnlineRunner) advances slot by slot.
//! Cache-wipe semantics (a returning hotspot has an empty cache and its
//! content must be re-pushed) live in the online runner's replication
//! replay, which owns the caches.
//!
//! # Examples
//!
//! ```
//! use ccdn_sim::{FailureModel, HotspotGeometry};
//! use ccdn_trace::TraceConfig;
//!
//! let trace = TraceConfig::small_test().generate();
//! let geo = HotspotGeometry::new(trace.region, &trace.hotspots);
//!
//! // Mean 8-slot sessions, mean 2-slot outages: 80% availability.
//! let model = FailureModel::markov(8.0, 2.0, 42).unwrap();
//! assert!((model.availability() - 0.8).abs() < 1e-12);
//!
//! let mut process = model.process();
//! let mask0 = process.advance(0, &geo);
//! let mask1 = process.advance(1, &geo);
//! assert_eq!(mask0.len(), geo.len());
//! assert_eq!(mask1.len(), geo.len());
//! ```

use crate::HotspotGeometry;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::fmt;

/// An invalid simulator configuration value, reported instead of a panic.
///
/// Construction-time validation for user-supplied knobs (probabilities,
/// durations, radii) across `ccdn-sim`: builders return
/// `Result<_, SimConfigError>` rather than asserting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimConfigError {
    /// A probability parameter was outside `[0, 1]` or non-finite.
    ProbabilityOutOfRange {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A mean duration (in slots) was below one slot or non-finite.
    DurationTooShort {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A radius was negative or non-finite.
    InvalidRadius {
        /// The offending value.
        value: f64,
    },
    /// A non-negative threshold parameter was negative or non-finite.
    ThresholdOutOfRange {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimConfigError::ProbabilityOutOfRange { name, value } => {
                write!(f, "{name} must be a probability in [0, 1], got {value}")
            }
            SimConfigError::DurationTooShort { name, value } => {
                write!(f, "{name} must be at least 1 slot, got {value}")
            }
            SimConfigError::InvalidRadius { value } => {
                write!(f, "radius must be finite and >= 0 km, got {value}")
            }
            SimConfigError::ThresholdOutOfRange { name, value } => {
                write!(f, "{name} must be finite and >= 0, got {value}")
            }
        }
    }
}

impl std::error::Error for SimConfigError {}

/// Validates a probability parameter.
pub(crate) fn check_probability(name: &'static str, value: f64) -> Result<f64, SimConfigError> {
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(SimConfigError::ProbabilityOutOfRange { name, value })
    }
}

/// Validates a mean duration in slots (must support a transition
/// probability `1/value ≤ 1`).
fn check_duration(name: &'static str, value: f64) -> Result<f64, SimConfigError> {
    if value.is_finite() && value >= 1.0 {
        Ok(value)
    } else {
        Err(SimConfigError::DurationTooShort { name, value })
    }
}

/// Validates a radius in km.
fn check_radius(value: f64) -> Result<f64, SimConfigError> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(SimConfigError::InvalidRadius { value })
    }
}

/// The per-hotspot liveness law.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FailureKind {
    /// Independent coin per hotspot per slot (the legacy churn model).
    Iid { offline_probability: f64 },
    /// Two-state Markov on/off process per hotspot.
    Markov { mean_session_slots: f64, mean_downtime_slots: f64 },
}

/// Spatially-correlated outage shocks layered on the base process.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RegionalOutages {
    probability_per_slot: f64,
    radius_km: f64,
}

/// Description of a hotspot failure process (see the module docs).
///
/// Cheap to copy; call [`FailureModel::process`] per run for the mutable
/// state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureModel {
    kind: FailureKind,
    regional: Option<RegionalOutages>,
    seed: u64,
}

impl FailureModel {
    /// Independent per-slot failures: each hotspot is offline with
    /// probability `offline_probability` each slot, independently.
    ///
    /// Byte-for-byte compatible with the legacy churn model: for the
    /// same `(offline_probability, seed)` the produced masks are
    /// identical per slot.
    ///
    /// # Errors
    ///
    /// [`SimConfigError::ProbabilityOutOfRange`] unless
    /// `offline_probability ∈ [0, 1]`.
    pub fn iid(offline_probability: f64, seed: u64) -> Result<Self, SimConfigError> {
        let p = check_probability("offline_probability", offline_probability)?;
        Ok(FailureModel { kind: FailureKind::Iid { offline_probability: p }, regional: None, seed })
    }

    /// Sticky failures: each hotspot alternates between online sessions
    /// of mean length `mean_session_slots` and outages of mean length
    /// `mean_downtime_slots` (geometric in both states; the initial state
    /// is drawn at the stationary availability).
    ///
    /// # Errors
    ///
    /// [`SimConfigError::DurationTooShort`] unless both means are finite
    /// and at least one slot.
    pub fn markov(
        mean_session_slots: f64,
        mean_downtime_slots: f64,
        seed: u64,
    ) -> Result<Self, SimConfigError> {
        let up = check_duration("mean_session_slots", mean_session_slots)?;
        let down = check_duration("mean_downtime_slots", mean_downtime_slots)?;
        Ok(FailureModel {
            kind: FailureKind::Markov { mean_session_slots: up, mean_downtime_slots: down },
            regional: None,
            seed,
        })
    }

    /// Adds spatially-correlated outages: each slot, with
    /// `probability_per_slot`, one hotspot is sampled as an epicenter and
    /// every hotspot within `radius_km` of it (epicenter included) goes
    /// offline this slot. Under a Markov base process the knocked-out
    /// hotspots *stay* down until they recover through the normal
    /// downtime law, so a shock has a tail.
    ///
    /// # Errors
    ///
    /// [`SimConfigError::ProbabilityOutOfRange`] or
    /// [`SimConfigError::InvalidRadius`] for invalid parameters.
    pub fn with_regional_outages(
        mut self,
        probability_per_slot: f64,
        radius_km: f64,
    ) -> Result<Self, SimConfigError> {
        let p = check_probability("outage probability_per_slot", probability_per_slot)?;
        let r = check_radius(radius_km)?;
        self.regional = Some(RegionalOutages { probability_per_slot: p, radius_km: r });
        Ok(self)
    }

    /// Stationary per-hotspot availability of the base process (regional
    /// outages push realized availability below this).
    pub fn availability(&self) -> f64 {
        match self.kind {
            FailureKind::Iid { offline_probability } => 1.0 - offline_probability,
            FailureKind::Markov { mean_session_slots, mean_downtime_slots } => {
                mean_session_slots / (mean_session_slots + mean_downtime_slots)
            }
        }
    }

    /// Instantiates the mutable per-run state. Advance it with
    /// [`FailureProcess::advance`], one call per slot in order.
    pub fn process(&self) -> FailureProcess {
        FailureProcess {
            model: *self,
            // Offset so the process stream never aliases the per-slot
            // i.i.d. streams derived from the same seed.
            rng: StdRng::seed_from_u64(self.seed ^ 0xA076_1D64_78BD_642F),
            alive: Vec::new(),
        }
    }
}

/// The exact legacy per-slot i.i.d. mask behind [`FailureModel::iid`],
/// kept as a named function so its seeding law stays documented in one
/// place.
pub(crate) fn iid_mask(seed: u64, offline_probability: f64, slot: u32, n: usize) -> Vec<bool> {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (u64::from(slot).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    (0..n).map(|_| rng.gen_range(0.0..1.0) >= offline_probability).collect()
}

/// Mutable state of one failure-injected run.
///
/// Created by [`FailureModel::process`]; deterministic given the model
/// and the sequence of [`advance`](FailureProcess::advance) calls.
#[derive(Debug, Clone)]
pub struct FailureProcess {
    model: FailureModel,
    rng: StdRng,
    /// Markov per-hotspot state; empty until the first advance.
    alive: Vec<bool>,
}

impl FailureProcess {
    /// Liveness mask for `slot` (`true` = online). Call once per slot in
    /// ascending order — the Markov state and outage stream are
    /// sequential.
    pub fn advance(&mut self, slot: u32, geometry: &HotspotGeometry) -> Vec<bool> {
        let n = geometry.len();
        let mut mask = match self.model.kind {
            FailureKind::Iid { offline_probability } => {
                iid_mask(self.model.seed, offline_probability, slot, n)
            }
            FailureKind::Markov { mean_session_slots, mean_downtime_slots } => {
                let availability = self.model.availability();
                if self.alive.len() != n {
                    // First slot: draw the stationary distribution.
                    self.alive = (0..n).map(|_| self.rng.gen_bool(availability)).collect();
                } else {
                    let p_fail = 1.0 / mean_session_slots;
                    let p_recover = 1.0 / mean_downtime_slots;
                    for state in &mut self.alive {
                        let flip = self.rng.gen_bool(if *state { p_fail } else { p_recover });
                        if flip {
                            *state = !*state;
                        }
                    }
                }
                self.alive.clone()
            }
        };
        if let Some(outages) = self.model.regional {
            if n > 0 && self.rng.gen_bool(outages.probability_per_slot) {
                let epicenter = ccdn_trace::HotspotId(self.rng.gen_range(0..n));
                mask[epicenter.0] = false;
                for h in geometry.within_radius(epicenter, outages.radius_km) {
                    mask[h.0] = false;
                }
                // Sticky under Markov: the shock writes through to state.
                if !self.alive.is_empty() {
                    self.alive.clone_from(&mask);
                }
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdn_trace::TraceConfig;

    fn geometry(hotspots: usize) -> HotspotGeometry {
        let t = TraceConfig::small_test().with_hotspot_count(hotspots).generate();
        HotspotGeometry::new(t.region, &t.hotspots)
    }

    #[test]
    fn constructors_validate() {
        assert!(FailureModel::iid(-0.1, 0).is_err());
        assert!(FailureModel::iid(1.5, 0).is_err());
        assert!(FailureModel::iid(f64::NAN, 0).is_err());
        assert!(FailureModel::iid(0.0, 0).is_ok());
        assert!(FailureModel::markov(0.5, 2.0, 0).is_err());
        assert!(FailureModel::markov(2.0, 0.0, 0).is_err());
        assert!(FailureModel::markov(f64::INFINITY, 2.0, 0).is_err());
        assert!(FailureModel::markov(1.0, 1.0, 0).is_ok());
        let m = FailureModel::markov(4.0, 2.0, 0).unwrap();
        assert!(m.with_regional_outages(2.0, 1.0).is_err());
        assert!(m.with_regional_outages(0.1, -1.0).is_err());
        assert!(m.with_regional_outages(0.1, 1.0).is_ok());
    }

    #[test]
    fn error_messages_name_the_parameter() {
        let err = FailureModel::iid(7.0, 0).unwrap_err();
        assert!(err.to_string().contains("offline_probability"));
        let err = FailureModel::markov(0.0, 2.0, 0).unwrap_err();
        assert!(err.to_string().contains("mean_session_slots"));
    }

    #[test]
    fn availability_formulas() {
        assert_eq!(FailureModel::iid(0.25, 0).unwrap().availability(), 0.75);
        let m = FailureModel::markov(6.0, 2.0, 0).unwrap();
        assert!((m.availability() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn iid_process_is_deterministic_and_slot_varying() {
        let geo = geometry(64);
        let model = FailureModel::iid(0.5, 7).unwrap();
        let mut a = model.process();
        let mut b = model.process();
        let m0 = a.advance(0, &geo);
        let m1 = a.advance(1, &geo);
        assert_eq!(m0, b.advance(0, &geo));
        assert_eq!(m1, b.advance(1, &geo));
        assert_ne!(m0, m1);
    }

    #[test]
    fn markov_runs_are_reproducible() {
        let geo = geometry(40);
        let model = FailureModel::markov(5.0, 2.0, 11).unwrap();
        let mut a = model.process();
        let mut b = model.process();
        for slot in 0..50 {
            assert_eq!(a.advance(slot, &geo), b.advance(slot, &geo));
        }
    }

    #[test]
    fn markov_failures_are_sticky() {
        // With long sessions and long outages, consecutive slots agree
        // far more often than an i.i.d. process at the same availability.
        let geo = geometry(60);
        let model = FailureModel::markov(20.0, 20.0, 3).unwrap();
        let mut process = model.process();
        let mut prev = process.advance(0, &geo);
        let mut same = 0u32;
        let mut total = 0u32;
        for slot in 1..200 {
            let cur = process.advance(slot, &geo);
            same += prev.iter().zip(&cur).filter(|(a, b)| a == b).count() as u32;
            total += cur.len() as u32;
            prev = cur;
        }
        // i.i.d. at 50% availability would agree ~50% of the time; the
        // sticky chain flips with probability 1/20 per slot.
        let agreement = f64::from(same) / f64::from(total);
        assert!(agreement > 0.85, "agreement {agreement}");
    }

    #[test]
    fn regional_outages_take_down_neighbourhoods() {
        let geo = geometry(80);
        // No base churn at all: every offline hotspot is outage-caused.
        let model = FailureModel::iid(0.0, 5).unwrap().with_regional_outages(1.0, 2.0).unwrap();
        let mut process = model.process();
        let mut saw_multi_down = false;
        for slot in 0..20 {
            let mask = process.advance(slot, &geo);
            let down: Vec<usize> =
                mask.iter().enumerate().filter(|(_, &a)| !a).map(|(h, _)| h).collect();
            assert!(!down.is_empty(), "outage fires every slot");
            saw_multi_down |= down.len() > 1;
            // Every down hotspot is within the radius of some down
            // epicenter — i.e. the down set is spatially clustered: all
            // members lie within 2×radius of each other.
            for &a in &down {
                for &b in &down {
                    let d = geo.distance(ccdn_trace::HotspotId(a), ccdn_trace::HotspotId(b));
                    assert!(d <= 4.0 + 1e-9, "down pair {a},{b} spread {d} km");
                }
            }
        }
        assert!(saw_multi_down, "radius never covered more than one hotspot");
    }

    #[test]
    fn zero_and_one_probability_extremes() {
        let geo = geometry(30);
        let all_up = FailureModel::iid(0.0, 1).unwrap();
        assert!(all_up.process().advance(3, &geo).iter().all(|&a| a));
        let all_down = FailureModel::iid(1.0, 1).unwrap();
        assert!(all_down.process().advance(3, &geo).iter().all(|&a| !a));
    }
}
