use ccdn_cluster::Linkage;
use ccdn_sim::COLLABORATION_RADIUS_KM;
use std::fmt;

/// A scheduler configuration rejected by validation, carrying a
/// description of the first problem found.
///
/// Returned by [`RbcaerConfig::validate`] and the `try_new`
/// constructors; the panicking `new` constructors format it into their
/// panic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl ConfigError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ConfigError(message.into())
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

/// How the cost of a flow-guide arc (`n_kj → j`) is computed.
///
/// The paper prints the guide-arc cost as `Σ_{i∈H_jk} φ_ij / |H_jk|`,
/// which mixes a *capacity* into an otherwise latency-valued cost metric.
/// We implement both readings and compare them in an ablation bench; see
/// `DESIGN.md` for the full argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GuideCost {
    /// Mean latency of the direct arcs the guide node replaces:
    /// `Σ_{i∈H_jk} d_ij / |H_jk|`. Dimensionally consistent with all other
    /// arc costs (km) while preserving the intent — an aggregate arc
    /// cheaper than the replaced individual arcs. The default.
    #[default]
    MeanLatency,
    /// The paper's formula verbatim: `Σ_{i∈H_jk} φ_ij / |H_jk|` (mean
    /// movable capacity, used as a cost).
    PaperLiteral,
}

/// Configuration for the [`Rbcaer`](crate::Rbcaer) scheduler.
///
/// Defaults are the paper's evaluation settings (§V-A): collaboration
/// within a 1.5 km circle, explored as `θ₁ = 0.5 km`, `θ₂ = 1.5 km`,
/// `δd = 0.5 km`; Top-20 % content sets; cluster cut at Jaccard distance
/// 0.5.
///
/// # Examples
///
/// ```
/// use ccdn_core::RbcaerConfig;
///
/// let config = RbcaerConfig::default();
/// assert_eq!(config.theta1_km, 0.5);
/// assert_eq!(config.theta2_km, 1.5);
/// assert_eq!(config.delta_km, 0.5);
/// let wide = RbcaerConfig { theta2_km: 7.5, ..RbcaerConfig::default() };
/// assert_eq!(wide.theta2_km, 7.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RbcaerConfig {
    /// Initial latency threshold `θ₁` in km.
    pub theta1_km: f64,
    /// Final latency threshold `θ₂` in km (collaboration radius).
    pub theta2_km: f64,
    /// Threshold increment `δd` in km per Algorithm-1 iteration.
    pub delta_km: f64,
    /// Fraction of each hotspot's requested videos forming its content
    /// set for similarity (the paper's Top-20 %: `0.2`).
    pub top_fraction: f64,
    /// Cluster cut: maximum intra-cluster Jaccard distance (paper: 0.5).
    pub cluster_threshold: f64,
    /// Clustering linkage (paper-faithful default: complete — the only
    /// linkage that guarantees the pairwise intra-cluster bound).
    pub linkage: Linkage,
    /// Guide-arc cost model.
    pub guide_cost: GuideCost,
    /// Enables the content-aggregation stage (`Gc` + Procedure 1 ordering).
    /// Disabling it degrades RBCAer to pure load balancing on `Gd` — the
    /// ablation of DESIGN.md.
    pub content_aggregation: bool,
    /// Optional cap `B_peak` on replicas pushed per slot (Procedure 1
    /// line 15). `None` bounds replication only by cache capacities.
    pub replication_budget: Option<u64>,
    /// Failure-aware hardening: plan with capacity headroom, then pin
    /// each hotspot's hottest videos at nearby peers (see DESIGN.md).
    /// `false` is the paper's stock scheduler.
    pub robust: bool,
}

impl Default for RbcaerConfig {
    fn default() -> Self {
        RbcaerConfig {
            theta1_km: 0.5,
            theta2_km: COLLABORATION_RADIUS_KM,
            delta_km: 0.5,
            top_fraction: 0.2,
            cluster_threshold: 0.5,
            linkage: Linkage::Complete,
            guide_cost: GuideCost::default(),
            content_aggregation: true,
            replication_budget: None,
            robust: false,
        }
    }
}

impl RbcaerConfig {
    /// Validates the configuration, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.theta1_km.is_finite() && self.theta1_km >= 0.0) {
            return Err(ConfigError::new("theta1 must be finite and >= 0"));
        }
        if !(self.theta2_km.is_finite() && self.theta2_km >= self.theta1_km) {
            return Err(ConfigError::new("theta2 must be finite and >= theta1"));
        }
        if !(self.delta_km.is_finite() && self.delta_km > 0.0) {
            return Err(ConfigError::new("delta must be finite and > 0"));
        }
        if !(self.top_fraction > 0.0 && self.top_fraction <= 1.0) {
            return Err(ConfigError::new("top fraction must be in (0, 1]"));
        }
        if !(self.cluster_threshold.is_finite() && (0.0..=1.0).contains(&self.cluster_threshold)) {
            return Err(ConfigError::new("cluster threshold must be in [0, 1]"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = RbcaerConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.theta1_km, 0.5);
        assert_eq!(c.theta2_km, 1.5);
        assert_eq!(c.delta_km, 0.5);
        assert_eq!(c.top_fraction, 0.2);
        assert_eq!(c.cluster_threshold, 0.5);
        assert_eq!(c.linkage, Linkage::Complete);
        assert!(c.content_aggregation);
        assert_eq!(c.replication_budget, None);
        assert!(!c.robust);
    }

    #[test]
    fn validation_catches_bad_fields() {
        let base = RbcaerConfig::default();
        assert!(RbcaerConfig { theta1_km: -1.0, ..base }.validate().is_err());
        assert!(RbcaerConfig { theta2_km: 0.1, ..base }.validate().is_err());
        assert!(RbcaerConfig { delta_km: 0.0, ..base }.validate().is_err());
        assert!(RbcaerConfig { top_fraction: 0.0, ..base }.validate().is_err());
        assert!(RbcaerConfig { cluster_threshold: 1.5, ..base }.validate().is_err());
        assert!(RbcaerConfig { theta2_km: f64::NAN, ..base }.validate().is_err());
    }
}
