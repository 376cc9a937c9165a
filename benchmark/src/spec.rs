//! The metric declarations of `BENCHMARK.json`, compiled into the binary so
//! that what a run emits and what the repository declares cannot drift
//! apart silently: a run whose metric set differs from the declaration
//! fails.

use ccdn_obs::json::{self, Value};

const DECLARATION: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

impl MetricSpec {
    /// Whether the metric is a pure function of the seed (work counts and
    /// plan quality) rather than a measured time, size or ratio of times.
    pub fn is_exact(&self) -> bool {
        matches!(self.unit.as_str(), "count" | "ratio" | "km") && !self.name.starts_with("bench.")
    }

    /// How much worse `new` is than `base`, as a share of `base`
    /// (negative when it is better).
    pub fn regression(&self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self.better {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    }
}

/// The parsed declaration.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The declaration this binary was built with.
    pub fn load() -> Result<Spec, String> {
        Spec::parse(DECLARATION)
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let root = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = array(&root, "workloads")?
            .iter()
            .map(|w| string(w, "name"))
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            workloads,
            end_to_end: metrics(&root, "end_to_end")?,
            per_layer: metrics(&root, "per_layer")?,
        })
    }

    /// The metrics a run emits: per-layer ones when traced.
    pub fn emitted(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Looks a metric up in either list.
    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }
}

fn array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key).and_then(Value::as_array).ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))
}

fn string(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("BENCHMARK.json: entry without a `{key}` string"))
}

fn metrics(root: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    array(root, key)?
        .iter()
        .map(|m| {
            let better = match string(m, "better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("BENCHMARK.json: unknown direction `{other}`")),
            };
            let bound = match m.get("bound") {
                Some(Value::Number(b)) => Some(*b),
                Some(_) => return Err("BENCHMARK.json: non-numeric bound".to_owned()),
                None => None,
            };
            Ok(MetricSpec { name: string(m, "name")?, unit: string(m, "unit")?, better, bound })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_parses_with_bounds_on_end_to_end_metrics_only() {
        let spec = Spec::load().unwrap();
        assert_eq!(spec.workloads, ["paper-day", "paper-hourly", "metro-sharded", "online-week"]);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec.metric("setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let widest = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
    }

    #[test]
    fn regression_is_signed_by_direction() {
        let lower = MetricSpec {
            name: "t".into(),
            unit: "ms".into(),
            better: Better::Lower,
            bound: Some(0.1),
        };
        assert!((lower.regression(10.0, 11.0) - 0.1).abs() < 1e-12);
        let higher = MetricSpec { better: Better::Higher, ..lower.clone() };
        assert!((higher.regression(10.0, 11.0) + 0.1).abs() < 1e-12);
        assert!(!lower.is_exact());
        assert!(MetricSpec { unit: "count".into(), ..lower }.is_exact());
    }
}
