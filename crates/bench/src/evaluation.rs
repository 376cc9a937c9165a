//! Shared driver for the Fig. 6 / Fig. 7 evaluation sweeps: run the three
//! schemes over a single-slot paper-scale trace and collect the four
//! metrics.

use crate::table::{f3, Table};
use ccdn_core::{LocalRandom, Nearest, Rbcaer, RbcaerConfig};
use ccdn_sim::{MetricsTotals, Runner, Scheme};
use ccdn_trace::TraceConfig;

/// The metric columns of Fig. 6 / Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Fig. a: hotspot serving ratio.
    ServingRatio,
    /// Fig. b: average content access distance (km).
    AvgDistance,
    /// Fig. c: content replication cost (× video-set size).
    ReplicationCost,
    /// Fig. d: CDN server load (× request count).
    CdnLoad,
}

impl Metric {
    /// All four, in the paper's (a)–(d) order.
    pub fn all() -> [Metric; 4] {
        [Metric::ServingRatio, Metric::AvgDistance, Metric::ReplicationCost, Metric::CdnLoad]
    }

    /// Panel caption.
    pub fn label(self) -> &'static str {
        match self {
            Metric::ServingRatio => "(a) hotspot serving ratio",
            Metric::AvgDistance => "(b) average access distance (km)",
            Metric::ReplicationCost => "(c) content replication cost (x video set)",
            Metric::CdnLoad => "(d) CDN server load (x request count)",
        }
    }

    /// Extracts the metric from accumulated totals.
    pub fn extract(self, totals: &MetricsTotals) -> f64 {
        match self {
            Metric::ServingRatio => totals.hotspot_serving_ratio(),
            Metric::AvgDistance => totals.average_distance_km(),
            Metric::ReplicationCost => totals.replication_cost(),
            Metric::CdnLoad => totals.cdn_server_load(),
        }
    }
}

/// One sweep point: the swept value and each scheme's totals.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept parameter value (capacity or cache fraction).
    pub fraction: f64,
    /// `(scheme name, totals)` per scheme, in run order.
    pub results: Vec<(String, MetricsTotals)>,
}

/// The paper's scheme line-up for the evaluation figures.
pub fn paper_schemes() -> Vec<Box<dyn Scheme>> {
    vec![
        Box::new(Rbcaer::new(RbcaerConfig::default())),
        Box::new(Nearest::new()),
        Box::new(LocalRandom::new()),
    ]
}

/// Runs every scheme on one single-slot paper-scale trace configured by
/// `configure`, for each value in `fractions`.
pub fn sweep<F>(fractions: &[f64], configure: F) -> Vec<SweepPoint>
where
    F: Fn(TraceConfig, f64) -> TraceConfig,
{
    fractions
        .iter()
        .map(|&fraction| {
            let config = configure(TraceConfig::paper_eval().with_slot_count(1), fraction);
            let trace = config.generate();
            let runner = Runner::new(&trace);
            let results = paper_schemes()
                .iter_mut()
                .map(|scheme| {
                    // lint: allow(no-panic): experiment harness: a scheme that fails validation must abort the figure run loudly
                    let report = runner.run(scheme.as_mut()).expect("scheme validates");
                    (report.scheme.clone(), report.total)
                })
                .collect();
            SweepPoint { fraction, results }
        })
        .collect()
}

/// Prints one table per metric panel, rows = sweep points, columns =
/// schemes. Returns CSV rows (`metric,fraction,scheme,value`).
pub fn print_panels(points: &[SweepPoint], fraction_label: &str) -> Vec<String> {
    let mut csv = Vec::new();
    for metric in Metric::all() {
        println!("\n-- {} --", metric.label());
        let scheme_names: Vec<&str> = points[0].results.iter().map(|(n, _)| n.as_str()).collect();
        let mut header = vec![fraction_label];
        header.extend(scheme_names.iter().copied());
        let mut table = Table::new(&header);
        for p in points {
            let mut row = vec![format!("{:.2}%", p.fraction * 100.0)];
            for (name, totals) in &p.results {
                let v = metric.extract(totals);
                row.push(f3(v));
                csv.push(format!("{:?},{},{},{}", metric, p.fraction, name, v));
            }
            table.row(&row);
        }
        table.print();
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_order_matches_paper_panels() {
        let labels: Vec<&str> = Metric::all().iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 4);
        assert!(labels[0].starts_with("(a)"));
        assert!(labels[3].starts_with("(d)"));
    }

    #[test]
    fn metric_extract_reads_the_right_field() {
        let mut totals = MetricsTotals::default();
        totals.add(&ccdn_sim::SlotMetrics {
            total_requests: 100,
            hotspot_served: 80,
            cdn_served: 20,
            replicas: 50,
            distance_sum_km: 500.0,
            video_count: 1000,
        });
        assert!((Metric::ServingRatio.extract(&totals) - 0.8).abs() < 1e-12);
        assert!((Metric::AvgDistance.extract(&totals) - 5.0).abs() < 1e-12);
        assert!((Metric::ReplicationCost.extract(&totals) - 0.05).abs() < 1e-12);
        assert!((Metric::CdnLoad.extract(&totals) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn paper_schemes_has_the_three_contenders() {
        let names: Vec<String> = paper_schemes().iter().map(|s| s.name().to_string()).collect();
        assert_eq!(names, vec!["RBCAer", "Nearest", "Random"]);
    }
}
