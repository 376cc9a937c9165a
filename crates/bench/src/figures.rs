//! Shared, deterministic cores of the figure binaries.
//!
//! Each `figN` function computes a figure's data series from an explicit
//! [`TraceConfig`] and returns them as [`FigureData`] CSV blocks plus
//! pre-rendered summary tables. The binaries call them with the paper
//! presets; the golden regression suite (`tests/golden_figures.rs` at the
//! workspace root) calls them with [`golden_config`] and diffs the CSV
//! blocks against checked-in fixtures.
//!
//! Everything here is a pure function of the config: floats are emitted
//! with fixed precision (6 decimals in CSV, 3 in tables) so a seeded run
//! produces byte-identical blocks on every run and thread count.

use crate::measurement::{nearest_routing, random_routing, top_content_sets, RoutingLoads};
use crate::table::{f3, Table};
use ccdn_cluster::jaccard;
use ccdn_core::{LocalRandom, LpBased, Nearest, Rbcaer, RbcaerConfig};
use ccdn_sim::{
    served_loads, utilization_fairness, HotspotGeometry, Runner, Scheme, SlotDemand, SlotInput,
    SlotMetrics,
};
use ccdn_stats::{gini, spearman, Cdf, Summary};
use ccdn_trace::{Hotspot, TraceConfig};
use std::time::Duration;

/// One named CSV block of a figure: the unit the golden suite snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigureData {
    /// Block name; doubles as the CSV file stem under `figures/`.
    pub name: &'static str,
    /// CSV header line.
    pub header: &'static str,
    /// CSV data rows (fixed-precision floats).
    pub rows: Vec<String>,
}

impl FigureData {
    /// The block serialized exactly as its CSV file / golden fixture.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(self.header);
        out.push('\n');
        for row in &self.rows {
            out.push_str(row);
            out.push('\n');
        }
        out
    }
}

/// A figure's full output: summary tables for the terminal and CSV blocks
/// for `figures/` + the golden suite.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// `(section title, rendered table)` pairs in print order.
    pub tables: Vec<(String, Table)>,
    /// CSV blocks in emission order.
    pub csvs: Vec<FigureData>,
}

impl FigureReport {
    /// Prints every section table and writes every CSV block under
    /// `figures/`, announcing each path.
    pub fn print_and_write(&self) {
        for (title, table) in &self.tables {
            println!("\n-- {title} --");
            table.print();
        }
        for block in &self.csvs {
            let path = crate::write_csv(block.name, block.header, &block.rows);
            crate::announce_csv(block.name, &path);
        }
    }
}

/// The small config the golden suite pins: fast enough for a test run,
/// rich enough that every figure has non-trivial series.
pub fn golden_config() -> TraceConfig {
    TraceConfig::small_test().with_hotspot_count(40).with_request_count(6_000)
}

fn f6(x: f64) -> String {
    format!("{x:.6}")
}

/// Fig. 2 core: hotspot workload distribution under Nearest vs Random
/// routing, plus the §II-A replication-cost comparison.
pub fn fig2(config: &TraceConfig) -> FigureReport {
    let trace = config.generate();
    let geometry = HotspotGeometry::new(trace.region, &trace.hotspots);
    let strategies: Vec<(&str, RoutingLoads)> = vec![
        ("Nearest", nearest_routing(&trace.requests, &geometry)),
        ("Random-1km", random_routing(&trace.requests, &geometry, 1.0, 2)),
        ("Random-5km", random_routing(&trace.requests, &geometry, 5.0, 2)),
    ];

    let mut skew = Table::new(&["strategy", "median", "p99", "p99/median", "max"]);
    let mut cdf_rows = Vec::new();
    for (name, loads) in &strategies {
        let cdf =
            // lint: allow(no-panic): experiment harness: empty sample set means a broken figure config; abort loudly
            Cdf::from_samples(loads.loads.iter().map(|&l| l as f64)).expect("non-empty loads");
        skew.row(&[
            name.to_string(),
            f3(cdf.median()),
            f3(cdf.quantile(0.99)),
            cdf.quantile_to_median_ratio(0.99).map(f3).unwrap_or_else(|| "n/a".into()),
            f3(cdf.max()),
        ]);
        for (x, y) in cdf.curve(200) {
            cdf_rows.push(format!("{name},{},{}", f6(x), f6(y)));
        }
    }

    let nearest_cost = strategies[0].1.total_replication() as f64;
    let mut rep = Table::new(&["strategy", "replication", "vs Nearest"]);
    let mut rep_rows = Vec::new();
    for (name, loads) in &strategies {
        let cost = loads.total_replication() as f64;
        let vs = (cost / nearest_cost - 1.0) * 100.0;
        rep.row(&[name.to_string(), format!("{cost:.0}"), format!("{vs:+.1}%")]);
        rep_rows.push(format!("{name},{cost:.0},{}", f6(vs)));
    }

    FigureReport {
        tables: vec![
            ("hotspot workload skew".into(), skew),
            ("§II-A replication cost (Σ distinct videos per hotspot)".into(), rep),
        ],
        csvs: vec![
            FigureData {
                name: "fig2_workload_cdf",
                header: "strategy,workload,cdf",
                rows: cdf_rows,
            },
            FigureData {
                name: "fig2_replication",
                header: "strategy,replication,vs_nearest_pct",
                rows: rep_rows,
            },
        ],
    }
}

/// Radius used by Fig. 3's "nearby pair" statistics, in km.
pub const FIG3_PAIR_RADIUS_KM: f64 = 5.0;

/// Fig. 3 core: cooperation potential — (a) Spearman workload correlation
/// and (b) Jaccard content similarity of nearby hotspot pairs.
pub fn fig3(config: &TraceConfig) -> FigureReport {
    let trace = config.generate();
    let geometry = HotspotGeometry::new(trace.region, &trace.hotspots);

    // (a) workload correlation of nearby pairs.
    let loads = nearest_routing(&trace.requests, &geometry);
    let pairs = geometry.pairs_within(FIG3_PAIR_RADIUS_KM);
    let mut correlations = Vec::new();
    for &(a, b) in &pairs {
        let xa: Vec<f64> = loads.hourly[a.0].iter().map(|&v| v as f64).collect();
        let xb: Vec<f64> = loads.hourly[b.0].iter().map(|&v| v as f64).collect();
        if let Ok(r) = spearman(&xa, &xb) {
            correlations.push(r);
        }
    }
    // lint: allow(no-panic): experiment harness: empty sample set means a broken figure config; abort loudly
    let cdf = Cdf::from_samples(correlations.iter().copied()).expect("pairs exist");
    let mut corr_table = Table::new(&["statistic", "value"]);
    corr_table.row(&["pairs correlated".into(), cdf.len().to_string()]);
    corr_table.row(&["median correlation".into(), f3(cdf.median())]);
    corr_table.row(&["fraction below 0.4".into(), f3(cdf.fraction_at_most(0.4))]);
    let corr_rows: Vec<String> =
        cdf.curve(200).into_iter().map(|(x, y)| format!("{},{}", f6(x), f6(y))).collect();

    // (b) content similarity across deterministic sample ratios.
    let mut sim_table = Table::new(&["sample ratio", "pairs", "p10", "median", "p90"]);
    let mut sim_rows = Vec::new();
    let ratios: [(&str, f64); 4] = [("100%", 1.0), ("50%", 0.5), ("15%", 0.15), ("3%", 0.03)];
    for &(label, ratio) in &ratios {
        let step = (1.0 / ratio).round() as usize;
        let sampled: Vec<Hotspot> = trace.hotspots.iter().step_by(step.max(1)).copied().collect();
        let sub_geometry = HotspotGeometry::new(trace.region, &sampled);
        let sets = top_content_sets(&trace.requests, &sub_geometry, 0.2);
        let sub_pairs = sub_geometry.pairs_within(FIG3_PAIR_RADIUS_KM);
        let mut sims = Vec::new();
        for &(a, b) in &sub_pairs {
            if sets[a.0].is_empty() && sets[b.0].is_empty() {
                continue; // two idle hotspots say nothing about content
            }
            sims.push(jaccard(&sets[a.0], &sets[b.0]));
        }
        if sims.is_empty() {
            sim_table.row(&[label.to_string(), "0".into()]);
            continue;
        }
        // lint: allow(no-panic): experiment harness: empty sample set means a broken figure config; abort loudly
        let cdf = Cdf::from_samples(sims.iter().copied()).expect("non-empty");
        sim_table.row(&[
            label.to_string(),
            cdf.len().to_string(),
            f3(cdf.quantile(0.10)),
            f3(cdf.median()),
            f3(cdf.quantile(0.90)),
        ]);
        for (x, y) in cdf.curve(200) {
            sim_rows.push(format!("{label},{},{}", f6(x), f6(y)));
        }
    }

    FigureReport {
        tables: vec![
            (
                format!("Fig. 3a: Spearman workload correlation, pairs < {FIG3_PAIR_RADIUS_KM} km"),
                corr_table,
            ),
            (
                format!(
                    "Fig. 3b: Jaccard similarity of Top-20% sets, pairs < {FIG3_PAIR_RADIUS_KM} km"
                ),
                sim_table,
            ),
        ],
        csvs: vec![
            FigureData {
                name: "fig3a_workload_correlation_cdf",
                header: "correlation,cdf",
                rows: corr_rows,
            },
            FigureData {
                name: "fig3b_content_similarity_cdf",
                header: "sample_ratio,jaccard,cdf",
                rows: sim_rows,
            },
        ],
    }
}

/// Fig. 5 core: geo-distribution scatter data plus spatial-skew summary.
pub fn fig5(config: &TraceConfig) -> FigureReport {
    let trace = config.generate();

    let hotspot_rows: Vec<String> = trace
        .hotspots
        .iter()
        .map(|h| format!("{},{}", f6(h.location.x), f6(h.location.y)))
        .collect();
    // Subsample requests for the CSV (every 10th), full set for the stats.
    let request_rows: Vec<String> = trace
        .requests
        .iter()
        .step_by(10)
        .map(|r| format!("{},{}", f6(r.location.x), f6(r.location.y)))
        .collect();

    // Density grid: 34 × 11 cells over the region.
    const COLS: usize = 34;
    const ROWS: usize = 11;
    let mut grid = [[0u64; COLS]; ROWS];
    for r in &trace.requests {
        let cx = ((r.location.x / trace.region.width()) * COLS as f64) as usize;
        let cy = ((r.location.y / trace.region.height()) * ROWS as f64) as usize;
        grid[cy.min(ROWS - 1)][cx.min(COLS - 1)] += 1;
    }
    let cells: Vec<f64> = grid.iter().flatten().map(|&v| v as f64).collect();
    // lint: allow(no-panic): experiment harness: empty sample set means a broken figure config; abort loudly
    let summary = Summary::from_samples(cells.iter().copied()).expect("cells exist");
    let gini_cell = gini(&cells);
    let mut skew = Table::new(&["statistic", "value"]);
    skew.row(&["requests/cell mean".into(), f3(summary.mean)]);
    skew.row(&["requests/cell max".into(), f3(summary.max)]);
    skew.row(&["density gini".into(), gini_cell.map(f3).unwrap_or_else(|| "n/a".into())]);
    let skew_rows = vec![format!(
        "{},{},{}",
        f6(summary.mean),
        f6(summary.max),
        gini_cell.map(f6).unwrap_or_else(|| "n/a".into())
    )];

    FigureReport {
        tables: vec![("spatial skew of the per-cell request counts".into(), skew)],
        csvs: vec![
            FigureData { name: "fig5_hotspots", header: "x_km,y_km", rows: hotspot_rows },
            FigureData { name: "fig5_requests", header: "x_km,y_km", rows: request_rows },
            FigureData {
                name: "fig5_density_skew",
                header: "cell_mean,cell_max,gini",
                rows: skew_rows,
            },
        ],
    }
}

/// Fig. 8 core: runs the four schedulers on a single-slot instance.
/// Returns the **deterministic** quality metrics as the report (what the
/// golden suite snapshots) and the wall-clock scheduling times separately
/// (non-deterministic by nature — the binary prints and CSVs them, the
/// golden suite ignores them).
pub fn fig8(config: &TraceConfig) -> (FigureReport, Vec<(String, Duration)>) {
    let trace = config.generate();
    let runner = Runner::new(&trace);

    let mut schemes: Vec<(Box<dyn Scheme>, &str)> = vec![
        (
            Box::new(LpBased::new(400)),
            "LP relaxation capped at the 400 highest-demand (hotspot,video) pairs",
        ),
        (Box::new(Rbcaer::new(RbcaerConfig::default())), "full instance"),
        (Box::new(LocalRandom::new()), "full instance"),
        (Box::new(Nearest::new()), "full instance"),
    ];

    let mut table = Table::new(&["scheme", "serving", "cdn-load", "note"]);
    let mut metric_rows = Vec::new();
    let mut times = Vec::new();
    for (scheme, note) in &mut schemes {
        // lint: allow(no-panic): experiment harness: a scheme that fails validation must abort the figure run loudly
        let report = runner.run(scheme.as_mut()).expect("scheme validates");
        table.row(&[
            report.scheme.clone(),
            f3(report.total.hotspot_serving_ratio()),
            f3(report.total.cdn_server_load()),
            note.to_string(),
        ]);
        metric_rows.push(format!(
            "{},{},{}",
            report.scheme,
            f6(report.total.hotspot_serving_ratio()),
            f6(report.total.cdn_server_load())
        ));
        times.push((report.scheme.clone(), report.scheduling_time));
    }

    (
        FigureReport {
            tables: vec![("scheduling quality (deterministic)".into(), table)],
            csvs: vec![FigureData {
                name: "fig8_quality",
                header: "scheme,serving,cdn_load",
                rows: metric_rows,
            }],
        },
        times,
    )
}

/// Load-balance extension core: post-scheduling served-load skew and Jain
/// utilization fairness per scheduler on a single-slot instance.
pub fn balance(config: &TraceConfig) -> FigureReport {
    let trace = config.generate();
    let geometry = HotspotGeometry::new(trace.region, &trace.hotspots);
    let demand = SlotDemand::aggregate(trace.slot_requests(0), &geometry);
    let service: Vec<u64> = trace.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect();
    let cache: Vec<u64> = trace.hotspots.iter().map(|h| u64::from(h.cache_capacity)).collect();
    let input = SlotInput {
        geometry: &geometry,
        demand: &demand,
        service_capacity: &service,
        cache_capacity: &cache,
        video_count: trace.video_count,
    };

    // lint: allow(no-panic): experiment harness: empty sample set means a broken figure config; abort loudly
    let demand_cdf = Cdf::from_samples(demand.loads().iter().map(|&l| l as f64)).expect("loads");
    let mut demand_table = Table::new(&["statistic", "value"]);
    demand_table.row(&["demand median".into(), f3(demand_cdf.median())]);
    demand_table.row(&[
        "demand p99/median".into(),
        demand_cdf.quantile_to_median_ratio(0.99).map(f3).unwrap_or_else(|| "n/a".into()),
    ]);

    let mut schemes: Vec<Box<dyn Scheme>> = vec![
        Box::new(Rbcaer::new(RbcaerConfig::default())),
        Box::new(Nearest::new()),
        Box::new(LocalRandom::new()),
    ];
    let mut table =
        Table::new(&["scheme", "served median", "served p99", "p99/median", "jain utilization"]);
    let mut rows = Vec::new();
    for scheme in &mut schemes {
        let decision = scheme.schedule(&input);
        // lint: allow(no-panic): experiment harness: a scheme that fails validation must abort the figure run loudly
        SlotMetrics::evaluate(&input, &decision).expect("scheme validates");
        let served = served_loads(input.hotspot_count(), &decision);
        // lint: allow(no-panic): experiment harness: empty sample set means a broken figure config; abort loudly
        let cdf = Cdf::from_samples(served.iter().map(|&l| l as f64)).expect("served");
        let jain = utilization_fairness(&service, &decision).unwrap_or(0.0);
        table.row(&[
            scheme.name().to_string(),
            f3(cdf.median()),
            f3(cdf.quantile(0.99)),
            cdf.quantile_to_median_ratio(0.99).map(f3).unwrap_or_else(|| "n/a".into()),
            f3(jain),
        ]);
        rows.push(format!(
            "{},{},{},{}",
            scheme.name(),
            f6(cdf.median()),
            f6(cdf.quantile(0.99)),
            f6(jain)
        ));
    }

    FigureReport {
        tables: vec![
            ("pre-scheduling demand skew (the problem)".into(), demand_table),
            ("post-scheduling load balance".into(), table),
        ],
        csvs: vec![FigureData {
            name: "balance",
            header: "scheme,served_median,served_p99,jain",
            rows,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_data_serializes_with_trailing_newline() {
        let d = FigureData { name: "t", header: "a,b", rows: vec!["1,2".into()] };
        assert_eq!(d.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    fn golden_config_figures_are_deterministic() {
        let a = fig5(&golden_config());
        let b = fig5(&golden_config());
        assert_eq!(a.csvs, b.csvs);
    }

    #[test]
    fn fig8_reports_metrics_without_times() {
        // One slot keeps the dense-simplex LP baseline cheap in debug builds.
        let (report, times) = fig8(&golden_config().with_slot_count(1));
        assert_eq!(report.csvs.len(), 1);
        assert_eq!(report.csvs[0].rows.len(), times.len());
        assert!(!report.csvs[0].header.contains("seconds"));
    }
}
