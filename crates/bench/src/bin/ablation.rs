//! **Ablation study** of the RBCAer design choices called out in
//! DESIGN.md — what each ingredient buys on the paper-scale instance:
//!
//! - content aggregation on/off (pure load balancing on `Gd`);
//! - guide-arc cost model (mean replaced-arc latency vs the paper's
//!   literal `Σφ/|H|` formula);
//! - clustering linkage (complete / average / single);
//! - threshold schedule (`δd` fine vs coarse, wide θ₂);
//! - replication budget `B_peak`.

use ccdn_bench::table::{f3, Table};
use ccdn_bench::{announce_csv, init_threads, obs_init, write_csv};
use ccdn_cluster::Linkage;
use ccdn_core::{GuideCost, Rbcaer, RbcaerConfig};
use ccdn_sim::Runner;
use ccdn_trace::TraceConfig;

fn main() {
    let threads = init_threads();
    let obs = obs_init();
    println!("== RBCAer ablation study (single-slot eval preset) ==");
    println!("threads: {threads}\n");
    let trace = TraceConfig::paper_eval().with_slot_count(1).generate();
    let runner = Runner::new(&trace);

    let base = RbcaerConfig::default();
    let variants: Vec<(&str, RbcaerConfig)> = vec![
        ("full (default)", base),
        ("no content aggregation", RbcaerConfig { content_aggregation: false, ..base }),
        ("guide cost: paper literal", RbcaerConfig { guide_cost: GuideCost::PaperLiteral, ..base }),
        ("linkage: average", RbcaerConfig { linkage: Linkage::Average, ..base }),
        ("linkage: single", RbcaerConfig { linkage: Linkage::Single, ..base }),
        ("delta 0.1 km (fine sweep)", RbcaerConfig { delta_km: 0.1, ..base }),
        ("theta2 5 km (wide reach)", RbcaerConfig { theta2_km: 5.0, ..base }),
        ("B_peak = 20k replicas", RbcaerConfig { replication_budget: Some(20_000), ..base }),
        ("B_peak = 40k replicas", RbcaerConfig { replication_budget: Some(40_000), ..base }),
        // Under a finite budget the aggregation stage's replica savings
        // are no longer masked by unlimited tail refill at the sources —
        // this pair isolates what aggregation buys.
        (
            "B_peak = 40k, no aggregation",
            RbcaerConfig { replication_budget: Some(40_000), content_aggregation: false, ..base },
        ),
    ];

    let mut table =
        Table::new(&["variant", "serving", "distance (km)", "replication", "cdn-load", "time"]);
    let mut csv = Vec::new();
    for (name, config) in variants {
        let report = runner.run(&mut Rbcaer::new(config)).expect("variant validates");
        table.row(&[
            name.to_string(),
            f3(report.total.hotspot_serving_ratio()),
            f3(report.total.average_distance_km()),
            f3(report.total.replication_cost()),
            f3(report.total.cdn_server_load()),
            format!("{:?}", report.scheduling_time),
        ]);
        // The wall-clock time stays on the console: the CSV holds only
        // seeded values, so it is byte-identical across runs.
        csv.push(format!(
            "{},{},{},{},{}",
            name,
            report.total.hotspot_serving_ratio(),
            report.total.average_distance_km(),
            report.total.replication_cost(),
            report.total.cdn_server_load(),
        ));
    }
    table.print();
    let path = write_csv("ablation", "variant,serving,distance_km,replication,cdn_load", &csv);
    announce_csv("ablation results", &path);
    println!("\nReading guide: 'no content aggregation' isolates what the Gc guide");
    println!("nodes + Procedure-1 ordering buy; a finite B_peak prunes the tail");
    println!("placements that otherwise push RBCAer's replication above Nearest's");
    println!("(the Fig. 6c deviation discussed in EXPERIMENTS.md).");
    if let Some(obs) = obs {
        obs.finish("ablation");
    }
}
