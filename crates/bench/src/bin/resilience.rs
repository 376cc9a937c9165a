//! **Resilience sweep** (robustness extension, DESIGN.md): degradation
//! curves under stateful hotspot failures for the online predict → place
//! → route loop. Planning sees last slot's liveness, serving the true
//! one, so every failure mid-slot forces failover routing (alive
//! neighbour caching the video) or an orphaned fall-back to the CDN, and
//! every recovery pays a cache re-push.
//!
//! Two sweeps:
//!
//! 1. i.i.d. offline probability 0 → 0.5;
//! 2. sticky Markov failures at fixed mean session length, mean downtime
//!    1 → 8 slots.
//!
//! Compares Nearest, stock RBCAer, and the failure-hardened
//! RBCAer(robust) — availability-discounted planning capacities plus
//! k-redundant placement of each hotspot's hottest videos.

use ccdn_bench::table::{f3, Table};
use ccdn_bench::{announce_csv, init_threads, obs_init, write_csv};
use ccdn_core::{Nearest, Rbcaer, RbcaerConfig};
use ccdn_sim::{FailureModel, OnlineReport, OnlineRunner, Scheme};
use ccdn_trace::{Trace, TraceConfig};

const FAILURE_SEED: u64 = 2017;

fn schemes() -> Vec<Box<dyn Scheme>> {
    vec![
        Box::new(Nearest::new()),
        Box::new(Rbcaer::new(RbcaerConfig::default())),
        Box::new(Rbcaer::new(RbcaerConfig { robust: true, ..RbcaerConfig::default() })),
    ]
}

fn run(trace: &Trace, scheme: &mut dyn Scheme, failures: Option<FailureModel>) -> OnlineReport {
    let mut runner = OnlineRunner::new(trace);
    if let Some(f) = failures {
        runner = runner.with_failures(f);
    }
    runner.run_with_oracle(scheme).expect("scheme validates")
}

fn main() {
    let threads = init_threads();
    let obs = obs_init();
    println!("== Resilience: degradation under stateful hotspot failures ==");
    println!("threads: {threads}\n");
    let trace = TraceConfig::paper_eval()
        .with_hotspot_count(100)
        .with_request_count(120_000)
        .with_video_count(4_000)
        .with_days(2)
        .with_service_capacity_fraction(0.005)
        .with_cache_capacity_fraction(0.01)
        .generate();
    println!(
        "trace: {} hotspots, {} requests, {} videos, {} hourly slots\n",
        trace.hotspots.len(),
        trace.requests.len(),
        trace.video_count,
        trace.slot_count
    );

    // Healthy baselines: degradation is measured relative to these.
    let baseline: Vec<(String, f64)> = schemes()
        .iter_mut()
        .map(|s| {
            let report = run(&trace, s.as_mut(), None);
            (report.scheme.clone(), report.total.hotspot_serving_ratio())
        })
        .collect();

    let mut csv = Vec::new();
    let mut record =
        |table: &mut Table, sweep: &str, level: f64, report: &OnlineReport, healthy: f64| {
            let serving = report.total.hotspot_serving_ratio();
            let retained = if healthy > 0.0 { serving / healthy } else { 0.0 };
            table.row(&[
                format!("{level:.2}"),
                report.scheme.clone(),
                f3(serving),
                f3(retained),
                f3(report.total.replication_cost()),
                report.failed_over.to_string(),
                report.orphaned.to_string(),
            ]);
            csv.push(format!(
                "{sweep},{level},{},{serving},{retained},{},{},{}",
                report.scheme,
                report.total.replication_cost(),
                report.failed_over,
                report.orphaned,
            ));
        };
    let header = &["level", "scheme", "serving", "retained", "replication", "failover", "orphaned"];

    println!("-- sweep 1: i.i.d. offline probability --");
    let mut iid = Table::new(header);
    let mut retained_at_worst: Vec<(String, f64)> = Vec::new();
    for &p in &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5] {
        for (k, mut scheme) in schemes().into_iter().enumerate() {
            let failures = FailureModel::iid(p, FAILURE_SEED).expect("valid probability");
            let report = run(&trace, scheme.as_mut(), Some(failures));
            let healthy = baseline[k].1;
            record(&mut iid, "iid", p, &report, healthy);
            if p == 0.5 {
                retained_at_worst
                    .push((report.scheme.clone(), report.total.hotspot_serving_ratio() / healthy));
            }
        }
    }
    iid.print();

    println!("\n-- sweep 2: Markov failures, mean session 16 slots --");
    let mut markov = Table::new(header);
    for &down in &[1.0, 2.0, 4.0, 8.0] {
        for (k, mut scheme) in schemes().into_iter().enumerate() {
            let failures = FailureModel::markov(16.0, down, FAILURE_SEED).expect("valid durations");
            let report = run(&trace, scheme.as_mut(), Some(failures));
            record(&mut markov, "markov", down, &report, baseline[k].1);
        }
    }
    markov.print();

    let path = write_csv(
        "resilience",
        "sweep,level,scheme,serving,retained,replication,failover,orphaned",
        &csv,
    );
    announce_csv("resilience sweep", &path);

    // The point of the hardened variant: at the harshest churn it retains
    // a strictly larger fraction of its healthy serving ratio.
    let retained = |name: &str| {
        retained_at_worst
            .iter()
            .find(|(s, _)| s == name)
            .map(|&(_, r)| r)
            .expect("scheme present in sweep")
    };
    let robust = retained("RBCAer(robust)");
    let stock = retained("RBCAer");
    let nearest = retained("Nearest");
    println!(
        "\nretained serving at p = 0.5: robust {robust:.3}, stock {stock:.3}, nearest {nearest:.3}"
    );
    assert!(
        robust > stock && robust > nearest,
        "hardened RBCAer should degrade most gracefully (robust {robust:.3}, stock {stock:.3}, nearest {nearest:.3})"
    );
    println!("robust RBCAer decays most gracefully: headroom keeps promised capacity");
    println!("honest and redundant copies keep failover local instead of orphaning");
    println!("requests to the CDN.");
    if let Some(obs) = obs {
        obs.finish("resilience");
    }
}
