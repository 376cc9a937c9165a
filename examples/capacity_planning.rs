//! Capacity planning: a crowdsourced-CDN operator wants to hit a target
//! hotspot serving ratio at the lowest per-device service capacity —
//! cheaper edge devices, same user experience. This sweeps capacity for
//! each scheduler and reports the cheapest capacity meeting the target,
//! the workflow behind the paper's Fig. 6a observation ("to achieve a
//! serving ratio of 0.74, RBCAer needs 4 % capacity where the baselines
//! need 5.2–5.7 %").
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

use crowdsourced_cdn::core::{LocalRandom, Nearest, Rbcaer, RbcaerConfig};
use crowdsourced_cdn::sim::{Runner, Scheme};
use crowdsourced_cdn::trace::TraceConfig;

const TARGET_SERVING_RATIO: f64 = 0.70;

fn schemes() -> Vec<Box<dyn Scheme>> {
    vec![
        Box::new(Rbcaer::new(RbcaerConfig::default())),
        Box::new(Nearest::new()),
        Box::new(LocalRandom::new()),
    ]
}

fn main() {
    println!("target: serve {TARGET_SERVING_RATIO:.0}% of requests at the edge\n");
    println!("{:<10} {:>8} {:>8} {:>8}", "capacity", "RBCAer", "Nearest", "Random");

    // Quarter-scale single-slot instance of the paper evaluation.
    let base = TraceConfig::paper_eval()
        .with_slot_count(1)
        .with_hotspot_count(120)
        .with_request_count(60_000)
        .with_video_count(6_000);

    let mut cheapest: Vec<Option<f64>> = vec![None; 3];
    for percent in 2..=9 {
        let fraction = percent as f64 / 100.0;
        let trace = base.clone().with_service_capacity_fraction(fraction).generate();
        let runner = Runner::new(&trace);
        let mut row = format!("{:<10}", format!("{percent}%"));
        for (i, mut scheme) in schemes().into_iter().enumerate() {
            let report = runner.run(scheme.as_mut()).expect("scheme validates");
            let ratio = report.total.hotspot_serving_ratio();
            row.push_str(&format!(" {ratio:>8.3}"));
            if ratio >= TARGET_SERVING_RATIO && cheapest[i].is_none() {
                cheapest[i] = Some(fraction);
            }
        }
        println!("{row}");
    }

    println!("\ncheapest capacity meeting the target:");
    for (name, found) in ["RBCAer", "Nearest", "Random"].iter().zip(&cheapest) {
        match found {
            Some(f) => println!("  {name:<8} {:.0}% of the video set", f * 100.0),
            None => println!("  {name:<8} not reachable in the swept range"),
        }
    }
    println!("\nRBCAer reaches the target with less provisioned capacity because it");
    println!("moves overflow to idle neighbours instead of the CDN server.");
}
