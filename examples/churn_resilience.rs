//! Churn resilience: crowdsourced hotspots are consumer devices that go
//! offline without notice. This failure-injection scenario measures how
//! each scheduler degrades as hotspot availability drops — an extension
//! beyond the paper's stable-deployment evaluation (see DESIGN.md).
//!
//! Two views:
//!
//! 1. the offline runner on a deployment whose hotspots offline in one
//!    i.i.d. failure mask have zero service and cache capacity (the
//!    scheme sees the true liveness mask — pure capacity loss);
//! 2. the online runner under sticky Markov failures, where planning is a
//!    slot behind reality: requests whose planned server died are either
//!    *failed over* to an alive neighbour caching the video or *orphaned*
//!    to the CDN, and returning hotspots pay a full cache re-push.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example churn_resilience
//! ```

use crowdsourced_cdn::core::{LocalRandom, Nearest, Rbcaer, RbcaerConfig};
use crowdsourced_cdn::sim::{FailureModel, HotspotGeometry, OnlineRunner, Runner, Scheme};
use crowdsourced_cdn::trace::{Trace, TraceConfig};

fn schemes() -> Vec<Box<dyn Scheme>> {
    vec![
        Box::new(Rbcaer::new(RbcaerConfig::default())),
        Box::new(Nearest::new()),
        Box::new(LocalRandom::new()),
    ]
}

/// A copy of `trace` whose hotspots offline in `failures`' first slot
/// have zero service and cache capacity.
fn with_offline_hotspots(trace: &Trace, failures: FailureModel) -> Trace {
    let geometry = HotspotGeometry::new(trace.region, &trace.hotspots);
    let alive = failures.process().advance(0, &geometry);
    let mut degraded = trace.clone();
    for (hotspot, up) in degraded.hotspots.iter_mut().zip(alive) {
        if !up {
            hotspot.service_capacity = 0;
            hotspot.cache_capacity = 0;
        }
    }
    degraded
}

fn main() {
    let trace = TraceConfig::small_test()
        .with_hotspot_count(80)
        .with_request_count(30_000)
        .with_video_count(1_500)
        .with_seed(5)
        .generate();
    println!(
        "trace: {} hotspots, {} requests over {} slots\n",
        trace.hotspots.len(),
        trace.requests.len(),
        trace.slot_count
    );

    println!("-- offline runner, i.i.d. offline hotspots --");
    println!(
        "{:<14} {:>10} {:>10} {:>10}   (hotspot serving ratio)",
        "offline prob", "RBCAer", "Nearest", "Random"
    );
    for &p in &[0.0, 0.1, 0.2, 0.3, 0.5, 0.7] {
        let mut row = format!("{:<14}", format!("{:.0}%", p * 100.0));
        let failures = FailureModel::iid(p, 17).expect("probability is valid");
        let degraded = with_offline_hotspots(&trace, failures);
        let runner = Runner::new(&degraded);
        for mut scheme in schemes() {
            let report = runner.run(scheme.as_mut()).expect("scheme validates");
            row.push_str(&format!(" {:>10.3}", report.total.hotspot_serving_ratio()));
        }
        println!("{row}");
    }

    println!("\n-- online runner, sticky Markov failures (planning lags reality) --");
    println!(
        "{:<22} {:>8} {:>12} {:>10} {:>10}",
        "mean session/downtime", "serving", "replication", "failover", "orphaned"
    );
    for &(up, down) in &[(f64::INFINITY, 0.0), (16.0, 2.0), (8.0, 4.0), (4.0, 4.0)] {
        let mut scheduler = Rbcaer::new(RbcaerConfig::default());
        let runner = OnlineRunner::new(&trace);
        let (label, report) = if up.is_finite() {
            let failures = FailureModel::markov(up, down, 17).expect("durations are valid");
            (
                format!("{up:.0} / {down:.0} slots"),
                runner.with_failures(failures).run_with_oracle(&mut scheduler),
            )
        } else {
            ("no failures".to_owned(), runner.run_with_oracle(&mut scheduler))
        };
        let report = report.expect("scheme validates");
        println!(
            "{:<22} {:>8.3} {:>12.2} {:>10} {:>10}",
            label,
            report.total.hotspot_serving_ratio(),
            report.total.replication_cost(),
            report.failed_over,
            report.orphaned
        );
    }

    println!("\nFailover rescues most disrupted requests: sticky outages dent the");
    println!("serving ratio, wipe caches (higher replication), and orphan to the");
    println!("CDN only the requests no alive neighbour within radius could cover.");
}
