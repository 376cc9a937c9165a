//! Quickstart: generate a synthetic crowdsourced-CDN workload and compare
//! the paper's schedulers on the four evaluation metrics.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use crowdsourced_cdn::core::{LocalRandom, Nearest, Rbcaer, RbcaerConfig};
use crowdsourced_cdn::sim::{RunReport, Runner};
use crowdsourced_cdn::trace::TraceConfig;

fn print_report(report: &RunReport) {
    println!(
        "{:<24} serving {:>6.3}  distance {:>7.3} km  replication {:>7.3}  cdn-load {:>6.3}  time {:>9.2?}",
        report.scheme,
        report.total.hotspot_serving_ratio(),
        report.total.average_distance_km(),
        report.total.replication_cost(),
        report.total.cdn_server_load(),
        report.scheduling_time,
    );
}

fn main() {
    // A small city: 60 hotspots, 20k requests over a 24-hour day.
    let trace = TraceConfig::small_test()
        .with_hotspot_count(60)
        .with_request_count(20_000)
        .with_video_count(1_000)
        .with_seed(7)
        .generate();
    println!(
        "trace: {} hotspots, {} requests, {} videos, {} slots\n",
        trace.hotspots.len(),
        trace.requests.len(),
        trace.video_count,
        trace.slot_count
    );

    let runner = Runner::new(&trace);
    print_report(&runner.run(&mut Nearest::new()).expect("nearest validates"));
    print_report(&runner.run(&mut LocalRandom::new()).expect("random validates"));
    print_report(&runner.run(&mut Rbcaer::new(RbcaerConfig::default())).expect("rbcaer validates"));

    println!("\nRBCAer redirects load from crowded hotspots to idle neighbours with");
    println!("similar content, so it serves more requests at the edge, at lower");
    println!("latency, without inflating the replication the CDN must push.");
}
