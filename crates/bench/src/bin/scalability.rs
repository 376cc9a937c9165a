//! **Scalability extension**: flat vs sharded RBCAer as the deployment
//! grows.
//!
//! Flat RBCAer solves one MCMF over all overloaded/under-utilized
//! hotspots; the sharded planner (`S-RBCAer`) solves one small instance
//! per geo-tile plus a border reconciliation pass between tiles. The
//! interesting question is how much quality the decomposition gives up
//! for its runtime headroom.
//!
//! The **metro sweep** then takes the geo-tiled sharded planner
//! (`S-RBCAer`) to 10⁶ hotspots at constant density (the region grows
//! with the deployment) and asserts that plan time stays near-linear in
//! the hotspot count. Set `CCDN_SCALE_MAX_HOTSPOTS` to cap the sweep for
//! quick local runs.

use ccdn_bench::table::{f3, Table};
use ccdn_bench::{announce_csv, init_threads, obs_init, write_csv};
use ccdn_core::{Nearest, Rbcaer, RbcaerConfig, ShardConfig, ShardedRbcaer};
use ccdn_geo::{Point, Rect};
use ccdn_sim::{Runner, Scheme};
use ccdn_trace::TraceConfig;

/// Times one closure in seconds (single shot — the workloads are seconds
/// long, so run-to-run noise is small relative to the speedup measured).
fn time_secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (out, elapsed) = ccdn_obs::timed(f);
    (out, elapsed.as_secs_f64())
}

/// Parallel speedup of the deterministic worker pool on the two hottest
/// data-parallel stages: sharded trace synthesis and the θ-sweep `Gd`
/// construction. Output is bit-identical across thread counts (asserted
/// here), so the only thing the pool changes is the wall-clock.
fn parallel_speedup() -> Vec<String> {
    use ccdn_core::GdStats;
    use ccdn_sim::{SlotDemand, SlotInput};

    println!("\n== Parallel speedup (deterministic pool, threads 1 vs 4) ==\n");
    let mut table = Table::new(&["stage", "t1 (s)", "t4 (s)", "speedup"]);
    let mut csv = Vec::new();

    // Stage 1: sharded trace synthesis.
    let config = TraceConfig::paper_eval().with_request_count(800_000);
    let (seq, t1) = time_secs(|| config.clone().with_threads(1).generate());
    let (par, t4) = time_secs(|| config.clone().with_threads(4).generate());
    assert_eq!(seq.requests, par.requests, "trace synthesis must be thread-count invariant");
    table.row(&["trace synthesis".into(), f3(t1), f3(t4), f3(t1 / t4)]);
    csv.push(format!("trace_synthesis,{t1},{t4},{}", t1 / t4));

    // Stage 2: θ-sweep Gd construction + max flow per point.
    let trace = TraceConfig::paper_eval().with_slot_count(1).generate();
    let runner = Runner::new(&trace);
    let demand = SlotDemand::aggregate(trace.slot_requests(0), runner.geometry());
    let service: Vec<u64> = trace.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect();
    let cache: Vec<u64> = trace.hotspots.iter().map(|h| u64::from(h.cache_capacity)).collect();
    let input = SlotInput {
        geometry: runner.geometry(),
        demand: &demand,
        service_capacity: &service,
        cache_capacity: &cache,
        video_count: trace.video_count,
    };
    let thetas: Vec<f64> = (0..16).map(|i| i as f64 * 0.5).collect();
    ccdn_par::set_threads(1);
    let (seq, t1) = time_secs(|| GdStats::compute_sweep(&input, &thetas));
    ccdn_par::set_threads(4);
    let (par, t4) = time_secs(|| GdStats::compute_sweep(&input, &thetas));
    ccdn_par::set_threads(0);
    assert_eq!(seq, par, "theta sweep must be thread-count invariant");
    table.row(&["theta sweep".into(), f3(t1), f3(t4), f3(t1 / t4)]);
    csv.push(format!("theta_sweep,{t1},{t4},{}", t1 / t4));

    table.print();
    csv
}

/// Hotspot density of the paper's evaluation rectangle (310 hotspots in
/// 17 km × 11 km ≈ 1.66 / km²) — the metro sweep holds it constant.
const PAPER_DENSITY: f64 = 310.0 / (17.0 * 11.0);

/// Near-linearity gate: over the whole sweep, plan time may grow at most
/// `(n_last/n_first)^MAX_EXPONENT`. The exponent is measured across the
/// full 16× span (best-of-2 per point) rather than between consecutive
/// points — single-step ratios on second-scale runs swing ±50 % with
/// scheduler and allocator noise, while the span exponent is stable.
const MAX_EXPONENT: f64 = 1.5;

/// Metro-scale sweep: S-RBCAer plan time from 10⁴ to 10⁶ hotspots at
/// constant density. Content aggregation is off — per-tile clustering is
/// `O(m³)` and the paper's clusters are a content-policy concern, while
/// this sweep isolates the balancing planner the shards parallelize.
fn mega_sweep() -> Vec<String> {
    let cap: usize = std::env::var("CCDN_SCALE_MAX_HOTSPOTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    println!("\n== Metro sweep: S-RBCAer plan time to 10^6 hotspots ==\n");
    let mut table = Table::new(&["hotspots", "tiles", "plan (s)", "serving", "ratio-vs-prev"]);
    let mut csv = Vec::new();
    let config = RbcaerConfig { content_aggregation: false, ..RbcaerConfig::default() };
    let shard = ShardConfig::default();
    let mut first: Option<(usize, f64)> = None;
    let mut last: Option<(usize, f64)> = None;
    for &hotspots in &[62_500usize, 250_000, 1_000_000] {
        if hotspots > cap {
            println!("(capped at {cap} hotspots by CCDN_SCALE_MAX_HOTSPOTS)");
            break;
        }
        // Constant density: the region grows with the deployment, so the
        // per-tile population — and with it each tile's MCMF — stays flat.
        let side = (hotspots as f64 / PAPER_DENSITY).sqrt();
        // Mean load (6 req/hotspot) sits above the service capacity
        // (0.0005 × 10 000 videos = 5 req/slot), so the locality skew
        // leaves a real population of overloaded hotspots for the tiles
        // to balance; small caches (20 videos) keep placement memory
        // bounded at 10⁶ hotspots. Users and population clusters scale
        // with the deployment — a bigger metro has more neighbourhoods,
        // not neighbourhoods of unbounded density — so the busiest tile's
        // population (and with it the largest per-tile MCMF) stays flat.
        let trace = TraceConfig::paper_eval()
            .with_slot_count(1)
            .with_region(Rect::new(Point::new(0.0, 0.0), Point::new(side, side)))
            .with_hotspot_count(hotspots)
            .with_request_count(hotspots * 6)
            .with_video_count(10_000)
            .with_service_capacity_fraction(0.0005)
            .with_cache_capacity_fraction(0.002)
            .with_cluster_count((hotspots / 2_600).max(1))
            .with_user_count(hotspots)
            .generate();
        let runner = Runner::new(&trace);
        // Best of two runs, the min to shed scheduler/allocator noise on
        // second-scale timings. S-RBCAer keeps no state between slots, so
        // one planner serves both runs and each plans the same bytes.
        let mut scheme = ShardedRbcaer::new(config, shard);
        let mut secs = f64::INFINITY;
        let mut report = None;
        for _ in 0..2 {
            let r = runner.run(&mut scheme).expect("scheme validates");
            secs = secs.min(r.scheduling_time.as_secs_f64());
            report = Some(r);
        }
        let report = report.expect("two runs completed");
        let tiles = ((side / shard.tile_km).ceil() as usize).pow(2);
        let growth = last.map(|(_, t0)| secs / t0.max(1e-9));
        table.row(&[
            hotspots.to_string(),
            tiles.to_string(),
            f3(secs),
            f3(report.total.hotspot_serving_ratio()),
            growth.map(f3).unwrap_or_else(|| "-".into()),
        ]);
        csv.push(format!("{hotspots},{tiles},{secs},{}", report.total.hotspot_serving_ratio()));
        if first.is_none() {
            first = Some((hotspots, secs));
        }
        last = Some((hotspots, secs));
    }
    if let (Some((n0, t0)), Some((n1, t1))) = (first, last) {
        // Gate only when the span is real (>1 point) and the baseline
        // costs enough for the timer to be meaningful.
        if n1 > n0 && t0 > 0.25 {
            let exponent = (t1 / t0).ln() / (n1 as f64 / n0 as f64).ln();
            println!(
                "growth exponent over {n0} -> {n1} hotspots: {exponent:.3} \
                 (limit {MAX_EXPONENT})"
            );
            assert!(
                exponent <= MAX_EXPONENT,
                "plan time grew as n^{exponent:.2} over the sweep \
                 (limit n^{MAX_EXPONENT}) — sharded planning is no longer near-linear"
            );
        }
    }
    table.print();
    csv
}

fn main() {
    let threads = init_threads();
    let obs = obs_init();
    println!("== Scalability: flat vs sharded RBCAer ==");
    println!("threads: {threads}\n");
    // A wide cooperation radius makes the flat MCMF dense — the regime
    // where decomposition pays.
    let config = RbcaerConfig { theta2_km: 6.0, ..RbcaerConfig::default() };

    let mut table =
        Table::new(&["hotspots", "scheme", "serving", "distance (km)", "cdn-load", "time"]);
    let mut csv = Vec::new();
    for &(hotspots, requests) in &[(310usize, 212_472usize), (800, 500_000), (1_500, 900_000)] {
        let trace = TraceConfig::paper_eval()
            .with_slot_count(1)
            .with_hotspot_count(hotspots)
            .with_request_count(requests)
            .generate();
        let runner = Runner::new(&trace);
        let mut schemes: Vec<Box<dyn Scheme>> = vec![
            Box::new(Rbcaer::new(config)),
            // Tiles at 2×θ₂ so the border band is a strict minority of
            // each tile even under this sweep's wide radius.
            Box::new(ShardedRbcaer::new(config, ShardConfig { tile_km: 12.0, border_km: 6.0 })),
            Box::new(Nearest::new()),
        ];
        for scheme in &mut schemes {
            let report = runner.run(scheme.as_mut()).expect("scheme validates");
            table.row(&[
                hotspots.to_string(),
                report.scheme.clone(),
                f3(report.total.hotspot_serving_ratio()),
                f3(report.total.average_distance_km()),
                f3(report.total.cdn_server_load()),
                format!("{:?}", report.scheduling_time),
            ]);
            csv.push(format!(
                "{},{},{},{},{},{}",
                hotspots,
                report.scheme,
                report.total.hotspot_serving_ratio(),
                report.total.average_distance_km(),
                report.total.cdn_server_load(),
                report.scheduling_time.as_secs_f64(),
            ));
        }
    }
    table.print();
    let path =
        write_csv("scalability", "hotspots,scheme,serving,distance_km,cdn_load,seconds", &csv);
    announce_csv("scalability sweep", &path);

    let mega_csv = mega_sweep();
    let path = write_csv("scalability_metro", "hotspots,tiles,plan_seconds,serving", &mega_csv);
    announce_csv("metro sweep", &path);

    let speedup_csv = parallel_speedup();
    let path =
        write_csv("scalability_speedup", "stage,t1_seconds,t4_seconds,speedup", &speedup_csv);
    announce_csv("parallel speedup", &path);
    if let Some(obs) = obs {
        obs.finish("scalability");
    }
}
