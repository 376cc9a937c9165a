//! Differential contract of the sharded planner against monolithic
//! RBCAer: byte-identical plans when everything fits one tile, a bounded
//! gap under real tiling, thread-count invariance, and plans that depend
//! on the slot input alone.

use ccdn_core::{Rbcaer, RbcaerConfig, ShardConfig, ShardedRbcaer};
use ccdn_sim::{HotspotGeometry, Runner, Scheme, SlotDemand, SlotInput, Target};
use ccdn_trace::{Trace, TraceConfig};

fn trace_with_seed(seed: u64) -> Trace {
    TraceConfig::small_test()
        .with_hotspot_count(48)
        .with_request_count(9_000)
        .with_video_count(400)
        .with_seed(seed)
        .generate()
}

/// Runs `f` on the per-slot inputs of `trace`, in slot order.
fn for_each_slot(trace: &Trace, mut f: impl FnMut(&SlotInput<'_>)) {
    let geometry = HotspotGeometry::new(trace.region, &trace.hotspots);
    let service: Vec<u64> = trace.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect();
    let cache: Vec<u64> = trace.hotspots.iter().map(|h| u64::from(h.cache_capacity)).collect();
    for slot in 0..trace.slot_count {
        let demand = SlotDemand::aggregate(trace.slot_requests(slot), &geometry);
        let input = SlotInput {
            geometry: &geometry,
            demand: &demand,
            service_capacity: &service,
            cache_capacity: &cache,
            video_count: trace.video_count,
        };
        f(&input);
    }
}

/// One tile spanning the whole region is the monolithic planner: every
/// slot's decision must be byte-identical to flat [`Rbcaer`]'s.
#[test]
fn single_tile_cold_matches_flat_rbcaer_exactly() {
    let trace = trace_with_seed(5);
    let mut flat = Rbcaer::new(RbcaerConfig::default());
    let mut sharded = ShardedRbcaer::new(
        RbcaerConfig::default(),
        ShardConfig { tile_km: 10_000.0, ..ShardConfig::default() },
    );
    for_each_slot(&trace, |input| {
        assert_eq!(sharded.schedule(input), flat.schedule(input));
    });
}

/// Real tiling (several tiles across the paper region) stays close to the
/// monolithic plan: full coverage, and a hotspot serving ratio within a
/// bounded gap of flat RBCAer.
#[test]
fn multi_tile_gap_is_bounded() {
    let trace = trace_with_seed(7);
    let runner = Runner::new(&trace);
    let flat = runner.run(&mut Rbcaer::new(RbcaerConfig::default())).unwrap();
    let shard = ShardConfig { tile_km: 4.0, ..ShardConfig::default() };
    let sharded = runner.run(&mut ShardedRbcaer::new(RbcaerConfig::default(), shard)).unwrap();
    assert_eq!(sharded.total.sums.total_requests, trace.requests.len() as u64);
    let gap = flat.total.hotspot_serving_ratio() - sharded.total.hotspot_serving_ratio();
    assert!(
        gap < 0.05,
        "sharded serving ratio {} trails flat {} by more than 5 points",
        sharded.total.hotspot_serving_ratio(),
        flat.total.hotspot_serving_ratio()
    );
}

/// Plan bytes are invariant under the worker-pool size: the same trace
/// planned at 1, 2, and 8 threads produces identical reports.
#[test]
fn plans_are_thread_count_invariant() {
    let trace = trace_with_seed(9);
    let runner = Runner::new(&trace);
    let shard = ShardConfig { tile_km: 4.0, ..ShardConfig::default() };
    let mut reports = Vec::new();
    for threads in [1usize, 2, 8] {
        ccdn_par::set_threads(threads);
        let report = runner.run(&mut ShardedRbcaer::new(RbcaerConfig::default(), shard)).unwrap();
        // Strip wall-clock timings: only the planned bytes must match.
        let metrics: Vec<_> = report.slots.iter().map(|s| s.metrics).collect();
        reports.push((metrics, report.total));
    }
    ccdn_par::set_threads(0);
    assert_eq!(reports[0], reports[1], "1-thread vs 2-thread plans diverge");
    assert_eq!(reports[0], reports[2], "1-thread vs 8-thread plans diverge");
}

/// S-RBCAer plans each slot from that slot's input alone: a long-lived
/// planner returns a fresh planner's plan on every slot, and again when
/// the same demand comes back with every redirect target's service and
/// cache capacity taken away.
#[test]
fn plans_depend_on_the_slot_input_alone() {
    let trace = trace_with_seed(17);
    let shard = ShardConfig { tile_km: 4.0, ..ShardConfig::default() };
    let fresh = || ShardedRbcaer::new(RbcaerConfig::default(), shard);
    let mut long_lived = fresh();
    let mut drained_targets = 0;
    for_each_slot(&trace, |input| {
        let plan = long_lived.schedule(input);
        assert_eq!(plan, fresh().schedule(input));

        let mut service = input.service_capacity.to_vec();
        let mut cache = input.cache_capacity.to_vec();
        for a in &plan.assignments {
            if let Target::Hotspot(to) = a.target {
                if to != a.from && service[to.0] + cache[to.0] > 0 {
                    service[to.0] = 0;
                    cache[to.0] = 0;
                    drained_targets += 1;
                }
            }
        }
        let drained = SlotInput { service_capacity: &service, cache_capacity: &cache, ..*input };
        assert_eq!(long_lived.schedule(&drained), fresh().schedule(&drained));
    });
    assert!(drained_targets > 0, "no slot redirected a request");
}

#[test]
fn shard_config_rejects_bad_geometry() {
    assert!(ShardConfig { tile_km: 0.0, ..ShardConfig::default() }.validate().is_err());
    assert!(ShardConfig { tile_km: f64::NAN, ..ShardConfig::default() }.validate().is_err());
    assert!(ShardConfig { border_km: -1.0, ..ShardConfig::default() }.validate().is_err());
    assert!(ShardedRbcaer::try_new(
        RbcaerConfig::default(),
        ShardConfig { tile_km: -3.0, ..ShardConfig::default() }
    )
    .is_err());
    assert_eq!(
        ShardedRbcaer::new(RbcaerConfig::default(), ShardConfig::default()).name(),
        "S-RBCAer"
    );
}
