//! Golden-figure regression suite.
//!
//! Each test runs a figure core from `ccdn_bench::figures` on the small
//! pinned config and byte-compares every CSV block against its checked-in
//! fixture under `tests/golden/`. A drift in any seeded output — trace
//! synthesis, routing, scheduling, metric evaluation — fails the diff
//! with the first mismatching line.
//!
//! To bless an intentional change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_figures
//! ```
//!
//! and commit the rewritten fixtures.

use ccdn_bench::figures::{self, FigureData};
use ccdn_chaos::{Backoff, ChaosConfig, FaultPlan};
use ccdn_core::{Rbcaer, RbcaerConfig, RobustConfig, ShardConfig, ShardedRbcaer};
use ccdn_sim::{ChaosOptions, Ewma, FailureModel, OnlineReport, OnlineRunner, RunReport, Runner};
use std::fs;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

fn update_requested() -> bool {
    std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1")
}

/// First line where `got` and `want` disagree, for a readable failure.
fn first_diff(got: &str, want: &str) -> String {
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        if g != w {
            return format!("line {}: got `{g}`, fixture has `{w}`", i + 1);
        }
    }
    format!(
        "line count differs: got {} lines, fixture has {}",
        got.lines().count(),
        want.lines().count()
    )
}

fn check(blocks: &[FigureData]) {
    assert!(!blocks.is_empty(), "figure produced no CSV blocks");
    let dir = golden_dir();
    for block in blocks {
        let path = dir.join(format!("{}.csv", block.name));
        let got = block.to_csv();
        if update_requested() {
            fs::create_dir_all(&dir).expect("create golden dir");
            fs::write(&path, &got).expect("write fixture");
            continue;
        }
        let want = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} ({e}); generate it with \
                 `UPDATE_GOLDEN=1 cargo test --test golden_figures`",
                path.display()
            )
        });
        assert_eq!(
            got,
            want,
            "golden drift in `{}`: {}\nIf the change is intentional, re-bless with \
             `UPDATE_GOLDEN=1 cargo test --test golden_figures` and commit the fixture.",
            block.name,
            first_diff(&got, &want)
        );
    }
}

#[test]
fn fig2_matches_golden() {
    check(&figures::fig2(&figures::golden_config()).csvs);
}

#[test]
fn fig3_matches_golden() {
    check(&figures::fig3(&figures::golden_config()).csvs);
}

#[test]
fn fig5_matches_golden() {
    check(&figures::fig5(&figures::golden_config()).csvs);
}

#[test]
fn fig8_matches_golden() {
    // Wall-clock scheduling times are returned separately and deliberately
    // not snapshotted — only the deterministic quality metrics are.
    let (report, _times) = figures::fig8(&figures::golden_config().with_slot_count(1));
    check(&report.csvs);
}

#[test]
fn balance_matches_golden() {
    check(&figures::balance(&figures::golden_config().with_slot_count(1)).csvs);
}

/// One CSV row per slot of an offline run: the serving split, replicas
/// and summed access distance.
fn offline_block(name: &'static str, report: &RunReport) -> FigureData {
    let rows = report
        .slots
        .iter()
        .map(|s| {
            let m = &s.metrics;
            format!(
                "{},{},{},{},{},{:.6}",
                s.slot,
                m.total_requests,
                m.hotspot_served,
                m.cdn_served,
                m.replicas,
                m.distance_sum_km
            )
        })
        .collect();
    FigureData {
        name,
        header: "slot,requests,hotspot_served,cdn_served,replicas,distance_sum_km",
        rows,
    }
}

/// Pins S-RBCAer's per-slot plans under the default tiling, border pass
/// included.
#[test]
fn sharded_rbcaer_matches_golden() {
    let trace = figures::golden_config().generate();
    let runner = Runner::new(&trace);
    let run = |shard: ShardConfig| {
        runner
            .run(&mut ShardedRbcaer::new(RbcaerConfig::default(), shard))
            .expect("S-RBCAer plans validate")
    };
    let sharded = run(ShardConfig::default());
    let no_border = run(ShardConfig { border_km: 0.0, ..ShardConfig::default() });
    let block = offline_block("sharded_rbcaer", &sharded);
    // The fixture must see the border pass change some plan.
    assert_ne!(block.rows, offline_block("sharded_rbcaer", &no_border).rows);
    check(&[block]);
}

/// Pins robust RBCAer: capacity-discounted planning plus the redundancy
/// pass.
#[test]
fn robust_rbcaer_matches_golden() {
    let trace = figures::golden_config().generate();
    let config = RbcaerConfig { robustness: Some(RobustConfig::default()), ..Default::default() };
    let report =
        Runner::new(&trace).run(&mut Rbcaer::new(config)).expect("robust RBCAer plans validate");
    check(&[offline_block("robust_rbcaer", &report)]);
}

/// One CSV row per slot of an online run: serving split, delta
/// replication, and every failure/chaos tally.
fn online_block(name: &'static str, report: &OnlineReport) -> FigureData {
    let rows = report
        .slots
        .iter()
        .map(|s| {
            let m = &s.metrics;
            format!(
                "{},{},{},{},{},{},{},{},{},{},{},{:.6}",
                s.slot,
                m.total_requests,
                m.hotspot_served,
                m.cdn_served,
                m.replicas,
                s.failed_over,
                s.orphaned,
                s.disrupted,
                s.origin_spilled,
                u8::from(s.degraded),
                s.offline_hotspots,
                s.forecast_error
            )
        })
        .collect();
    FigureData {
        name,
        header: "slot,requests,hotspot_served,cdn_served,replicas,failed_over,orphaned,\
                 disrupted,origin_spilled,degraded,offline_hotspots,forecast_error",
        rows,
    }
}

/// Pins `OnlineRunner` under both fault planes: the failure model alone,
/// and Markov failures with regional outages plus a chaos fault plan in
/// degraded mode with a failover chain budget.
#[test]
fn online_faults_match_golden() {
    let trace = figures::golden_config().generate();
    let run = |runner: OnlineRunner<'_>| {
        runner
            .run(&mut Rbcaer::new(RbcaerConfig::default()), &mut Ewma::new(0.3))
            .expect("online run validates")
    };

    let failures = run(OnlineRunner::new(&trace).with_failures(FailureModel::iid(0.2, 7).unwrap()));
    let plan = FaultPlan::new(ChaosConfig::at_intensity(11, 0.5).unwrap()).unwrap();
    let chaos = run(OnlineRunner::new(&trace)
        .with_failures(
            FailureModel::markov(8.0, 2.0, 7).unwrap().with_regional_outages(0.1, 1.5).unwrap(),
        )
        .with_chaos(
            ChaosOptions::new(plan)
                .with_backoff(Backoff::new(1, 4))
                .with_degraded_mode()
                .with_chain_budget(3),
        ));

    // The fixtures must exercise every fault outcome they pin.
    assert!(failures.disrupted > 0, "the failures-only run disrupted nothing");
    assert!(chaos.disrupted > 0, "the chaos run disrupted nothing");
    assert!(chaos.origin_spilled > 0, "the chaos run never hit its chain budget");
    assert!(chaos.degraded_slots > 0, "the chaos run never served degraded");

    check(&[online_block("online_failures", &failures), online_block("online_chaos", &chaos)]);
}

/// The harness must fail on drift, not just on missing fixtures: corrupt
/// one in-memory copy and check the comparison trips.
#[test]
fn harness_detects_drift() {
    if update_requested() {
        return; // blessing mode rewrites fixtures; nothing to detect
    }
    let mut blocks = figures::fig5(&figures::golden_config()).csvs;
    if let Some(row) = blocks[0].rows.first_mut() {
        *row = format!("{row},drifted");
    }
    let result = std::panic::catch_unwind(|| check(&blocks));
    assert!(result.is_err(), "a drifted row must fail the golden comparison");
}
