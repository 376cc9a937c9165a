//! Parallel ↔ sequential equivalence properties.
//!
//! The `ccdn-par` contract is that thread count is invisible in every
//! output: the ordered-join pool may change wall-clock time, never bytes.
//! These properties drive randomly-configured traces through each
//! parallelized stage — sharded trace synthesis, the offline `Runner`,
//! and the failure- and chaos-aware `OnlineRunner` — at 1, 2, and 8
//! threads and require bit-identical results.

use ccdn_chaos::{ChaosConfig, FaultPlan};
use crowdsourced_cdn::core::{Nearest, Rbcaer, RbcaerConfig};
use crowdsourced_cdn::sim::{ChaosOptions, Ewma, FailureModel, OnlineRunner, Runner};
use crowdsourced_cdn::trace::{Trace, TraceConfig};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// A small random trace configuration; kept tiny because every property
/// runs the full pipeline once per thread count.
fn config_strategy() -> impl Strategy<Value = TraceConfig> {
    (2usize..20, 0usize..2_000, 1usize..150, 0u64..1_000, 1u32..4).prop_map(
        |(hotspots, requests, videos, seed, slots)| {
            TraceConfig::small_test()
                .with_hotspot_count(hotspots)
                .with_request_count(requests)
                .with_video_count(videos)
                .with_seed(seed)
                .with_slot_count(slots)
        },
    )
}

/// Traces long enough to span several 4 096-request generation shards,
/// over one to seven days (weekends included), so the shard merge, the
/// timeslot bucket sort and the weekend rejection loop are compared
/// across thread counts. Synthesis alone is cheap, so these run larger
/// than [`config_strategy`]'s.
fn synthesis_strategy() -> impl Strategy<Value = TraceConfig> {
    (2usize..20, 0usize..12_000, 1usize..150, 0u64..1_000, 1u32..25, 1u32..8).prop_map(
        |(hotspots, requests, videos, seed, slots, days)| {
            TraceConfig::small_test()
                .with_hotspot_count(hotspots)
                .with_request_count(requests)
                .with_video_count(videos)
                .with_seed(seed)
                .with_slot_count(slots)
                .with_days(days)
        },
    )
}

fn trace_csv_bytes(trace: &Trace) -> (Vec<u8>, Vec<u8>) {
    let mut hotspots = Vec::new();
    let mut requests = Vec::new();
    trace.write_csv(&mut hotspots, &mut requests).expect("write to Vec cannot fail");
    (hotspots, requests)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sharded synthesis: the trace (and hence its CSV encoding) is
    /// byte-identical for every worker count, across shard boundaries and
    /// days.
    #[test]
    fn trace_bytes_match_across_thread_counts(config in synthesis_strategy()) {
        let baseline = config.clone().with_threads(1).generate();
        let baseline_bytes = trace_csv_bytes(&baseline);
        for threads in THREAD_COUNTS {
            let trace = config.clone().with_threads(threads).generate();
            prop_assert_eq!(&trace, &baseline, "trace diverged at {} threads", threads);
            prop_assert_eq!(
                &trace_csv_bytes(&trace),
                &baseline_bytes,
                "CSV bytes diverged at {} threads",
                threads
            );
        }
    }

    /// Offline runner: per-slot metrics and totals are identical for
    /// every worker count (scheduling times are wall-clock and excluded).
    #[test]
    fn run_report_matches_across_thread_counts(config in config_strategy()) {
        let trace = config.generate();
        let reports: Vec<_> = THREAD_COUNTS
            .iter()
            .map(|&threads| {
                let runner = Runner::new(&trace).with_threads(threads);
                let report =
                    runner.run(&mut Rbcaer::new(RbcaerConfig::default())).expect("valid plan");
                let slots: Vec<_> = report.slots.iter().map(|s| (s.slot, s.metrics)).collect();
                (slots, report.total)
            })
            .collect();
        for (threads, report) in THREAD_COUNTS[1..].iter().zip(&reports[1..]) {
            prop_assert_eq!(report, &reports[0], "RunReport diverged at {} threads", threads);
        }
    }

    /// Online runner (forecasts, failures, chaos faults with degraded
    /// mode, failover under a chain budget, cache churn): the full report
    /// Debug rendering — every field of every slot — is identical for
    /// every worker count, so the parallel route fan-out is compared with
    /// effective placements that differ from the plan.
    #[test]
    fn online_report_matches_across_thread_counts(
        config in config_strategy(),
        p_fail in 0.0f64..0.4,
        fail_seed in 0u64..100,
        chaos_intensity in 0.0f64..=1.0,
        chain_budget in prop::sample::select(vec![None, Some(0u64), Some(1), Some(2), Some(3)]),
    ) {
        let trace = config.generate();
        let reports: Vec<String> = THREAD_COUNTS
            .iter()
            .map(|&threads| {
                let chaos = ChaosConfig::at_intensity(fail_seed, chaos_intensity)
                    .expect("intensity in [0, 1]");
                let mut chaos = ChaosOptions::new(FaultPlan::new(chaos).expect("valid chaos plan"))
                    .with_degraded_mode();
                if let Some(k) = chain_budget {
                    chaos = chaos.with_chain_budget(k);
                }
                let runner = OnlineRunner::new(&trace)
                    .with_failures(FailureModel::iid(p_fail, fail_seed).expect("valid prob"))
                    .with_chaos(chaos)
                    .with_threads(threads);
                let report = runner
                    .run(&mut Nearest::new(), &mut Ewma::new(0.5))
                    .expect("valid plan");
                format!("{report:?}")
            })
            .collect();
        for (threads, report) in THREAD_COUNTS[1..].iter().zip(&reports[1..]) {
            prop_assert_eq!(report, &reports[0], "OnlineReport diverged at {} threads", threads);
        }
    }
}
