//! Property tests for the chaos plane (see DESIGN.md, "Deterministic
//! chaos plane"): a quiet fault plan is invisible, a windowed fault plan
//! converges back to the fault-free baseline after the window closes, the
//! whole injected pipeline is thread-count invariant (fault decisions
//! fire only in the sequential planning and replay phases), and Markov
//! failures combined with chaos faults keep the slot accounting
//! consistent.

use ccdn_chaos::{Backoff, ChaosConfig, FaultPlan};
use ccdn_sim::{
    validate::check_report, ChaosOptions, FailureModel, OnlineReport, OnlineRunner, Scheme,
    SlotDecision, SlotInput,
};
use ccdn_trace::{HotspotId, Trace, TraceConfig};
use proptest::prelude::*;

/// Places each hotspot's top predicted videos (the stock online-test
/// scheme: only placements matter to the online runner).
struct TopLocal;

impl Scheme for TopLocal {
    fn name(&self) -> &'static str {
        "top-local"
    }

    fn schedule(&mut self, input: &SlotInput<'_>) -> SlotDecision {
        let mut d = SlotDecision::new(input.hotspot_count());
        for h in 0..input.hotspot_count() {
            let hid = HotspotId(h);
            let mut vids: Vec<_> = input.demand.videos(hid).to_vec();
            vids.sort_by(|a, b| b.count.cmp(&a.count).then(a.video.cmp(&b.video)));
            for vd in vids.into_iter().take(input.cache_capacity[h] as usize) {
                d.place(hid, vd.video);
            }
        }
        d
    }
}

fn trace(seed: u64) -> Trace {
    TraceConfig::small_test()
        .with_request_count(6_000)
        .with_video_count(300)
        .with_seed(seed)
        .generate()
}

fn chaos_run(trace: &Trace, chaos: Option<ChaosOptions>, threads: usize) -> OnlineReport {
    let mut runner = OnlineRunner::new(trace).with_threads(threads);
    if let Some(c) = chaos {
        runner = runner.with_chaos(c);
    }
    runner.run_with_oracle(&mut TopLocal).expect("scheme validates")
}

/// Like [`chaos_run`], with `failures` attached as well.
fn combined_run(
    trace: &Trace,
    failures: FailureModel,
    chaos: Option<ChaosOptions>,
    threads: usize,
) -> OnlineReport {
    let mut runner = OnlineRunner::new(trace).with_threads(threads).with_failures(failures);
    if let Some(c) = chaos {
        runner = runner.with_chaos(c);
    }
    runner.run_with_oracle(&mut TopLocal).expect("scheme validates")
}

fn ratio(report: &OnlineReport, slot: usize) -> f64 {
    let m = &report.slots[slot].metrics;
    if m.total_requests == 0 {
        1.0
    } else {
        m.hotspot_served as f64 / m.total_requests as f64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A quiet fault plan (all rates zero) must leave the run
    /// byte-identical to running without chaos at all, whatever the
    /// trace.
    #[test]
    fn quiet_plan_is_invisible(trace_seed in 0u64..1000, chaos_seed in 0u64..1000) {
        let t = trace(trace_seed);
        let plain = chaos_run(&t, None, 1);
        let quiet = FaultPlan::new(ChaosConfig::quiet(chaos_seed)).unwrap();
        let injected = chaos_run(&t, Some(ChaosOptions::new(quiet)), 1);
        prop_assert_eq!(plain, injected);
    }

    /// With faults confined to a window, the run converges back to the
    /// fault-free baseline: once the window closes and the retry backoff
    /// horizon drains, per-slot serving sits near the baseline's. (A push
    /// abandoned after retry exhaustion can leave a small believed/actual
    /// gap until the plan churns it out, hence the tolerance.)
    #[test]
    fn windowed_faults_recover(
        trace_seed in 0u64..1000,
        chaos_seed in 0u64..1000,
        intensity in 0.1f64..1.0,
    ) {
        let t = trace(trace_seed);
        let baseline = chaos_run(&t, None, 1);
        let backoff = Backoff::new(1, 4);
        let window_end = 12u32;
        let cfg = ChaosConfig::at_intensity(chaos_seed, intensity)
            .unwrap()
            .with_window(4, window_end);
        let plan = FaultPlan::new(cfg).unwrap();
        prop_assert_eq!(plan.quiesce_slot(), Some(window_end));
        let faulty =
            chaos_run(&t, Some(ChaosOptions::new(plan).with_backoff(backoff)), 1);

        // Every retry scheduled inside the window has fired by here.
        let drained = window_end as usize + backoff.horizon_slots() as usize;
        prop_assert!(drained < faulty.slots.len(), "trace too short for the horizon");
        for s in drained..faulty.slots.len() {
            let (got, want) = (ratio(&faulty, s), ratio(&baseline, s));
            prop_assert!(
                got >= want - 0.1,
                "slot {s}: serving {got:.3} never re-joined the baseline {want:.3}"
            );
        }
    }

    /// The injected pipeline is thread-count invariant: fault decisions
    /// fire only in the sequential planning and replay phases, and the
    /// parallel routing fan-out merges in slot order.
    #[test]
    fn chaos_runs_are_thread_count_invariant(
        chaos_seed in 0u64..1000,
        intensity in 0.0f64..1.0,
    ) {
        let t = trace(7);
        let chaos = || {
            let cfg = ChaosConfig::at_intensity(chaos_seed, intensity).unwrap();
            let plan = FaultPlan::new(cfg).unwrap();
            Some(
                ChaosOptions::new(plan)
                    .with_degraded_mode()
                    .with_chain_budget(3)
                    .with_backoff(Backoff::new(1, 5)),
            )
        };
        let one = chaos_run(&t, chaos(), 1);
        let two = chaos_run(&t, chaos(), 2);
        let eight = chaos_run(&t, chaos(), 8);
        prop_assert_eq!(&one, &two);
        prop_assert_eq!(&one, &eight);
    }

    /// Markov failures (with or without regional outages) combined with
    /// chaos faults: every slot's accounting holds (`failed_over +
    /// orphaned == disrupted`, spills are CDN-served, totals are the
    /// per-slot sums), the report is thread-count invariant, and a quiet
    /// fault plan reduces the run to the failures-only one.
    #[test]
    fn combined_faults_keep_accounting_consistent(
        (mean_session, mean_downtime) in (1.0f64..12.0, 1.0f64..6.0),
        failure_seed in 0u64..1000,
        regional in any::<bool>(),
        chaos_seed in 0u64..1000,
        intensity in 0.0f64..1.0,
        degraded in any::<bool>(),
        chain_budget in prop::sample::select(vec![None, Some(0u64), Some(1), Some(3)]),
    ) {
        let t = trace(7);
        let mut failures = FailureModel::markov(mean_session, mean_downtime, failure_seed).unwrap();
        if regional {
            failures = failures.with_regional_outages(0.1, 1.5).unwrap();
        }
        // The degradation posture; the chain budget is added only to the
        // faulty run, since it reroutes requests even without faults.
        let posture = |cfg: ChaosConfig| {
            let options = ChaosOptions::new(FaultPlan::new(cfg).unwrap())
                .with_backoff(Backoff::new(1, 4));
            if degraded { options.with_degraded_mode() } else { options }
        };
        let faulty = || {
            let options = posture(ChaosConfig::at_intensity(chaos_seed, intensity).unwrap());
            Some(match chain_budget {
                Some(budget) => options.with_chain_budget(budget),
                None => options,
            })
        };

        let one = combined_run(&t, failures, faulty(), 1);
        check_report(&one).unwrap();
        prop_assert_eq!(one.total.sums.total_requests, t.requests.len() as u64);
        let replicas: u64 = one.slots.iter().map(|s| s.metrics.replicas).sum();
        prop_assert_eq!(one.total.sums.replicas, replicas);
        prop_assert_eq!(&one, &combined_run(&t, failures, faulty(), 4));

        let quiet = posture(ChaosConfig::quiet(chaos_seed));
        prop_assert_eq!(
            combined_run(&t, failures, Some(quiet), 1),
            combined_run(&t, failures, None, 1)
        );
    }
}
