//! **Chaos sweep** (robustness extension, DESIGN.md): graceful
//! degradation and recovery under the deterministic fault plane
//! (`ccdn-chaos`). A seeded [`FaultPlan`] drives six fault families —
//! crash/restart, CDN partition, slow peers, cache corruption,
//! replication-push loss, planner-deadline overrun — inside a bounded
//! slot window, and the sweep measures each scheme's serving ratio as
//! fault intensity rises plus how fast it returns to the fault-free
//! baseline once the window closes.
//!
//! Variants: Nearest, stock RBCAer, failure-hardened RBCAer(robust), and
//! RBCAer(degraded) — stock planning plus the degraded-mode serving path
//! (previous plan + greedy patch on planner overrun, bounded failover
//! chain depth). The run asserts
//!
//! 1. **monotone degradation**: serving never *improves* as intensity
//!    rises (monotone coupling makes the fault sets nest);
//! 2. **no cliff for RBCAer(degraded)**: at high intensity it retains
//!    strictly more serving than stock RBCAer, whose planner overruns
//!    flush the caches;
//! 3. **bounded recovery**: every variant returns to within ε of its
//!    fault-free per-slot serving ratio within `RECOVERY_K` slots of the
//!    window closing.
//!
//! Emits one JSON report (`figures/chaos.json`) with every cell of the
//! intensity × variant grid and the recovery tail lengths.

use ccdn_bench::{figures_dir, init_threads, obs_init};
use ccdn_chaos::{Backoff, ChaosConfig, FaultPlan};
use ccdn_core::{Nearest, Rbcaer, RbcaerConfig};
use ccdn_obs::{json_string, Histogram};
use ccdn_sim::{ChaosOptions, OnlineReport, OnlineRunner, Scheme};
use ccdn_trace::{Trace, TraceConfig};
use std::io::Write as _;

/// Slots from window close until the serving ratio re-joins the
/// fault-free baseline (per variant × intensity cell).
static RECOVERY_SLOTS: Histogram = Histogram::new("bench.chaos.recovery_slots");

const CHAOS_SEED: u64 = 4099;
/// Faults fire only inside this half-open slot window.
const WINDOW: (u32, u32) = (8, 28);
/// Recovery must complete within this many slots of the window closing.
const RECOVERY_K: u32 = 10;
/// A slot counts as recovered when its serving ratio is within ε of the
/// fault-free run's same-slot ratio.
const RECOVERY_EPS: f64 = 0.02;
/// Monotonicity tolerance: one slot's worth of routing noise.
const MONOTONE_EPS: f64 = 0.01;
const INTENSITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
/// Per-request deadline budget: distinct servers a failover chain may
/// consult before the remainder spills to the CDN (`origin_spilled`).
const CHAIN_BUDGET: u64 = 3;

struct Variant {
    label: &'static str,
    degraded: bool,
}

const VARIANTS: [Variant; 4] = [
    Variant { label: "Nearest", degraded: false },
    Variant { label: "RBCAer", degraded: false },
    Variant { label: "RBCAer(robust)", degraded: false },
    Variant { label: "RBCAer(degraded)", degraded: true },
];

fn scheme_for(label: &str) -> Box<dyn Scheme> {
    match label {
        "Nearest" => Box::new(Nearest::new()),
        "RBCAer(robust)" => {
            Box::new(Rbcaer::new(RbcaerConfig { robust: true, ..RbcaerConfig::default() }))
        }
        // Stock planning for both "RBCAer" and "RBCAer(degraded)": the
        // degraded variant differs only in the serving path.
        _ => Box::new(Rbcaer::new(RbcaerConfig::default())),
    }
}

fn run(trace: &Trace, variant: &Variant, intensity: f64) -> OnlineReport {
    let mut scheme = scheme_for(variant.label);
    let mut runner = OnlineRunner::new(trace);
    if intensity > 0.0 {
        let cfg = ChaosConfig::at_intensity(CHAOS_SEED, intensity)
            .expect("intensity in [0, 1]")
            .with_window(WINDOW.0, WINDOW.1);
        let plan = FaultPlan::new(cfg).expect("valid chaos config");
        let mut chaos = ChaosOptions::new(plan)
            .with_backoff(Backoff::new(1, 4))
            .with_chain_budget(CHAIN_BUDGET);
        if variant.degraded {
            chaos = chaos
                .with_degraded_mode()
                .with_patch_threshold(0.25)
                .expect("threshold is finite and non-negative")
                .with_patch_budget(64);
        }
        runner = runner.with_chaos(chaos);
    }
    runner.run_with_oracle(scheme.as_mut()).expect("scheme validates")
}

fn slot_ratio(report: &OnlineReport, i: usize) -> f64 {
    let m = &report.slots[i].metrics;
    if m.total_requests == 0 {
        1.0
    } else {
        m.hotspot_served as f64 / m.total_requests as f64
    }
}

/// Slots past the window close until the chaos run's per-slot serving
/// ratio re-joins the baseline's (within ε), or the remaining slot count
/// if it never does.
fn recovery_slots(chaos: &OnlineReport, baseline: &OnlineReport) -> u32 {
    let quiesce = WINDOW.1 as usize;
    let slots = chaos.slots.len();
    for i in quiesce..slots {
        if (slot_ratio(chaos, i) - slot_ratio(baseline, i)).abs() <= RECOVERY_EPS {
            return (i - quiesce) as u32;
        }
    }
    (slots - quiesce) as u32
}

struct Cell {
    variant: &'static str,
    intensity: f64,
    serving: f64,
    retained: f64,
    replication: f64,
    disrupted: u64,
    origin_spilled: u64,
    degraded_slots: u64,
    recovery: Option<u32>,
}

fn main() {
    let threads = init_threads();
    let obs = obs_init();
    println!("== Chaos: graceful degradation and recovery under injected faults ==");
    println!("threads: {threads}, seed: {CHAOS_SEED}, window: [{}, {})\n", WINDOW.0, WINDOW.1);
    let trace = TraceConfig::paper_eval()
        .with_hotspot_count(80)
        .with_request_count(80_000)
        .with_video_count(3_000)
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
    assert!(
        WINDOW.1 + RECOVERY_K <= trace.slot_count,
        "recovery horizon must fit inside the trace"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for variant in &VARIANTS {
        let baseline = run(&trace, variant, 0.0);
        let healthy = baseline.total.hotspot_serving_ratio();
        println!("-- {} (fault-free serving {healthy:.3}) --", variant.label);
        for &intensity in &INTENSITIES {
            let report =
                if intensity == 0.0 { baseline.clone() } else { run(&trace, variant, intensity) };
            let serving = report.total.hotspot_serving_ratio();
            let recovery = if intensity > 0.0 {
                let r = recovery_slots(&report, &baseline);
                RECOVERY_SLOTS.record(u64::from(r));
                Some(r)
            } else {
                None
            };
            println!(
                "   x={intensity:.2}  serving {serving:.3}  retained {:.3}  disrupted {}  \
                 spilled {}  degraded-slots {}  recovery {}",
                if healthy > 0.0 { serving / healthy } else { 0.0 },
                report.disrupted,
                report.origin_spilled,
                report.degraded_slots,
                recovery.map_or_else(|| "-".to_owned(), |r| r.to_string()),
            );
            cells.push(Cell {
                variant: variant.label,
                intensity,
                serving,
                retained: if healthy > 0.0 { serving / healthy } else { 0.0 },
                replication: report.total.replication_cost(),
                disrupted: report.disrupted,
                origin_spilled: report.origin_spilled,
                degraded_slots: report.degraded_slots,
                recovery,
            });
        }
        println!();
    }

    // 1. Monotone graceful degradation: under monotone coupling the fault
    //    set at x ⊆ the set at x' > x, so serving must not improve.
    for variant in &VARIANTS {
        let series: Vec<&Cell> = cells.iter().filter(|c| c.variant == variant.label).collect();
        for pair in series.windows(2) {
            assert!(
                pair[1].serving <= pair[0].serving + MONOTONE_EPS,
                "{}: serving rose from {:.3} (x={:.2}) to {:.3} (x={:.2})",
                variant.label,
                pair[0].serving,
                pair[0].intensity,
                pair[1].serving,
                pair[1].intensity
            );
        }
    }
    // 2. No cliff: at high intensity the degraded serving path beats the
    //    naive controller, whose planner overruns flush every cache.
    let serving_of = |label: &str, x: f64| {
        cells
            .iter()
            .find(|c| c.variant == label && c.intensity == x)
            .map(|c| c.serving)
            .expect("cell present in sweep")
    };
    for &x in &[0.5, 0.75, 1.0] {
        let degraded = serving_of("RBCAer(degraded)", x);
        let stock = serving_of("RBCAer", x);
        assert!(
            degraded > stock,
            "degraded-mode serving should avoid the overrun cliff at x={x} \
             (degraded {degraded:.3} vs stock {stock:.3})"
        );
    }
    // 3. Bounded recovery: every variant re-joins its baseline within k
    //    slots of the fault window closing.
    for cell in &cells {
        if let Some(r) = cell.recovery {
            assert!(
                r <= RECOVERY_K,
                "{} at x={:.2} took {r} slots to recover (budget {RECOVERY_K})",
                cell.variant,
                cell.intensity
            );
        }
    }
    println!("monotone degradation, no overrun cliff for degraded mode, and");
    println!("recovery to the fault-free baseline within {RECOVERY_K} slots: all hold.");

    // One machine-readable report for the whole grid.
    let dir = figures_dir();
    // lint: allow(no-panic): experiment harness: unwritable output directory must abort the run loudly
    std::fs::create_dir_all(&dir).expect("create figures directory");
    let path = dir.join("chaos.json");
    let mut out = String::new();
    out.push_str("{\n  \"seed\": ");
    out.push_str(&CHAOS_SEED.to_string());
    out.push_str(&format!(
        ",\n  \"window\": [{}, {}],\n  \"recovery_budget_slots\": {RECOVERY_K},\n  \"cells\": [\n",
        WINDOW.0, WINDOW.1
    ));
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"variant\": {}, \"intensity\": {}, \"serving\": {}, \"retained\": {}, \
             \"replication\": {}, \"disrupted\": {}, \"origin_spilled\": {}, \
             \"degraded_slots\": {}, \"recovery_slots\": {}}}{}\n",
            json_string(c.variant),
            c.intensity,
            c.serving,
            c.retained,
            c.replication,
            c.disrupted,
            c.origin_spilled,
            c.degraded_slots,
            c.recovery.map_or_else(|| "null".to_owned(), |r| r.to_string()),
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    // lint: allow(no-panic): experiment harness: unwritable report must abort the run loudly
    let mut file = std::fs::File::create(&path).expect("create chaos report");
    // lint: allow(no-panic): experiment harness: failed report write must abort the run loudly
    file.write_all(out.as_bytes()).expect("write chaos report");
    println!("  [json] chaos sweep -> {}", path.display());
    if let Some(obs) = obs {
        obs.finish("chaos");
    }
}
