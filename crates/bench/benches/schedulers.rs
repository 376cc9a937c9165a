//! Criterion benches for the end-to-end schedulers — the component-level
//! counterpart of Fig. 8's running-time comparison, plus the RBCAer
//! ablations called out in DESIGN.md (content aggregation on/off, guide
//! cost model, θ₂ reach).

use ccdn_core::{GuideCost, LocalRandom, Nearest, Rbcaer, RbcaerConfig};
use ccdn_sim::{Runner, Scheme};
use ccdn_trace::{Trace, TraceConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// A mid-size single-slot instance (quarter of the paper scale) so the
/// whole suite stays minutes-fast.
fn bench_trace() -> Trace {
    TraceConfig::paper_eval()
        .with_slot_count(1)
        .with_hotspot_count(150)
        .with_request_count(50_000)
        .with_video_count(8_000)
        .generate()
}

fn run_once(trace: &Trace, scheme: &mut dyn Scheme) {
    let report = Runner::new(trace).run(scheme).expect("scheme validates");
    black_box(report.total);
}

fn bench_schedulers(c: &mut Criterion) {
    let trace = bench_trace();
    let mut group = c.benchmark_group("schedulers");
    group.sample_size(10);
    group.bench_function("nearest", |b| b.iter(|| run_once(&trace, &mut Nearest::new())));
    group.bench_function("random_1.5km", |b| {
        b.iter(|| run_once(&trace, &mut LocalRandom::new(1.5, 42)))
    });
    group.bench_function("rbcaer_default", |b| {
        b.iter(|| run_once(&trace, &mut Rbcaer::new(RbcaerConfig::default())))
    });
    group.finish();
}

fn bench_rbcaer_ablations(c: &mut Criterion) {
    let trace = bench_trace();
    let mut group = c.benchmark_group("rbcaer_ablation");
    group.sample_size(10);
    let variants: Vec<(&str, RbcaerConfig)> = vec![
        ("full", RbcaerConfig::default()),
        ("balance_only", RbcaerConfig { content_aggregation: false, ..RbcaerConfig::default() }),
        (
            "guide_literal",
            RbcaerConfig { guide_cost: GuideCost::PaperLiteral, ..RbcaerConfig::default() },
        ),
        ("wide_theta", RbcaerConfig { theta2_km: 5.0, ..RbcaerConfig::default() }),
    ];
    for (name, config) in variants {
        group.bench_with_input(BenchmarkId::from_parameter(name), &config, |b, cfg| {
            b.iter(|| run_once(&trace, &mut Rbcaer::new(*cfg)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_schedulers, bench_rbcaer_ablations);
criterion_main!(benches);
