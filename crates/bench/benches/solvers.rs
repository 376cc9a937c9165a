//! Criterion benches for the algorithmic substrates: MCMF (successive
//! shortest paths), Dinic, hierarchical clustering, and the simplex LP
//! solver.
//!
//! These back the running-time claims of Fig. 8 at the component level.

use ccdn_cluster::{hierarchical_cluster, DistanceMatrix, Linkage};
use ccdn_flow::{FlowNetwork, McmfAlgorithm};
use ccdn_lp::{LpProblem, Relation};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;

/// A random bipartite balancing network like RBCAer's `Gd`: `n` overloaded
/// and `n` under-utilized hotspots, ~`degree` candidate arcs each.
fn random_gd(n: usize, degree: usize, seed: u64) -> (FlowNetwork, usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = FlowNetwork::with_nodes(2 + 2 * n);
    let (source, sink) = (0, 1);
    for i in 0..n {
        net.add_edge(source, 2 + i, rng.gen_range(1..50), 0.0).unwrap();
        net.add_edge(2 + n + i, sink, rng.gen_range(1..50), 0.0).unwrap();
    }
    for i in 0..n {
        for _ in 0..degree {
            let j = rng.gen_range(0..n);
            net.add_edge(2 + i, 2 + n + j, rng.gen_range(1..30), rng.gen_range(0.1..5.0)).unwrap();
        }
    }
    (net, source, sink)
}

fn bench_mcmf(c: &mut Criterion) {
    let mut group = c.benchmark_group("mcmf");
    for &n in &[50usize, 150, 300] {
        let (net, s, t) = random_gd(n, 8, 42);
        group.bench_with_input(BenchmarkId::new("ssp_dijkstra", n), &n, |b, _| {
            b.iter(|| {
                let mut net = net.clone();
                black_box(net.min_cost_max_flow(s, t, McmfAlgorithm::SspDijkstra).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("dinic_maxflow", n), &n, |b, _| {
            b.iter(|| {
                let mut net = net.clone();
                black_box(net.max_flow_dinic(s, t).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_clustering(c: &mut Criterion) {
    let mut group = c.benchmark_group("clustering");
    for &n in &[50usize, 150, 310] {
        let mut rng = StdRng::seed_from_u64(7);
        let coords: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let dm = DistanceMatrix::from_fn(n, |i, j| (coords[i] - coords[j]).abs());
        for linkage in [Linkage::Complete, Linkage::Average] {
            group.bench_with_input(BenchmarkId::new(format!("{linkage:?}"), n), &n, |b, _| {
                b.iter(|| black_box(hierarchical_cluster(&dm, linkage, 0.5)))
            });
        }
    }
    group.finish();
}

fn bench_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex");
    group.sample_size(10);
    for &vars in &[20usize, 60, 120] {
        let mut rng = StdRng::seed_from_u64(3);
        // A dense random feasible-bounded LP: max c·x, A x ≤ b, all > 0.
        let mut lp = LpProblem::maximize(vars);
        for v in 0..vars {
            lp.set_objective_coefficient(v, rng.gen_range(0.1..2.0)).unwrap();
        }
        for _ in 0..vars {
            let coeffs: Vec<(usize, f64)> =
                (0..vars).map(|v| (v, rng.gen_range(0.05..1.0))).collect();
            lp.add_constraint(&coeffs, Relation::Le, rng.gen_range(5.0..50.0)).unwrap();
        }
        group.bench_with_input(BenchmarkId::new("dense_max", vars), &vars, |b, _| {
            b.iter(|| black_box(lp.solve().unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mcmf, bench_clustering, bench_simplex);
criterion_main!(benches);
