//! E5/E6 — Theorem 3.3: LEX direct access.
//!
//! * `build`: preprocessing time over an n sweep (expect ~n log n).
//! * `access`: one random access after preprocessing (expect ~log n,
//!   i.e. nearly flat across the sweep).
//! * `materialize`: the baseline's cost on the same instances (expect
//!   ~|Q(I)| ≈ n²/50 — the separation the dichotomy predicts).
//! * `hard_order_materialize`: the only strategy for the trio order.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rda_baseline::MaterializedAccess;
use rda_bench::workloads;
use rda_core::{DirectAccess, LexDirectAccess};
use rda_query::FdSet;
use std::hint::black_box;

const SIZES: [usize; 3] = [1_000, 4_000, 16_000];

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("lexda/build");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1600));
    g.sample_size(10);
    for n in SIZES {
        let (q, db) = workloads::two_path(n, 50, 42);
        let lex = q.vars(&["x", "y", "z"]);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| LexDirectAccess::build(&q, &db, &lex, &FdSet::empty()).unwrap())
        });
    }
    g.finish();
}

fn bench_access(c: &mut Criterion) {
    let mut g = c.benchmark_group("lexda/access");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1600));
    for n in SIZES {
        let (q, db) = workloads::two_path(n, 50, 42);
        let lex = q.vars(&["x", "y", "z"]);
        let da = LexDirectAccess::build(&q, &db, &lex, &FdSet::empty()).unwrap();
        let mut k = 0u64;
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                k = (k.wrapping_mul(6364136223846793005).wrapping_add(1)) % da.len();
                black_box(da.access(k))
            })
        });
    }
    g.finish();
}

fn bench_inverted_access(c: &mut Criterion) {
    let mut g = c.benchmark_group("lexda/inverted_access");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1600));
    for n in SIZES {
        let (q, db) = workloads::two_path(n, 50, 42);
        let lex = q.vars(&["x", "y", "z"]);
        let da = LexDirectAccess::build(&q, &db, &lex, &FdSet::empty()).unwrap();
        let answers: Vec<_> = (0..64)
            .map(|i| da.access(i * (da.len() / 64).max(1)).unwrap())
            .collect();
        let mut i = 0usize;
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                i = (i + 1) % answers.len();
                black_box(da.inverted_access(&answers[i]))
            })
        });
    }
    g.finish();
}

fn bench_materialize(c: &mut Criterion) {
    let mut g = c.benchmark_group("lexda/materialize_baseline");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1600));
    g.sample_size(10);
    for n in SIZES {
        let (q, db) = workloads::two_path(n, 50, 42);
        let lex = q.vars(&["x", "y", "z"]);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| MaterializedAccess::by_lex(&q, &db, &lex).len())
        });
    }
    g.finish();
}

fn bench_hard_order(c: &mut Criterion) {
    // The disruptive-trio order <x, z, y>: direct access refuses, so the
    // only multi-access strategy is materialization — quadratic.
    let mut g = c.benchmark_group("lexda/hard_order_materialize");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1600));
    g.sample_size(10);
    for n in SIZES {
        let (q, db) = workloads::two_path(n, 50, 42);
        let lex = q.vars(&["x", "z", "y"]);
        assert!(LexDirectAccess::build(&q, &db, &lex, &FdSet::empty()).is_err());
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| MaterializedAccess::by_lex(&q, &db, &lex).len())
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_build,
    bench_access,
    bench_inverted_access,
    bench_materialize,
    bench_hard_order
);
criterion_main!(benches);
