//! E8 — Figure 8 / Theorem 5.1: SUM direct access.
//!
//! * `build` / `access` on the tractable shape (αfree = 1): ~n log n
//!   construction, O(1) access.
//! * `hard_materialize` on the Example 5.3 instance (αfree = 2): the
//!   only strategy handles all n² weight combinations — quadratic.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rda_baseline::MaterializedAccess;
use rda_bench::workloads;
use rda_core::{DirectAccess, SumDirectAccess, Weights};
use rda_query::FdSet;
use std::hint::black_box;

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("sumda/build");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1600));
    g.sample_size(10);
    for n in [2_000usize, 8_000, 32_000] {
        let (q, db) = workloads::covering_query(n, 50, 5);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                SumDirectAccess::build(&q, &db, &Weights::identity(), &FdSet::empty()).unwrap()
            })
        });
    }
    g.finish();
}

fn bench_access(c: &mut Criterion) {
    let mut g = c.benchmark_group("sumda/access");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1600));
    for n in [2_000usize, 8_000, 32_000] {
        let (q, db) = workloads::covering_query(n, 50, 5);
        let da = SumDirectAccess::build(&q, &db, &Weights::identity(), &FdSet::empty()).unwrap();
        let mut k = 0u64;
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                k = (k.wrapping_mul(2862933555777941757).wrapping_add(3)) % da.len();
                black_box(da.access(k))
            })
        });
    }
    g.finish();
}

fn bench_hard_materialize(c: &mut Criterion) {
    let mut g = c.benchmark_group("sumda/hard_materialize");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1600));
    g.sample_size(10);
    for n in [200usize, 400, 800] {
        let (q, db) = workloads::three_sum_encoding(n);
        assert!(
            SumDirectAccess::build(&q, &db, &Weights::identity(), &FdSet::empty()).is_err(),
            "αfree = 2 must be rejected"
        );
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                MaterializedAccess::by_sum(&q, &db, |_, v| v.as_int().map_or(0.0, |i| i as f64))
                    .len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_build, bench_access, bench_hard_materialize);
criterion_main!(benches);
