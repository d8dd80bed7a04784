//! E13 — Section 2.5: ranked enumeration vs direct access.
//!
//! Ranked enumeration (any-k) reaches the k-th answer in Θ(k log n);
//! direct access jumps there in O(log n). The sweep over k (fixed n)
//! makes the contrast visible: enumeration cost grows linearly with k,
//! access stays flat.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rda_bench::workloads;
use rda_core::{DirectAccess, LexDirectAccess};
use rda_db::Value;
use rda_query::FdSet;
use std::hint::black_box;

const N: usize = 2_000;

fn ident(_: rda_query::VarId, v: &Value) -> f64 {
    v.as_int().map_or(0.0, |i| i as f64)
}

fn bench_enumerate_to_k(c: &mut Criterion) {
    let (q, db) = workloads::two_path(N, 50, 19);
    let mut g = c.benchmark_group("anyk/enumerate_to_k");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1600));
    g.sample_size(10);
    for k in [256usize, 4_096, 65_536] {
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                let e = rda_baseline::RankedEnumerator::new(&q, &db, ident);
                black_box(e.take(k).len())
            })
        });
    }
    g.finish();
}

fn bench_direct_access_at_k(c: &mut Criterion) {
    let (q, db) = workloads::two_path(N, 50, 19);
    let lex = q.vars(&["x", "y", "z"]);
    let da = LexDirectAccess::build(&q, &db, &lex, &FdSet::empty()).unwrap();
    let mut g = c.benchmark_group("anyk/direct_access_at_k");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1600));
    for k in [256u64, 4_096, 65_536] {
        let k = k.min(da.len().saturating_sub(1));
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| black_box(da.access(k)))
        });
    }
    g.finish();
}

fn bench_enumeration_delay(c: &mut Criterion) {
    // Per-answer delay of the enumerator once warmed up (log-ish in n).
    let (q, db) = workloads::two_path(N, 50, 19);
    let mut g = c.benchmark_group("anyk/amortized_delay");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1600));
    g.sample_size(10);
    g.bench_function("first_10k", |b| {
        b.iter(|| {
            let e = rda_baseline::RankedEnumerator::new(&q, &db, ident);
            black_box(e.take(10_000).len())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_enumerate_to_k,
    bench_direct_access_at_k,
    bench_enumeration_delay
);
criterion_main!(benches);
