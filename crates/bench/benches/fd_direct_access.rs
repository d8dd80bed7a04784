//! E11 — Section 8: the FD-extension pipeline's overhead and payoff.
//!
//! `Q(x, z) :- R(x, y), S(y, z)` is not free-connex, so without the FD
//! `S: y → z` no direct-access structure exists at all; with it, the
//! extension is built in quasilinear time and accessed in O(log n).
//! The `build` sweep shows the extension transform keeps preprocessing
//! quasilinear; `materialize` is the FD-oblivious fallback.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rda_baseline::MaterializedAccess;
use rda_bench::workloads;
use rda_core::{DirectAccess, LexDirectAccess};
use std::hint::black_box;

const SIZES: [usize; 3] = [2_000, 8_000, 32_000];

fn bench_build_with_fd(c: &mut Criterion) {
    let mut g = c.benchmark_group("fd/build_with_fd");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1600));
    g.sample_size(10);
    for n in SIZES {
        let (q, db, fds) = workloads::fd_two_path(n, 50, 17);
        let lex = q.vars(&["x", "z"]);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| LexDirectAccess::build(&q, &db, &lex, &fds).unwrap())
        });
    }
    g.finish();
}

fn bench_access_with_fd(c: &mut Criterion) {
    let mut g = c.benchmark_group("fd/access_with_fd");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1600));
    for n in SIZES {
        let (q, db, fds) = workloads::fd_two_path(n, 50, 17);
        let lex = q.vars(&["x", "z"]);
        let da = LexDirectAccess::build(&q, &db, &lex, &fds).unwrap();
        let mut k = 0u64;
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                k = (k.wrapping_mul(6364136223846793005).wrapping_add(1)) % da.len().max(1);
                black_box(da.access(k))
            })
        });
    }
    g.finish();
}

fn bench_materialize_fallback(c: &mut Criterion) {
    let mut g = c.benchmark_group("fd/materialize_fallback");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1600));
    g.sample_size(10);
    for n in SIZES {
        let (q, db, _) = workloads::fd_two_path(n, 50, 17);
        let lex = q.vars(&["x", "z"]);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| MaterializedAccess::by_lex(&q, &db, &lex).len())
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_build_with_fd,
    bench_access_with_fd,
    bench_materialize_fallback
);
criterion_main!(benches);
