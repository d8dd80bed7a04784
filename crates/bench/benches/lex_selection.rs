//! E9 — Theorem 6.1: LEX selection in ⟨1, n⟩ on orders where direct
//! access is impossible, vs the materialization baseline — `cold` builds
//! the handle and selects once, `prepared` times the selection rounds on
//! a handle that already holds its reduced instance. The
//! `tractable_order` group is the ablation: when direct access *is*
//! available, repeated selection is the wrong tool (selection pays O(n)
//! per call, access O(log n)).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rda_baseline::MaterializedAccess;
use rda_bench::workloads;
use rda_core::{DirectAccess, LexDirectAccess, SelectionLexHandle};
use rda_query::FdSet;
use std::hint::black_box;

const SIZES: [usize; 3] = [1_000, 4_000, 16_000];

fn bench_trio_order_selection(c: &mut Criterion) {
    let mut g = c.benchmark_group("lexsel/trio_order_selection");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1600));
    g.sample_size(10);
    for n in SIZES {
        let (q, db) = workloads::two_path(n, 50, 11);
        let lex = q.vars(&["x", "z", "y"]);
        let snap = db.freeze();
        let k = (n * n / 100) as u64;
        // One answer from the snapshot, nothing prepared: what the
        // materialization baseline below is compared with.
        g.bench_with_input(BenchmarkId::new("cold", n), &n, |b, _| {
            b.iter(|| {
                let handle =
                    SelectionLexHandle::new(&q, &snap, lex.clone(), &FdSet::empty()).unwrap();
                black_box(handle.select_once(k))
            })
        });
        // The rank-dependent rounds alone, on a held handle.
        let handle = SelectionLexHandle::new(&q, &snap, lex, &FdSet::empty()).unwrap();
        g.bench_with_input(BenchmarkId::new("prepared", n), &n, |b, _| {
            b.iter(|| black_box(handle.select_once(k)))
        });
    }
    g.finish();
}

fn bench_trio_order_materialize(c: &mut Criterion) {
    let mut g = c.benchmark_group("lexsel/trio_order_materialize");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1600));
    g.sample_size(10);
    for n in SIZES {
        let (q, db) = workloads::two_path(n, 50, 11);
        let lex = q.vars(&["x", "z", "y"]);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let m = MaterializedAccess::by_lex(&q, &db, &lex);
                black_box(m.access((n * n / 100) as u64))
            })
        });
    }
    g.finish();
}

fn bench_selection_vs_access_tradeoff(c: &mut Criterion) {
    // Ablation: on a *tractable* order, one selection call vs one access
    // call on a prebuilt structure — the ⟨1, n⟩ vs ⟨n log n, log n⟩
    // trade-off in numbers.
    let (q, db) = workloads::two_path(8_000, 50, 11);
    let lex = q.vars(&["x", "y", "z"]);
    let snap = db.freeze();
    let da = LexDirectAccess::build_on(&q, &snap, &lex, &FdSet::empty()).unwrap();
    let handle = SelectionLexHandle::new(&q, &snap, lex, &FdSet::empty()).unwrap();
    let k = da.len() / 2;
    let mut g = c.benchmark_group("lexsel/tractable_order");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1600));
    g.sample_size(10);
    g.bench_function("one_selection_call", |b| {
        b.iter(|| black_box(handle.select_once(k)))
    });
    g.bench_function("one_access_on_prebuilt", |b| {
        b.iter(|| black_box(da.access(k)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_trio_order_selection,
    bench_trio_order_materialize,
    bench_selection_vs_access_tradeoff
);
criterion_main!(benches);
