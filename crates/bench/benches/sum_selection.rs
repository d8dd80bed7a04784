//! E10 — Theorem 7.3: SUM selection with fmh = 2 via sorted-matrix
//! selection (`cold`: handle construction and one selection; `prepared`:
//! the selection on a held handle), vs materialization, plus the
//! pivoting ablation: the
//! randomized matrix selection against naively enumerating and
//! quickselecting all bucket-pair sums (which is Θ(|out|)).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rda_baseline::MaterializedAccess;
use rda_bench::workloads;
use rda_core::{SelectionSumHandle, Weights};
use rda_orderstat::select::select_nth;
use rda_orderstat::{MatrixUnion, SortedMatrix, TotalF64};
use rda_query::FdSet;
use std::hint::black_box;

const SIZES: [usize; 3] = [1_000, 4_000, 16_000];

fn bench_selection(c: &mut Criterion) {
    let mut g = c.benchmark_group("sumsel/selection");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1600));
    g.sample_size(10);
    for n in SIZES {
        let (q, db) = workloads::two_path(n, 50, 13);
        let snap = db.freeze();
        let k = (n * n / 100) as u64;
        let prepare =
            || SelectionSumHandle::new(&q, &snap, Weights::identity(), &FdSet::empty()).unwrap();
        // One answer from the snapshot, nothing prepared: what the
        // materialization baseline below is compared with.
        g.bench_with_input(BenchmarkId::new("cold", n), &n, |b, _| {
            b.iter(|| black_box(prepare().select_once(k)))
        });
        // The matrix selection alone, on a held handle.
        let handle = prepare();
        g.bench_with_input(BenchmarkId::new("prepared", n), &n, |b, _| {
            b.iter(|| black_box(handle.select_once(k)))
        });
    }
    g.finish();
}

fn bench_materialize(c: &mut Criterion) {
    let mut g = c.benchmark_group("sumsel/materialize_baseline");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1600));
    g.sample_size(10);
    for n in SIZES {
        let (q, db) = workloads::two_path(n, 50, 13);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let m = MaterializedAccess::by_sum(&q, &db, |_, v| {
                    v.as_int().map_or(0.0, |i| i as f64)
                });
                black_box(m.weight_at((n * n / 100) as u64))
            })
        });
    }
    g.finish();
}

/// Ablation on the selection substrate itself: implicit sorted-matrix
/// selection vs materializing every cell and quickselecting.
fn bench_matrix_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("sumsel/matrix_ablation");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_millis(1600));
    g.sample_size(10);
    for n in [500usize, 2_000, 8_000] {
        let rows: Vec<TotalF64> = (0..n).map(|i| TotalF64((i as f64 * 7.3) % 1e4)).collect();
        let cols: Vec<TotalF64> = (0..n).map(|i| TotalF64((i as f64 * 3.7) % 1e4)).collect();
        let mut rows_s = rows.clone();
        let mut cols_s = cols.clone();
        rows_s.sort();
        cols_s.sort();
        let k = (n as u64 * n as u64) / 2;
        g.bench_with_input(BenchmarkId::new("implicit", n), &n, |b, _| {
            b.iter(|| {
                let u = MatrixUnion::new(vec![SortedMatrix::new(rows_s.clone(), cols_s.clone())]);
                black_box(u.select(k))
            })
        });
        if n <= 2_000 {
            g.bench_with_input(BenchmarkId::new("enumerate_all", n), &n, |b, _| {
                b.iter(|| {
                    let mut cells: Vec<TotalF64> = rows
                        .iter()
                        .flat_map(|&r| cols.iter().map(move |&c| r + c))
                        .collect();
                    black_box(select_nth(&mut cells, k as usize).copied())
                })
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_selection,
    bench_materialize,
    bench_matrix_ablation
);
criterion_main!(benches);
