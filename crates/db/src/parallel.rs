//! Minimal scoped fork-join helpers for embarrassingly parallel build
//! stages.
//!
//! Private to this crate: used by [`Snapshot`](crate::Snapshot)
//! freezing (one ranking and one encoding per relation, one merge or
//! re-encode per dirty relation and one gather per clean relation on a
//! rebase). Plain standard-library scoped threads, no runtime,
//! deterministic results (output slot `i` always holds the result for
//! input `i`), and a serial fast path when the work or the machine has
//! no parallelism to offer.

/// Map `f` over `0..n`, producing results positionally. Runs serially
/// for `n <= 1` or on single-core machines.
pub(crate) fn map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_indexed_with(worker_count(n), n, f)
}

/// [`map_indexed`] over (up to) `workers` scoped threads. Split out so
/// the unit tests can drive the scoped-thread branch on a 1-core host,
/// where [`worker_count`] always answers 1.
fn map_indexed_with<R, F>(workers: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        for (w, slots) in out.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || {
                for (j, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(f(w * chunk + j));
                }
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

/// Map `f` over a slice's items, positionally — [`map_indexed`] for
/// callers holding the inputs in a slice. Used by
/// [`Snapshot::freeze_delta`](crate::Snapshot::freeze_delta) to fan the
/// merge-or-re-encode work out over exactly the *dirty* relation set
/// (the clean ones never enter the slice).
pub(crate) fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_indexed(items.len(), |i| f(&items[i]))
}

fn worker_count(n: usize) -> usize {
    if n <= 1 {
        return 1;
    }
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_is_positional() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            let got = map_indexed(n, |i| i * i);
            assert_eq!(got, (0..n).map(|i| i * i).collect::<Vec<_>>(), "n={n}");
        }
    }

    /// The scoped-worker branch must be exercised whatever the host's
    /// core count: pin the worker count explicitly.
    #[test]
    fn forced_parallel_workers_match_serial() {
        for workers in [2usize, 3, 8, 64] {
            for n in [2usize, 3, 7, 64, 257] {
                let got = map_indexed_with(workers, n, |i| i * 3 + 1);
                assert_eq!(
                    got,
                    (0..n).map(|i| i * 3 + 1).collect::<Vec<_>>(),
                    "workers={workers} n={n}"
                );
            }
        }
    }

    #[test]
    fn map_over_slices_is_positional() {
        let items: Vec<String> = (0..9).map(|i| format!("x{i}")).collect();
        let got = map(&items, |s| s.len());
        assert_eq!(got, vec![2; 9]);
        assert!(map(&Vec::<u8>::new(), |b| *b).is_empty());
    }
}
