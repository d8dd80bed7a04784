//! Minimal scoped fork-join helpers for embarrassingly parallel build
//! stages.
//!
//! Used by [`Snapshot`](crate::Snapshot) freezing (one encode per
//! relation) and by the per-shard structure builds in `rda-core`. Plain
//! standard-library scoped threads, no runtime, deterministic results
//! (output slot `i` always holds the result for input `i`), and a
//! serial fast path when the work or the machine has no parallelism to
//! offer.
//!
//! ```
//! use rda_db::parallel;
//!
//! // Fan a pure per-index computation out over scoped workers; the
//! // result is positional, so parallelism never reorders anything.
//! let squares = parallel::map_indexed(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

/// Map `f` over `0..n`, producing results positionally. Runs serially
/// for `n <= 1` or on single-core machines.
pub fn map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_indexed_with(worker_count(n), n, f)
}

/// [`map_indexed`] with an explicit worker-count hint: fan `0..n` out
/// over (up to) `workers` scoped threads regardless of the host's core
/// count. The forced-width knob the shard fan-out uses — without it,
/// `map` silently runs serially whenever the item set is smaller than
/// the host's parallelism hint (or the host has one core), which is
/// exactly the regime a 1-core CI host tests in. The width actually
/// requested is [`fanout_width`]`(workers, n)`.
pub fn map_indexed_with<R, F>(workers: usize, n: usize, f: F) -> Vec<R>
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
/// re-encoding work out over exactly the *dirty* relation set (the
/// clean ones never enter the slice).
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_indexed(items.len(), |i| f(&items[i]))
}

/// [`map`] with an explicit worker-count hint, positionally over a
/// slice — the forced-width entry point shard-parallel partitioning
/// uses so that a shard fan-out really spawns one worker per shard
/// even when the host reports a single core.
pub fn map_with<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_indexed_with(workers, items.len(), |i| f(&items[i]))
}

/// The number of scoped workers a forced-width call actually spawns
/// for `n` items under a hint of `workers`: `1` on the serial fast
/// path, otherwise the number of `ceil(n/workers)`-sized chunks `0..n`
/// splits into. Exposed so tests can assert the fan-out width
/// requested is the width delivered.
pub fn fanout_width(workers: usize, n: usize) -> usize {
    if workers <= 1 || n <= 1 {
        return 1;
    }
    n.div_ceil(n.div_ceil(workers))
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

    /// The forced-width knob must actually fan out: observe the set of
    /// distinct threads running `f` and check it equals the width
    /// [`fanout_width`] promises — even when the item count is below
    /// the host's parallelism hint (the regime where the un-forced
    /// entry points silently run serially).
    #[test]
    fn forced_width_spawns_the_width_requested() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        for (workers, n) in [
            (1usize, 5usize),
            (2, 2),
            (3, 3),
            (7, 7),
            (3, 7),
            (8, 3),
            (4, 64),
        ] {
            let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
            let barrier = std::sync::Barrier::new(fanout_width(workers, n).min(n));
            let got = map_indexed_with(workers, n, |i| {
                seen.lock().unwrap().insert(std::thread::current().id());
                // Rendezvous once per worker (at the first index of its
                // chunk): every requested worker must be alive at the
                // same instant before any may finish — genuine
                // concurrency, not just distinct thread identities.
                let chunk = n.div_ceil(workers.max(1)).max(1);
                if i % chunk == 0 {
                    barrier.wait();
                }
                i
            });
            assert_eq!(got, (0..n).collect::<Vec<_>>());
            let width = seen.lock().unwrap().len();
            assert_eq!(
                width,
                fanout_width(workers, n),
                "workers={workers} n={n}: requested fan-out width not delivered"
            );
        }
    }

    #[test]
    fn fanout_width_matches_chunking() {
        assert_eq!(fanout_width(1, 100), 1);
        assert_eq!(fanout_width(8, 1), 1);
        assert_eq!(fanout_width(8, 0), 1);
        assert_eq!(fanout_width(2, 2), 2);
        assert_eq!(fanout_width(3, 7), 3);
        assert_eq!(fanout_width(7, 7), 7);
        assert_eq!(fanout_width(64, 7), 7);
        // 4 workers over 10 items: chunk = 3, so ceil(10/3) = 4 chunks.
        assert_eq!(fanout_width(4, 10), 4);
    }

    #[test]
    fn map_over_slices_is_positional() {
        let items: Vec<String> = (0..9).map(|i| format!("x{i}")).collect();
        let got = map(&items, |s| s.len());
        assert_eq!(got, vec![2; 9]);
        assert!(map(&Vec::<u8>::new(), |b| *b).is_empty());
    }
}
