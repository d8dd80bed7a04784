//! Search kernels for the layer arenas.
//!
//! The arena build leaves sorted runs of entries per bucket, plus a
//! rank directory bracketing rank queries to O(1) expected windows.
//! The access hot paths are chains of dependent loads whose latency is
//! set by how many cache lines a probe sequence touches. This module
//! holds the two kernels `lexda`'s descent searches (the rank descent
//! over `Entry::start` prefix sums and the value-keyed search of
//! Algorithm 2 over a bucket's sorted value run) are built from:
//!
//! * [`rank_window`] — the directory bracketing: one division turns a
//!   normalized rank into a directory slot whose window provably
//!   contains the answer;
//! * [`bracketed_partition_point`] — a `partition_point` over a window
//!   of a sorted run, with the window's midpoint prefetched as soon as
//!   the bounds are known.
//!
//! [`fill_directory`] builds the directory [`rank_window`] reads.
//!
//! Everything here is pure index arithmetic over borrowed slices; the
//! arena owns the storage.

/// Sentinel for "this bucket has no rank directory" (shared with
/// `lexda`'s `BucketMeta`).
pub(crate) const NO_DIR: u32 = u32::MAX;

/// Hint the CPU to pull `slice[idx]` toward L1. No-op when `idx` is out
/// of bounds or the target architecture has no stable prefetch
/// intrinsic; never reads the memory, so it cannot fault.
#[inline(always)]
pub(crate) fn prefetch_read<T>(slice: &[T], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    if idx < slice.len() {
        // SAFETY: `idx` is in bounds, and PREFETCHT0 only hints the
        // cache — it performs no memory access and cannot fault.
        unsafe {
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                slice.as_ptr().add(idx) as *const i8,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (slice, idx);
    }
}

/// Fill a rank directory of `B = 2^log` slots over `len` entries with
/// ascending prefix sums `start(e) < total`: slot `j` (of the `B + 1` in
/// `slots`) gets `#{entries e : start(e)·B ≤ j·total}` — one merge of
/// the scaled starts with the slot bounds, in `u64`.
///
/// Every `start(e)·B` is below 2⁶⁴ when `log ≤ 64 − bits(total − 1)`,
/// the cap `lexda` applies, but `B·total` itself reaches 2⁶⁴ at the last
/// slot when `total` is a power of two: the bound saturates there,
/// which still counts every entry — that slot's exact value.
pub(crate) fn fill_directory(
    slots: &mut [u32],
    start: impl Fn(usize) -> u64,
    len: usize,
    log: u8,
    total: u64,
) {
    let (mut ptr, mut bound) = (0usize, 0u64);
    for slot in slots {
        while ptr < len && start(ptr) << log <= bound {
            ptr += 1;
        }
        *slot = ptr as u32;
        bound = bound.saturating_add(total);
    }
}

/// The rank directory's bracketing: the half-open entry window (bucket
/// relative) that provably contains the last entry with
/// `start ≤ q`, for a normalized rank `q < total`. A bucket without a
/// directory (`dir == NO_DIR`) brackets to the whole bucket.
///
/// Directory contract (see `lexda::close_bucket`): `B = 2^dir_log`
/// slots starting at `dir_pool[dir]`, slot `j` storing
/// `#{entries e : start(e)·B ≤ j·total}`, with `dir_log` capped so
/// `q << dir_log` cannot overflow.
#[inline(always)]
pub(crate) fn rank_window(
    dir_pool: &[u32],
    dir: u32,
    dir_log: u8,
    total: u64,
    len: usize,
    q: u64,
) -> (usize, usize) {
    if dir == NO_DIR {
        (0, len)
    } else {
        let d = dir as usize + ((q << dir_log) / total) as usize;
        (dir_pool[d] as usize, dir_pool[d + 1] as usize)
    }
}

/// `partition_point` over the absolute window `wlo..whi` of `slice`,
/// returning an **absolute** index. The window's midpoint — the first
/// probe of the binary search — is prefetched as soon as the bounds are
/// known, so a directory-bracketed window's line is (at least partly)
/// in flight while the search sets up.
#[inline(always)]
pub(crate) fn bracketed_partition_point<T>(
    slice: &[T],
    wlo: usize,
    whi: usize,
    pred: impl FnMut(&T) -> bool,
) -> usize {
    prefetch_read(slice, wlo + (whi - wlo) / 2);
    wlo + slice[wlo..whi].partition_point(pred)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A rank directory over `starts`, filled as `lexda` fills one.
    fn build_dir(starts: &[u64], total: u64, log: u8) -> Vec<u32> {
        let mut pool = vec![0; (1 << log) + 1];
        fill_directory(&mut pool, |e| starts[e], starts.len(), log, total);
        pool
    }

    #[test]
    fn rank_window_brackets_every_rank() {
        // Skewed weights: entry i has weight i² + 1.
        let weights: Vec<u64> = (0..200u64).map(|i| i * i + 1).collect();
        let mut starts = Vec::new();
        let mut acc = 0u64;
        for &w in &weights {
            starts.push(acc);
            acc += w;
        }
        let total = acc;
        for log in [3u8, 5, 8] {
            let pool = build_dir(&starts, total, log);
            for q in (0..total).step_by(37) {
                let (wlo, whi) = rank_window(&pool, 0, log, total, starts.len(), q);
                // The directory brackets the *partition point* (the
                // first entry with start > q): it may coincide with
                // either window bound, and the search's trailing `- 1`
                // then steps back to the answer entry.
                let p = starts.partition_point(|&s| s <= q);
                assert!(
                    wlo <= p && p <= whi,
                    "q={q} log={log}: partition point {p} outside window {wlo}..={whi}"
                );
                let idx = bracketed_partition_point(&starts, wlo, whi, |&s| s <= q) - 1;
                assert_eq!(idx, p - 1, "q={q} log={log}");
            }
        }
    }

    #[test]
    fn rank_window_without_directory_is_whole_bucket() {
        assert_eq!(rank_window(&[], NO_DIR, 0, 10, 7, 3), (0, 7));
    }

    #[test]
    fn bracketed_partition_point_matches_std() {
        let data: Vec<u32> = (0..97).map(|i| i * 3).collect();
        for probe in 0..300u32 {
            let expect = data.partition_point(|&v| v < probe);
            assert_eq!(
                bracketed_partition_point(&data, 0, data.len(), |&v| v < probe),
                expect
            );
            // Any window containing the answer gives the same result.
            let wlo = expect.saturating_sub(5);
            let whi = (expect + 5).min(data.len());
            assert_eq!(
                bracketed_partition_point(&data, wlo, whi, |&v| v < probe),
                expect,
                "probe={probe}"
            );
        }
    }
}
