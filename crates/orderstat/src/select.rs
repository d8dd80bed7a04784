//! Expected-linear-time selection (the role of Blum–Floyd–Pratt–
//! Rivest–Tarjan \[10\] in the paper's Lemma 7.8).
//!
//! Implemented as randomized quickselect with three-way partitioning:
//! expected O(n), which meets the paper's `⟨1, n⟩` budget in expectation
//! (the classic median-of-medians pivot would make it worst-case linear
//! at a constant-factor cost).

use rand::Rng;
use std::cmp::Ordering;

/// Return the `k`-th smallest element (0-indexed) of `items` under `cmp`,
/// or `None` if `k` is out of bounds. The slice is reordered arbitrarily.
pub fn select_nth_by<T, F>(items: &mut [T], k: usize, mut cmp: F) -> Option<&T>
where
    F: FnMut(&T, &T) -> Ordering,
{
    if k >= items.len() {
        return None;
    }
    let mut rng = rand::rng();
    let mut lo = 0;
    let mut hi = items.len();
    let mut k = k;
    loop {
        debug_assert!(lo + k < hi);
        if hi - lo == 1 {
            return Some(&items[lo]);
        }
        let pivot_idx = rng.random_range(lo..hi);
        items.swap(lo, pivot_idx);
        // Three-way partition: [lo,lt) < pivot, [lt,i) == pivot,
        // [i,gt) unexamined, [gt,hi) > pivot. The pivot starts at lt.
        let (mut lt, mut i, mut gt) = (lo, lo + 1, hi);
        while i < gt {
            match cmp(&items[i], &items[lt]) {
                Ordering::Less => {
                    items.swap(i, lt);
                    lt += 1;
                    i += 1;
                }
                Ordering::Equal => i += 1,
                Ordering::Greater => {
                    gt -= 1;
                    items.swap(i, gt);
                }
            }
        }
        let less = lt - lo;
        let equal = gt - lt;
        if k < less {
            hi = lt;
        } else if k < less + equal {
            return Some(&items[lt]);
        } else {
            k -= less + equal;
            lo = gt;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;

    #[test]
    fn selects_every_rank() {
        let mut rng = rand::rng();
        for n in [1usize, 2, 3, 10, 101] {
            let mut base: Vec<i64> = (0..n as i64).collect();
            base.shuffle(&mut rng);
            for k in 0..n {
                let mut v = base.clone();
                assert_eq!(
                    select_nth_by(&mut v, k, Ord::cmp),
                    Some(&(k as i64)),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn duplicates() {
        let mut v = vec![5, 1, 5, 1, 5];
        assert_eq!(select_nth_by(&mut v, 0, Ord::cmp), Some(&1));
        let mut v = vec![5, 1, 5, 1, 5];
        assert_eq!(select_nth_by(&mut v, 1, Ord::cmp), Some(&1));
        let mut v = vec![5, 1, 5, 1, 5];
        assert_eq!(select_nth_by(&mut v, 2, Ord::cmp), Some(&5));
        let mut v = vec![7; 64];
        assert_eq!(select_nth_by(&mut v, 63, Ord::cmp), Some(&7));
    }

    #[test]
    fn out_of_bounds_is_none() {
        let mut v = vec![1, 2];
        assert_eq!(select_nth_by(&mut v, 2, Ord::cmp), None);
        let mut empty: Vec<i32> = vec![];
        assert_eq!(select_nth_by(&mut empty, 0, Ord::cmp), None);
    }

    #[test]
    fn custom_comparator_descending() {
        let mut v = vec![3, 1, 4, 1, 5];
        let got = select_nth_by(&mut v, 0, |a, b| b.cmp(a));
        assert_eq!(got, Some(&5));
    }

    #[test]
    fn matches_sorting_on_random_input() {
        let mut rng = rand::rng();
        for _ in 0..50 {
            let n = 1 + rand::Rng::random_range(&mut rng, 0..200usize);
            let v: Vec<i64> = (0..n)
                .map(|_| rand::Rng::random_range(&mut rng, -20..20))
                .collect();
            let mut sorted = v.clone();
            sorted.sort_unstable();
            let k = rand::Rng::random_range(&mut rng, 0..n);
            let mut work = v.clone();
            assert_eq!(select_nth_by(&mut work, k, Ord::cmp), Some(&sorted[k]));
        }
    }
}
