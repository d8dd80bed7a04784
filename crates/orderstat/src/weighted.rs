//! Weighted selection without sorting (Johnson & Mizoguchi \[31\]).
//!
//! Given items with non-negative integer weights, find the item at
//! *weighted rank* `k`: thinking of each item as occupying a run of
//! `weight` consecutive indices when items are laid out in `cmp` order,
//! return the item whose run contains index `k`. In the paper, Lemma 6.6
//! uses this to pick the value of the next lexicographic variable from a
//! histogram of answer counts in linear time — sorting the active domain
//! first would already blow the `O(n)` budget. The workspace's LEX
//! selection needs neither: over dense order-preserving codes its
//! histogram is a table already in value order, and one prefix scan
//! finds the value (`rda_core`'s `lexsel`). The one caller left is the
//! benchmark harness, which times one call beside its host calibration
//! (`rdabench/src/harness.rs`); ROADMAP item 10 deletes this module once
//! item 3a moves that timing onto a kernel of its own.

use rand::Rng;
use std::cmp::Ordering;

/// Select by weighted rank. Returns `(index_of_chosen_item,
/// weight_before)` where `weight_before` is the total weight of items
/// strictly smaller than the chosen one; the caller recurses with
/// `k - weight_before` (Lemma 6.6's tie-breaking step).
///
/// Zero-weight items are never chosen. Returns `None` when `k` is at
/// least the total weight. Expected O(n); `items` is not reordered.
/// Items comparing equal under `cmp` are treated as one logical item
/// whose weight is their sum (the first such index is reported).
pub fn weighted_select<T, F>(items: &[(T, u64)], k: u64, mut cmp: F) -> Option<(usize, u64)>
where
    F: FnMut(&T, &T) -> Ordering,
{
    let total: u64 = items.iter().map(|(_, w)| w).sum();
    if k >= total {
        return None;
    }
    let mut rng = rand::rng();
    let mut idx: Vec<usize> = (0..items.len()).filter(|&i| items[i].1 > 0).collect();
    let mut k = k;
    let mut consumed: u64 = 0; // weight of items excluded as strictly smaller
    loop {
        debug_assert!(!idx.is_empty());
        if idx.len() == 1 {
            return Some((idx[0], consumed));
        }
        let pivot = idx[rng.random_range(0..idx.len())];
        let mut less = Vec::new();
        let mut equal = Vec::new();
        let mut greater = Vec::new();
        let (mut w_less, mut w_equal) = (0u64, 0u64);
        for &i in &idx {
            match cmp(&items[i].0, &items[pivot].0) {
                Ordering::Less => {
                    w_less += items[i].1;
                    less.push(i);
                }
                Ordering::Equal => {
                    w_equal += items[i].1;
                    equal.push(i);
                }
                Ordering::Greater => greater.push(i),
            }
        }
        if k < w_less {
            idx = less;
        } else if k < w_less + w_equal {
            return Some((equal[0], consumed + w_less));
        } else {
            k -= w_less + w_equal;
            consumed += w_less + w_equal;
            idx = greater;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(items: &[(i64, u64)], k: u64) -> Option<(i64, u64)> {
        weighted_select(items, k, i64::cmp).map(|(i, before)| (items[i].0, before))
    }

    #[test]
    fn unit_weights_reduce_to_plain_selection() {
        let items: Vec<(i64, u64)> = [30, 10, 20].iter().map(|&v| (v, 1)).collect();
        assert_eq!(ws(&items, 0), Some((10, 0)));
        assert_eq!(ws(&items, 1), Some((20, 1)));
        assert_eq!(ws(&items, 2), Some((30, 2)));
        assert_eq!(ws(&items, 3), None);
    }

    #[test]
    fn weights_spread_ranks() {
        // value 5 covers ranks 0..3, value 9 covers 3..4, value 12 covers 4..10.
        let items = [(9i64, 1u64), (5, 3), (12, 6)];
        for k in 0..3 {
            assert_eq!(ws(&items, k), Some((5, 0)), "k={k}");
        }
        assert_eq!(ws(&items, 3), Some((9, 3)));
        for k in 4..10 {
            assert_eq!(ws(&items, k), Some((12, 4)), "k={k}");
        }
        assert_eq!(ws(&items, 10), None);
    }

    #[test]
    fn zero_weight_items_skipped() {
        let items = [(1i64, 0u64), (2, 2), (3, 0)];
        assert_eq!(ws(&items, 0), Some((2, 0)));
        assert_eq!(ws(&items, 1), Some((2, 0)));
        assert_eq!(ws(&items, 2), None);
    }

    #[test]
    fn equal_keys_merge() {
        let items = [(4i64, 2u64), (4, 3), (7, 1)];
        // Ranks 0..5 all map to key 4 with weight_before 0.
        for k in 0..5 {
            let (v, before) = ws(&items, k).unwrap();
            assert_eq!((v, before), (4, 0), "k={k}");
        }
        assert_eq!(ws(&items, 5), Some((7, 5)));
    }

    #[test]
    fn matches_naive_on_random_inputs() {
        let mut rng = rand::rng();
        for _ in 0..100 {
            let n = 1 + rng.random_range(0..50usize);
            let items: Vec<(i64, u64)> = (0..n)
                .map(|_| (rng.random_range(-5..5), rng.random_range(0..4u64)))
                .collect();
            let total: u64 = items.iter().map(|&(_, w)| w).sum();
            // Naive: expand by sorting.
            let mut sorted = items.clone();
            sorted.sort_by_key(|&(v, _)| v);
            for k in 0..total {
                let mut acc = 0u64;
                let mut expect = None;
                let mut before = 0u64;
                for &(v, w) in &sorted {
                    if k < acc + w {
                        expect = Some(v);
                        // weight strictly before = sum of weights of
                        // smaller *values*.
                        before = sorted
                            .iter()
                            .filter(|&&(u, _)| u < v)
                            .map(|&(_, w)| w)
                            .sum();
                        break;
                    }
                    acc += w;
                }
                let got = ws(&items, k).unwrap();
                assert_eq!(got, (expect.unwrap(), before), "items={items:?} k={k}");
            }
            assert_eq!(ws(&items, total), None);
        }
    }
}
