//! Property-based coverage of weighted selection against its
//! sorting-based specification on arbitrary inputs.

use proptest::prelude::*;
use rda_orderstat::weighted_select;

proptest! {
    #[test]
    fn weighted_select_matches_expansion(
        items in proptest::collection::vec((-8i64..8, 0u64..5), 1..60),
        k_frac in 0.0f64..1.0,
    ) {
        let total: u64 = items.iter().map(|&(_, w)| w).sum();
        prop_assume!(total > 0);
        let k = ((total - 1) as f64 * k_frac) as u64;
        // Specification: expand each item into `weight` copies, sort.
        let mut expanded: Vec<i64> = items
            .iter()
            .flat_map(|&(v, w)| std::iter::repeat_n(v, w as usize))
            .collect();
        expanded.sort_unstable();
        let (idx, before) = weighted_select(&items, k, i64::cmp).expect("k < total");
        prop_assert_eq!(items[idx].0, expanded[k as usize]);
        // `before` = total weight of strictly smaller values.
        let expect_before: u64 = items
            .iter()
            .filter(|&&(v, _)| v < items[idx].0)
            .map(|&(_, w)| w)
            .sum();
        prop_assert_eq!(before, expect_before);
        // Out-of-bound rejected.
        prop_assert_eq!(weighted_select(&items, total, i64::cmp), None);
    }
}
