//! Property-based coverage of the selection substrate: every algorithm
//! against its sorting-based specification on arbitrary inputs.

use proptest::prelude::*;
use rda_orderstat::{select_nth_by, weighted_select, MatrixUnion, SortedMatrix, TotalF64};

proptest! {
    #[test]
    fn quickselect_matches_sorting(mut v in proptest::collection::vec(-100i64..100, 1..200), k_frac in 0.0f64..1.0) {
        let mut sorted = v.clone();
        sorted.sort_unstable();
        let k = ((v.len() - 1) as f64 * k_frac) as usize;
        let got = select_nth_by(&mut v, k, i64::cmp).copied();
        prop_assert_eq!(got, Some(sorted[k]));
    }

    #[test]
    fn quickselect_out_of_bounds(mut v in proptest::collection::vec(-5i64..5, 0..20)) {
        let n = v.len();
        prop_assert_eq!(select_nth_by(&mut v, n, i64::cmp), None);
    }

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

    #[test]
    fn matrix_union_select_matches_enumeration(
        specs in proptest::collection::vec(
            (proptest::collection::vec(-50i64..50, 1..12),
             proptest::collection::vec(-50i64..50, 1..12)),
            1..4,
        ),
        k_frac in 0.0f64..1.0,
    ) {
        let mut cells: Vec<i64> = Vec::new();
        let mats: Vec<SortedMatrix<i64>> = specs
            .into_iter()
            .map(|(mut rows, mut cols)| {
                rows.sort_unstable();
                cols.sort_unstable();
                for &r in &rows {
                    for &c in &cols {
                        cells.push(r + c);
                    }
                }
                SortedMatrix::new(rows, cols)
            })
            .collect();
        cells.sort_unstable();
        let u = MatrixUnion::new(mats);
        prop_assert_eq!(u.cell_count(), cells.len() as u64);
        let k = ((cells.len() - 1) as f64 * k_frac) as u64;
        prop_assert_eq!(u.select(k), Some(cells[k as usize]));
        prop_assert_eq!(u.select(cells.len() as u64), None);
    }

    #[test]
    fn matrix_counts_match_enumeration(
        rows in proptest::collection::vec(-20i64..20, 1..15),
        cols in proptest::collection::vec(-20i64..20, 1..15),
        bound in -45i64..45,
    ) {
        let mut r = rows.clone();
        let mut c = cols.clone();
        r.sort_unstable();
        c.sort_unstable();
        let u = MatrixUnion::new(vec![SortedMatrix::new(r.clone(), c.clone())]);
        let leq = r.iter().flat_map(|&x| c.iter().map(move |&y| x + y)).filter(|&s| s <= bound).count() as u64;
        let lt = r.iter().flat_map(|&x| c.iter().map(move |&y| x + y)).filter(|&s| s < bound).count() as u64;
        prop_assert_eq!(u.count_leq(bound), leq);
        prop_assert_eq!(u.count_lt(bound), lt);
    }

    #[test]
    fn total_f64_ordering_is_total(a in proptest::num::f64::NORMAL, b in proptest::num::f64::NORMAL) {
        let (x, y) = (TotalF64(a), TotalF64(b));
        // Antisymmetry + totality.
        prop_assert_eq!(x < y, y > x);
        prop_assert!(x <= y || y <= x);
        prop_assert_eq!(x == y, a == b);
    }
}
