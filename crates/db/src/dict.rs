//! Order-preserving value dictionaries, and the freeze's kernel.
//!
//! The direct-access structures of the paper spend their whole life
//! comparing domain values: every layer descent is a binary search and
//! every bucket boundary is a comparison. Comparing [`Value`]s walks an
//! enum (and, for strings and pairs, pointers); comparing `u32`s is one
//! instruction. Since the active domain is static once a structure is
//! built, we intern it up front: a [`Dictionary`] assigns each distinct
//! value a dense `u32` code such that **code order equals value order**.
//! Downstream, relations become columnar `u32` arrays
//! ([`crate::EncodedRelation`]) and the access structures never touch a
//! [`Value`] again until an answer tuple is emitted.
//!
//! A code *is* a rank, so encoding is a sort, not a hash: the freeze
//! ranks each column ([`RankedRelation`]), unions the columns' distinct
//! runs into the dictionary — its sorted values and nothing else — and
//! merges each run against it. No cell is hashed or cloned.

use crate::encoded::radix_sort_rows;
use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::Value;
use std::borrow::Cow;

/// An order-preserving interner for a static set of [`Value`]s.
///
/// Codes are dense (`0..len`) and **monotone**: for values `a`, `b`
/// interned as `ca`, `cb`, `a < b ⇔ ca < cb`. This is what lets the
/// access structures replace every value comparison by an integer
/// comparison without changing any order-sensitive result.
///
/// ```
/// use rda_db::{Database, Value};
///
/// let snap = Database::new().with_i64_rows("R", 1, vec![vec![30], vec![10], vec![20]]).freeze();
/// let dict = snap.dict();
/// assert_eq!(dict.len(), 3);
/// assert_eq!(dict.code(&Value::int(10)), Some(0));
/// assert_eq!(dict.code(&Value::int(30)), Some(2));
/// assert_eq!(dict.value(1), &Value::int(20));
/// // Values outside the interned set still get a consistent bound.
/// assert_eq!(dict.lower_bound(&Value::int(15)), (1, false));
/// assert_eq!(dict.lower_bound(&Value::int(20)), (1, true));
/// assert_eq!(dict.lower_bound(&Value::int(99)), (3, false));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    /// Interned values, ascending; the code of `values[i]` is `i`.
    values: Vec<Value>,
}

impl Dictionary {
    /// Wrap values already sorted ascending and distinct — by
    /// [`Dictionary::from_ranked`], or checked by the [`crate::persist`]
    /// open path.
    ///
    /// # Panics
    /// Panics if there are more than `u32::MAX` values (the paper's `n`
    /// is a tuple count; domains that large do not fit in memory long
    /// before the code space runs out).
    pub(crate) fn from_sorted(values: Vec<Value>) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]));
        assert!(
            values.len() <= u32::MAX as usize,
            "active domain exceeds the u32 code space"
        );
        Dictionary { values }
    }

    /// Intern every value of the ranked relations: the union of their
    /// columns' distinct runs, integers and strings apart. The runs
    /// already ascend, so they are merged, never sorted.
    pub(crate) fn from_ranked(rels: &[RankedRelation<'_>]) -> Self {
        let cols = || rels.iter().flat_map(|r| &r.cols);
        let ints = union(&cols().map(|c| &c.ints[..]).collect::<Vec<_>>());
        let strs = union(&cols().map(|c| &c.strs[..]).collect::<Vec<_>>());
        let strs = strs.into_iter().cloned();
        Self::from_sorted(ints.into_iter().map(Value::Int).chain(strs).collect())
    }

    /// Number of interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The code of `v`, or `None` when `v` was not interned: a
    /// [`Dictionary::lower_bound`] that must land on `v` exactly.
    /// O(log m), allocation-free.
    pub fn code(&self, v: &Value) -> Option<u32> {
        let (code, exact) = self.lower_bound(v);
        exact.then_some(code)
    }

    /// The value behind `code`.
    ///
    /// # Panics
    /// Panics if `code` was never assigned.
    pub fn value(&self, code: u32) -> &Value {
        &self.values[code as usize]
    }

    /// The first code whose value is `≥ v`, and whether it equals `v`
    /// exactly. Returns `(len, false)` when every interned value is
    /// `< v`. O(log m), allocation-free.
    ///
    /// Because codes are monotone, an interned code `e` satisfies
    /// `value(e) < v` iff `e < lower_bound(v).0` — the bridge that lets
    /// rank queries for *arbitrary* (possibly non-interned) tuples run
    /// entirely in code space.
    pub fn lower_bound(&self, v: &Value) -> (u32, bool) {
        let idx = self.values.partition_point(|x| x < v);
        let exact = idx < self.values.len() && &self.values[idx] == v;
        (idx as u32, exact)
    }

    /// Encode a tuple component-wise into `out` (cleared first).
    /// Returns `false` (leaving `out` in an unspecified state) when some
    /// component is not interned. Allocation-free once `out` has
    /// capacity for the tuple's arity.
    pub fn encode_tuple_into(&self, t: &Tuple, out: &mut Vec<u32>) -> bool {
        out.clear();
        for v in t.iter() {
            match self.code(v) {
                Some(c) => out.push(c),
                None => return false,
            }
        }
        true
    }

    /// Extend this dictionary with `extra` values, keeping codes dense
    /// and order-preserving, and report how the old code space fared —
    /// the dictionary half of
    /// [`Snapshot::freeze_delta`](crate::Snapshot::freeze_delta).
    ///
    /// Three outcomes, from cheapest to dearest:
    ///
    /// * [`DictDelta::Unchanged`] — every value was already interned;
    ///   the old dictionary serves the new generation as-is.
    /// * [`DictDelta::Extended`] — every new value sorts **after** every
    ///   interned one, so fresh codes are appended at the top of the
    ///   code space and *existing codes are untouched*: encodings made
    ///   under the old dictionary remain valid verbatim.
    /// * [`DictDelta::Rebased`] — some new value lands between interned
    ///   ones. Codes are re-assigned densely; the returned `remap`
    ///   (`remap[old_code] = new_code`, strictly monotone) lets old
    ///   encodings be upgraded by a pure integer gather
    ///   ([`crate::EncodedRelation::remapped`]) — never by re-encoding.
    ///
    /// Cost: O(|extra| log m) to find the values not yet interned, then
    /// O(|extra| log |extra| + m): no re-sort of the old values (an
    /// append copies them, a rebase merges them, already ordered) and
    /// no relation cell is touched. There is no map to copy or rewrite.
    ///
    /// # Panics
    /// Panics if the union would exceed the `u32` code space.
    pub(crate) fn extend(&self, extra: impl IntoIterator<Item = Value>) -> DictDelta {
        let mut add: Vec<Value> = extra
            .into_iter()
            .filter(|v| self.code(v).is_none())
            .collect();
        add.sort_unstable();
        add.dedup();
        if add.is_empty() {
            return DictDelta::Unchanged;
        }
        assert!(
            self.values.len() + add.len() <= u32::MAX as usize,
            "active domain exceeds the u32 code space"
        );
        if self.values.last().is_none_or(|last| *last < add[0]) {
            // Monotone append: old codes stay stable.
            let values = [&self.values[..], &add].concat();
            return DictDelta::Extended(Dictionary { values });
        }
        // Interior values: an old code moves up by the number of new
        // values below its value.
        let mut below = 0;
        let mut moved = |(c, v): (usize, &Value)| {
            while add.get(below).is_some_and(|a| a < v) {
                below += 1;
            }
            (c + below) as u32
        };
        DictDelta::Rebased {
            remap: self.values.iter().enumerate().map(&mut moved).collect(),
            dict: Dictionary {
                values: union(&[&self.values, &add]),
            },
        }
    }
}

/// Outcome of [`Dictionary::extend`]: what a monotone domain extension
/// did to the existing code space.
#[derive(Debug, Clone)]
pub(crate) enum DictDelta {
    /// No new values; keep using the old dictionary.
    Unchanged,
    /// New codes appended at the top; existing codes are stable, so
    /// encodings made under the old dictionary remain valid.
    Extended(Dictionary),
    /// Codes were re-assigned. `remap[old_code] = new_code` is strictly
    /// monotone, so old encodings upgrade by a gather that preserves
    /// row order, sortedness and distinctness.
    Rebased {
        /// The rebased dictionary.
        dict: Dictionary,
        /// Old code → new code, strictly increasing.
        remap: Vec<u32>,
    },
}

/// The union of ascending, distinct runs: the two halves' unions
/// merged, a branch-free step per item, O(t log r) for `t` items in
/// `r` runs.
fn union<T: Ord + Clone>(runs: &[&[T]]) -> Vec<T> {
    let (a, b) = match runs {
        [] => return Vec::new(),
        [run] => return run.to_vec(),
        _ => runs.split_at(runs.len() / 2),
    };
    let (a, b) = (union(a), union(b));
    let (mut out, mut i, mut j) = (Vec::with_capacity(a.len() + b.len()), 0, 0);
    while i < a.len() && j < b.len() {
        out.push((&a[i]).min(&b[j]).clone());
        (i, j) = (i + usize::from(a[i] <= b[j]), j + usize::from(b[j] <= a[i]));
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The code of `probe` in `values`, which ascend and hold it at or
/// after `*at`, where it leaves `*at`: a galloping search, O(log
/// distance).
///
/// # Panics
/// Panics if `values` does not hold `probe` at or after `*at`.
fn slot_of(values: &[Value], at: &mut usize, probe: &Value) -> u32 {
    let mut step = 1;
    while values.get(*at + step - 1).is_some_and(|v| v < probe) {
        step *= 2;
    }
    let (lo, hi) = (*at + step / 2, (*at + step - 1).min(values.len()));
    *at = lo + values[lo..hi].partition_point(|v| v < probe);
    let found = values.get(*at) == Some(probe);
    assert!(found, "dictionary covers the relation");
    *at as u32
}

/// The sign bit: flipping it maps `i64` order onto `u64` order.
const SIGN: u64 = 1 << 63;

/// One column of a relation, ranked: its distinct values ascending —
/// the integers, then the strings, where [`Value`]'s order puts them —
/// and each row's rank among them.
#[derive(Debug)]
struct RankedColumn<'a> {
    ints: Vec<i64>,
    strs: Vec<&'a Value>,
    ranks: Vec<u32>,
}

impl<'a> RankedColumn<'a> {
    /// Rank column `p` of `tuples` and stably sort `rows` by it: a
    /// [`radix_sort_rows`] of the integer rows over each `i64`'s
    /// sign-flipped image (which sorts as the `i64` does), a stable
    /// comparison sort of the string rows, and one walk.
    fn new(rows: &mut Vec<u32>, tuples: &'a [Tuple], p: usize) -> Self {
        let cell = |r: u32| &tuples[r as usize][p];
        let mut any_str = false;
        let mut key = |i: Option<i64>| {
            any_str |= i.is_none();
            i.map_or(0, |i| i as u64 ^ SIGN)
        };
        let keys: Vec<u64> = tuples.iter().map(|t| key(t[p].as_int())).collect();
        let mut str_rows: Vec<(&Value, u32)> = Vec::new();
        if any_str {
            let (ints, strs): (Vec<u32>, Vec<u32>) =
                rows.iter().partition(|&&r| cell(r).as_int().is_some());
            str_rows = strs.into_iter().map(|r| (cell(r), r)).collect();
            *rows = ints;
        }
        radix_sort_rows(rows, |r| keys[r as usize]);
        str_rows.sort_by_key(|&(s, _)| s);
        let (mut ints, mut strs, mut ranks) = (Vec::new(), Vec::new(), vec![0; tuples.len()]);
        for &r in rows.iter() {
            let i = (keys[r as usize] ^ SIGN) as i64;
            if ints.last() != Some(&i) {
                ints.push(i);
            }
            ranks[r as usize] = ints.len() as u32 - 1;
        }
        for (s, r) in str_rows {
            if strs.last() != Some(&s) {
                strs.push(s);
            }
            ranks[r as usize] = (ints.len() + strs.len()) as u32 - 1;
            rows.push(r);
        }
        RankedColumn { ints, strs, ranks }
    }
}

/// A relation ranked column by column, and its distinct rows in order:
/// the first half of the freeze kernel. [`Dictionary::from_ranked`]
/// unions the columns' distinct runs, and [`RankedRelation::codes`]
/// encodes the relation under any dictionary that holds its values.
#[derive(Debug)]
pub(crate) struct RankedRelation<'a> {
    /// One row per distinct tuple, ascending.
    rows: Vec<u32>,
    cols: Vec<RankedColumn<'a>>,
}

impl<'a> RankedRelation<'a> {
    /// Rank every column of `rel`, last to first, each sort stable over
    /// the order the later ones left: the rows end sorted by the whole
    /// tuple, and one scan of the ranks drops duplicates. Linear in the
    /// cells, plus the string sorts. Rows are indexed per relation.
    ///
    /// # Panics
    /// Panics if `rel` holds more than `u32::MAX` rows.
    pub(crate) fn new(rel: &'a Relation) -> Self {
        assert!(rel.len() <= u32::MAX as usize, "relation exceeds u32 rows");
        let mut rows: Vec<u32> = (0..rel.len() as u32).collect();
        let mut cols: Vec<RankedColumn> = (0..rel.arity())
            .rev()
            .map(|p| RankedColumn::new(&mut rows, rel.tuples(), p))
            .collect();
        cols.reverse();
        let same = |a: &mut u32, b: &mut u32| {
            cols.iter()
                .all(|c| c.ranks[*a as usize] == c.ranks[*b as usize])
        };
        rows.dedup_by(same);
        RankedRelation { rows, cols }
    }

    /// How many distinct rows the relation holds.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// The distinct rows encoded under `dict`, ascending — normalized,
    /// as a snapshot holds them. Each column's distinct run is merged
    /// against the dictionary (both ascend) into a rank → code table,
    /// O(d log(m / d)) for `d` distinct values, then gathered per row.
    ///
    /// # Panics
    /// Panics if `dict` lacks a value of the relation.
    pub(crate) fn codes(&self, dict: &Dictionary) -> Vec<Vec<u32>> {
        let col_codes = |col: &RankedColumn| {
            let ints = col.ints.iter().map(|&i| Cow::Owned(Value::Int(i)));
            let run = ints.chain(col.strs.iter().map(|&v| Cow::Borrowed(v)));
            let mut at = 0;
            let table: Vec<u32> = (run.map(|v| slot_of(&dict.values, &mut at, &v))).collect();
            let code = |r: &u32| table[col.ranks[*r as usize] as usize];
            self.rows.iter().map(code).collect()
        };
        self.cols.iter().map(col_codes).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tup, Database, Snapshot};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// The freeze kernel's dictionary over `rels`.
    fn kernel_dict(rels: &[&Relation]) -> Dictionary {
        let ranked: Vec<RankedRelation> = rels.iter().map(|r| RankedRelation::new(r)).collect();
        Dictionary::from_ranked(&ranked)
    }

    /// {1, 5, "a"}.
    fn dict() -> Dictionary {
        let d = Relation::from_tuples("D", 1, vec![tup![5], tup![1], tup!["a"], tup![5]]);
        kernel_dict(&[&d])
    }

    /// One of `items`, uniformly.
    fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
        items[rng.random_range(0..items.len())]
    }

    /// A random cell, an integer with chance `ints`. Integers come from
    /// the `i64` extremes, zero and the sign change, a small range
    /// (repeats) or anywhere; strings are empty, share prefixes, or
    /// are drawn.
    fn cell(rng: &mut StdRng, ints: f64) -> Value {
        if rng.random_bool(ints) {
            match rng.random_range(0..3) {
                0 => Value::int(pick(rng, &[i64::MIN, -1, 0, 1, i64::MAX])),
                1 => Value::int(rng.random_range(-6..6)),
                _ => Value::int(rng.next_u64() as i64),
            }
        } else if rng.random_bool(0.6) {
            Value::str(pick(rng, &["", "a", "ab", "abc", "abd", "b", "ba", "é"]))
        } else {
            let len = rng.random_range(0..4);
            Value::str(
                (0..len)
                    .map(|_| pick(rng, &['a', 'b', 'z']))
                    .collect::<String>(),
            )
        }
    }

    /// A random relation of arity 0–3: empty, or up to 24 rows with
    /// repeats; each column all integers, all strings or mixed. A
    /// nullary relation holds its one tuple, perhaps several times.
    fn relation(rng: &mut StdRng, name: &str) -> Relation {
        let arity = rng.random_range(0..4);
        let ints: Vec<f64> = (0..arity).map(|_| pick(rng, &[1.0, 0.0, 0.5])).collect();
        let rows = if rng.random_bool(0.15) {
            0
        } else {
            rng.random_range(1..25)
        };
        let mut tuples: Vec<Tuple> = Vec::new();
        for _ in 0..rows {
            let t = match tuples.len() {
                n if n > 0 && rng.random_bool(0.25) => tuples[rng.random_range(0..n)].clone(),
                _ => ints.iter().map(|&p| cell(rng, p)).collect(),
            };
            tuples.push(t);
        }
        Relation::from_tuples(name, arity, tuples)
    }

    /// Check `snap` against the set model: its dictionary is `domain`,
    /// ascending, and each relation of `db` is encoded as its distinct
    /// tuples, ascending, every cell coded by its value's rank in
    /// `domain`.
    fn assert_model(snap: &Snapshot, db: &Database, domain: &BTreeSet<Value>, ctx: &str) {
        let values: Vec<&Value> = domain.iter().collect();
        let dict: Vec<&Value> = (0..snap.dict().len() as u32)
            .map(|c| snap.dict().value(c))
            .collect();
        assert_eq!(dict, values, "{ctx}: the dictionary");
        let rank = |v: &Value| values.binary_search(&v).expect("in the domain") as u32;
        for v in &values {
            assert_eq!(snap.dict().code(v), Some(rank(v)), "{ctx}: code of {v}");
        }
        for r in db.relations() {
            let model: BTreeSet<Vec<u32>> = r
                .tuples()
                .iter()
                .map(|t| t.iter().map(rank).collect())
                .collect();
            let enc = snap.encoded(r.name()).expect("every relation encoded");
            let rows: Vec<Vec<u32>> = (0..enc.len())
                .map(|i| (0..enc.arity()).map(|p| enc.code(i, p)).collect())
                .collect();
            assert_eq!(enc.arity(), r.arity(), "{ctx}: {} arity", r.name());
            assert!(
                rows.iter().eq(&model),
                "{ctx}: {} is {rows:?}, the model {model:?}",
                r.name()
            );
        }
    }

    /// The freeze kernel against a `BTreeSet<Value>` model, through
    /// every path that runs it: `Database::freeze`, `freeze_delta`'s
    /// re-encode arm (one relation replaced, beside a logged insert
    /// that debug builds cross-check with the kernel), and save → open.
    #[test]
    fn codes_are_dense_and_order_preserving() {
        let dir = std::env::temp_dir().join(format!("rda-dict-model-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for case in 0..96u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let mut db = Database::new();
            for i in 0..rng.random_range(1..5) {
                db.add(relation(&mut rng, &format!("R{i}")));
            }
            db.clear_mutation_log();
            let cells = |db: &Database| -> BTreeSet<Value> {
                let tuples = db.relations().flat_map(|r| r.tuples());
                tuples.flat_map(|t| t.iter().cloned()).collect()
            };
            let domain = cells(&db);
            let snap = db.clone().freeze();
            assert_model(&snap, &db, &domain, &format!("case {case} freeze"));

            let path = dir.join(format!("case-{case}.rdas"));
            crate::save_snapshot(&snap, &path).unwrap();
            let opened = crate::open_snapshot(&path).unwrap();
            assert_model(&opened, &db, &domain, &format!("case {case} open"));

            // One relation replaced, one other gains a logged row.
            let names: Vec<String> = db.relations().map(|r| r.name().to_string()).collect();
            let replaced = &names[rng.random_range(0..names.len())];
            db.add(relation(&mut rng, replaced));
            let logged = names
                .iter()
                .find(|n| *n != replaced && db.get(n).unwrap().arity() > 0);
            if let Some(name) = logged {
                let arity = db.get(name).unwrap().arity();
                db.insert_into(name, (0..arity).map(|_| cell(&mut rng, 0.5)).collect());
            }
            let domain = &domain | &cells(&db);
            let next = snap.freeze_delta(&mut db.clone());
            assert_model(&next, &db, &domain, &format!("case {case} delta"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lower_bound_brackets_missing_values() {
        let d = dict();
        assert_eq!(d.lower_bound(&Value::int(0)), (0, false));
        assert_eq!(d.lower_bound(&Value::int(1)), (0, true));
        assert_eq!(d.lower_bound(&Value::int(3)), (1, false));
        assert_eq!(d.lower_bound(&Value::str("z")), (3, false));
    }

    #[test]
    fn encode_tuple_into_reports_unknown_values() {
        let d = dict();
        let mut buf = Vec::new();
        assert!(d.encode_tuple_into(&tup![5, 1], &mut buf));
        assert_eq!(buf, vec![1, 0]);
        assert!(!d.encode_tuple_into(&tup![5, 99], &mut buf));
    }

    #[test]
    fn extend_with_known_values_is_unchanged() {
        let d = dict();
        assert!(matches!(
            d.extend([Value::int(1), Value::int(5), Value::int(5)]),
            DictDelta::Unchanged
        ));
    }

    #[test]
    fn extend_appends_when_values_sort_last() {
        let d = dict(); // {1, 5, "a"}
        let DictDelta::Extended(e) = d.extend([Value::str("z"), Value::str("m")]) else {
            panic!("values past the top must append");
        };
        // Old codes stable, new codes dense above them, order preserved.
        for c in 0..3u32 {
            assert_eq!(e.value(c), d.value(c));
        }
        assert_eq!(e.code(&Value::str("m")), Some(3));
        assert_eq!(e.code(&Value::str("z")), Some(4));
        assert_eq!(e.len(), 5);
        // The empty dictionary extends by append too.
        assert!(matches!(
            Dictionary::default().extend([Value::int(3)]),
            DictDelta::Extended(_)
        ));
    }

    #[test]
    fn extend_rebases_interior_values_with_monotone_remap() {
        let d = dict(); // {1, 5, "a"}
        let DictDelta::Rebased { dict: r, remap } =
            d.extend([Value::int(3), Value::int(9), Value::int(3)])
        else {
            panic!("interior values must rebase");
        };
        // New order: 1, 3, 5, 9, "a".
        assert_eq!(r.len(), 5);
        assert_eq!(r.code(&Value::int(3)), Some(1));
        assert_eq!(r.code(&Value::int(9)), Some(3));
        assert_eq!(remap, vec![0, 2, 4]);
        // The remap is exactly "where did my value go".
        for (old, &new) in remap.iter().enumerate() {
            assert_eq!(r.value(new), d.value(old as u32));
        }
        assert!(remap.windows(2).all(|w| w[0] < w[1]), "strictly monotone");
    }

    #[test]
    fn from_relations_unions_all_columns() {
        let r = Relation::from_tuples("R", 2, vec![tup![1, 5], tup![6, 2]]);
        let s = Relation::from_tuples("S", 2, vec![tup![6, "x"], tup![-3, 2]]);
        let d = kernel_dict(&[&r, &s]);
        assert_eq!(d.len(), 6);
        assert_eq!(d.code(&Value::int(-3)), Some(0));
        assert_eq!(d.code(&Value::int(6)), Some(4));
        assert_eq!(d.code(&Value::str("x")), Some(5));
        // S's rows come out encoded and sorted: (-3, 2) before (6, "x").
        let codes = RankedRelation::new(&s).codes(&d);
        assert_eq!(codes, vec![vec![0, 4], vec![2, 5]]);
    }
}
