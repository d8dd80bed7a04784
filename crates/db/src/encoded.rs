//! Columnar, dictionary-encoded relations.
//!
//! The struct-of-arrays twin of [`Relation`](crate::Relation): one
//! `Vec<u32>` per attribute, every cell a [`Dictionary`] code.
//! Because codes are order-preserving, sorting, deduplication, semijoin
//! and grouping over codes produce exactly the results they would over
//! the decoded [`Value`](crate::Value)s — at integer cost and with
//! cache-friendly sequential layouts; codes are dense ranks, so a sort
//! is a few linear radix passes ([`radix_sort_rows`]). The
//! access-structure builders in `rda-core` run their whole
//! layer-materialization pipeline
//! (projection, semijoin reduction, bucket sorting) on this
//! representation.

use crate::dict::Dictionary;
use crate::persist::MappedSlice;
use crate::tuple::Tuple;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Process-wide count of relation encodings produced.
static ENCODE_CALLS: AtomicU64 = AtomicU64::new(0);

/// How many relations have been dictionary-encoded in this process —
/// one increment per encoding produced: a relation encoded from its
/// tuples, or a delta merge of logged rows into a parent encoding
/// ([`Snapshot::freeze_delta`](crate::Snapshot::freeze_delta)).
///
/// The encode-once contract of [`Database::freeze`](crate::Database::freeze)
/// is stated in terms of this counter: freezing a database encodes each
/// relation exactly once, and building any access structure from the
/// resulting snapshot adds **zero** further encodings.
pub fn relation_encode_count() -> u64 {
    ENCODE_CALLS.load(AtomicOrdering::Relaxed)
}

/// One encoded column: a run of `u32` codes, either owned by this
/// process or a **zero-copy view** into a persisted snapshot's mapped
/// bytes (see [`crate::persist`]). Reading is uniform through `Deref`;
/// no column is written in place.
#[derive(Clone)]
enum Column {
    /// Codes owned in process memory.
    Owned(Vec<u32>),
    /// Codes read in place from a mapped snapshot file.
    Mapped(MappedSlice),
}

impl Column {
    /// The sub-column `lo..hi`: a copy for owned columns, a narrowed
    /// view (no copy at all) for mapped ones.
    fn slice(&self, lo: usize, hi: usize) -> Column {
        match self {
            Column::Owned(v) => Column::Owned(v[lo..hi].to_vec()),
            Column::Mapped(m) => Column::Mapped(m.slice(lo, hi)),
        }
    }
}

impl Deref for Column {
    type Target = [u32];
    fn deref(&self) -> &[u32] {
        match self {
            Column::Owned(v) => v,
            Column::Mapped(m) => m.as_slice(),
        }
    }
}

impl From<Vec<u32>> for Column {
    fn from(v: Vec<u32>) -> Column {
        Column::Owned(v)
    }
}

impl std::fmt::Debug for Column {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Column::Owned(v) => write!(f, "Owned({v:?})"),
            Column::Mapped(m) => write!(f, "Mapped({:?})", m.as_slice()),
        }
    }
}

impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Column {}

/// Bits per digit of [`radix_sort_rows`]: 2¹¹ counters of 4 bytes
/// each, 8 KiB, stay in L1 while a pass scatters.
const RADIX_BITS: u32 = 11;

/// Stably sort the row indices `rows` ascending by `key(row)`: a
/// least-significant-digit radix sort over 11-bit digits. A digit on
/// which every key agrees costs no pass, so dense dictionary codes
/// below 2¹¹ sort in one pass and codes below 2²² in two, whatever the
/// key type. Rows with equal keys keep their relative order — which is
/// what lets one call per column, least significant column first, sort
/// by a column sequence.
///
/// Linear: one pass to find the digits that differ, one to count them
/// all, and one scatter per differing digit. `key` is evaluated once
/// per row in each of those passes, so it should be a load or a few
/// arithmetic operations. `rows` may list at most `u32::MAX` rows.
pub fn radix_sort_rows(rows: &mut Vec<u32>, key: impl Fn(u32) -> u64) {
    const MASK: u64 = (1 << RADIX_BITS) - 1;
    let Some(&first) = rows.first() else {
        return;
    };
    let k0 = key(first);
    let differ = rows.iter().fold(0, |acc, &r| acc | (key(r) ^ k0));
    let shifts: Vec<u32> = (0..u64::BITS)
        .step_by(RADIX_BITS as usize)
        .filter(|&s| differ >> s & MASK != 0)
        .collect();
    if shifts.is_empty() {
        return;
    }
    let mut counts = vec![[0u32; 1 << RADIX_BITS]; shifts.len()];
    for &r in rows.iter() {
        let k = key(r);
        for (count, &s) in counts.iter_mut().zip(&shifts) {
            count[(k >> s & MASK) as usize] += 1;
        }
    }
    let mut spare = vec![0u32; rows.len()];
    for (next, &s) in counts.iter_mut().zip(&shifts) {
        // Counts → each digit's first output slot.
        let mut at = 0;
        for n in next.iter_mut() {
            (*n, at) = (at, at + *n);
        }
        for &r in rows.iter() {
            let d = (key(r) >> s & MASK) as usize;
            spare[next[d] as usize] = r;
            next[d] += 1;
        }
        std::mem::swap(rows, &mut spare);
    }
}

/// How rows `a` and `b` compare on the column sequence `cols`.
fn cmp_on(cols: &[&[u32]], a: usize, b: usize) -> Ordering {
    cols.iter()
        .map(|c| c[a].cmp(&c[b]))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// Whether the rows `0..rows` ascend on the column sequence `cols`,
/// and whether they are distinct there too — one scan, stopping at the
/// first descent.
fn ascent(cols: &[&[u32]], rows: usize) -> (bool, bool) {
    let mut distinct = true;
    for r in 1..rows {
        match cmp_on(cols, r - 1, r) {
            Ordering::Less => {}
            Ordering::Equal => distinct = false,
            Ordering::Greater => return (false, distinct),
        }
    }
    (true, distinct)
}

/// The set bits of `bits`, ascending.
fn ones(bits: &[u64]) -> impl Iterator<Item = u32> + '_ {
    bits.iter().enumerate().flat_map(|(i, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                (i as u32) << 6 | bit
            })
        })
    })
}

/// A membership bitmap of `codes`, all of them below `len`.
fn code_bitmap(codes: &[u32], len: usize) -> Vec<u64> {
    let mut bits = vec![0u64; len.div_ceil(64)];
    for &c in codes {
        bits[c as usize >> 6] |= 1 << (c & 63);
    }
    bits
}

/// One past the largest of `codes`, 0 for none: the length of a table
/// indexed by them.
fn dense_len(codes: &[u32]) -> usize {
    codes.iter().max().map_or(0, |&m| m as usize + 1)
}

/// Append `codes` to `out`, moved through `remap` when there is one.
fn extend_remapped(out: &mut Vec<u32>, codes: &[u32], remap: Option<&[u32]>) {
    match remap {
        None => out.extend_from_slice(codes),
        Some(m) => out.extend(codes.iter().map(|&c| m[c as usize])),
    }
}

/// A dictionary-encoded relation in columnar (struct-of-arrays) layout.
///
/// Row `r`'s attribute `p` lives at `col(p)[r]`. Operations mirror the
/// [`Relation`](crate::Relation) operators the preprocessing phases
/// use, restricted to what the builders need; all are linear or
/// quasilinear. A relation derived from another by picking rows — a
/// filter, a reordering, a join step's side — goes through the one
/// [gather](EncodedRelation::gather). Equality is by content — an
/// owned relation and a mapped view of the same rows compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedRelation {
    rows: usize,
    cols: Vec<Column>,
}

impl EncodedRelation {
    /// An empty encoded relation of the given arity.
    pub fn new(arity: usize) -> Self {
        EncodedRelation {
            rows: 0,
            cols: (0..arity).map(|_| Column::from(Vec::new())).collect(),
        }
    }

    /// Assemble a relation over already-encoded columns — the zero-copy
    /// open path of [`crate::persist`]. Not an encoding:
    /// [`relation_encode_count`] does not move.
    pub(crate) fn from_mapped_columns(rows: usize, cols: Vec<MappedSlice>) -> Self {
        debug_assert!(cols.iter().all(|c| c.as_slice().len() == rows));
        EncodedRelation {
            rows,
            cols: cols.into_iter().map(Column::Mapped).collect(),
        }
    }

    /// A relation over the columns the freeze kernel
    /// ([`crate::dict::RankedRelation::codes`]) just encoded: counts as
    /// one encoding in [`relation_encode_count`].
    pub(crate) fn encoded(rows: usize, cols: Vec<Vec<u32>>) -> Self {
        ENCODE_CALLS.fetch_add(1, AtomicOrdering::Relaxed);
        Self::from_owned_columns(rows, cols)
    }

    /// Assemble a relation over already-encoded owned columns — the
    /// materializing open path of [`crate::persist`] (big-endian hosts,
    /// where the file's little-endian cells cannot be viewed in place).
    /// Not an encoding: [`relation_encode_count`] does not move.
    pub(crate) fn from_owned_columns(rows: usize, cols: Vec<Vec<u32>>) -> Self {
        debug_assert!(cols.iter().all(|c| c.len() == rows));
        EncodedRelation {
            rows,
            cols: cols.into_iter().map(Column::Owned).collect(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The codes of attribute `p`, one per row.
    pub fn col(&self, p: usize) -> &[u32] {
        &self.cols[p]
    }

    /// The code at (`row`, `col`).
    pub fn code(&self, row: usize, col: usize) -> u32 {
        self.cols[col][row]
    }

    /// Compare two rows on the given columns, in order.
    pub fn cmp_rows_on(&self, a: usize, b: usize, positions: &[usize]) -> Ordering {
        for &p in positions {
            let o = self.cols[p][a].cmp(&self.cols[p][b]);
            if o.is_ne() {
                return o;
            }
        }
        Ordering::Equal
    }

    /// The rows listed in `rows` onto the columns listed in `cols`, in
    /// any order and with repeats: row `i` is row `rows[i]` read at
    /// `cols`. One pass per column; not an encoding.
    ///
    /// # Panics
    /// Panics if a listed column, or (with any column listed) a listed
    /// row, is out of range.
    pub fn gather(&self, rows: &[u32], cols: impl IntoIterator<Item = usize>) -> EncodedRelation {
        debug_assert!(rows.iter().all(|&r| (r as usize) < self.rows));
        let gather = |p: usize| {
            let col = &*self.cols[p];
            Column::from(rows.iter().map(|&r| col[r as usize]).collect::<Vec<u32>>())
        };
        EncodedRelation {
            rows: rows.len(),
            cols: cols.into_iter().map(gather).collect(),
        }
    }

    /// This relation's columns, then `other`'s, row beside row.
    ///
    /// # Panics
    /// Panics if the two row counts differ.
    pub fn beside(mut self, other: EncodedRelation) -> EncodedRelation {
        assert_eq!(self.rows, other.rows, "row count mismatch");
        self.cols.extend(other.cols);
        self
    }

    /// Keep exactly the rows listed in `keep` (ascending, distinct),
    /// e.g. a plan produced by [`EncodedRelation::semijoin_plan`]: a
    /// [gather](EncodedRelation::gather) onto every column.
    pub fn retain_rows(&mut self, keep: &[u32]) {
        *self = self.gather(keep, 0..self.arity());
    }

    /// Put the rows in ascending order of the column sequence `order`
    /// (which must name every column, so ties are identical rows), and
    /// drop duplicate rows when `dedup` is set.
    ///
    /// One linear scan first: rows that already ascend (and are
    /// distinct, when that is asked) are left exactly as they are — no
    /// copy, so a mapped column stays mapped. Rows that ascend but
    /// repeat are deduplicated in a second linear pass, and the
    /// distinct codes of a single column are read off a membership
    /// bitmap. Only otherwise are the rows sorted: one stable
    /// [`radix_sort_rows`] per column of `order`, last column first,
    /// then the same linear deduplication when it is asked. Linear
    /// throughout.
    ///
    /// Stability keeps rows that tie on the columns sorted so far in
    /// storage order. So when the rows already ascend in storage order
    /// (every projection leaves them so), a tail of `order` that lists
    /// its columns in storage order needs no pass: only the columns
    /// before it are sorted.
    fn order_rows(&mut self, order: &[usize], dedup: bool) {
        let cols: Vec<&[u32]> = order.iter().map(|&p| &*self.cols[p]).collect();
        let (ascending, distinct) = ascent(&cols, self.rows);
        if ascending && (distinct || !dedup) {
            return;
        }
        if let (&[p], true) = (order, dedup) {
            // One column to deduplicate: its distinct codes, sort-free.
            let codes = ones(&code_bitmap(cols[0], dense_len(cols[0]))).collect::<Vec<_>>();
            self.rows = codes.len();
            self.cols[p] = Column::from(codes);
            return;
        }
        let mut perm: Vec<u32> = (0..self.rows as u32).collect();
        if !ascending {
            // Rows that ascend in storage order but not in `order` mean
            // `order` is not the storage order: its ascending tail is
            // shorter than it.
            let tail = 1 + order.windows(2).rev().take_while(|w| w[0] < w[1]).count();
            let storage: Vec<&[u32]> = self.cols.iter().map(|c| &**c).collect();
            let keys = if ascent(&storage, self.rows).0 {
                &cols[..order.len() - tail]
            } else {
                &cols[..]
            };
            for col in keys.iter().rev() {
                radix_sort_rows(&mut perm, |r| u64::from(col[r as usize]));
            }
        }
        if dedup {
            perm.dedup_by(|later, first| cmp_on(&cols, *first as usize, *later as usize).is_eq());
        }
        *self = self.gather(&perm, 0..self.arity());
    }

    /// Sort rows by the given key columns, ties broken by the full row
    /// (deterministic).
    /// Linear: a scan when the rows already ascend in that order,
    /// otherwise a stable radix sort over their codes.
    pub fn sort_by_cols(&mut self, keys: &[usize]) {
        // Key columns first, then every other column in storage order:
        // among rows equal on the keys, that is the full-row order.
        let mut order = keys.to_vec();
        order.extend((0..self.arity()).filter(|p| !keys.contains(p)));
        self.order_rows(&order, false);
    }

    /// Sort by the full row and remove duplicate rows (set semantics,
    /// matching [`Relation::normalize`](crate::Relation::normalize)).
    /// Linear — and copy-free — when the rows are already sorted and
    /// distinct, as every snapshot relation is.
    pub fn normalize(&mut self) {
        let order: Vec<usize> = (0..self.arity()).collect();
        self.order_rows(&order, true);
    }

    /// Projection π onto `positions` (sorted + deduplicated), matching
    /// [`Relation::project`](crate::Relation::project), for rows in any
    /// order. Onto a prefix of the columns of rows that ascend and repeat
    /// there — a normalized relation's — one pass keeps each row that
    /// differs from its predecessor. Any other projection copies its
    /// columns and [`normalizes`](EncodedRelation::normalize) them: rows
    /// that already ascend, distinct, stay as they are (a mapped column
    /// stays mapped).
    pub fn project(&self, positions: &[usize]) -> EncodedRelation {
        let cols: Vec<&[u32]> = positions.iter().map(|&p| &*self.cols[p]).collect();
        let prefix = positions.iter().copied().eq(0..positions.len());
        if prefix && ascent(&cols, self.rows) == (true, false) {
            let first = |&r: &u32| r == 0 || cmp_on(&cols, r as usize - 1, r as usize).is_ne();
            let keep: Vec<u32> = (0..self.rows as u32).filter(first).collect();
            return self.gather(&keep, positions.iter().copied());
        }
        let mut out = EncodedRelation {
            rows: self.rows,
            cols: positions.iter().map(|&p| self.cols[p].clone()).collect(),
        };
        out.normalize();
        out
    }

    /// Semijoin ⋉: which rows of `self` have a key (codes at
    /// `self_keys`) among `other`'s keys (codes at `other_keys`).
    /// `None` when every row does — no row list and no copy, so a
    /// caller holding a borrowed or mapped relation keeps it as it is —
    /// and otherwise `Some(keep)`, the surviving rows ascending, for
    /// [`EncodedRelation::retain_rows`]. With no key columns every row
    /// survives iff `other` has one.
    ///
    /// Cost: [`key_ids`] over the two key column lists, then one bitmap
    /// of `other`'s ids (`len` bits) and one bit test per row of `self`.
    ///
    /// # Panics
    /// Panics if the key lists have different lengths.
    pub fn semijoin_plan(
        &self,
        self_keys: &[usize],
        other: &EncodedRelation,
        other_keys: &[usize],
    ) -> Option<Vec<u32>> {
        assert_eq!(
            self_keys.len(),
            other_keys.len(),
            "semijoin key length mismatch"
        );
        if other.rows == 0 && self.rows > 0 {
            return Some(Vec::new());
        }
        if self.rows == 0 || self_keys.is_empty() {
            return None;
        }
        let ids = key_ids(self, self_keys, other, other_keys);
        let (probe, bits) = (&*ids.probe, code_bitmap(&ids.build, ids.len));
        let hit = |r: &u32| {
            let id = probe[*r as usize];
            bits.get(id as usize >> 6)
                .is_some_and(|word| word >> (id & 63) & 1 == 1)
        };
        // Nothing is allocated until the first row that misses.
        let first_miss = (0..self.rows as u32).find(|r| !hit(r))?;
        let mut keep: Vec<u32> = (0..first_miss).collect();
        keep.extend((first_miss + 1..self.rows as u32).filter(hit));
        Some(keep)
    }

    /// Rebase every code through `remap` (`remap[old_code] = new_code`),
    /// producing the encoding this relation would have under a rebased
    /// dictionary (see [`crate::dict::DictDelta::Rebased`]).
    ///
    /// This is a pure integer gather, **not** an encoding: no value is
    /// hashed or compared and [`relation_encode_count`] does not move.
    /// Because the remap is strictly monotone, row order, sortedness
    /// and distinctness are all preserved.
    ///
    /// # Panics
    /// Panics if some code has no remap entry.
    pub(crate) fn remapped(&self, remap: &[u32]) -> EncodedRelation {
        EncodedRelation {
            rows: self.rows,
            cols: self
                .cols
                .iter()
                .map(|c| Column::from(c.iter().map(|&x| remap[x as usize]).collect::<Vec<u32>>()))
                .collect(),
        }
    }

    /// The normalized encoding of this (normalized, arity ≥ 1) relation
    /// after a batch of row operations, under a dictionary that may
    /// have been rebased in between — the delta-freeze merge.
    ///
    /// `rows` holds the operations' code rows under the *new*
    /// dictionary, row-major, strictly ascending; `present[j]` says
    /// whether row `j` ends up in the relation (an insert) or out of it
    /// (a delete). `remap` is the rebase remap for this relation's own
    /// codes, `None` when they are still valid. Inserting a row already
    /// here and deleting one that is not are no-ops.
    ///
    /// Each operation is placed by binary search; the columns are then
    /// walked once — remapped while they are copied, whatever kind of
    /// column holds them — dropping deleted rows and splicing inserted
    /// ones. O(m log n) comparisons for m operations plus one copy of
    /// the n rows; no value is hashed. Counts as one encoding in
    /// [`relation_encode_count`]: it stands in for re-encoding the
    /// relation.
    pub(crate) fn merged(
        &self,
        remap: Option<&[u32]>,
        rows: &[u32],
        present: &[bool],
    ) -> EncodedRelation {
        ENCODE_CALLS.fetch_add(1, AtomicOrdering::Relaxed);
        let arity = self.arity();
        assert!(arity > 0, "a merge needs a column to order by");
        assert_eq!(rows.len(), present.len() * arity, "arity mismatch");
        debug_assert!(rows
            .chunks(arity)
            .zip(rows.chunks(arity).skip(1))
            .all(|(a, b)| a < b));
        let code = |c: u32| remap.map_or(c, |m| m[c as usize]);
        let cmp_row = |r: usize, op: &[u32]| {
            (0..arity)
                .map(|p| code(self.cols[p][r]).cmp(&op[p]))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        };

        // Where each effective operation lands: `(row, Some(j))` splices
        // operation `j` in before parent row `row`, `(row, None)` drops
        // parent row `row`. Operations ascend, so do their positions.
        let mut edits: Vec<(usize, Option<usize>)> = Vec::new();
        let mut lo = 0;
        for (j, op) in rows.chunks(arity).enumerate() {
            let (mut a, mut b) = (lo, self.rows);
            while a < b {
                let mid = a + (b - a) / 2;
                if cmp_row(mid, op).is_lt() {
                    a = mid + 1;
                } else {
                    b = mid;
                }
            }
            lo = a;
            let here = a < self.rows && cmp_row(a, op).is_eq();
            match (present[j], here) {
                (true, false) => edits.push((a, Some(j))),
                (false, true) => edits.push((a, None)),
                _ => {}
            }
        }

        let spliced = edits.iter().filter(|e| e.1.is_some()).count();
        let dropped = edits.len() - spliced;
        let out_rows = self.rows + spliced - dropped;
        let cols = (0..arity)
            .map(|p| {
                let src = &*self.cols[p];
                let mut out: Vec<u32> = Vec::with_capacity(out_rows);
                let mut at = 0;
                for &(row, splice) in &edits {
                    extend_remapped(&mut out, &src[at..row], remap);
                    at = row;
                    match splice {
                        Some(j) => out.push(rows[j * arity + p]),
                        None => at += 1,
                    }
                }
                extend_remapped(&mut out, &src[at..], remap);
                Column::from(out)
            })
            .collect();
        EncodedRelation {
            rows: out_rows,
            cols,
        }
    }

    /// Rows `lo..hi` as a fresh relation (same arity). A pure columnar
    /// copy for owned columns — and a **zero-copy narrowed view** for
    /// mapped ones; either way no value is hashed or compared and
    /// [`relation_encode_count`] does not move.
    ///
    /// # Panics
    /// Panics when `lo > hi` or `hi > len()`.
    pub(crate) fn slice_rows(&self, lo: usize, hi: usize) -> EncodedRelation {
        assert!(
            lo <= hi && hi <= self.rows,
            "slice {lo}..{hi} out of bounds"
        );
        EncodedRelation {
            rows: hi - lo,
            cols: self.cols.iter().map(|c| c.slice(lo, hi)).collect(),
        }
    }

    /// Keep rows whose code at `pos` lies in `[lo, hi)` (`hi = None`
    /// means unbounded above). When `pos` is the leading column of a
    /// normalized relation the surviving rows are one contiguous slice
    /// found by binary search; otherwise a linear filter. Not an
    /// encoding: [`relation_encode_count`] does not move.
    pub fn filter_col_range(&self, pos: usize, lo: u32, hi: Option<u32>) -> EncodedRelation {
        let c = &self.cols[pos];
        let in_range = |x: u32| x >= lo && hi.is_none_or(|h| x < h);
        if pos == 0 && c.windows(2).all(|w| w[0] <= w[1]) {
            let a = c.partition_point(|&x| x < lo);
            let b = hi.map_or(self.rows, |h| c.partition_point(|&x| x < h));
            return self.slice_rows(a, b.max(a));
        }
        let keep: Vec<u32> = (0..self.rows as u32)
            .filter(|&r| in_range(c[r as usize]))
            .collect();
        self.gather(&keep, 0..self.arity())
    }

    /// Decode row `row` back into an owned [`Tuple`].
    pub fn decode_row(&self, row: usize, dict: &Dictionary) -> Tuple {
        self.cols
            .iter()
            .map(|c| dict.value(c[row]).clone())
            .collect()
    }
}

/// The id of a probe row whose join key no build row carries.
const NO_KEY: u32 = u32::MAX;

/// Dense ids for the join key of two relations, from [`key_ids`].
#[derive(Debug)]
pub struct KeyIds<'a> {
    /// One id per probe row.
    pub probe: Cow<'a, [u32]>,
    /// One id per build row, each below `len`.
    pub build: Cow<'a, [u32]>,
    /// The length of a table indexed by build ids.
    pub len: usize,
}

/// Ids for the join key of `probe`'s rows (codes at `probe_keys`) and
/// `build`'s rows (codes at `build_keys`):
///
/// * rows that agree on every key column get equal ids, and a build
///   row shares its id only with rows that agree with it;
/// * every build id is below `len`, so anything keyed by the join key
///   is a flat table;
/// * a probe row that agrees with no build row gets an id no build
///   row has;
/// * no key columns: every row gets id 0, and `len` is 1;
/// * one key column: the codes are the ids, **borrowed**, and `len` is
///   one past the largest build code.
///
/// Cost, for `n` probe and `m` build rows: nothing for no key column,
/// one scan of the build codes for one. Each further column is folded
/// into the ids as `(id << 32) | code` words: `build`'s words are
/// radix-sorted unless they already ascend and ranked in one walk,
/// then `probe`'s words are merged against the distinct ones when they
/// ascend, O(n + m), and binary-searched among them otherwise,
/// O(n log m).
///
/// # Panics
/// Panics if the key lists have different lengths.
pub fn key_ids<'a>(
    probe: &'a EncodedRelation,
    probe_keys: &[usize],
    build: &'a EncodedRelation,
    build_keys: &[usize],
) -> KeyIds<'a> {
    assert_eq!(
        probe_keys.len(),
        build_keys.len(),
        "join key length mismatch"
    );
    let (Some((&p0, p_rest)), Some((&b0, b_rest))) =
        (probe_keys.split_first(), build_keys.split_first())
    else {
        return KeyIds {
            probe: vec![0; probe.rows].into(),
            build: vec![0; build.rows].into(),
            len: 1,
        };
    };
    let mut ids = KeyIds {
        probe: Cow::Borrowed(probe.col(p0)),
        build: Cow::Borrowed(build.col(b0)),
        len: dense_len(build.col(b0)),
    };
    for (&p, &b) in p_rest.iter().zip(b_rest) {
        ids = fold_column(&ids, probe.col(p), build.col(b));
    }
    ids
}

/// [`key_ids`]' step from a key to the key one column wider: each
/// row's `(id, code)` word ranked among the build's distinct words.
fn fold_column(ids: &KeyIds<'_>, probe: &[u32], build: &[u32]) -> KeyIds<'static> {
    let word = |(&id, &code): (&u32, &u32)| u64::from(id) << 32 | u64::from(code);
    let words: Vec<u64> = ids.build.iter().zip(build).map(word).collect();
    let mut sorted: Vec<u32> = (0..words.len() as u32).collect();
    if !words.is_sorted() {
        radix_sort_rows(&mut sorted, |r| words[r as usize]);
    }
    let mut distinct: Vec<u64> = Vec::new();
    let mut build_ids = vec![0u32; words.len()];
    for &r in &sorted {
        let w = words[r as usize];
        if distinct.last() != Some(&w) {
            distinct.push(w);
        }
        build_ids[r as usize] = distinct.len() as u32 - 1;
    }
    let probe_words: Vec<u64> = ids.probe.iter().zip(probe).map(word).collect();
    let id_at = |at: usize, w: u64| match distinct.get(at) {
        Some(&d) if d == w => at as u32,
        _ => NO_KEY,
    };
    let probe_ids: Vec<u32> = if probe_words.is_sorted() {
        let mut j = 0;
        let mut merge = |w: u64| {
            j += distinct[j..].iter().take_while(|&&d| d < w).count();
            id_at(j, w)
        };
        probe_words.iter().map(|&w| merge(w)).collect()
    } else {
        let search = |w: u64| id_at(distinct.partition_point(|&d| d < w), w);
        probe_words.iter().map(|&w| search(w)).collect()
    };
    KeyIds {
        probe: probe_ids.into(),
        build: build_ids.into(),
        len: distinct.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::RankedRelation;
    use crate::relation::Relation;
    use crate::tup;

    /// `rels` encoded cell by cell under the freeze kernel's dictionary
    /// over them, rows in stored order, duplicates kept.
    fn encode(rels: &[&Relation]) -> (Dictionary, Vec<EncodedRelation>) {
        let ranked: Vec<RankedRelation> = rels.iter().map(|r| RankedRelation::new(r)).collect();
        let dict = Dictionary::from_ranked(&ranked);
        let encode = |r: &&Relation| {
            let mut row = Vec::new();
            let rows: Rows = r
                .tuples()
                .iter()
                .map(|t| {
                    assert!(dict.encode_tuple_into(t, &mut row));
                    row.clone()
                })
                .collect();
            relation_of(r.arity(), &rows)
        };
        let encs = rels.iter().map(encode).collect();
        (dict, encs)
    }

    fn setup() -> (Dictionary, EncodedRelation) {
        let rel =
            Relation::from_tuples("R", 2, vec![tup![1, 5], tup![1, 2], tup![6, 2], tup![1, 2]]);
        let (dict, mut encs) = encode(&[&rel]);
        (dict, encs.remove(0))
    }

    #[test]
    fn encode_preserves_cells() {
        let (dict, enc) = setup();
        assert_eq!(enc.len(), 4);
        assert_eq!(enc.arity(), 2);
        assert_eq!(enc.decode_row(0, &dict), tup![1, 5]);
        assert_eq!(enc.decode_row(2, &dict), tup![6, 2]);
    }

    #[test]
    fn normalize_matches_relation_normalize() {
        let (dict, mut enc) = setup();
        enc.normalize();
        let decoded: Vec<Tuple> = (0..enc.len()).map(|r| enc.decode_row(r, &dict)).collect();
        assert_eq!(decoded, vec![tup![1, 2], tup![1, 5], tup![6, 2]]);
    }

    #[test]
    fn project_dedups_and_sorts() {
        let (dict, enc) = setup();
        let p = enc.project(&[0]);
        let decoded: Vec<Tuple> = (0..p.len()).map(|r| p.decode_row(r, &dict)).collect();
        assert_eq!(decoded, vec![tup![1], tup![6]]);
    }

    #[test]
    fn sort_by_cols_orders_by_key_then_row() {
        let (dict, mut enc) = setup();
        enc.sort_by_cols(&[1]);
        let decoded: Vec<Tuple> = (0..enc.len()).map(|r| enc.decode_row(r, &dict)).collect();
        assert_eq!(
            decoded,
            vec![tup![1, 2], tup![1, 2], tup![6, 2], tup![1, 5]]
        );

        // Five columns, codes in all three radix digits, one constant
        // column, every row twice; the rows in descending order, then
        // ascending (where stability lets an ascending tail of the
        // order go unsorted).
        let mut rows: Rows = (0..40u32)
            .rev()
            .map(|i| {
                let wide = (i % 4) << 22 | (i % 3) << 11 | (i % 5);
                vec![i % 2, wide, 7, i.wrapping_mul(2_654_435_761) >> 8, i % 3]
            })
            .flat_map(|r| [r.clone(), r])
            .collect();
        for ascending in [false, true] {
            if ascending {
                rows.sort();
            }
            for keys in [vec![3, 0], vec![1], vec![4, 2, 0], vec![2, 4], vec![]] {
                let mut enc = relation_of(5, &rows);
                enc.sort_by_cols(&keys);
                let mut model = rows.clone();
                model.sort_by_key(|r| (pick(r, &keys), r.clone()));
                assert_eq!(rows_of(&enc), model, "keys {keys:?}");
            }
        }
    }

    #[test]
    fn radix_sort_rows_is_a_stable_sort() {
        let mut draw = Draw::new(7);
        // Keys that differ in no digit, in the low digit only, in two
        // middle digits only, in the top bit only, and in all six
        // digits; a quarter of them share one key.
        for mask in [0, 0x7ff, 0xffff << 30, 1 << 63, u64::MAX] {
            let keys: Vec<u64> = (0..300)
                .map(|_| {
                    let k = draw.0.next_u64() & mask;
                    if draw.below(4) == 0 {
                        mask / 2
                    } else {
                        k
                    }
                })
                .collect();
            let mut rows: Vec<u32> = (0..keys.len() as u32).rev().collect();
            let mut model = rows.clone();
            model.sort_by_key(|&r| keys[r as usize]);
            radix_sort_rows(&mut rows, |r| keys[r as usize]);
            assert_eq!(rows, model, "mask {mask:#x}");
        }
        let mut none: Vec<u32> = Vec::new();
        radix_sort_rows(&mut none, u64::from);
        assert!(none.is_empty());
    }

    #[test]
    fn semijoin_matches_relation_semijoin() {
        // The dictionary must cover both sides; build it over the union.
        let r = Relation::from_tuples("R", 2, vec![tup![1, 5], tup![1, 2], tup![6, 2], tup![1, 2]]);
        let s = Relation::from_tuples("S", 2, vec![tup![5, 3], tup![5, 4]]);
        let (dict, encs) = encode(&[&r, &s]);
        let enc = semijoined(&encs[0], &[1], &encs[1], &[0]);
        let decoded: Vec<Tuple> = (0..enc.len()).map(|r| enc.decode_row(r, &dict)).collect();
        assert_eq!(decoded, vec![tup![1, 5]]);
    }

    #[test]
    fn semijoin_on_empty_keys_keeps_all_iff_other_nonempty() {
        let (_, enc) = setup();
        let other = EncodedRelation::new(0);
        assert!(semijoined(&enc, &[], &other, &[]).is_empty());

        let other = EncodedRelation::from_owned_columns(1, Vec::new());
        assert_eq!(enc.semijoin_plan(&[], &other, &[]), None);
    }

    /// `rel ⋉ other` on the given key columns.
    fn semijoined(
        rel: &EncodedRelation,
        keys: &[usize],
        other: &EncodedRelation,
        other_keys: &[usize],
    ) -> EncodedRelation {
        let mut out = rel.clone();
        if let Some(keep) = rel.semijoin_plan(keys, other, other_keys) {
            out.retain_rows(&keep);
        }
        out
    }

    // ("remapped never bumps relation_encode_count" is asserted in
    // tests/updates.rs, which serializes on a mutex — the process-wide
    // counter cannot be exactly asserted from parallel unit tests.)
    #[test]
    fn remapped_is_a_pure_gather() {
        let (_, mut enc) = setup();
        enc.normalize();
        // Shift every code up by one (as if one value was inserted below
        // the whole domain).
        let remap: Vec<u32> = (1..=4).collect();
        let out = enc.remapped(&remap);
        assert_eq!(out.len(), enc.len());
        for r in 0..enc.len() {
            for p in 0..enc.arity() {
                assert_eq!(out.code(r, p), enc.code(r, p) + 1);
            }
        }
    }

    #[test]
    fn filter_col_range_matches_linear_filter() {
        let (_, mut enc) = setup();
        enc.normalize(); // rows (0,1),(0,2),(3,1)
                         // Sorted leading column: binary-search fast path.
        let f = enc.filter_col_range(0, 0, Some(1));
        assert_eq!(f.len(), 2);
        let f = enc.filter_col_range(0, 1, None);
        assert_eq!(f.col(0), &[3]);
        // Non-leading column: linear path.
        let f = enc.filter_col_range(1, 1, Some(2));
        assert_eq!(f.len(), 2);
        assert_eq!(f.col(1), &[1, 1]);
        // Empty range.
        assert!(enc.filter_col_range(0, 7, Some(7)).is_empty());
    }

    #[test]
    fn slice_rows_copies_the_range() {
        let (_, mut enc) = setup();
        enc.normalize();
        let s = enc.slice_rows(1, 3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.col(0), &enc.col(0)[1..3]);
        assert!(enc.slice_rows(3, 3).is_empty());
    }

    // ---- The relation kernels against a naive set model ------------

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    type Rows = Vec<Vec<u32>>;

    /// `rows` as a relation's owned columns, in the order given.
    fn relation_of(arity: usize, rows: &Rows) -> EncodedRelation {
        let cols = (0..arity)
            .map(|p| rows.iter().map(|r| r[p]).collect())
            .collect();
        EncodedRelation::from_owned_columns(rows.len(), cols)
    }

    fn rows_of(rel: &EncodedRelation) -> Rows {
        (0..rel.len())
            .map(|r| (0..rel.arity()).map(|p| rel.code(r, p)).collect())
            .collect()
    }

    fn pick(row: &[u32], positions: &[usize]) -> Vec<u32> {
        positions.iter().map(|&p| row[p]).collect()
    }

    fn mapped_columns(rel: &EncodedRelation) -> usize {
        rel.cols
            .iter()
            .filter(|c| matches!(c, Column::Mapped(_)))
            .count()
    }

    /// Deterministic draws for one case.
    struct Draw(StdRng);

    impl Draw {
        fn new(case: u64) -> Draw {
            Draw(StdRng::seed_from_u64(case))
        }

        fn below(&mut self, n: usize) -> usize {
            self.0.random_range(0..n)
        }

        /// `n` positions of `0..arity`, repeats allowed.
        fn positions(&mut self, n: usize, arity: usize) -> Vec<usize> {
            (0..n).map(|_| self.below(arity)).collect()
        }

        /// Random rows over one of the first `universes` of four code
        /// universes — a handful of codes (duplicate keys everywhere), a
        /// dozen, sixteen codes spread far above any row count (what
        /// sizes the bitmaps), or any code below 2²⁴ (three radix
        /// digits) — as drawn, already sorted and distinct,
        /// reverse-sorted, or one row repeated.
        fn rows(&mut self, arity: usize, universes: usize) -> Rows {
            let n = self.below(33);
            let universe = self.below(universes);
            let mut rows: Rows = (0..n)
                .map(|_| {
                    (0..arity)
                        .map(|_| match universe {
                            0 => self.below(3) as u32,
                            1 => self.below(12) as u32,
                            2 => self.below(16) as u32 * 65_537 + 9,
                            _ => self.below(1 << 24) as u32,
                        })
                        .collect()
                })
                .collect();
            match self.below(4) {
                0 => {}
                1 => {
                    rows = rows
                        .into_iter()
                        .collect::<BTreeSet<_>>()
                        .into_iter()
                        .collect()
                }
                2 => {
                    rows.sort();
                    rows.reverse();
                }
                _ => {
                    if let Some(first) = rows.first() {
                        rows = vec![first.clone(); n];
                    }
                }
            }
            rows
        }
    }

    /// Every kernel on `a` (and `a ⋉ b`) against the model computed
    /// from the rows read back out of the relations, whatever kind of
    /// column holds them.
    fn check_kernels(a: &EncodedRelation, b: &EncodedRelation, draw: &mut Draw, case: u64) {
        let (rows_a, rows_b) = (rows_of(a), rows_of(b));
        let set_a: BTreeSet<Vec<u32>> = rows_a.iter().cloned().collect();

        // normalize: the distinct rows, ascending; an input already in
        // that form is left in place (mapped columns stay mapped).
        let mut n = a.clone();
        n.normalize();
        let model: Rows = set_a.iter().cloned().collect();
        assert_eq!(rows_of(&n), model, "normalize, case {case}");
        if rows_a == model {
            assert_eq!(mapped_columns(&n), mapped_columns(a), "case {case}");
        }

        // gather: random rows (repeats, any order; none of an empty
        // relation) onto random columns (repeats, any order; none for
        // arity 0).
        let picked: Vec<u32> = match rows_a.len() {
            0 => Vec::new(),
            n => (0..draw.below(2 * n + 2))
                .map(|_| draw.below(n) as u32)
                .collect(),
        };
        let width = if a.arity() == 0 {
            0
        } else {
            draw.below(a.arity() + 3)
        };
        let onto = draw.positions(width, a.arity().max(1));
        let model: Rows = picked
            .iter()
            .map(|&r| pick(&rows_a[r as usize], &onto))
            .collect();
        let gathered = a.gather(&picked, onto.iter().copied());
        assert_eq!(
            (gathered.len(), gathered.arity()),
            (picked.len(), onto.len()),
            "gather {picked:?} onto {onto:?}, case {case}"
        );
        assert_eq!(
            rows_of(&gathered),
            model,
            "gather {picked:?} onto {onto:?}, case {case}"
        );
        assert_eq!(mapped_columns(&gathered), 0, "case {case}");
        // beside: the same rows gathered onto two halves of the column
        // list, put side by side.
        let (first, second) = onto.split_at(draw.below(onto.len() + 1));
        let halves = a
            .gather(&picked, first.iter().copied())
            .beside(a.gather(&picked, second.iter().copied()));
        assert_eq!(halves, gathered, "beside at {}, case {case}", first.len());

        // project onto random positions (none at all for arity 0).
        let width = if a.arity() == 0 {
            0
        } else {
            draw.below(a.arity() + 2)
        };
        let positions = draw.positions(width, a.arity().max(1));
        let model: BTreeSet<Vec<u32>> = rows_a.iter().map(|r| pick(r, &positions)).collect();
        assert_eq!(
            rows_of(&a.project(&positions)),
            model.into_iter().collect::<Rows>(),
            "project {positions:?}, case {case}"
        );

        // sort_by_cols on distinct key columns: same rows, ordered by
        // the keys and then by the full row.
        let keys: Vec<usize> = (0..a.arity()).filter(|_| draw.below(2) == 0).collect();
        let mut sorted = a.clone();
        sorted.sort_by_cols(&keys);
        let mut model = rows_a.clone();
        model.sort_by_key(|r| (pick(r, &keys), r.clone()));
        assert_eq!(
            rows_of(&sorted),
            model,
            "sort_by_cols {keys:?}, case {case}"
        );

        // semijoin and key_ids on 0..=5 key columns, repeats allowed (0
        // only when a side has none).
        let width = if a.arity() == 0 || b.arity() == 0 {
            0
        } else {
            draw.below(6)
        };
        let self_keys = draw.positions(width, a.arity().max(1));
        let other_keys = draw.positions(width, b.arity().max(1));
        let what = format!("{self_keys:?} ⋉ {other_keys:?}, case {case}");
        let wanted: BTreeSet<Vec<u32>> = rows_b.iter().map(|r| pick(r, &other_keys)).collect();
        let keep: Vec<u32> = (0..rows_a.len() as u32)
            .filter(|&r| wanted.contains(&pick(&rows_a[r as usize], &self_keys)))
            .collect();
        let plan = a.semijoin_plan(&self_keys, b, &other_keys);
        if keep.len() == rows_a.len() {
            assert_eq!(plan, None, "semijoin {what}");
        } else {
            assert_eq!(plan.as_deref(), Some(&keep[..]), "semijoin {what}");
        }
        let joined = semijoined(a, &self_keys, b, &other_keys);
        let model: Rows = keep.iter().map(|&r| rows_a[r as usize].clone()).collect();
        assert_eq!(rows_of(&joined), model, "semijoin {what}");
        if keep.len() == rows_a.len() {
            // Nothing removed: nothing copied.
            assert_eq!(mapped_columns(&joined), mapped_columns(a), "{what}");
        }

        // key_ids as the columns come, and with both sides sorted by
        // their key (the merge and sort-free paths).
        check_key_ids(a, &self_keys, b, &other_keys, &what);
        let by_key = |rel: &EncodedRelation, keys: &[usize]| {
            let mut firsts = keys.to_vec();
            firsts.dedup();
            let mut sorted = rel.clone();
            sorted.sort_by_cols(&firsts);
            sorted
        };
        let (sa, sb) = (by_key(a, &self_keys), by_key(b, &other_keys));
        check_key_ids(&sa, &self_keys, &sb, &other_keys, &format!("sorted {what}"));
    }

    /// [`key_ids`] against its contract, pair by pair of rows.
    fn check_key_ids(
        a: &EncodedRelation,
        self_keys: &[usize],
        b: &EncodedRelation,
        other_keys: &[usize],
        what: &str,
    ) {
        let ids = key_ids(a, self_keys, b, other_keys);
        let (keys_a, keys_b): (Rows, Rows) = (
            rows_of(a).iter().map(|r| pick(r, self_keys)).collect(),
            rows_of(b).iter().map(|r| pick(r, other_keys)).collect(),
        );
        assert_eq!(ids.probe.len(), keys_a.len(), "key_ids {what}");
        assert_eq!(ids.build.len(), keys_b.len(), "key_ids {what}");
        assert!(
            ids.build.iter().all(|&id| (id as usize) < ids.len),
            "key_ids {what}"
        );
        match self_keys.len() {
            0 => assert_eq!(ids.len, 1, "key_ids {what}"),
            1 => assert!(
                matches!(
                    (&ids.probe, &ids.build),
                    (Cow::Borrowed(_), Cow::Borrowed(_))
                ),
                "key_ids {what}: one column is borrowed"
            ),
            _ => {}
        }
        for (r, &id) in ids.probe.iter().enumerate() {
            for (s, &other) in ids.build.iter().enumerate() {
                let same = keys_a[r] == keys_b[s];
                assert_eq!(id == other, same, "key_ids {what}: probe {r}, build {s}");
            }
            for (s, &other) in ids.probe.iter().enumerate() {
                if keys_a[r] == keys_a[s] {
                    assert_eq!(id, other, "key_ids {what}: probes {r}, {s}");
                }
            }
        }
        for (r, &id) in ids.build.iter().enumerate() {
            for (s, &other) in ids.build.iter().enumerate() {
                let same = keys_b[r] == keys_b[s];
                assert_eq!(id == other, same, "key_ids {what}: builds {r}, {s}");
            }
        }
    }

    /// `parent`, normalized, merged with `ops` (new-code rows and
    /// whether each ends up present) under `remap` — against the same
    /// edit made on a set of rows.
    fn check_merge(
        arity: usize,
        parent: &Rows,
        ops: &[(Vec<u32>, bool)],
        remap: Option<&[u32]>,
        what: &str,
    ) {
        let mut base = relation_of(arity, parent);
        base.normalize();
        let mut model: BTreeSet<Vec<u32>> = rows_of(&base)
            .into_iter()
            .map(|r| {
                r.into_iter()
                    .map(|c| remap.map_or(c, |m| m[c as usize]))
                    .collect()
            })
            .collect();
        // The caller's contract: ascending, one operation per row.
        let ops: std::collections::BTreeMap<&Vec<u32>, bool> =
            ops.iter().map(|(row, present)| (row, *present)).collect();
        let unchanged = ops.iter().all(|(row, &p)| model.contains(*row) == p);
        for (row, &present) in &ops {
            if present {
                model.insert((*row).clone());
            } else {
                model.remove(*row);
            }
        }
        let flat: Vec<u32> = ops.keys().flat_map(|row| row.iter().copied()).collect();
        let present: Vec<bool> = ops.values().copied().collect();
        let merged = base.merged(remap, &flat, &present);
        assert_eq!(
            rows_of(&merged),
            model.into_iter().collect::<Rows>(),
            "{what}"
        );
        assert_eq!(merged.arity(), arity, "{what}");
        if unchanged && remap.is_none() {
            assert_eq!(merged, base, "{what}: nothing to do");
        }
    }

    #[test]
    fn merged_edits_like_a_set() {
        let rows: Rows = vec![vec![1, 5], vec![1, 2], vec![6, 2]];
        let ops = [(vec![3, 1], true), (vec![0, 9], true), (vec![4, 4], false)];
        check_merge(2, &Vec::new(), &ops, None, "empty parent");
        let ops: Vec<_> = rows.iter().map(|r| (r.clone(), false)).collect();
        check_merge(2, &rows, &ops, None, "every row deleted");
        let ops = [(vec![1, 2], true), (vec![1, 3], false), (vec![9, 9], false)];
        check_merge(2, &rows, &ops, None, "present insert, absent deletes");
        check_merge(2, &rows, &[], None, "no operations");

        // Arity 1: edits ahead of, inside and past the parent's rows.
        let ops = [
            (vec![0], true),
            (vec![4], false),
            (vec![5], true),
            (vec![9], true),
        ];
        check_merge(1, &vec![vec![2], vec![4], vec![6]], &ops, None, "arity 1");

        // Arity 3 under a rebase that opens a gap above every old code
        // (c → 2c + 1): the parent is (1,3,5), (1,3,7), (15,1,1).
        let remap: Vec<u32> = (0..8).map(|c| 2 * c + 1).collect();
        let parent = vec![vec![0, 1, 2], vec![0, 1, 3], vec![7, 0, 0]];
        let ops = [
            (vec![0, 0, 0], true),   // ahead of everything
            (vec![1, 3, 6], true),   // into the gap
            (vec![1, 3, 7], false),  // a row that is there
            (vec![15, 1, 1], true),  // already there
            (vec![15, 1, 2], false), // never there
        ];
        check_merge(3, &parent, &ops, Some(&remap), "arity 3, rebased");
        check_merge(3, &parent, &[], Some(&remap), "rebase only");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Random parents (arity 1–4, the first three code universes: a
        /// remap is as long as the largest code), random operations —
        /// half of them aimed at rows the parent holds — with and
        /// without a gap-opening remap.
        #[test]
        fn merged_matches_the_set_model(case in 0u64..u64::MAX) {
            let mut draw = Draw::new(case);
            let arity = 1 + draw.below(4);
            let parent = draw.rows(arity, 3);
            let remap: Option<Vec<u32>> = (draw.below(2) == 0).then(|| {
                let top = parent.iter().flatten().max().map_or(0, |&c| c + 1);
                (0..top).map(|c| 2 * c + 1).collect()
            });
            let fresh = draw.rows(arity, 3);
            let ops: Vec<(Vec<u32>, bool)> = fresh
                .into_iter()
                .map(|row| {
                    let row = if parent.is_empty() || draw.below(2) == 0 {
                        row
                    } else {
                        parent[draw.below(parent.len())]
                            .iter()
                            .map(|&c| remap.as_ref().map_or(c, |m| m[c as usize]))
                            .collect()
                    };
                    (row, draw.below(2) == 0)
                })
                .collect();
            check_merge(arity, &parent, &ops, remap.as_deref(), &format!("case {case}"));
        }
    }

    /// `rows` as a relation of integer values named `name`.
    fn value_relation(name: &str, arity: usize, rows: &Rows) -> Relation {
        let tuples = rows
            .iter()
            .map(|r| r.iter().map(|&c| crate::Value::int(i64::from(c))).collect())
            .collect();
        Relation::from_tuples(name, arity, tuples)
    }

    /// A prefix projection that repeats no row is the prefix's own
    /// columns, so a mapped column stays the file's; one that repeats a
    /// row keeps each first row.
    #[test]
    fn distinct_prefix_projection_stays_mapped() {
        // F(y, z) keyed on y: neither π_y nor π_{y, z} repeats a row.
        let (f_rows, g_rows) = (
            vec![vec![1, 7], vec![2, 7], vec![3, 4]],
            vec![vec![1, 7], vec![1, 8], vec![3, 4]],
        );
        let db = crate::Database::new()
            .with(value_relation("F", 2, &f_rows))
            .with(value_relation("G", 2, &g_rows));
        let path = std::env::temp_dir().join(format!("rda-prefix-{}.rdas", std::process::id()));
        crate::persist::save_snapshot(&db.freeze(), &path).unwrap();
        let opened = crate::persist::open_snapshot(&path);
        let _ = std::fs::remove_file(&path);
        let snap = opened.unwrap();
        let f = snap.encoded("F").unwrap();
        for positions in [&[0][..], &[0, 1]] {
            let pi = f.project(positions);
            assert_eq!(
                rows_of(&pi),
                rows_of(f)
                    .iter()
                    .map(|r| pick(r, positions))
                    .collect::<Rows>()
            );
            if cfg!(target_endian = "little") {
                assert_eq!(mapped_columns(&pi), positions.len());
                for &p in positions {
                    assert_eq!(pi.col(p).as_ptr(), f.col(p).as_ptr(), "{positions:?}.{p}");
                }
            }
        }
        let g = snap.encoded("G").unwrap();
        assert_eq!(
            rows_of(&g.project(&[0])),
            vec![vec![g.code(0, 0)], vec![g.code(2, 0)]]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        /// Owned columns straight from random code rows: arities 0–5,
        /// key widths 0–5, duplicates, empty sides, sparse codes, codes
        /// in all three radix digits, sorted, reverse-sorted and
        /// all-equal inputs.
        #[test]
        fn kernels_match_the_set_model(case in 0u64..u64::MAX) {
            let mut draw = Draw::new(case);
            let (arity_a, arity_b) = (draw.below(6), draw.below(6));
            let a = relation_of(arity_a, &draw.rows(arity_a, 4));
            let b = relation_of(arity_b, &draw.rows(arity_b, 4));
            check_kernels(&a, &b, &mut draw, case);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(60))]

        /// The same checks on `Column::Mapped` inputs: relations saved
        /// to a snapshot file and served back from the mapping.
        #[test]
        fn kernels_match_the_set_model_on_mapped_columns(case in 0u64..u64::MAX) {
            let mut draw = Draw::new(case);
            let (arity_a, arity_b) = (1 + draw.below(5), 1 + draw.below(5));
            let db = crate::Database::new()
                .with(value_relation("A", arity_a, &draw.rows(arity_a, 4)))
                .with(value_relation("B", arity_b, &draw.rows(arity_b, 4)));
            let path = std::env::temp_dir().join(format!(
                "rda-encoded-kernels-{}-{case}.rdas",
                std::process::id()
            ));
            crate::persist::save_snapshot(&db.freeze(), &path).unwrap();
            let opened = crate::persist::open_snapshot(&path);
            let _ = std::fs::remove_file(&path);
            let snap = opened.unwrap();
            let (a, b) = (snap.encoded("A").unwrap(), snap.encoded("B").unwrap());
            if cfg!(target_endian = "little") {
                prop_assert_eq!(mapped_columns(a), arity_a);
            }
            check_kernels(a, b, &mut draw, case);
        }
    }
}
