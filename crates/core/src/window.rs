//! Ranked windows and batched access: the pagination-native layer over
//! every [`DirectAccess`] backend.
//!
//! A logarithmic-time `access(k)` already subsumes selection and
//! enumeration, but serving one tuple per call wastes it: a client
//! paging through ranked answers pays the O(log n) rank bracketing on
//! every row. This module batches that work. [`WindowBuf`] is a
//! reusable, flat, row-major answer buffer; the window methods on
//! [`DirectAccess`] (`access_range`, `top_k`, `page` and their `*_into`
//! variants) fill whole rank ranges at once — natively on the arena
//! structures, which pay the bracketing **once per window** and then
//! walk entries in O(1) amortized per tuple; and [`RankedStream`] turns
//! any prepared plan into a lazy, batch-fetching ranked iterator:
//! answers arrive in order with bounded delay and nothing is
//! materialized beyond the current batch.
//!
//! ```
//! use rda_core::{DirectAccess, Engine, OrderSpec, Policy};
//! use rda_db::Database;
//! use rda_query::{parser::parse, FdSet};
//!
//! let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
//! let db = Database::new()
//!     .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
//!     .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![5, 6], vec![2, 5]]);
//! let engine = Engine::new(db.freeze());
//! let plan = engine
//!     .prepare(&q, OrderSpec::lex(&q, &["x", "y", "z"]), &FdSet::empty(), Policy::Reject)
//!     .unwrap();
//! assert_eq!(plan.top_k(2).len(), 2);           // first page, one bracketing
//! assert_eq!(plan.page(3, 10).len(), 2);        // clamped at len() = 5
//! assert_eq!(plan.stream().count(), 5);         // lazy ranked enumeration
//! ```

use crate::plan::DirectAccess;
use rda_db::{Tuple, Value};

/// A reusable, flat, row-major buffer of ranked answers — the batch
/// currency of the window layer.
///
/// All rows share one arity and live back to back in a single
/// `Vec<Value>`, so refilling an already-grown buffer performs **no
/// heap allocation**: the native window paths clone dictionary-decoded
/// values (`O(1)`, allocation-free — see [`rda_db::Value`]) straight
/// into the reused storage. Rows are borrowed as `&[Value]` slices;
/// convert to owned [`Tuple`]s only when you need them.
#[derive(Debug, Clone, Default)]
pub struct WindowBuf {
    arity: usize,
    rows: usize,
    values: Vec<Value>,
}

impl WindowBuf {
    /// An empty buffer. Capacity grows on first use and is kept across
    /// [`WindowBuf::clear`]/refill cycles.
    pub fn new() -> Self {
        WindowBuf::default()
    }

    /// Drop all rows (capacity is retained).
    pub fn clear(&mut self) {
        self.rows = 0;
        self.arity = 0;
        self.values.clear();
    }

    /// Number of buffered rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` when no rows are buffered.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The shared arity of the buffered rows (0 until the first row is
    /// pushed, unless a backend pre-announced it).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Row `i` as a value slice.
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    pub fn row(&self, i: usize) -> &[Value] {
        assert!(i < self.rows, "row {i} out of bounds (len {})", self.rows);
        &self.values[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterate the rows as value slices.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> {
        (0..self.rows).map(|i| self.row(i))
    }

    /// Row `i` as an owned tuple.
    pub(crate) fn tuple(&self, i: usize) -> Tuple {
        self.row(i).iter().cloned().collect()
    }

    /// All rows as owned tuples, in order.
    pub fn to_tuples(&self) -> Vec<Tuple> {
        (0..self.rows).map(|i| self.tuple(i)).collect()
    }

    /// Append a row (cloning its values).
    ///
    /// # Panics
    /// Panics when `row`'s length differs from the arity of the rows
    /// already buffered.
    pub(crate) fn push_row(&mut self, row: &[Value]) {
        if self.rows == 0 && self.arity == 0 {
            self.arity = row.len();
        }
        assert_eq!(row.len(), self.arity, "row arity mismatch");
        self.values.extend(row.iter().cloned());
        self.rows += 1;
    }

    /// Clear and pre-announce the arity of the rows about to be pushed
    /// — the native fill paths call this before their walk.
    pub(crate) fn begin(&mut self, arity: usize) {
        self.clear();
        self.arity = arity;
    }

    /// Append one row by letting `fill` extend the flat storage with
    /// exactly `arity()` values — the allocation-free emit path of the
    /// native walks.
    pub(crate) fn push_with(&mut self, fill: impl FnOnce(&mut Vec<Value>)) {
        let before = self.values.len();
        fill(&mut self.values);
        debug_assert_eq!(
            self.values.len(),
            before + self.arity,
            "emit wrote arity values"
        );
        self.rows += 1;
    }
}

/// Clamp a rank range to `0..len` in `u64` space (before any cast to
/// `usize`, so huge ranks never truncate on 32-bit targets), collapsing
/// inverted ranges to empty. The one clamping rule every windowed
/// backend shares.
pub(crate) fn clamp_range(range: &std::ops::Range<u64>, len: u64) -> (u64, u64) {
    let hi = range.end.min(len);
    (range.start.min(hi), hi)
}

/// How many answers a [`RankedStream`] fetches per batch.
const DEFAULT_STREAM_BATCH: u64 = 256;

/// A lazy, batch-fetching iterator over the ranked answers of any
/// [`DirectAccess`] backend — the ranked enumeration surface of the
/// engine, and the iterator behind the provided
/// [`DirectAccess::iter`].
///
/// The stream holds a rank cursor and refills an internal [`WindowBuf`]
/// through the backend's windowed access path, so on the native arena
/// structures a full enumeration pays the O(log n) rank bracketing once
/// per **batch** (not once per tuple) and nothing is ever materialized
/// beyond one batch. On the selection backends each batch costs what the
/// backend's per-access guarantee says.
///
/// ## Generation pinning
///
/// A stream borrows its plan, and every plan pins the snapshot
/// generation it was prepared over — so a stream is **immune to
/// concurrent updates**: however many [`crate::Engine::advance`] calls
/// swap the served snapshot mid-stream, the remaining items continue
/// the *same* ranked sequence over the plan's original generation,
/// never a mix of generations. Clients that want the new data ask the
/// engine for a fresh plan and open a new stream (resuming a rank
/// position across generations is the service layer's job — see the
/// `rda_serve` cursor contract).
pub struct RankedStream<'a, A: DirectAccess + ?Sized = dyn DirectAccess + 'a> {
    answers: &'a A,
    batch: WindowBuf,
    /// Next unread row within `batch`.
    pos: usize,
    /// Rank of the first answer not yet fetched into `batch`.
    next_rank: u64,
    exhausted: bool,
}

impl<'a, A: DirectAccess + ?Sized> RankedStream<'a, A> {
    pub(crate) fn new(answers: &'a A, start: u64) -> Self {
        RankedStream {
            answers,
            batch: WindowBuf::new(),
            pos: 0,
            next_rank: start,
            exhausted: false,
        }
    }

    /// The rank the next [`Iterator::next`] call will yield.
    pub fn position(&self) -> u64 {
        self.next_rank - (self.batch.len() - self.pos) as u64
    }

    /// Ensure the internal batch holds an unread row; `false` at the
    /// end of the answers.
    fn refill(&mut self) -> bool {
        while self.pos == self.batch.len() {
            if self.exhausted {
                return false;
            }
            let end = self.next_rank.saturating_add(DEFAULT_STREAM_BATCH);
            let got = self
                .answers
                .access_range_into(self.next_rank..end, &mut self.batch);
            self.next_rank += got;
            self.pos = 0;
            if got < DEFAULT_STREAM_BATCH {
                self.exhausted = true;
            }
            if got == 0 {
                return false;
            }
        }
        true
    }
}

impl<A: DirectAccess + ?Sized> Iterator for RankedStream<'_, A> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        if !self.refill() {
            return None;
        }
        let t = self.batch.tuple(self.pos);
        self.pos += 1;
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_buf_round_trips_rows() {
        let mut b = WindowBuf::new();
        assert!(b.is_empty());
        b.push_row(&[Value::int(1), Value::str("a")]);
        b.push_row(&[Value::int(2), Value::str("b")]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.arity(), 2);
        assert_eq!(b.row(1), &[Value::int(2), Value::str("b")]);
        assert_eq!(b.rows().count(), 2);
        let ts = b.to_tuples();
        assert_eq!(ts[0].values(), &[Value::int(1), Value::str("a")]);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.arity(), 0);
    }

    #[test]
    fn window_buf_handles_arity_zero() {
        let mut b = WindowBuf::new();
        b.begin(0);
        b.push_with(|_| {});
        b.push_with(|_| {});
        assert_eq!(b.len(), 2);
        assert_eq!(b.arity(), 0);
        assert_eq!(b.row(1), &[] as &[Value]);
        assert_eq!(b.rows().count(), 2);
        assert_eq!(b.to_tuples(), vec![Tuple::new(vec![]), Tuple::new(vec![])]);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn window_buf_rejects_mixed_arities() {
        let mut b = WindowBuf::new();
        b.push_row(&[Value::int(1)]);
        b.push_row(&[Value::int(1), Value::int(2)]);
    }
}
