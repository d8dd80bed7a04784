//! Database instances: collections of named relations, plus the
//! mutation log that makes incremental re-freezing
//! ([`crate::Snapshot::freeze_delta`]) possible.

use crate::relation::Relation;
use crate::tuple::Tuple;
use std::collections::hash_map::RandomState;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::Arc;

/// What happened to one relation since the last freeze.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelationDelta {
    /// Tuples appended via [`Database::insert_into`].
    pub inserts: u64,
    /// Tuple occurrences removed via [`Database::delete_from`].
    pub deletes: u64,
    /// `true` when the relation was replaced or handed out mutably
    /// (via [`Database::add`] / [`Database::get_mut`]), so the log can
    /// no longer bound the change.
    pub replaced: bool,
}

/// One relation's log entry: the public counters, and the net rows
/// they changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Logged {
    delta: RelationDelta,
    /// Every tuple an [`Database::insert_into`] or a hitting
    /// [`Database::delete_from`] touched, and whether it is present
    /// afterwards: the last operation on a tuple wins. Complete while
    /// `delta.replaced` is unset, empty once it is set.
    net: BTreeMap<Tuple, bool>,
}

impl Logged {
    /// The log stops bounding the change: forget the net rows.
    fn replace(&mut self) {
        self.delta.replaced = true;
        self.net = BTreeMap::new();
    }

    /// Record one operation on a relation that now holds `len` tuples.
    /// More net rows than rows bound nothing (a full re-encode reads
    /// fewer tuples), so the entry collapses to `replaced` — which also
    /// keeps the log's memory within the data's.
    fn record(&mut self, t: &Tuple, present: bool, len: usize) {
        if self.delta.replaced {
            return;
        }
        match self.net.get_mut(t) {
            Some(p) => *p = present,
            None => {
                self.net.insert(t.clone(), present);
            }
        }
        if self.net.len() > len {
            self.replace();
        }
    }
}

/// The per-relation mutation log: which relations changed — and which
/// of their rows — since this database was last frozen into a
/// snapshot.
///
/// For each dirty relation the log keeps its [`RelationDelta`]
/// counters and its *net rows*: every tuple an insert or a hitting
/// delete touched, and whether it is present afterwards (the last
/// operation on a tuple wins, as it is recorded). A tuple inserted and
/// deleted again stays listed, as absent. A relation whose net rows
/// outnumber its rows, or one replaced wholesale, keeps counters only.
///
/// [`crate::Snapshot::freeze_delta`] consults the log to touch *only*
/// the dirty relations, and only their net rows, and clears it. The
/// log is deliberately conservative — it may over-report, never
/// under-report: it may mark a relation dirty that ended up
/// content-identical (e.g. an insert later deleted), but a relation it
/// calls clean has provably not changed. Replaying a net row the frozen
/// parent already reflects changes nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MutationLog {
    dirty: BTreeMap<String, Logged>,
}

impl MutationLog {
    /// `true` when nothing was mutated since the last freeze.
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }

    /// Number of dirty relations.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// `true` when `name` was mutated since the last freeze.
    pub(crate) fn is_dirty(&self, name: &str) -> bool {
        self.dirty.contains_key(name)
    }

    /// The dirty relations, in name order.
    pub fn dirty_relations(&self) -> impl Iterator<Item = &str> {
        self.dirty.keys().map(String::as_str)
    }

    /// The recorded delta for `name`, when it is dirty.
    pub fn delta(&self, name: &str) -> Option<&RelationDelta> {
        self.dirty.get(name).map(|e| &e.delta)
    }

    /// The net rows of `name` since the last freeze, in tuple order:
    /// each touched tuple and whether it is present afterwards —
    /// `None` when `name` is clean or its change is not bounded by its
    /// rows (`replaced`).
    pub(crate) fn net(&self, name: &str) -> Option<&BTreeMap<Tuple, bool>> {
        self.dirty
            .get(name)
            .filter(|e| !e.delta.replaced)
            .map(|e| &e.net)
    }

    fn entry(&mut self, name: &str) -> &mut Logged {
        self.dirty.entry(name.to_string()).or_default()
    }

    fn clear(&mut self) {
        self.dirty.clear();
    }
}

/// A free slot of a [`RowIndex`]; no row sits at this position.
const EMPTY: u32 = u32::MAX;

#[cfg(test)]
thread_local! {
    /// Slots a [`RowIndex`] visited on this thread: the cost meter of
    /// the mutation path's unit tests.
    static PROBES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Count one slot visit (test builds only).
#[inline]
fn probed() {
    #[cfg(test)]
    PROBES.with(|p| p.set(p.get() + 1));
}

/// Where each row of one relation sits: an open-addressing table of
/// `u32` row positions, keyed by the row's hash and checked against the
/// row itself. It clones no tuple. The table has a power-of-two number
/// of slots and is at most half full, so it costs 8 to 16 B per row.
/// Linear probing, with backward-shift deletion: no tombstones pile up
/// under churn.
#[derive(Debug, Clone)]
struct RowIndex {
    /// Row positions, [`EMPTY`] where free.
    slots: Vec<u32>,
    hasher: RandomState,
}

impl RowIndex {
    /// Index every row of `rows`: one pass.
    fn build(rows: &[Tuple]) -> Self {
        let mut index = RowIndex {
            slots: vec![EMPTY; (2 * rows.len()).next_power_of_two().max(8)],
            hasher: RandomState::new(),
        };
        for (pos, t) in rows.iter().enumerate() {
            index.place(t, pos);
        }
        index
    }

    fn home(&self, t: &Tuple) -> usize {
        self.hasher.hash_one(t) as usize & (self.slots.len() - 1)
    }

    fn next(&self, s: usize) -> usize {
        (s + 1) & (self.slots.len() - 1)
    }

    /// Put position `pos` (whose row is `t`) into the first free slot
    /// of `t`'s probe sequence.
    fn place(&mut self, t: &Tuple, pos: usize) {
        let pos = u32::try_from(pos)
            .ok()
            .filter(|&p| p != EMPTY)
            .expect("a row index holds u32 positions");
        let mut s = self.home(t);
        probed();
        while self.slots[s] != EMPTY {
            s = self.next(s);
            probed();
        }
        self.slots[s] = pos;
    }

    /// Index `rows`' last row, just appended. Past half full, the
    /// table is rebuilt at twice the size: O(1) amortized.
    fn push(&mut self, rows: &[Tuple]) {
        if 2 * rows.len() > self.slots.len() {
            *self = RowIndex::build(rows);
        } else {
            self.place(&rows[rows.len() - 1], rows.len() - 1);
        }
    }

    /// The first slot of `t`'s probe sequence, up to a free one, whose
    /// row position satisfies `hit`.
    fn seek(&self, t: &Tuple, hit: impl Fn(usize) -> bool) -> Option<usize> {
        let mut s = self.home(t);
        loop {
            probed();
            match self.slots[s] {
                EMPTY => return None,
                p if hit(p as usize) => return Some(s),
                _ => s = self.next(s),
            }
        }
    }

    /// The slot whose row equals `t`, if `rows` holds `t`.
    fn find(&self, rows: &[Tuple], t: &Tuple) -> Option<usize> {
        self.seek(t, |p| rows[p] == *t)
    }

    /// Remove the row in slot `s` from `rel` and from the table. The
    /// relation's last row moves into the freed position, and its
    /// entry follows it.
    fn swap_remove(&mut self, rel: &mut Relation, s: usize) {
        let pos = self.slots[s];
        self.vacate(rel.tuples(), s);
        let last = rel.len() - 1;
        if pos as usize != last {
            let m = self
                .seek(&rel.tuples()[last], |p| p == last)
                .expect("every row is indexed");
            self.slots[m] = pos;
        }
        rel.swap_remove(pos as usize);
    }

    /// Free slot `s`, moving back each later entry of its cluster that
    /// may sit there — so every entry stays reachable from its home.
    fn vacate(&mut self, rows: &[Tuple], s: usize) {
        let mask = self.slots.len() - 1;
        let mut hole = s;
        let mut j = self.next(s);
        while self.slots[j] != EMPTY {
            probed();
            let home = self.home(&rows[self.slots[j] as usize]);
            // The entry at `j` may fill the hole unless its home lies
            // cyclically in (hole, j].
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
            j = self.next(j);
        }
        self.slots[hole] = EMPTY;
    }
}

/// One relation of a [`Database`], and the row index its deletes probe.
#[derive(Debug, Clone)]
struct Stored {
    rel: Arc<Relation>,
    /// Built by the relation's first [`Database::delete_from`]; dropped
    /// by every path that may reorder the rows behind its back.
    rows: Option<RowIndex>,
}

/// A database instance `I`: a finite relation per relational symbol.
///
/// The paper measures input size as `n`, the total number of tuples
/// ([`Database::size`]). Unlike the paper's static instance, a
/// [`Database`] is the *mutable source of truth* of the serving
/// lifecycle: [`Database::insert_into`] / [`Database::delete_from`]
/// record their net rows in a [`MutationLog`] so that the next
/// [`crate::Snapshot::freeze_delta`] call pays only for what changed.
///
/// Both cost O(1) expected per row, plus the log's O(log k) for k net
/// rows. The first `delete_from` on a relation indexes its row
/// positions in one O(n) pass; after that a delete probes the index
/// once and moves the relation's last row into each hole, so the order
/// of rows inside a relation is unspecified after a delete — relations
/// have set semantics, and every snapshot normalizes. (Copies of one
/// tuple share a probe sequence: a tuple held c times costs O(c) per
/// copy inserted or deleted.)
///
/// Equality compares relation contents only; the mutation log and the
/// row indexes are bookkeeping, not data.
///
/// Relations are held behind [`Arc`] with **copy-on-write** mutation:
/// cloning a database shares every relation's tuple storage, and only a
/// relation actually mutated afterwards pays for its own copy. A
/// snapshot keeps none of it: it holds the encoded columns only.
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: BTreeMap<String, Stored>,
    log: MutationLog,
}

impl PartialEq for Database {
    fn eq(&self, other: &Self) -> bool {
        self.relations.len() == other.relations.len()
            && self
                .relations
                .iter()
                .zip(&other.relations)
                .all(|((an, a), (bn, b))| an == bn && a.rel == b.rel)
    }
}

impl Eq for Database {}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// A relation known to exist (borrowing the relation map only, so
    /// callers can log beside it).
    fn stored<'a>(
        relations: &'a mut BTreeMap<String, Stored>,
        name: &str,
        op: &str,
    ) -> &'a mut Stored {
        relations
            .get_mut(name)
            .unwrap_or_else(|| panic!("{op}: no relation named {name}"))
    }

    /// Insert (or replace) a relation under its own name. Marks the
    /// relation dirty in the mutation log (its previous encoding, if
    /// any, can no longer be reused).
    pub fn add(&mut self, relation: Relation) -> &mut Self {
        self.log.entry(relation.name()).replace();
        self.relations.insert(
            relation.name().to_string(),
            Stored {
                rel: Arc::new(relation),
                rows: None,
            },
        );
        self
    }

    /// Builder-style [`Database::add`].
    pub fn with(mut self, relation: Relation) -> Self {
        self.add(relation);
        self
    }

    /// Look up a relation by name.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name).map(|s| s.rel.as_ref())
    }

    /// Mutable lookup (copy-on-write: a relation still shared with a
    /// clone of this database is cloned first). Conservatively marks the
    /// relation dirty — the log cannot see what the caller does with
    /// the borrow.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Relation> {
        let stored = self.relations.get_mut(name)?;
        self.log.entry(name).replace();
        stored.rows = None;
        Some(Arc::make_mut(&mut stored.rel))
    }

    /// Append one tuple to the named relation, recording it in the
    /// mutation log's net rows. O(1) expected, plus the log's
    /// O(log k) for k net rows.
    ///
    /// # Panics
    /// Panics if the relation does not exist (create it with
    /// [`Database::add`] first) or on arity mismatch.
    pub fn insert_into(&mut self, name: &str, t: Tuple) {
        let stored = Self::stored(&mut self.relations, name, "insert_into");
        let rel = Arc::make_mut(&mut stored.rel);
        rel.insert(t);
        if let Some(index) = &mut stored.rows {
            index.push(rel.tuples());
        }
        let entry = self.log.entry(name);
        entry.delta.inserts += 1;
        entry.record(&rel.tuples()[rel.len() - 1], true, rel.len());
    }

    /// Remove every occurrence of `t` from the named relation,
    /// recording it in the mutation log's net rows as absent. Returns
    /// how many occurrences were removed (0 when `t` was not present —
    /// which leaves the relation clean and unshared).
    ///
    /// The first delete on a relation indexes its row positions in one
    /// O(n) pass. Every delete then costs one probe of that index, and
    /// O(1) expected per occurrence removed: the relation's last row
    /// moves into the hole, so the order of its rows is unspecified
    /// afterwards.
    ///
    /// # Panics
    /// Panics if the relation does not exist.
    pub fn delete_from(&mut self, name: &str, t: &Tuple) -> u64 {
        let stored = Self::stored(&mut self.relations, name, "delete_from");
        let index = stored
            .rows
            .get_or_insert_with(|| RowIndex::build(stored.rel.tuples()));
        let mut removed = 0;
        while let Some(s) = index.find(stored.rel.tuples(), t) {
            index.swap_remove(Arc::make_mut(&mut stored.rel), s);
            removed += 1;
        }
        if removed > 0 {
            let entry = self.log.entry(name);
            entry.delta.deletes += removed;
            entry.record(t, false, stored.rel.len());
        }
        removed
    }

    /// The mutations recorded since the last freeze.
    pub fn mutation_log(&self) -> &MutationLog {
        &self.log
    }

    /// Forget the recorded mutations. Called by
    /// [`crate::Snapshot::freeze_delta`]; only call it yourself if
    /// you re-baseline the database some other way — a log that
    /// under-reports changes makes the next `freeze_delta` reuse stale
    /// encodings.
    pub fn clear_mutation_log(&mut self) {
        self.log.clear();
    }

    /// Drop a relation from the database, recording the removal in the
    /// mutation log (the next
    /// [`Snapshot::freeze_delta`](crate::Snapshot::freeze_delta) stops
    /// carrying its encoding). Returns `true` when the relation
    /// existed.
    pub fn remove(&mut self, name: &str) -> bool {
        let existed = self.relations.remove(name).is_some();
        if existed {
            self.log.entry(name).replace();
        }
        existed
    }

    /// Freeze this database into an immutable, shareable
    /// [`Snapshot`](crate::Snapshot): intern the whole active domain
    /// into one order-preserving dictionary and dictionary-encode every
    /// relation exactly once. All access-structure builders borrow from
    /// the returned snapshot, so the encoding cost is paid once per
    /// database — not once per prepared query.
    ///
    /// The returned snapshot is **generation 0**; mutate a kept copy of
    /// the database and call
    /// [`Snapshot::freeze_delta`](crate::Snapshot::freeze_delta) to
    /// produce later generations incrementally.
    pub fn freeze(self) -> Arc<crate::Snapshot> {
        crate::Snapshot::new(self)
    }

    /// Total number of tuples (the paper's `n`).
    pub fn size(&self) -> usize {
        self.relations().map(Relation::len).sum()
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Iterate over relations in name order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values().map(|s| s.rel.as_ref())
    }

    /// Normalize every relation (sort + dedup). Does **not** mark
    /// anything dirty: normalization preserves set semantics, and
    /// snapshots encode relations up to set semantics. (Relations
    /// already normalized are left shared; copy-on-write only triggers
    /// where sorting or deduplication actually changes something.)
    pub fn normalize(&mut self) {
        for s in self.relations.values_mut() {
            if !s.rel.is_normalized() {
                Arc::make_mut(&mut s.rel).normalize();
                s.rows = None;
            }
        }
    }

    /// Convenience: build a relation from rows of `i64`s and add it.
    pub fn with_i64_rows(
        self,
        name: &str,
        arity: usize,
        rows: impl IntoIterator<Item = Vec<i64>>,
    ) -> Self {
        let tuples: Vec<Tuple> = rows
            .into_iter()
            .map(|row| row.into_iter().map(crate::Value::int).collect())
            .collect();
        self.with(Relation::from_tuples(name, arity, tuples))
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in self.relations() {
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    #[test]
    fn size_sums_tuples() {
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
            .with_i64_rows("S", 2, vec![vec![5, 3]]);
        assert_eq!(db.size(), 4);
        assert_eq!(db.relation_count(), 2);
    }

    #[test]
    fn get_by_name() {
        let db = Database::new().with_i64_rows("R", 1, vec![vec![1]]);
        assert!(db.get("R").is_some());
        assert!(db.get("S").is_none());
    }

    #[test]
    fn add_replaces_same_name() {
        let mut db = Database::new().with_i64_rows("R", 1, vec![vec![1], vec![2]]);
        db.add(Relation::from_tuples("R", 1, vec![tup![9]]));
        assert_eq!(db.size(), 1);
    }

    #[test]
    fn normalize_all() {
        let mut db = Database::new().with_i64_rows("R", 1, vec![vec![2], vec![1], vec![2]]);
        db.normalize();
        assert_eq!(db.get("R").unwrap().tuples(), &[tup![1], tup![2]]);
    }

    #[test]
    fn mutation_log_tracks_inserts_and_deletes() {
        let mut db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 2], vec![1, 2], vec![3, 4]])
            .with_i64_rows("S", 1, vec![vec![9]]);
        db.clear_mutation_log(); // baseline: `with` marked both dirty
        assert!(db.mutation_log().is_empty());

        db.insert_into("R", tup![5, 6]);
        assert_eq!(db.delete_from("R", &tup![1, 2]), 2);
        assert_eq!(db.delete_from("S", &tup![404]), 0, "miss removes nothing");

        let log = db.mutation_log();
        assert_eq!(log.dirty_count(), 1);
        assert!(log.is_dirty("R"));
        assert!(!log.is_dirty("S"), "a no-op delete leaves S clean");
        let d = log.delta("R").unwrap();
        assert_eq!((d.inserts, d.deletes, d.replaced), (1, 2, false));
        assert_eq!(log.dirty_relations().collect::<Vec<_>>(), vec!["R"]);
    }

    #[test]
    fn replacement_style_mutations_mark_replaced() {
        let mut db = Database::new().with_i64_rows("R", 1, vec![vec![1]]);
        db.clear_mutation_log();
        assert!(db.get_mut("T").is_none());
        assert!(
            !db.mutation_log().is_dirty("T"),
            "missing lookups are clean"
        );
        db.get_mut("R").unwrap().insert(tup![2]);
        assert!(db.mutation_log().delta("R").unwrap().replaced);
        let mut db2 = Database::new().with_i64_rows("S", 1, vec![vec![1]]);
        db2.clear_mutation_log();
        db2.add(Relation::from_tuples("S", 1, vec![tup![7]]));
        assert!(db2.mutation_log().delta("S").unwrap().replaced);
    }

    /// The net rows of `name`, as a list.
    fn net(db: &Database, name: &str) -> Option<Vec<(Tuple, bool)>> {
        let net = db.mutation_log().net(name)?;
        Some(net.iter().map(|(t, &p)| (t.clone(), p)).collect())
    }

    #[test]
    fn net_rows_follow_the_calls_until_replaced_or_cleared() {
        let mut db = Database::new().with_i64_rows("R", 1, vec![vec![1], vec![1], vec![2]]);
        assert!(net(&db, "R").is_none(), "`add` lists nothing");
        db.clear_mutation_log();
        assert!(net(&db, "R").is_none(), "clean");

        db.insert_into("R", tup![3]);
        assert_eq!(db.delete_from("R", &tup![1]), 2, "both occurrences");
        assert_eq!(db.delete_from("R", &tup![404]), 0, "a miss is not logged");
        db.insert_into("R", tup![1]);
        db.insert_into("R", tup![4]);
        assert_eq!(db.delete_from("R", &tup![4]), 1);
        assert_eq!(
            net(&db, "R").unwrap(),
            [(tup![1], true), (tup![3], true), (tup![4], false)],
            "one row per tuple, the last operation wins"
        );

        db.get_mut("R").unwrap();
        assert!(net(&db, "R").is_none());
        assert!(
            db.log.dirty["R"].net.is_empty(),
            "`replaced` drops the rows"
        );
        db.insert_into("R", tup![4]);
        assert!(db.log.dirty["R"].net.is_empty(), "and they stay dropped");
        assert_eq!(db.mutation_log().delta("R").unwrap().inserts, 4);

        db.clear_mutation_log();
        assert!(db.mutation_log().is_empty());
        assert!(db.mutation_log().delta("R").is_none());
        db.insert_into("R", tup![5]);
        assert_eq!(net(&db, "R").unwrap(), [(tup![5], true)]);
    }

    #[test]
    fn more_net_rows_than_rows_collapse_to_replaced() {
        let mut db = Database::new().with_i64_rows("R", 1, vec![vec![1], vec![2]]);
        let snap = db.clone().freeze();
        db.clear_mutation_log();
        db.insert_into("R", tup![3]); // 1 net row, 3 tuples
        assert_eq!(db.delete_from("R", &tup![1]), 1); // 2 net rows, 2 tuples
        assert_eq!(net(&db, "R").unwrap().len(), 2);
        assert_eq!(db.delete_from("R", &tup![2]), 1); // 3 net rows, 1 tuple
        assert!(net(&db, "R").is_none());
        let d = db.mutation_log().delta("R").unwrap();
        assert_eq!((d.inserts, d.deletes, d.replaced), (1, 2, true));
        db.insert_into("R", tup![0]);

        // The next freeze re-encodes R, and serves what a rebuild does.
        let next = snap.freeze_delta(&mut db);
        let r = next.encoded("R").unwrap();
        let rows: Vec<Tuple> = (0..r.len()).map(|i| r.decode_row(i, next.dict())).collect();
        assert_eq!(rows, [tup![0], tup![3]]);
        assert!(db.mutation_log().is_empty());
    }

    /// Slots the row index visits while `f` runs on this thread.
    fn probes_during(f: impl FnOnce()) -> u64 {
        let before = PROBES.with(std::cell::Cell::get);
        f();
        PROBES.with(std::cell::Cell::get) - before
    }

    #[test]
    fn a_write_batch_costs_the_same_probes_at_1k_and_16k_rows() {
        let mut probes = Vec::new();
        for n in [1_000i64, 16_000] {
            let mut db = Database::new().with_i64_rows("R", 2, (0..n).map(|i| vec![i, i % 97]));
            let built = probes_during(|| assert_eq!(db.delete_from("R", &tup![0, 0]), 1));
            assert!(built >= n as u64 - 1, "the first delete indexes every row");
            probes.push(probes_during(|| {
                for i in 0..100 {
                    let row = 1 + i * (n - 1) / 100;
                    assert_eq!(db.delete_from("R", &tup![row, row % 97]), 1);
                    db.insert_into("R", tup![n + i, 0]);
                }
            }));
            assert_eq!(db.size(), n as usize - 1);
        }
        let [small, large] = probes[..] else {
            unreachable!("two sizes")
        };
        // Each delete probes, repoints the moved row and shifts its
        // cluster back; each insert places one entry. None scans.
        assert!(small >= 300 && large >= 300, "probes: {small}, {large}");
        assert!(
            large < 2 * small && small < 2 * large,
            "sixteen times the rows moved the probes {small} -> {large}"
        );
    }

    #[test]
    fn bulk_paths_drop_the_row_index() {
        let indexed = |db: &Database| db.relations["R"].rows.is_some();
        let mut db = Database::new().with_i64_rows("R", 1, vec![vec![1], vec![2], vec![3]]);
        assert!(!indexed(&db), "built lazily");
        db.insert_into("R", tup![4]);
        assert!(!indexed(&db), "an insert builds nothing");
        assert_eq!(db.delete_from("R", &tup![404]), 0);
        assert!(indexed(&db), "the first delete builds it, hit or miss");
        db.normalize();
        assert!(indexed(&db), "normalize keeps it when it changes nothing");
        db.insert_into("R", tup![0]);
        db.normalize();
        assert!(!indexed(&db), "and drops it when it sorts");
        db.delete_from("R", &tup![0]);
        db.get_mut("R").unwrap();
        assert!(!indexed(&db), "`get_mut`");
        db.delete_from("R", &tup![1]);
        db.add(Relation::from_tuples("R", 1, vec![tup![9]]));
        assert!(!indexed(&db), "`add`");
        db.delete_from("R", &tup![9]);
        assert!(db.remove("R") && db.relations.is_empty(), "`remove`");
    }

    #[test]
    #[should_panic(expected = "no relation named")]
    fn insert_into_missing_relation_panics() {
        Database::new().insert_into("nope", tup![1]);
    }

    #[test]
    fn clones_share_relation_storage_until_mutated() {
        let mut db = Database::new()
            .with_i64_rows("R", 1, vec![vec![1]])
            .with_i64_rows("S", 1, vec![vec![2]]);
        let copy = db.clone();
        assert!(
            std::ptr::eq(db.get("R").unwrap(), copy.get("R").unwrap()),
            "a clone shares every relation's storage"
        );
        db.insert_into("R", tup![3]);
        assert!(
            !std::ptr::eq(db.get("R").unwrap(), copy.get("R").unwrap()),
            "mutation copies the touched relation out of the share"
        );
        assert!(
            std::ptr::eq(db.get("S").unwrap(), copy.get("S").unwrap()),
            "untouched relations stay shared"
        );
        assert_eq!(copy.get("R").unwrap().len(), 1, "the clone is isolated");
        // A no-op delete neither copies nor dirties.
        assert_eq!(db.delete_from("S", &tup![404]), 0);
        assert!(std::ptr::eq(db.get("S").unwrap(), copy.get("S").unwrap()));
    }

    #[test]
    fn equality_ignores_the_log() {
        let mut a = Database::new().with_i64_rows("R", 1, vec![vec![1]]);
        let b = a.clone();
        a.clear_mutation_log();
        assert_eq!(a, b, "log state must not affect equality");
    }
}
