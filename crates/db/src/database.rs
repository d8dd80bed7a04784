//! Database instances: collections of named relations, plus the
//! mutation log that makes incremental re-freezing
//! ([`crate::Snapshot::freeze_delta`]) possible.

use crate::relation::Relation;
use crate::tuple::Tuple;
use std::collections::BTreeMap;
use std::fmt;

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

/// One relation's log entry: the public counters, and the tuple
/// operations they count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Logged {
    delta: RelationDelta,
    /// `(tuple, present afterwards)` for every [`Database::insert_into`]
    /// and every [`Database::delete_from`] that hit, in call order.
    /// Complete while `delta.replaced` is unset, empty once it is set.
    ops: Vec<(Tuple, bool)>,
}

impl Logged {
    /// The log stops bounding the change: forget the operations.
    fn replace(&mut self) {
        self.delta.replaced = true;
        self.ops = Vec::new();
    }

    /// Record one operation on a relation that now holds `len` tuples.
    /// A list longer than the relation it describes bounds nothing (a
    /// full re-encode reads fewer tuples), so it collapses to
    /// `replaced` — which also keeps the log's memory within the data's.
    fn record(&mut self, t: &Tuple, present: bool, len: usize) {
        if self.delta.replaced {
            return;
        }
        self.ops.push((t.clone(), present));
        if self.ops.len() > len {
            self.replace();
        }
    }
}

/// The per-relation mutation log: which relations changed — and how,
/// tuple by tuple — since this database was last frozen into a
/// snapshot.
///
/// [`crate::Snapshot::freeze_delta`] consults the log to touch *only*
/// the dirty relations, and only their logged rows, and clears it. The
/// log is deliberately conservative — it may over-report, never
/// under-report: it may mark a relation dirty that ended up
/// content-identical (e.g. an insert later deleted), but a relation it
/// calls clean has provably not changed. At set level the net effect
/// of the logged operations is *the last operation on a tuple wins*,
/// so replaying one the frozen parent already reflects changes nothing.
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

    /// The ordered `(tuple, present afterwards)` operations on `name`
    /// since the last freeze — `None` when `name` is clean or its
    /// change is not bounded by a list (`replaced`).
    pub(crate) fn ops(&self, name: &str) -> Option<&[(Tuple, bool)]> {
        self.dirty
            .get(name)
            .filter(|e| !e.delta.replaced)
            .map(|e| &e.ops[..])
    }

    fn entry(&mut self, name: &str) -> &mut Logged {
        self.dirty.entry(name.to_string()).or_default()
    }

    fn clear(&mut self) {
        self.dirty.clear();
    }
}

/// A database instance `I`: a finite relation per relational symbol.
///
/// The paper measures input size as `n`, the total number of tuples
/// ([`Database::size`]). Unlike the paper's static instance, a
/// [`Database`] is the *mutable source of truth* of the serving
/// lifecycle: [`Database::insert_into`] / [`Database::delete_from`]
/// record their tuples in a [`MutationLog`] so that the next
/// [`crate::Snapshot::freeze_delta`] call pays only for what changed.
///
/// Equality compares relation contents only; the mutation log is
/// bookkeeping, not data.
///
/// Relations are held behind [`Arc`](std::sync::Arc) with
/// **copy-on-write** mutation: cloning a database shares every
/// relation's tuple storage, and only a relation actually mutated
/// afterwards pays for its own copy. A snapshot keeps none of it: it
/// holds the encoded columns only.
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: BTreeMap<String, std::sync::Arc<Relation>>,
    log: MutationLog,
}

impl PartialEq for Database {
    fn eq(&self, other: &Self) -> bool {
        self.relations.len() == other.relations.len()
            && self
                .relations
                .iter()
                .zip(&other.relations)
                .all(|((an, ar), (bn, br))| an == bn && ar == br)
    }
}

impl Eq for Database {}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Copy-on-write mutable access to a relation known to exist
    /// (borrowing the relation map only, so callers can log beside it).
    fn make_mut<'a>(
        relations: &'a mut BTreeMap<String, std::sync::Arc<Relation>>,
        name: &str,
        op: &str,
    ) -> &'a mut Relation {
        std::sync::Arc::make_mut(
            relations
                .get_mut(name)
                .unwrap_or_else(|| panic!("{op}: no relation named {name}")),
        )
    }

    /// Insert (or replace) a relation under its own name. Marks the
    /// relation dirty in the mutation log (its previous encoding, if
    /// any, can no longer be reused).
    pub fn add(&mut self, relation: Relation) -> &mut Self {
        self.log.entry(relation.name()).replace();
        self.relations
            .insert(relation.name().to_string(), std::sync::Arc::new(relation));
        self
    }

    /// Builder-style [`Database::add`].
    pub fn with(mut self, relation: Relation) -> Self {
        self.add(relation);
        self
    }

    /// Look up a relation by name.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name).map(std::sync::Arc::as_ref)
    }

    /// Mutable lookup (copy-on-write: a relation still shared with a
    /// clone of this database is cloned first). Conservatively marks the
    /// relation dirty — the log cannot see what the caller does with
    /// the borrow.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Relation> {
        if self.relations.contains_key(name) {
            self.log.entry(name).replace();
            Some(Self::make_mut(&mut self.relations, name, "get_mut"))
        } else {
            None
        }
    }

    /// Append one tuple to the named relation, recording the insert —
    /// and the tuple — in the mutation log.
    ///
    /// # Panics
    /// Panics if the relation does not exist (create it with
    /// [`Database::add`] first) or on arity mismatch.
    pub fn insert_into(&mut self, name: &str, t: Tuple) {
        let rel = Self::make_mut(&mut self.relations, name, "insert_into");
        rel.insert(t);
        let entry = self.log.entry(name);
        entry.delta.inserts += 1;
        entry.record(&rel.tuples()[rel.len() - 1], true, rel.len());
    }

    /// Remove every occurrence of `t` from the named relation,
    /// recording the deletion — and the tuple — in the mutation log.
    /// Returns how many occurrences were removed (0 when `t` was not
    /// present — which leaves the relation clean).
    ///
    /// # Panics
    /// Panics if the relation does not exist.
    pub fn delete_from(&mut self, name: &str, t: &Tuple) -> u64 {
        let Some(first) = self
            .get(name)
            .unwrap_or_else(|| panic!("delete_from: no relation named {name}"))
            .tuples()
            .iter()
            .position(|x| x == t)
        else {
            return 0; // miss: no copy-on-write, relation stays clean
        };
        let rel = Self::make_mut(&mut self.relations, name, "delete_from");
        let before = rel.len();
        // Nothing ahead of the first occurrence needs a second look.
        let mut seen = 0;
        rel.retain(|x| {
            seen += 1;
            seen <= first || x != t
        });
        let removed = (before - rel.len()) as u64;
        let entry = self.log.entry(name);
        entry.delta.deletes += removed;
        entry.record(t, false, rel.len());
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
        if self.relations.contains_key(name) {
            self.log.entry(name).replace();
        }
        self.relations.remove(name).is_some()
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
    pub fn freeze(self) -> std::sync::Arc<crate::Snapshot> {
        crate::Snapshot::new(self)
    }

    /// Total number of tuples (the paper's `n`).
    pub fn size(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Iterate over relations in name order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values().map(std::sync::Arc::as_ref)
    }

    /// Normalize every relation (sort + dedup). Does **not** mark
    /// anything dirty: normalization preserves set semantics, and
    /// snapshots encode relations up to set semantics. (Relations
    /// already normalized are left shared; copy-on-write only triggers
    /// where sorting or deduplication actually changes something.)
    pub fn normalize(&mut self) {
        for r in self.relations.values_mut() {
            if !r.is_normalized() {
                std::sync::Arc::make_mut(r).normalize();
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
        for r in self.relations.values() {
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

    #[test]
    fn operation_list_follows_the_calls_until_replaced_or_cleared() {
        let mut db = Database::new().with_i64_rows("R", 1, vec![vec![1], vec![1], vec![2]]);
        assert!(db.mutation_log().ops("R").is_none(), "`add` lists nothing");
        db.clear_mutation_log();
        assert!(db.mutation_log().ops("R").is_none(), "clean");

        db.insert_into("R", tup![3]);
        assert_eq!(db.delete_from("R", &tup![1]), 2, "both occurrences");
        assert_eq!(db.delete_from("R", &tup![404]), 0, "a miss is not logged");
        assert_eq!(
            db.mutation_log().ops("R").unwrap(),
            [(tup![3], true), (tup![1], false)]
        );

        db.get_mut("R").unwrap();
        assert!(db.mutation_log().ops("R").is_none());
        assert!(
            db.log.dirty["R"].ops.is_empty(),
            "`replaced` drops the list"
        );
        db.insert_into("R", tup![4]);
        assert!(db.log.dirty["R"].ops.is_empty(), "and it stays dropped");
        assert_eq!(db.mutation_log().delta("R").unwrap().inserts, 2);

        db.clear_mutation_log();
        assert!(db.mutation_log().is_empty());
        assert!(db.mutation_log().delta("R").is_none());
        db.insert_into("R", tup![5]);
        assert_eq!(db.mutation_log().ops("R").unwrap(), [(tup![5], true)]);
    }

    #[test]
    fn operation_list_longer_than_its_relation_collapses_to_replaced() {
        let mut db = Database::new().with_i64_rows("R", 1, vec![vec![1], vec![2]]);
        let snap = db.clone().freeze();
        db.clear_mutation_log();
        db.insert_into("R", tup![3]); // 1 operation, 3 tuples
        assert_eq!(db.delete_from("R", &tup![1]), 1); // 2 operations, 2 tuples
        assert_eq!(db.mutation_log().ops("R").unwrap().len(), 2);
        assert_eq!(db.delete_from("R", &tup![2]), 1); // 3 operations, 1 tuple
        assert!(db.mutation_log().ops("R").is_none());
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
