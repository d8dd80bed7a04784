//! Frozen, encode-once database snapshots — now versioned.
//!
//! The access structures of the paper are built over an *immutable*
//! database: preprocessing pays ⟨n log n⟩ once and every subsequent
//! access is served from the built structure. In a serving setting the
//! same immutability extends one level down — the dictionary encoding
//! of the database itself is preprocessing shared by *every* structure
//! built over it, across queries, orders, and threads.
//!
//! [`Database::freeze`] captures that: it interns the entire active
//! domain into one order-preserving [`Dictionary`] and encodes every
//! relation into its columnar [`EncodedRelation`] form **exactly once**,
//! producing an [`Arc<Snapshot>`] that builders borrow from. Nothing
//! downstream re-encodes or clones relations; the paper's preprocessing
//! phases run directly on the shared code-space columns.
//!
//! Live traffic mutates data, and a full re-freeze per mutation batch
//! would re-intern the whole active domain. [`Snapshot::freeze_delta`]
//! is the incremental path: it consults the database's
//! [`MutationLog`](crate::database::MutationLog), extends the shared
//! dictionary monotonically ([`Dictionary::extend`]), **merges the
//! logged rows into the dirty relations' parent columns** — re-encoding
//! only a relation the log calls replaced (fanning that work out over
//! scoped worker threads) — and `Arc`-shares every clean
//! relation's existing encoding into the next [`Snapshot::generation`].
//! Per-relation [`Snapshot::relation_version`]s record, for each
//! relation, the generation that last changed it — the signal the
//! engine uses to carry prepared plans across generations.
//!
//! The process-wide counter [`crate::relation_encode_count`] records
//! every relation encoding produced, by the freeze kernel or by a delta
//! merge —
//! the hook the encode-once contract (and its delta extension: *clean
//! relations are never re-encoded*) is tested against.

use crate::database::Database;
use crate::dict::{DictDelta, Dictionary, RankedRelation};
use crate::encoded::EncodedRelation;
use crate::relation::Relation;
use crate::tuple::Tuple;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide snapshot identity: every snapshot gets a unique id so
/// generation-aware caches can tell "the same lineage, one step later"
/// from "an unrelated database that happens to share version numbers".
static NEXT_UID: AtomicU64 = AtomicU64::new(1);

fn fresh_uid() -> u64 {
    NEXT_UID.fetch_add(1, Ordering::Relaxed)
}

/// How many ancestor uids a snapshot remembers. Plans cached against a
/// snapshot more than this many generations back stop being
/// carry-forward candidates (they are rebuilt instead — a conservative
/// answer, never a wrong one); in exchange, delta freezes stay O(1) in
/// the lineage length instead of cloning an ever-growing history.
const MAX_ANCESTRY: usize = 1024;

/// One relation's share of a snapshot: the `Arc`-shared columnar
/// encoding plus the generation that last changed its content.
#[derive(Debug, Clone)]
struct EncodedEntry {
    rel: Arc<EncodedRelation>,
    version: u64,
}

/// An immutable, dictionary-encoded view of a [`Database`], shared via
/// [`Arc`] between every structure built over it.
///
/// A snapshot is its code space, and nothing else:
///
/// * one shared order-preserving [`Dictionary`] over the whole active
///   domain (code order == value order, so every order-sensitive
///   operation can run on `u32` codes);
/// * one columnar [`EncodedRelation`] per relation, normalized to set
///   semantics (sorted + deduplicated), encoded exactly once — at
///   [`Database::freeze`] time, or at the [`Snapshot::freeze_delta`]
///   that last dirtied it.
///
/// It keeps no value-level copy of the database it was frozen from. A
/// snapshot is a *set* database: duplicate tuples of the source
/// collapse, and [`Snapshot::to_database`] decodes the sets back (what
/// a writer resuming after a restart reads; every build, the
/// materialized fallback included, reads the codes).
///
/// Snapshots form a lineage: [`Database::freeze`] starts one at
/// [`Snapshot::generation`] 0 and every [`Snapshot::freeze_delta`]
/// appends a generation that `Arc`-shares everything the mutations did
/// not touch.
///
/// ```
/// use rda_db::Database;
///
/// let snap = Database::new()
///     .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2]])
///     .freeze();
/// assert_eq!(snap.size(), 2);
/// assert_eq!(snap.generation(), 0);
/// assert_eq!(snap.dict().len(), 3); // {1, 2, 5}
/// assert_eq!(snap.encoded("R").unwrap().len(), 2);
///
/// // Mutate a kept copy of the database and freeze the delta: a new
/// // generation, paying only for what changed.
/// let mut db = snap.to_database();
/// db.insert_into("R", rda_db::tup![7, 7]);
/// let next = snap.freeze_delta(&mut db);
/// assert_eq!(next.generation(), 1);
/// assert_eq!(next.encoded("R").unwrap().len(), 3);
/// ```
///
/// `Snapshot` is deliberately not `Clone`: a [`Snapshot::uid`] names
/// exactly one object, which is what cursors, the plan cache and
/// [`Snapshot::descends_from`] rely on when they key on it. Share a
/// snapshot through its [`Arc`]; a new generation gets a new uid.
#[derive(Debug)]
pub struct Snapshot {
    dict: Arc<Dictionary>,
    encoded: BTreeMap<String, EncodedEntry>,
    /// How many delta freezes separate this snapshot from its base
    /// freeze (== `ancestry.len()`).
    generation: u64,
    /// This snapshot's process-unique identity.
    uid: u64,
    /// The uids of every ancestor, base freeze first.
    ancestry: Arc<Vec<u64>>,
}

/// A dirty relation whose change the mutation log bounds: the parent
/// encoding to merge into, and the log's net rows (`true` = present
/// afterwards), ascending.
struct LoggedRows<'a> {
    parent: &'a EncodedRelation,
    net: &'a BTreeMap<Tuple, bool>,
}

impl LoggedRows<'_> {
    /// The relation's encoding under `dict`: the net rows encoded and
    /// merged into the parent's columns (rebased through `remap`).
    fn merged(&self, dict: &Dictionary, remap: Option<&[u32]>) -> EncodedRelation {
        let mut rows = Vec::with_capacity(self.net.len() * self.parent.arity());
        let mut present = Vec::with_capacity(self.net.len());
        let mut codes = Vec::new();
        for (t, &p) in self.net {
            if dict.encode_tuple_into(t, &mut codes) {
                rows.extend_from_slice(&codes);
                present.push(p);
            } else {
                // Only a deleted tuple may hold a value the dictionary
                // lacks — and then the parent never held the tuple.
                assert!(!p, "dictionary covers the relation");
            }
        }
        self.parent.merged(remap, &rows, &present)
    }
}

impl Snapshot {
    /// Freeze `db` as a fresh generation-0 snapshot. Prefer calling
    /// [`Database::freeze`].
    ///
    /// Encoding is a sort, not a hash (`dict::RankedRelation`): its
    /// stable column sorts also leave each relation normalized, and each
    /// relation is encoded exactly once. Ranking and encoding fan out
    /// over scoped workers, one relation each, positionally.
    pub fn new(db: Database) -> Arc<Snapshot> {
        let rels: Vec<&Relation> = db.relations().collect();
        let ranked = crate::parallel::map(&rels, |r| RankedRelation::new(r));
        let dict = Dictionary::from_ranked(&ranked);
        let encoded_rels: Vec<EncodedRelation> = crate::parallel::map(&ranked, |r| {
            EncodedRelation::encoded(r.len(), r.codes(&dict))
        });
        let encoded = rels
            .iter()
            .map(|r| r.name().to_string())
            .zip(encoded_rels.into_iter().map(|rel| EncodedEntry {
                rel: Arc::new(rel),
                version: 0,
            }))
            .collect();
        Arc::new(Snapshot {
            dict: Arc::new(dict),
            encoded,
            generation: 0,
            uid: fresh_uid(),
            ancestry: Arc::new(Vec::new()),
        })
    }

    /// Freeze the next generation of this snapshot from `db`, paying
    /// only for what changed since `self` was frozen.
    ///
    /// `db` must be the database `self` was frozen from (or
    /// [`Snapshot::to_database`]: the same up to duplicates) plus the
    /// mutations its [`MutationLog`](crate::database::MutationLog)
    /// records (the log is cleared on return, re-baselining `db` to the
    /// returned snapshot). The log may over-report, never under-report:
    /// it keeps each dirty relation's *net rows* (the last operation on
    /// each tuple wins), so replaying a net row `self` already reflects
    /// changes nothing, while a change the log missed would be served
    /// stale. `freeze_delta` borrows those rows as they are. Three
    /// incremental moves replace the full freeze:
    ///
    /// 1. **Dictionary extension**: unseen
    ///    values are looked for only where a dirty relation can have
    ///    gained one — its net rows present afterwards, or
    ///    every tuple of a relation the log calls replaced. If nothing
    ///    new appeared the dictionary `Arc` itself is shared; values
    ///    past the top of the domain are appended with existing codes
    ///    kept stable; interior values rebase old codes through a
    ///    monotone remap.
    /// 2. **Dirty relations are merged** — and *only* those, fanned
    ///    out over scoped worker threads: the net logged rows are
    ///    encoded, and one walk over the parent's columns rebases them,
    ///    drops the deleted rows and splices the inserted ones. A dirty
    ///    relation the log cannot bound (replaced, new since `self`,
    ///    arity 0) is re-encoded by the freeze's kernel instead, merged
    ///    against the extended dictionary; debug builds hold every
    ///    merge to that result. Clean relations keep their
    ///    encoding `Arc` verbatim (stable codes) or receive a pure
    ///    integer gather (rebase case).
    ///    Either way, [`crate::relation_encode_count`] moves by exactly
    ///    the number of dirty relations.
    /// 3. **Versions roll forward**: dirty relations get
    ///    [`Snapshot::relation_version`] == the new generation, clean
    ///    ones inherit theirs — so a cache can prove "this query's
    ///    relations did not change" across any number of generations.
    ///
    /// An empty mutation log therefore yields a snapshot that shares
    /// *everything* (`Arc::ptr_eq` dictionary and encodings) and only
    /// bumps the generation.
    ///
    /// Structures already built on `self` keep serving the old
    /// generation unchanged; nothing is mutated in place.
    pub fn freeze_delta(&self, db: &mut Database) -> Arc<Snapshot> {
        let generation = self.generation + 1;
        // Dirty = mutated since `self`, or absent from `self` entirely
        // (a relation added after the freeze has no encoding to reuse).
        // A dirty relation merges when the log lists its operations and
        // `self` holds an encoding to merge them into.
        let log = db.mutation_log();
        let dirty: Vec<(&Relation, Option<LoggedRows>)> = db
            .relations()
            .filter(|r| log.is_dirty(r.name()) || !self.encoded.contains_key(r.name()))
            .map(|r| {
                let logged = log
                    .net(r.name())
                    .zip(self.encoded(r.name()))
                    .filter(|(_, parent)| r.arity() > 0 && parent.arity() == r.arity())
                    .map(|(net, parent)| LoggedRows { parent, net });
                (r, logged)
            })
            .collect();
        // Unseen domain values can only hide in what a dirty relation
        // gained: its net-present logged tuples, or — unlogged — any of
        // its tuples. Deduplicate while scanning so a value repeated
        // across a million cells is cloned once, not once per
        // occurrence.
        let mut fresh: std::collections::BTreeSet<crate::Value> = std::collections::BTreeSet::new();
        let mut scan = |t: &Tuple| {
            for v in t.iter() {
                if self.dict.code(v).is_none() && !fresh.contains(v) {
                    fresh.insert(v.clone());
                }
            }
        };
        for (r, logged) in &dirty {
            match logged {
                Some(l) => l.net.iter().filter(|(_, &p)| p).for_each(|(t, _)| scan(t)),
                None => r.tuples().iter().for_each(&mut scan),
            }
        }
        let (dict, remap) = match self.dict.extend(fresh) {
            DictDelta::Unchanged => (Arc::clone(&self.dict), None),
            DictDelta::Extended(d) => (Arc::new(d), None),
            DictDelta::Rebased { dict, remap } => (Arc::new(dict), Some(remap)),
        };

        // One encoding per dirty relation, in parallel: a merge of the
        // logged rows, or a re-encode of the whole relation.
        let encoded_dirty: Vec<EncodedRelation> =
            crate::parallel::map(&dirty, |(r, logged)| match logged {
                Some(l) => {
                    let merged = l.merged(&dict, remap.as_deref());
                    // Debug builds hold every merge to the other arm.
                    #[cfg(debug_assertions)]
                    {
                        let full = RankedRelation::new(r).codes(&dict);
                        let cols: Vec<&[u32]> =
                            (0..merged.arity()).map(|p| merged.col(p)).collect();
                        assert_eq!(cols, full, "delta merge of {}", r.name());
                    }
                    merged
                }
                None => {
                    let ranked = RankedRelation::new(r);
                    EncodedRelation::encoded(ranked.len(), ranked.codes(&dict))
                }
            });
        let mut encoded: BTreeMap<String, EncodedEntry> = dirty
            .iter()
            .map(|(r, _)| r.name().to_string())
            .zip(encoded_dirty.into_iter().map(|rel| EncodedEntry {
                rel: Arc::new(rel),
                version: generation,
            }))
            .collect();

        // Clean relations carry over: shared verbatim when codes are
        // stable, upgraded by a parallel gather when the dictionary was
        // rebased. Content is unchanged either way, so the version is
        // inherited. Relations dropped from `db` simply don't carry.
        let clean: Vec<(&str, &EncodedEntry)> = db
            .relations()
            .filter(|r| !encoded.contains_key(r.name()))
            .map(|r| (r.name(), &self.encoded[r.name()]))
            .collect();
        let carried: Vec<Arc<EncodedRelation>> = match &remap {
            None => clean.iter().map(|(_, e)| Arc::clone(&e.rel)).collect(),
            Some(remap) => crate::parallel::map(&clean, |(_, e)| Arc::new(e.rel.remapped(remap))),
        };
        for ((name, entry), rel) in clean.into_iter().zip(carried) {
            encoded.insert(
                name.to_string(),
                EncodedEntry {
                    rel,
                    version: entry.version,
                },
            );
        }

        db.clear_mutation_log();
        Arc::new(Snapshot {
            dict,
            encoded,
            generation,
            uid: fresh_uid(),
            ancestry: Arc::new(self.child_ancestry()),
        })
    }

    /// The snapshot decoded back into a value-level [`Database`]: one
    /// normalized relation per encoded one, with a clean mutation log —
    /// a database `freeze_delta` can roll this snapshot forward from.
    /// Decodes every cell, so it is paid only by those who ask.
    pub fn to_database(&self) -> Database {
        let mut db = Database::new();
        for (name, e) in &self.encoded {
            // Its distinct tuples, ascending.
            let tuples = (0..e.rel.len())
                .map(|r| e.rel.decode_row(r, &self.dict))
                .collect();
            db.add(Relation::from_tuples(name, e.rel.arity(), tuples));
        }
        db.clear_mutation_log();
        db
    }

    /// The shared order-preserving dictionary over the whole active
    /// domain.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// The dictionary's `Arc` — for callers (and tests) checking that a
    /// delta freeze shared rather than rebuilt it.
    pub fn dict_arc(&self) -> &Arc<Dictionary> {
        &self.dict
    }

    /// The relation names, ascending.
    pub(crate) fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.encoded.keys().map(String::as_str)
    }

    /// A relation's dictionary-encoded columnar form, normalized to set
    /// semantics. Encoded once, at the freeze that last dirtied it.
    pub fn encoded(&self, name: &str) -> Option<&EncodedRelation> {
        self.encoded.get(name).map(|e| e.rel.as_ref())
    }

    /// A relation's encoding `Arc` — for callers (and tests) checking
    /// that a delta freeze shared a clean relation's encoding.
    pub fn encoded_arc(&self, name: &str) -> Option<&Arc<EncodedRelation>> {
        self.encoded.get(name).map(|e| &e.rel)
    }

    /// The generation that last changed `name`'s content: 0 for
    /// relations unchanged since the base freeze, and monotonically
    /// rising with each delta freeze that found them dirty. Two
    /// snapshots of one lineage agree on a relation's version iff its
    /// content is unchanged between them.
    pub fn relation_version(&self, name: &str) -> Option<u64> {
        self.encoded.get(name).map(|e| e.version)
    }

    /// Which generation this snapshot is: 0 for [`Database::freeze`],
    /// parent + 1 for each [`Snapshot::freeze_delta`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// This snapshot's process-unique identity (distinct even across
    /// unrelated databases — generations are only comparable within one
    /// lineage).
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// `true` when this snapshot is `uid` itself or was produced from
    /// it by a chain of [`Snapshot::freeze_delta`] calls — the lineage
    /// check behind cross-generation plan reuse. May conservatively
    /// return `false` for ancestors further back than the bounded
    /// ancestry window (1024 generations). O(log generations): uids are
    /// assigned in chain order, so the ancestry is sorted.
    pub fn descends_from(&self, uid: u64) -> bool {
        self.uid == uid || self.ancestry.binary_search(&uid).is_ok()
    }

    /// The uids of every remembered ancestor, base freeze first
    /// (ascending — uids are assigned in chain order).
    pub fn ancestry(&self) -> &[u64] {
        &self.ancestry
    }

    /// The ancestry a child of this snapshot records: this snapshot's
    /// ancestry plus its own uid, trimmed to the bounded window — the
    /// exact lineage arithmetic of [`Snapshot::freeze_delta`], shared
    /// with [`crate::persist`]'s delta replay.
    pub(crate) fn child_ancestry(&self) -> Vec<u64> {
        let mut ancestry = (*self.ancestry).clone();
        ancestry.push(self.uid);
        if ancestry.len() > MAX_ANCESTRY {
            let excess = ancestry.len() - MAX_ANCESTRY;
            ancestry.drain(..excess);
        }
        ancestry
    }

    /// Ensure freshly assigned uids land strictly above `uid` — called
    /// by [`crate::persist`] when a persisted snapshot re-enters the
    /// process with its original identity, so no future freeze can
    /// collide with a restored uid.
    pub(crate) fn claim_uid(uid: u64) {
        NEXT_UID.fetch_max(uid.saturating_add(1), Ordering::Relaxed);
    }

    /// Reassemble a snapshot from persisted parts, identity included —
    /// the [`crate::persist`] open path. Not an encoding: the encoded
    /// relations are taken as-is and
    /// [`crate::relation_encode_count`] does not move. Callers must
    /// [`Snapshot::claim_uid`] the restored uid first.
    pub(crate) fn assemble(
        dict: Arc<Dictionary>,
        encoded: BTreeMap<String, (Arc<EncodedRelation>, u64)>,
        generation: u64,
        uid: u64,
        ancestry: Vec<u64>,
    ) -> Arc<Snapshot> {
        Arc::new(Snapshot {
            dict,
            encoded: encoded
                .into_iter()
                .map(|(name, (rel, version))| (name, EncodedEntry { rel, version }))
                .collect(),
            generation,
            uid,
            ancestry: Arc::new(ancestry),
        })
    }

    /// Total number of distinct tuples (the paper's `n`).
    pub fn size(&self) -> usize {
        self.encoded.values().map(|e| e.rel.len()).sum()
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.encoded.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;
    use crate::Value;

    fn snap() -> Arc<Snapshot> {
        Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![1, 2], vec![6, 2]])
            .with_i64_rows("S", 2, vec![vec![5, 3]])
            .freeze()
    }

    #[test]
    fn dictionary_covers_the_whole_active_domain() {
        let s = snap();
        // {1, 2, 3, 5, 6}: one dictionary across both relations.
        assert_eq!(s.dict().len(), 5);
        for v in [1i64, 2, 3, 5, 6] {
            assert!(s.dict().code(&Value::int(v)).is_some(), "{v} interned");
        }
    }

    #[test]
    fn encoded_relations_are_normalized() {
        let s = snap();
        let r = s.encoded("R").unwrap();
        // Duplicate (1,2) collapses; rows come back sorted.
        assert_eq!(r.len(), 3);
        let decoded: Vec<_> = (0..r.len()).map(|i| r.decode_row(i, s.dict())).collect();
        assert_eq!(decoded, vec![tup![1, 2], tup![1, 5], tup![6, 2]]);
    }

    #[test]
    fn decodes_to_a_set_database() {
        let s = snap();
        let db = s.to_database();
        // The duplicate (1,2) is gone; the rest decodes ascending.
        let r = db.get("R").unwrap();
        assert_eq!((r.name(), r.arity()), ("R", 2));
        assert_eq!(r.tuples(), [tup![1, 2], tup![1, 5], tup![6, 2]]);
        assert_eq!(s.size(), 4);
        assert_eq!(s.relation_count(), 2);
        assert!(s.encoded("T").is_none());
        assert!(db.get("T").is_none());
        assert!(s.relation_version("T").is_none());
        assert_eq!(db.relation_count(), 2);
        assert!(db.mutation_log().is_empty());
    }

    #[test]
    fn snapshot_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Snapshot>();
    }

    #[test]
    fn base_freeze_is_generation_zero_with_zero_versions() {
        let s = snap();
        assert_eq!(s.generation(), 0);
        assert_eq!(s.relation_version("R"), Some(0));
        assert_eq!(s.relation_version("S"), Some(0));
        assert!(s.descends_from(s.uid()));
    }

    #[test]
    fn delta_freeze_shares_clean_and_reencodes_dirty() {
        let s = snap();
        let mut db = s.to_database();
        db.insert_into("R", tup![9, 9]); // 9 > max(domain): append path
        let s2 = s.freeze_delta(&mut db);
        assert_eq!(s2.generation(), 1);
        assert!(s2.descends_from(s.uid()));
        assert!(!s.descends_from(s2.uid()));
        // Clean S: the very same encoding Arc; dirty R: a new one.
        assert!(Arc::ptr_eq(
            s.encoded_arc("S").unwrap(),
            s2.encoded_arc("S").unwrap()
        ));
        assert!(!Arc::ptr_eq(
            s.encoded_arc("R").unwrap(),
            s2.encoded_arc("R").unwrap()
        ));
        assert_eq!(s2.relation_version("R"), Some(1));
        assert_eq!(s2.relation_version("S"), Some(0));
        // Old codes survive verbatim (append path), 9 on top.
        for v in [1i64, 2, 3, 5, 6] {
            assert_eq!(
                s2.dict().code(&Value::int(v)),
                s.dict().code(&Value::int(v))
            );
        }
        assert_eq!(s2.dict().code(&Value::int(9)), Some(5));
        // The new row is served; the log was cleared.
        assert_eq!(s2.encoded("R").unwrap().len(), 4);
        assert!(db.mutation_log().is_empty());
        // The old snapshot is untouched.
        assert_eq!(s.encoded("R").unwrap().len(), 3);
    }

    // NOTE: the exact relation_encode_count() deltas ("only the dirty
    // relation encodes") are asserted in tests/updates.rs, whose tests
    // serialize on a file-local mutex — the counter is process-wide,
    // so exact deltas are unsafe to assert from this parallel-threaded
    // unit-test binary.
    #[test]
    fn delta_freeze_rebases_clean_relations_on_interior_values() {
        let s = snap(); // domain {1, 2, 3, 5, 6}
        let mut db = s.to_database();
        db.insert_into("R", tup![4, 4]); // interior: rebase path
        let s2 = s.freeze_delta(&mut db);
        // S's encoding was rebased (new Arc) but its content — and
        // version — are unchanged.
        assert!(!Arc::ptr_eq(
            s.encoded_arc("S").unwrap(),
            s2.encoded_arc("S").unwrap()
        ));
        assert_eq!(s2.relation_version("S"), Some(0));
        let srel = s2.encoded("S").unwrap();
        let decoded: Vec<_> = (0..srel.len())
            .map(|i| srel.decode_row(i, s2.dict()))
            .collect();
        assert_eq!(decoded, vec![tup![5, 3]]);
        assert_eq!(s2.dict().code(&Value::int(4)), Some(3));
    }

    #[test]
    fn empty_delta_shares_everything_and_bumps_the_generation() {
        let s = snap();
        let mut db = s.to_database();
        let s2 = s.freeze_delta(&mut db);
        assert_eq!(s2.generation(), 1);
        assert_ne!(s2.uid(), s.uid());
        assert!(Arc::ptr_eq(s.dict_arc(), s2.dict_arc()));
        for name in ["R", "S"] {
            assert!(Arc::ptr_eq(
                s.encoded_arc(name).unwrap(),
                s2.encoded_arc(name).unwrap()
            ));
            assert_eq!(s2.relation_version(name), Some(0));
        }
    }

    #[test]
    fn delta_freeze_handles_added_and_removed_relations() {
        let s = snap();
        let mut db = s.to_database();
        db.add(Relation::from_tuples("T", 1, vec![tup![100]]));
        assert!(db.remove("S"));
        assert!(!db.remove("S"), "already gone");
        let s2 = s.freeze_delta(&mut db);
        assert_eq!(s2.relation_version("T"), Some(1));
        assert!(s2.encoded("S").is_none(), "dropped relations don't carry");
        assert_eq!(s2.relation_count(), 2);
        assert_eq!(s2.dict().code(&Value::int(100)), Some(5));
    }

    /// A writer resuming after a restart merges its first batches into
    /// columns that are views of the store's files: the same batches
    /// must produce the same generations as in the process that never
    /// stopped.
    #[test]
    fn delta_merge_reads_a_mapped_parent() {
        let dir = std::env::temp_dir().join(format!("rda-merge-mapped-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let live = snap();
        let store = crate::SnapshotStore::create(&dir, &live).unwrap();
        let cold = store.load();
        let _ = std::fs::remove_dir_all(&dir);
        let (mut live, mut cold) = (live, cold.unwrap());

        let batches: [&[(&str, Tuple, bool)]; 3] = [
            // Interior value: a rebase, with a delete beside it.
            &[("R", tup![4, 4], true), ("R", tup![1, 2], false)],
            // Known values only: the dictionary is shared.
            &[("R", tup![6, 2], false), ("S", tup![5, 3], false)],
            // Past the top: an append; S refills from empty.
            &[("S", tup![9, 9], true), ("R", tup![1, 5], true)],
        ];
        let mut live_db = live.to_database();
        let mut cold_db = cold.to_database();
        for batch in batches {
            for (name, t, present) in batch {
                for db in [&mut live_db, &mut cold_db] {
                    if *present {
                        db.insert_into(name, t.clone());
                    } else {
                        assert!(db.delete_from(name, t) > 0);
                    }
                }
            }
            live = live.freeze_delta(&mut live_db);
            cold = cold.freeze_delta(&mut cold_db);
            assert_eq!(cold.dict().len(), live.dict().len());
            for c in 0..live.dict().len() as u32 {
                assert_eq!(cold.dict().value(c), live.dict().value(c));
            }
            for name in ["R", "S"] {
                assert_eq!(cold.encoded(name), live.encoded(name), "{name}");
                assert_eq!(cold.relation_version(name), live.relation_version(name));
            }
        }
        assert_eq!(live.encoded("R").unwrap().len(), 2);
        assert_eq!(live.encoded("S").unwrap().len(), 1);
    }

    #[test]
    fn chained_deltas_keep_versions_and_lineage() {
        let s0 = snap();
        let mut db = s0.to_database();
        db.insert_into("R", tup![9, 9]);
        let s1 = s0.freeze_delta(&mut db);
        db.insert_into("S", tup![10, 10]);
        let s2 = s1.freeze_delta(&mut db);
        assert_eq!(s2.generation(), 2);
        assert!(s2.descends_from(s0.uid()) && s2.descends_from(s1.uid()));
        assert_eq!(s2.relation_version("R"), Some(1), "inherited from s1");
        assert_eq!(s2.relation_version("S"), Some(2));
        assert!(Arc::ptr_eq(
            s1.encoded_arc("R").unwrap(),
            s2.encoded_arc("R").unwrap()
        ));
    }
}
