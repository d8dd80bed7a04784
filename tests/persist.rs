//! The persistence differential oracle: freeze → save → cold-open must
//! be invisible to every consumer of a snapshot. (`tests/lifecycle.rs`
//! also holds the answers served after a reopen to its model.)
//!
//! * **Round-trip identity** — a cold-opened base file reproduces the
//!   in-memory snapshot exactly: uid, generation, ancestry, the full
//!   dictionary, every encoded column, every per-relation version. And
//!   it does so **zero-copy**: [`relation_encode_count`] must not move
//!   across `open_snapshot` or a delta-chain replay — columns are
//!   served straight from the mapped file, never re-encoded.
//! * **Backend differential** — for every scenario of the shared
//!   catalog, an engine over the cold-opened snapshot serves the same
//!   answers as an engine over the original, on the whole access
//!   surface.
//! * **Delta chains** — a [`SnapshotStore`] replays base + deltas
//!   (append-only extension, interior rebase, deletion, relation
//!   birth, no-op) to exactly the last in-memory generation, lineage
//!   included.
//! * **Corruption** — every strict prefix of a valid file, targeted
//!   bit-flips, forged checksums, wrong kinds, and broken lineage all
//!   fail with a typed [`PersistError`]; nothing panics.

#[allow(dead_code)]
mod common;

use common::{backend_catalog, conforms, random_db, TempDir};
use ranked_access::prelude::*;
use ranked_access::rda_db::{
    open_delta, open_snapshot, relation_encode_count, save_delta, save_snapshot, tup,
};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// `relation_encode_count` is process-global, so every test here holds
/// this lock: a concurrent freeze in another test must not move the
/// counter between a test's before/after reads.
fn guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A 2-path instance over a *gappy* domain (multiples of ten), so later
/// inserts can land either past the top (dictionary extension) or in an
/// interior gap (dictionary rebase).
fn seed_db() -> Database {
    Database::new()
        .with_i64_rows(
            "R",
            2,
            (0..30i64).map(|i| vec![(i * 3) % 13 * 10, (i * 5 + 1) % 11 * 10]),
        )
        .with_i64_rows(
            "S",
            2,
            (0..26i64).map(|i| vec![(i * 5 + 1) % 11 * 10, (i * 7 + 2) % 9 * 10]),
        )
        .with_i64_rows("T", 1, vec![vec![0], vec![40]])
}

/// Full structural equality of two snapshots: identity, dictionary,
/// encoded columns, versions.
fn assert_snapshot_eq(a: &Snapshot, b: &Snapshot, ctx: &str) {
    assert_eq!(a.generation(), b.generation(), "{ctx}: generation");
    assert_eq!(a.uid(), b.uid(), "{ctx}: uid");
    assert_eq!(a.ancestry(), b.ancestry(), "{ctx}: ancestry");
    assert_eq!(a.dict().len(), b.dict().len(), "{ctx}: dictionary size");
    for code in 0..a.dict().len() as u32 {
        assert_eq!(
            a.dict().value(code),
            b.dict().value(code),
            "{ctx}: dictionary value at code {code}"
        );
    }
    let (da, db) = (a.to_database(), b.to_database());
    assert_eq!(da, db, "{ctx}: decoded relations");
    assert_eq!(a.relation_count(), b.relation_count(), "{ctx}: count");
    for name in da.relations().map(|r| r.name()) {
        assert_eq!(
            a.relation_version(name),
            b.relation_version(name),
            "{ctx}: {name} version"
        );
        let (ea, eb) = (a.encoded(name).unwrap(), b.encoded(name).unwrap());
        assert_eq!(ea.len(), eb.len(), "{ctx}: {name} encoded rows");
        assert_eq!(ea.arity(), eb.arity(), "{ctx}: {name} encoded arity");
        for p in 0..ea.arity() {
            assert_eq!(ea.col(p), eb.col(p), "{ctx}: {name} column {p}");
        }
    }
}

#[test]
fn base_round_trip_is_exact_and_zero_copy() {
    let _g = guard();
    let td = TempDir::new("base");
    let snap = seed_db().freeze();
    let path = td.file("base.rdas");
    let written = save_snapshot(&snap, &path).unwrap();
    assert_eq!(
        written,
        std::fs::metadata(&path).unwrap().len(),
        "save_snapshot reports the bytes it wrote"
    );

    let before = relation_encode_count();
    let cold = open_snapshot(&path).unwrap();
    assert_eq!(
        relation_encode_count(),
        before,
        "cold open must map columns, not re-encode them"
    );
    assert_snapshot_eq(&snap, &cold, "base round trip");

    // The reopened snapshot claims its uid: later freezes in this
    // process must never collide with (or sort below) it.
    let fresh = Database::new()
        .with_i64_rows("Z", 1, vec![vec![1]])
        .freeze();
    assert!(
        fresh.uid() > cold.uid(),
        "fresh uid {} must exceed the reopened uid {}",
        fresh.uid(),
        cold.uid()
    );

    // A reopened snapshot is a working delta parent: an untouched
    // database rolls forward sharing everything.
    let mut db = cold.to_database();
    let next = cold.freeze_delta(&mut db);
    assert_eq!(next.generation(), cold.generation() + 1);
    assert!(next.descends_from(cold.uid()));
}

/// The cold plan serves what the hot plan enumerates, on the whole
/// access surface, for every scenario of the shared catalog.
#[test]
fn cold_open_serves_identical_answers_on_every_backend() {
    let _g = guard();
    let td = TempDir::new("backends");
    for (i, sc) in backend_catalog().into_iter().enumerate() {
        let q = sc.query();
        let snap = random_db(&q, 18, 5, 0xC0FFEE + i as u64).freeze();
        let path = td.file(&format!("b{i}.rdas"));
        save_snapshot(&snap, &path).unwrap();
        let before = relation_encode_count();
        let cold = open_snapshot(&path).unwrap();
        assert_eq!(
            relation_encode_count(),
            before,
            "{}: open re-encoded",
            sc.src
        );

        // `prepare` checks the routing of both: the expected backend,
        // or the same typed refusal.
        let hot = sc.prepare(&Engine::new(snap), &q);
        let cold = sc.prepare(&Engine::new(cold), &q);
        assert_eq!(hot.is_some(), cold.is_some(), "{}: routing", sc.src);
        if let (Some(hot), Some(cold)) = (hot, cold) {
            let want: Vec<Tuple> = hot.iter().collect();
            conforms(sc.src, cold.answers(), &want, 0);
        }
    }
}

#[test]
fn delta_chain_replays_to_the_live_snapshot() {
    let _g = guard();
    let td = TempDir::new("chain");
    let mut db = seed_db();
    let base = db.clone().freeze();
    db.clear_mutation_log();
    let store = SnapshotStore::create(td.path(), &base).unwrap();

    // With only the base on disk, the store replays to the base.
    assert_snapshot_eq(&base, &store.load().unwrap(), "base-only store");

    // Generation 1: a value past the top of the domain — the
    // append-only dictionary extension path.
    db.insert_into("R", tup![500, 510]);
    let g1 = store.freeze_delta(&base, &mut db).unwrap();
    assert_eq!(g1.generation(), 1);

    // Generation 2: a value in an interior domain gap (55 sorts between
    // 50 and 60) forces a dictionary *rebase*, alongside a deletion.
    db.insert_into("S", tup![55, 60]);
    db.delete_from("T", &tup![0]);
    let g2 = store.freeze_delta(&g1, &mut db).unwrap();

    // Generation 3: a brand-new relation is born mid-chain.
    db.add(Relation::from_tuples(
        "U",
        2,
        vec![tup![55, 500], tup![1, 2]],
    ));
    let g3 = store.freeze_delta(&g2, &mut db).unwrap();

    // Generation 4: a no-op delta (empty mutation log) shares
    // everything and still persists/replays.
    let g4 = store.freeze_delta(&g3, &mut db).unwrap();
    assert_eq!(g4.generation(), 4);

    let reopened = SnapshotStore::open(td.path()).unwrap();
    let before = relation_encode_count();
    let replayed = reopened.load().unwrap();
    assert_eq!(
        relation_encode_count(),
        before,
        "replaying the chain must not re-encode anything"
    );
    assert_snapshot_eq(&g4, &replayed, "replayed chain");
    for uid in [base.uid(), g1.uid(), g2.uid(), g3.uid()] {
        assert!(replayed.descends_from(uid), "lineage survives the disk");
    }

    // The replayed snapshot serves answers identically to the live one.
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let spec = || OrderSpec::lex(&q, &["x", "y", "z"]);
    let hot = Engine::new(g4)
        .prepare(&q, spec(), &FdSet::empty(), Policy::Reject)
        .unwrap();
    let cold = Engine::new(replayed)
        .prepare(&q, spec(), &FdSet::empty(), Policy::Reject)
        .unwrap();
    let want: Vec<Tuple> = hot.iter().collect();
    conforms("replayed chain plan", cold.answers(), &want, 0);
}

#[test]
fn degenerate_snapshots_round_trip() {
    let _g = guard();
    let td = TempDir::new("edge");

    // Zero relations.
    let empty = Database::new().freeze();
    let path = td.file("empty.rdas");
    save_snapshot(&empty, &path).unwrap();
    assert_snapshot_eq(&empty, &open_snapshot(&path).unwrap(), "empty database");

    // An empty relation plus every value shape the wire format speaks:
    // extreme ints, empty and non-ASCII strings.
    let mut db = Database::new();
    db.add(Relation::new("E", 3));
    db.add(Relation::from_tuples(
        "V",
        2,
        vec![
            [Value::int(i64::MIN), Value::str("")].into_iter().collect(),
            [Value::int(i64::MAX), Value::str("déjà vu ☂")]
                .into_iter()
                .collect(),
        ],
    ));
    let snap = db.freeze();
    let path = td.file("values.rdas");
    save_snapshot(&snap, &path).unwrap();
    assert_snapshot_eq(&snap, &open_snapshot(&path).unwrap(), "exotic values");
}

#[test]
fn corrupted_files_fail_typed_and_never_panic() {
    let _g = guard();
    let td = TempDir::new("corrupt");
    let snap = seed_db().freeze();
    let path = td.file("victim.rdas");
    save_snapshot(&snap, &path).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    open_snapshot(&path).unwrap();

    let reopen = |bytes: &[u8]| {
        let p = td.file("mutant.rdas");
        std::fs::write(&p, bytes).unwrap();
        open_snapshot(&p)
    };

    // Every strict prefix of a valid file must fail with a typed
    // error — a truncated header, a cut section table, a half payload,
    // missing padding: all of it.
    for cut in 0..pristine.len() {
        let err = reopen(&pristine[..cut])
            .expect_err(&format!("prefix of {cut}/{} bytes opened", pristine.len()));
        assert!(!err.to_string().is_empty(), "error at cut {cut} displays");
    }

    // Targeted single-bit flips. Offsets: header magic at 0, version at
    // 8, header checksum at 24; the first section header starts at 32
    // with its checksum at 48; its payload starts at 56.
    let flip = |off: usize, bit: u8| {
        let mut bytes = pristine.clone();
        bytes[off] ^= 1 << bit;
        reopen(&bytes)
    };
    assert!(
        matches!(flip(0, 0).unwrap_err(), PersistError::BadMagic),
        "flipped magic"
    );
    assert!(
        matches!(flip(8, 1).unwrap_err(), PersistError::UnsupportedVersion(0)),
        "flipped version"
    );
    // A format-1 file is refused by its version before anything else
    // is read.
    let mut v1 = pristine.clone();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    assert!(
        matches!(
            reopen(&v1).unwrap_err(),
            PersistError::UnsupportedVersion(1)
        ),
        "a format-1 file"
    );
    assert!(
        matches!(
            flip(24, 3).unwrap_err(),
            PersistError::ChecksumMismatch { section: "header" }
        ),
        "flipped header checksum"
    );
    assert!(
        matches!(
            flip(56, 5).unwrap_err(),
            PersistError::ChecksumMismatch { .. }
        ),
        "flipped section payload byte"
    );
    assert!(
        flip(pristine.len() - 1, 7).is_err(),
        "flipped final byte of the file"
    );

    // A forged section checksum (inverted in place) must be caught.
    let mut forged = pristine.clone();
    for b in &mut forged[48..56] {
        *b = !*b;
    }
    assert!(
        matches!(
            reopen(&forged).unwrap_err(),
            PersistError::ChecksumMismatch { .. }
        ),
        "forged section checksum"
    );

    // Trailing garbage after the last section is corruption, not slack.
    let mut padded = pristine.clone();
    padded.extend_from_slice(&[0u8; 8]);
    assert!(reopen(&padded).is_err(), "trailing bytes");

    // Kind confusion: a delta file is not a base file and vice versa.
    let mut db = snap.to_database();
    db.insert_into("R", tup![7, 17]);
    let child = snap.freeze_delta(&mut db);
    let delta_path = td.file("delta.rdas");
    save_delta(&snap, &child, &delta_path).unwrap();
    assert!(
        matches!(
            open_snapshot(&delta_path).unwrap_err(),
            PersistError::WrongKind {
                expected: 0,
                found: 1
            }
        ),
        "base open of a delta file"
    );
    assert!(
        matches!(
            open_delta(&snap, &path).unwrap_err(),
            PersistError::WrongKind {
                expected: 1,
                found: 0
            }
        ),
        "delta open of a base file"
    );

    // Lineage: a delta only replays onto the parent it was written
    // against, and only records a true parent→child step.
    let stranger = Database::new()
        .with_i64_rows("R", 2, vec![vec![1, 2]])
        .freeze();
    assert!(
        matches!(
            open_delta(&stranger, &delta_path).unwrap_err(),
            PersistError::LineageMismatch { .. }
        ),
        "replay onto the wrong parent"
    );
    assert!(
        matches!(
            save_delta(&stranger, &child, td.file("bogus.rdas")).unwrap_err(),
            PersistError::LineageMismatch { .. }
        ),
        "persisting a non-step as a delta"
    );

    // Store lifecycle errors are typed I/O, not panics.
    let store_dir = TempDir::new("store-errors");
    assert!(
        matches!(
            SnapshotStore::open(store_dir.path()).unwrap_err(),
            PersistError::Io(e) if e.kind() == std::io::ErrorKind::NotFound
        ),
        "opening a store with no base"
    );
    SnapshotStore::create(store_dir.path(), &snap).unwrap();
    assert!(
        matches!(
            SnapshotStore::create(store_dir.path(), &snap).unwrap_err(),
            PersistError::Io(e) if e.kind() == std::io::ErrorKind::AlreadyExists
        ),
        "creating a store over an existing base"
    );
}

/// The format's section checksum (FNV-1a over little-endian `u64`
/// words, zero-padded tail, length-finalized), for forging sections
/// that pass it.
fn section_checksum(payload: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in payload.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(PRIME);
    }
    (h ^ payload.len() as u64).wrapping_mul(PRIME)
}

/// A value tag the format does not have (2 — no build of this
/// repository ever wrote it), forged *with* a matching section checksum
/// so the parser itself must refuse it. The dictionary is the second
/// section; its payload opens with the first value's tag.
#[test]
fn forged_value_tag_fails_typed() {
    let _g = guard();
    let td = TempDir::new("forged-tag");
    let path = td.file("victim.rdas");
    save_snapshot(&seed_db().freeze(), &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();

    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
    let dict_header = 56 + (u64_at(40) as usize).next_multiple_of(8);
    let dict_payload = dict_header + 24;
    let dict_end = dict_payload + u64_at(dict_header + 8) as usize;
    assert!(bytes[dict_payload] <= 1, "a value tag");
    bytes[dict_payload] = 2;
    let sum = section_checksum(&bytes[dict_payload..dict_end]);
    bytes[dict_header + 16..dict_payload].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        open_snapshot(&path).unwrap_err(),
        PersistError::Corrupt("unknown value tag")
    ));
}

/// A dictionary whose first two values are swapped, forged *with* a
/// matching section checksum. `Dictionary::code` binary-searches the
/// values and encoding merges against them, so both trust their order:
/// the open must refuse values that do not ascend, typed. `seed_db`'s
/// values are all integers, 9 bytes each (tag, then the `i64`).
#[test]
fn forged_dictionary_order_fails_typed() {
    let _g = guard();
    let td = TempDir::new("forged-order");
    let path = td.file("victim.rdas");
    save_snapshot(&seed_db().freeze(), &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();

    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
    let dict_header = 56 + (u64_at(40) as usize).next_multiple_of(8);
    let dict_payload = dict_header + 24;
    let dict_end = dict_payload + u64_at(dict_header + 8) as usize;
    assert_eq!(
        (bytes[dict_payload], bytes[dict_payload + 9]),
        (0, 0),
        "two integers"
    );
    let (first, second) = bytes[dict_payload..dict_payload + 18].split_at_mut(9);
    first.swap_with_slice(second);
    let sum = section_checksum(&bytes[dict_payload..dict_end]);
    bytes[dict_header + 16..dict_payload].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        open_snapshot(&path).unwrap_err(),
        PersistError::Corrupt("dictionary values not ascending")
    ));
}

/// A checksum-clean `RMETA` whose relation has zero rows (so `RCOLS` is
/// empty and bounds nothing) but claims an arity of 2⁴⁰: the open must
/// refuse it typed rather than size a vector by it.
#[test]
fn forged_relation_arity_fails_typed() {
    let _g = guard();
    let td = TempDir::new("forged-arity");
    let path = td.file("victim.rdas");
    let mut db = Database::new();
    db.add(Relation::new("E", 3));
    save_snapshot(&db.freeze(), &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();

    let u64_at = |b: &[u8], off: usize| u64::from_le_bytes(b[off..off + 8].try_into().unwrap());
    let mut header = 32;
    while u32::from_le_bytes(bytes[header..header + 4].try_into().unwrap()) != 3 {
        header += 24 + (u64_at(&bytes, header + 8) as usize).next_multiple_of(8);
    }
    let payload = header + 24;
    let end = payload + u64_at(&bytes, header + 8) as usize;
    // RMETA ends with arity, then row count.
    assert_eq!(u64_at(&bytes, end - 16), 3, "the arity field");
    assert_eq!(u64_at(&bytes, end - 8), 0, "no rows");
    bytes[end - 16..end - 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let sum = section_checksum(&bytes[payload..end]);
    bytes[header + 16..payload].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        open_snapshot(&path).unwrap_err(),
        PersistError::Corrupt("relation arity exceeds the format")
    ));
}

/// `seed_db` saved, then its `META` field at `field` (a `u64`; the
/// payload holds generation, uid, dictionary length, relation count)
/// set to `value` *with* a matching section checksum, and opened. `META`
/// is the first section: its header sits at 32, its payload at 56.
fn open_with_forged_meta(name: &str, field: usize, value: u64) -> Result<(), PersistError> {
    let td = TempDir::new(name);
    let path = td.file("victim.rdas");
    let mut db = Database::new();
    db.add(seed_db().get("R").unwrap().clone());
    save_snapshot(&db.freeze(), &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();

    let meta_end = 56 + u64::from_le_bytes(bytes[40..48].try_into().unwrap()) as usize;
    let at = 56 + 8 * field;
    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
    let sum = section_checksum(&bytes[56..meta_end]);
    bytes[48..56].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    open_snapshot(&path).map(drop)
}

/// A dictionary length of `u32::MAX` — inside the code space, but far
/// more values than the `DICT` payload can hold: the open must refuse
/// it typed rather than reserve room for them all.
#[test]
fn forged_dictionary_length_fails_typed() {
    let _g = guard();
    assert!(matches!(
        open_with_forged_meta("forged-dict-len", 2, u64::from(u32::MAX)),
        Err(PersistError::Truncated { what: "dictionary" })
    ));
}

/// A relation count whose section count overflows: the open must
/// refuse it typed, in debug builds too.
#[test]
fn forged_relation_count_fails_typed() {
    let _g = guard();
    assert!(matches!(
        open_with_forged_meta("forged-rel-count", 3, u64::MAX),
        Err(PersistError::Corrupt("relation section count mismatch"))
    ));
}
