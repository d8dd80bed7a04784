//! The zero-allocation guarantee of the access hot paths, enforced by a
//! counting global allocator.
//!
//! After build, the dictionary/arena structures answer
//! `access_into` / `inverted_access` / `rank_of_lower_bound` with **zero**
//! heap allocations, and the owned-tuple `access()` convenience wrapper
//! allocates exactly once — the returned tuple itself ("decode to
//! `Tuple` only in emit").
//!
//! The build side of the same ledger: a lex and a SUM build over a
//! frozen snapshot re-encode nothing, allocate a number of times that
//! does not grow with the input, and have freed every transient bitmap,
//! dense table and sort buffer by the time `build_on` returns.
//!
//! The selection handles sit between the two: constructing one
//! re-encodes nothing and keeps only its reduced instance, and one
//! selection allocates a number of blocks that does not grow with the
//! input and frees every dense table and filtered relation it made.
//!
//! A cold open is the same ledger again: it maps the columns and
//! decodes no row, so what it allocates does not grow with the rows.
//!
//! A served page on a warm session reads its token in place and
//! refills the session's buffer: the one allocation it makes is the
//! `next` token it returns.
//!
//! The counters belong to the thread that allocates, so the test
//! harness's own threads (the main thread reports results while a test
//! runs) never leak into a measurement. None of the measured closures
//! spawns a thread: builds, selections, cold opens and accesses all run
//! on the caller's thread (only a snapshot freeze fans out, and no
//! freeze is measured). The encode counter is process-wide, so the
//! tests of this binary still take [`SERIAL`] and run one at a time.

use ranked_access::prelude::*;
use ranked_access::rda_db::{open_snapshot, relation_encode_count, save_snapshot, tup};
use ranked_access::rda_serve::Server;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

struct CountingAllocator;

// `const`-initialized cells without a destructor: touching them never
// allocates, and they stay usable while their thread exits.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus those it freed (a block may be
    /// freed by another thread than the one that allocated it, so this
    /// can go negative), and the most that ever were.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}
static SERIAL: Mutex<()> = Mutex::new(());

fn read<T: Copy>(key: &'static std::thread::LocalKey<Cell<T>>) -> T {
    key.with(Cell::get)
}

fn allocated(bytes: usize) {
    ALLOCATIONS.with(|a| a.set(a.get() + 1));
    let live = read(&LIVE) + bytes as i64;
    LIVE.with(|l| l.set(live));
    PEAK.with(|p| p.set(p.get().max(live)));
}

fn freed(bytes: usize) {
    LIVE.with(|l| l.set(l.get() - bytes as i64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters beside it are thread-local
// cells that neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        freed(layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        freed(layout.size());
        allocated(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations this thread performed while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = read(&ALLOCATIONS);
    f();
    read(&ALLOCATIONS) - before
}

/// What running `f` did to the heap.
struct HeapDelta<T> {
    out: T,
    allocations: u64,
    /// Bytes still allocated after `f` beyond what was before it.
    retained: u64,
    /// The most bytes allocated at once during `f`, beyond the same.
    peak: u64,
}

fn heap_during<T>(f: impl FnOnce() -> T) -> HeapDelta<T> {
    let live_before = read(&LIVE);
    PEAK.with(|p| p.set(live_before));
    let allocs_before = read(&ALLOCATIONS);
    let out = f();
    HeapDelta {
        out,
        allocations: read(&ALLOCATIONS) - allocs_before,
        retained: (read(&LIVE) - live_before).max(0) as u64,
        peak: (read(&PEAK) - live_before) as u64,
    }
}

/// `R(x, y)`, `S(y, z)` with `n` rows each over 40 join values, beside
/// a relation `T` of 50 000 smaller values no query reads: every value
/// the joins touch gets a dictionary code above 50 000, so each bitmap
/// and dense table the build kernels size by a maximum code is as large
/// as this dictionary can make it while the arenas stay small.
fn sparse_snapshot(n: i64) -> Arc<Snapshot> {
    let hi = 1_000_000;
    Database::new()
        .with_i64_rows("T", 1, (0..50_000).map(|i| vec![i]).collect::<Vec<_>>())
        .with_i64_rows(
            "R",
            2,
            (0..n)
                .map(|i| vec![hi + 100 + i, hi + i % 40])
                .collect::<Vec<_>>(),
        )
        .with_i64_rows(
            "S",
            2,
            (0..n)
                .map(|i| vec![hi + i % 40, hi + 100 + (i * 7) % n])
                .collect::<Vec<_>>(),
        )
        .freeze()
}

#[test]
fn builds_are_encode_free_and_leave_no_scratch_behind() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let qcov = parse("Q(x, y) :- R(x, y), S(y, z)").unwrap();
    let lex = q.vars(&["z", "y", "x"]);
    let qproj = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
    let xz = || OrderSpec::lex(&qproj, &["x", "z"]);
    let mut allocations = Vec::new();
    for n in [400i64, 3200] {
        let snap = sparse_snapshot(n);
        let dict_bytes = 4 * snap.dict().len() as u64;
        let encodes = relation_encode_count();

        let built =
            heap_during(|| LexDirectAccess::build_on(&q, &snap, &lex, &FdSet::empty()).unwrap());
        let cost = *built.out.build_cost();
        assert!(built.out.len() >= n as u64, "the join fans out");
        // What stays allocated is the arena (its vectors hold at most
        // twice their length in capacity) and a few small vectors; a
        // dense table that outlived the build would add `dict_bytes`.
        let arena = 2 * cost.arena_bytes + 4096;
        assert!(
            built.retained <= arena,
            "lex build of {n} rows retains {} bytes for an arena of {}",
            built.retained,
            cost.arena_bytes
        );
        if n == 400 {
            assert!(dict_bytes > arena, "a leaked table would show here");
        }
        // At its fullest a build holds its arena, one code-indexed table,
        // and the layer relations it made beside the snapshot's, with a
        // few per-row columns of scratch (a relation here is at most
        // `rows_bytes`). Under ⟨z, y, x⟩ both atoms' layers are re-sorted
        // copies. Under ⟨x, y, z⟩ only the {x} layer is new: the others
        // are the snapshot's relations, and copying one crosses the bound.
        let rows_bytes = 8 * n as u64;
        let fullest = |arena_bytes, copies| arena_bytes + copies * rows_bytes + dict_bytes;
        assert!(
            built.peak <= fullest(cost.arena_bytes, 4),
            "lex build of {n} rows peaks at {} bytes",
            built.peak
        );
        allocations.push(built.allocations);
        let xyz = q.vars(&["x", "y", "z"]);
        let views =
            heap_during(|| LexDirectAccess::build_on(&q, &snap, &xyz, &FdSet::empty()).unwrap());
        assert!(
            views.peak <= fullest(views.out.build_cost().arena_bytes, 2),
            "lex build of {n} rows by x, y, z peaks at {} bytes",
            views.peak
        );

        let built = heap_during(|| {
            SumDirectAccess::build_on(&qcov, &snap, &Weights::identity(), &FdSet::empty()).unwrap()
        });
        let cost = *built.out.build_cost();
        assert_eq!(built.out.len(), cost.arena_entries);
        let answers = cost.arena_bytes + 4096;
        assert!(
            built.retained <= answers,
            "sum build of {n} rows retains {} bytes for {} of answers",
            built.retained,
            cost.arena_bytes
        );
        assert!(
            built.peak <= answers + 24 * rows_bytes + 4 * dict_bytes,
            "sum build of {n} rows peaks at {} bytes",
            built.peak
        );
        allocations.push(built.allocations);

        // The materialized fallback joins, projects and sorts in the
        // same code space, and keeps two codes and one index slot per
        // answer.
        let engine = Engine::new(Arc::clone(&snap));
        let built = heap_during(|| {
            engine
                .prepare_uncached(&qproj, xz(), &FdSet::empty(), Policy::Materialize)
                .unwrap()
        });
        assert_eq!(built.out.backend(), Backend::Materialized);
        let answers = 16 * built.out.len() + 4096;
        assert!(
            built.retained <= answers,
            "materialized build of {n} rows retains {} bytes for {} answers",
            built.retained,
            built.out.len()
        );
        allocations.push(built.allocations);

        assert_eq!(
            relation_encode_count(),
            encodes,
            "builds over a frozen snapshot re-encode nothing"
        );
    }
    // Eight times the rows: the same allocations plus a few vector
    // doublings — nothing is allocated per row.
    let [lex_small, sum_small, mat_small, lex_large, sum_large, mat_large] = allocations[..] else {
        unreachable!("two sizes, three builds each");
    };
    assert!(
        mat_large <= mat_small + 64,
        "materialized build allocations grew {mat_small} -> {mat_large}"
    );
    assert!(
        lex_large <= lex_small + 64,
        "lex build allocations grew {lex_small} -> {lex_large}"
    );
    assert!(
        sum_large <= sum_small + 64,
        "sum build allocations grew {sum_small} -> {sum_large}"
    );
}

#[test]
fn selections_are_encode_free_and_free_their_scratch() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let trio = q.vars(&["x", "z", "y"]);
    let (mut blocks, mut constructions) = (Vec::new(), Vec::new());
    for n in [400i64, 6400] {
        let snap = sparse_snapshot(n);
        let dict_bytes = 4 * snap.dict().len() as u64;
        let encodes = relation_encode_count();

        // LEX: the handle keeps the reduced relations and nothing sized
        // by the dictionary — a histogram that outlived the constructor
        // would add four times `dict_bytes`.
        let built = heap_during(|| {
            SelectionLexHandle::new(&q, &snap, trio.clone(), &FdSet::empty()).unwrap()
        });
        constructions.push(built.allocations);
        let lex = built.out;
        let held = 2 * lex.build_cost().arena_bytes + 4096;
        assert_eq!(
            lex.build_cost().arena_entries,
            2 * n as u64,
            "nothing dangles"
        );
        assert!(
            built.retained <= held,
            "lex handle over {n} rows retains {} bytes for {} of relations",
            built.retained,
            lex.build_cost().arena_bytes
        );
        if n == 400 {
            assert!(dict_bytes > held, "a leaked table would show here");
        }
        let k = lex.len() / 2;
        lex.select_once(k); // the first call may set up thread-local state
        let one = heap_during(|| lex.select_once(k).expect("k < len"));
        assert!(
            one.retained <= 256,
            "a lex selection over {n} rows leaves {} bytes besides its answer",
            one.retained
        );
        blocks.push(one.allocations);

        // SUM: the relations, the selection's two weight columns (each
        // weight kept once) and the row ids beside them — about 2.5 times
        // the relations, so a second copy of the weights fails here — and
        // again no table sized by the dictionary.
        let built = heap_during(|| {
            SelectionSumHandle::new(&q, &snap, Weights::identity(), &FdSet::empty()).unwrap()
        });
        constructions.push(built.allocations);
        let sum = built.out;
        let held = 3 * sum.build_cost().arena_bytes + 4096;
        assert!(
            built.retained <= held,
            "sum handle over {n} rows retains {} bytes for {} of relations",
            built.retained,
            sum.build_cost().arena_bytes
        );
        if n == 400 {
            assert!(dict_bytes > held, "a leaked table would show here");
        }
        sum.select_once(k);
        let one = heap_during(|| sum.select_once(k).expect("k < len"));
        assert!(
            one.retained <= 256,
            "a sum selection over {n} rows leaves {} bytes besides its answer",
            one.retained
        );
        blocks.push(one.allocations);
        // An access inside a tie plateau ranks the plateau and keeps
        // nothing of it: no index of every answer outlives the call.
        let weight = |k| sum.select_once(k).expect("k < len").0;
        let tied = (k..sum.len() - 1)
            .find(|&k| weight(k) == weight(k + 1))
            .expect("integer sums tie");
        let one = heap_during(|| sum.access(tied).expect("k < len"));
        assert!(
            one.retained <= 256,
            "a sum access at tied rank {tied} over {n} rows leaves {} bytes besides its answer",
            one.retained
        );

        assert_eq!(
            relation_encode_count(),
            encodes,
            "selection over a frozen snapshot re-encodes nothing"
        );
    }
    // Sixteen times the rows. Constructing a handle allocates the same
    // vectors plus a few doublings — cloning a value-level relation
    // would take a block per tuple.
    let [lex_small, sum_small, lex_large, sum_large] = constructions[..] else {
        unreachable!("two sizes, two handles each");
    };
    assert!(
        lex_large <= lex_small + 64 && sum_large <= sum_small + 64,
        "handle constructions grew: lex {lex_small} -> {lex_large}, sum {sum_small} -> {sum_large}"
    );
    // A lex selection runs the same rounds over the same number of
    // vectors, and a sum selection refills one range buffer in every
    // pivot round, however many rounds larger matrices take: exactly
    // as many blocks at either size.
    let [lex_small, sum_small, lex_large, sum_large] = blocks[..] else {
        unreachable!("two sizes, two handles each");
    };
    assert_eq!(lex_small, lex_large, "lex selection blocks grew with n");
    assert_eq!(sum_small, sum_large, "sum selection blocks grew with n");
}

#[test]
fn cold_open_allocates_nothing_per_row() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let path = std::env::temp_dir().join(format!("rda-alloc-open-{}.rdas", std::process::id()));
    let mut opened = Vec::new();
    for n in [400i64, 3200] {
        // The same 200-value dictionary at both sizes: (i % 200, i / 200).
        let snap = Database::new()
            .with_i64_rows("R", 2, (0..n).map(|i| vec![i % 200, i / 200]))
            .freeze();
        assert_eq!((snap.dict().len(), snap.size()), (200, n as usize));
        save_snapshot(&snap, &path).unwrap();
        let cold = heap_during(|| open_snapshot(&path).unwrap());
        assert_eq!(cold.out.size(), n as usize);
        opened.push((cold.allocations, cold.retained));
    }
    let _ = std::fs::remove_file(&path);
    // Eight times the rows: not one more block, and (on the zero-copy
    // path) not one more byte of heap — the columns live in the map.
    let [(allocs_small, heap_small), (allocs_large, heap_large)] = opened[..] else {
        unreachable!("two sizes");
    };
    assert_eq!(allocs_small, allocs_large, "open allocations grew with n");
    if cfg!(target_endian = "little") {
        assert_eq!(heap_small, heap_large, "open retained heap grew with n");
    }
}

#[test]
fn access_hot_paths_do_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A join with both integer and string values: decoding strings
    // clones `Arc<str>`s, which must not allocate either.
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let mut r = Relation::new("R", 2);
    let mut s = Relation::new("S", 2);
    for i in 0..300i64 {
        r.insert(
            [Value::int(i), Value::str(format!("j{}", i % 17))]
                .into_iter()
                .collect(),
        );
        s.insert(
            [Value::str(format!("j{}", i % 17)), Value::int(i * 3)]
                .into_iter()
                .collect(),
        );
    }
    let db = Database::new().with(r).with(s);
    let lex = q.vars(&["x", "y", "z"]);
    let da = LexDirectAccess::build(&q, &db, &lex, &FdSet::empty()).unwrap();
    assert!(da.len() > 1000, "workload big enough to matter");

    // Warm up: grow the output buffer and the per-thread scratch once.
    let mut out: Vec<Value> = Vec::with_capacity(8);
    let some_answer = da.access(da.len() / 2).unwrap();
    let not_an_answer = tup![-1, "nope", 0];
    da.access_into(0, &mut out);
    da.inverted_access(&some_answer);
    da.rank_of_lower_bound(&not_an_answer);

    let ks: Vec<u64> = (0..200u64).map(|i| (i * 7919) % da.len()).collect();

    // access_into: the full access path — descent plus decode into the
    // caller's buffer — performs zero heap allocations.
    let n = allocations_during(|| {
        for &k in &ks {
            assert!(da.access_into(k, &mut out));
            std::hint::black_box(&out);
        }
    });
    assert_eq!(n, 0, "access_into must not allocate on the hot path");

    // inverted_access / rank_of_lower_bound: zero allocations, answers
    // and non-answers alike.
    let probes: Vec<Tuple> = ks.iter().map(|&k| da.access(k).unwrap()).collect();
    let n = allocations_during(|| {
        for t in &probes {
            std::hint::black_box(da.inverted_access(t));
        }
        std::hint::black_box(da.inverted_access(&not_an_answer));
        std::hint::black_box(da.rank_of_lower_bound(&not_an_answer));
    });
    assert_eq!(n, 0, "inverted access must not allocate");

    // Owned-tuple access(): exactly one allocation — the emitted tuple.
    let n = allocations_during(|| {
        for &k in &ks {
            std::hint::black_box(da.access(k));
        }
    });
    assert_eq!(
        n,
        ks.len() as u64,
        "access() must allocate exactly the returned tuple"
    );

    // The SUM store honors the same contract.
    let qs = parse("Q(a, b) :- R2(a, b), S2(b, c)").unwrap();
    let db2 = Database::new()
        .with_i64_rows(
            "R2",
            2,
            (0..500).map(|i| vec![i, i % 23]).collect::<Vec<_>>(),
        )
        .with_i64_rows(
            "S2",
            2,
            (0..60).map(|i| vec![i % 23, i]).collect::<Vec<_>>(),
        );
    let sum = SumDirectAccess::build(&qs, &db2, &Weights::identity(), &FdSet::empty()).unwrap();
    assert!(sum.len() > 100);
    let answers: Vec<Tuple> = (0..sum.len()).map(|k| sum.access(k).unwrap()).collect();
    let sum_non_answer = tup![9999, 9999];
    sum.access_into(0, &mut out); // warm the buffer for arity 2
    sum.inverted_access(&answers[0]);

    let n = allocations_during(|| {
        for k in 0..sum.len() {
            assert!(sum.access_into(k, &mut out));
            std::hint::black_box(&out);
        }
        for t in &answers {
            std::hint::black_box(sum.inverted_access(t));
        }
        std::hint::black_box(sum.inverted_access(&sum_non_answer));
    });
    assert_eq!(n, 0, "SUM access_into / inverted_access must not allocate");

    let n = allocations_during(|| {
        for k in 0..sum.len() {
            std::hint::black_box(sum.access(k));
        }
    });
    assert_eq!(
        n,
        sum.len(),
        "SUM access() must allocate exactly the returned tuple"
    );

    // Windowed access: after one warm-up fill has grown the buffer,
    // refilling a same-sized window — the steady state of a paginating
    // server — performs zero heap allocations on both native arenas.
    let mut wbuf = WindowBuf::new();
    da.access_range_into(0..500, &mut wbuf); // warm: grow to 500 rows
    let n = allocations_during(|| {
        for lo in [0u64, 137, 1000] {
            assert_eq!(da.access_range_into(lo..lo + 500, &mut wbuf), 500);
            std::hint::black_box(&wbuf);
        }
    });
    assert_eq!(n, 0, "LEX windowed refills must not allocate");

    sum.access_range_into(0..100, &mut wbuf); // warm for arity 2
    let n = allocations_during(|| {
        for lo in [0u64, 17, 50] {
            assert_eq!(sum.access_range_into(lo..lo + 100, &mut wbuf), 100);
            std::hint::black_box(&wbuf);
        }
    });
    assert_eq!(n, 0, "SUM windowed refills must not allocate");

    // Batched access: after a same-sized warm-up batch has grown the
    // output buffer and the per-thread scratch (per-layer descent
    // traces), refilling from a fresh rank set — the steady state of a
    // point-lookup server — performs zero heap allocations on both
    // native arenas, on either path the lex kernel picks: one descent
    // per rank for unsorted ranks, one shared descent for ascending
    // ones.
    let batch: Vec<u64> = (0..300u64).map(|i| (i * 2654435761) % da.len()).collect();
    let mut sorted = batch.clone();
    sorted.sort_unstable();
    da.access_batch_into(&batch, &mut wbuf); // warm buffer + scratch
    da.access_batch_into(&sorted, &mut wbuf);
    let shifted: Vec<u64> = batch.iter().map(|&k| (k + 13) % da.len()).collect();
    let n = allocations_during(|| {
        assert_eq!(da.access_batch_into(&shifted, &mut wbuf), 300);
        assert_eq!(da.access_batch_into(&batch, &mut wbuf), 300);
        std::hint::black_box(&wbuf);
    });
    assert_eq!(n, 0, "LEX unsorted batched refills must not allocate");
    let n = allocations_during(|| {
        assert_eq!(da.access_batch_into(&sorted, &mut wbuf), 300);
        std::hint::black_box(&wbuf);
    });
    assert_eq!(n, 0, "LEX ascending batched refills must not allocate");

    let sum_batch: Vec<u64> = (0..100u64).map(|i| (i * 7919) % sum.len()).collect();
    sum.access_batch_into(&sum_batch, &mut wbuf); // warm for arity 2
    let n = allocations_during(|| {
        assert_eq!(sum.access_batch_into(&sum_batch, &mut wbuf), 100);
        std::hint::black_box(&wbuf);
    });
    assert_eq!(n, 0, "SUM batched refills must not allocate");

    // The materialized fallback serves from the same answer array. No
    // warm-up inverted access: the first one must not build anything.
    let qproj = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
    let engine = Engine::new(db.freeze());
    let mat = engine
        .prepare_uncached(
            &qproj,
            OrderSpec::lex(&qproj, &["x", "z"]),
            &FdSet::empty(),
            Policy::Materialize,
        )
        .unwrap();
    assert_eq!(mat.backend(), Backend::Materialized);
    let answers: Vec<Tuple> = mat.iter().collect();
    assert!(answers.len() > 1000, "workload big enough to matter");
    mat.access_into(0, &mut out); // warm the buffer for arity 2
    mat.access_range_into(0..100, &mut wbuf);
    let n = allocations_during(|| {
        for k in 0..mat.len() {
            assert!(mat.access_into(k, &mut out));
            std::hint::black_box(&out);
        }
    });
    assert_eq!(n, 0, "materialized access_into must not allocate");
    let n = allocations_during(|| {
        for lo in [0u64, 17, 500] {
            assert_eq!(mat.access_range_into(lo..lo + 100, &mut wbuf), 100);
            std::hint::black_box(&wbuf);
        }
    });
    assert_eq!(n, 0, "materialized windowed refills must not allocate");
    let n = allocations_during(|| {
        for (k, t) in answers.iter().enumerate() {
            assert_eq!(mat.inverted_access(t), Some(k as u64));
        }
    });
    assert_eq!(n, 0, "materialized inverted_access must not allocate");

    // Ranked enumeration through `iter()` on a warm native plan: once
    // the first batch has grown the stream's buffer, every answer costs
    // exactly its returned tuple, batch refills included.
    let plan = engine
        .prepare_uncached(
            &q,
            OrderSpec::lex(&q, &["x", "y", "z"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    assert_eq!(plan.backend(), Backend::LexDirectAccess);
    let mut stream = plan.iter();
    assert!(stream.next().is_some());
    let n = allocations_during(|| {
        for t in stream.by_ref() {
            std::hint::black_box(t);
        }
    });
    assert_eq!(
        n,
        plan.len() - 1,
        "iter() must allocate exactly the returned tuples"
    );
}

#[test]
fn a_warm_page_allocates_only_its_next_token() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let db = Database::new()
        .with_i64_rows("R", 2, (0..60i64).map(|i| vec![i, i % 7]))
        .with_i64_rows("S", 2, (0..60i64).map(|i| vec![i % 7, i]));
    let server = Server::with_defaults(Arc::new(Engine::new(db.freeze())));
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let order = OrderSpec::lex(&q, &["x", "y", "z"]);
    let mut session = server.session();
    let prepared = session.prepare(&q, order, &FdSet::empty(), Policy::Reject);
    let (token, total) = prepared.map(|p| (p.token, p.len)).unwrap();
    assert!(total > 200, "the join fans out");
    let ranks: Vec<u64> = (0..50u64).map(|i| (i * 37) % total).collect();
    // Warm up: grow the page buffer and the batch kernel's scratch.
    session.page(&token, 0, 50).unwrap();
    session.page_batch(&token, &ranks).unwrap();

    let mut next = None;
    let n = allocations_during(|| next = session.page(&token, 100, 50).unwrap().next);
    assert_eq!(n, 1, "page: the next token only");
    let next = next.expect("mid-sequence");
    let n = allocations_during(|| {
        assert!(session.stream_next(&next, 50).unwrap().next.is_some());
    });
    assert_eq!(n, 1, "stream_next: the next token only");
    let n = allocations_during(|| {
        assert_eq!(session.page_batch(&next, &ranks).unwrap().rows, 50);
    });
    assert_eq!(n, 1, "page_batch: the re-stamped token only");
    let n = allocations_during(|| {
        let last = session.page(&token, total - 20, 50).unwrap();
        assert_eq!((last.rows, last.next), (20, None));
    });
    assert_eq!(n, 0, "a page that ends the sequence returns no token");
}
