//! Direct access by lexicographic orders (Sections 3, 4, and 8.2).
//!
//! Pipeline, following the paper:
//!
//! 1. normalize the instance (self-joins copied apart, repeated
//!    variables filtered);
//! 2. apply the FD-extension to query, order, and instance
//!    (Definitions 8.2/8.13, Lemma 8.5) — identity without FDs;
//! 3. reduce the free-connex query to a full acyclic query over its free
//!    variables (Proposition 2.3 / Lemma 3.10) — the build's one
//!    Yannakakis pass, over the query's own join tree;
//! 4. complete the partial order (Lemma 4.4) and build the layered join
//!    tree (Definition 3.4 / Lemma 3.9);
//! 5. over the snapshot's order-preserving dictionary codes, project
//!    each layer from its defining edge (the reduced instance is
//!    globally consistent, so no layer needs another semijoin), bucket
//!    by the preceding variables, order each bucket by the layer
//!    variable, and run the counting DP (Figure 4). Codes are dense
//!    ranks, and every kernel of the build leans on that: rows that
//!    share a join key get one dense id ([`rda_db::key_ids`]; a
//!    one-variable key is its own code). Every relation here is
//!    normalized by construction, so a layer that is all of its atom's
//!    columns *is* that atom's relation — read in place, from the
//!    snapshot when nothing dangled, mapped columns included, and moved,
//!    not copied, when the reducer made it — and one onto a prefix of
//!    them is one deduplicating pass. A layer whose variable is its
//!    node's last column is already in bucket order; every other order
//!    is a stable LSD radix sort over the codes — linear, where the
//!    paper's sorting step is ⟨n log n⟩. The DP first finds, in one pass
//!    per child, every row's child bucket through a `key id → bucket`
//!    table and folds that bucket's count into the row's weight; one
//!    walk of the rows then appends the entries. Counts are `u64` under
//!    checked arithmetic. What each phase cost is kept on the structure
//!    ([`LexDirectAccess::build_cost`]);
//! 6. answer accesses with Algorithm 1 — one descent (a division and a
//!    directory-bracketed search per layer) behind single accesses,
//!    windows and batches; a sorted batch resumes it at its carry layer
//!    — and inverted/next-answer accesses with Algorithm 2 / Remark 3.
//!    Every descent and the window's odometer share one child step.
//!
//! # Layout
//!
//! Step 5's product is not the paper's abstract "bucket per assignment"
//! map but a flat **arena** per layer (`Layer`): each entry packs its
//! layer-variable code, the cumulative weight of the entries before it
//! in its bucket (Figure 4's `s`), and — precomputed — the index of the
//! agreeing bucket in every child layer, into 16 bytes (`Entry`).
//! Buckets are contiguous entry ranges described by `BucketMeta`, and
//! large buckets carry an exact rank directory that brackets every
//! rank query to an O(1) expected window — the arena's one search
//! structure: the value-keyed searches of Algorithm 2 binary-search the
//! bucket's sorted value column directly. An access therefore runs as a
//! division and a couple of cache-line touches per layer plus array
//! indexing: no hashing, no key-tuple construction, no heap allocation.
//! Values reappear only when an answer is emitted, decoded through the
//! [`Dictionary`].

use crate::budget::{BudgetMeter, BuildBudget, BuildCost, PhaseClock};
use crate::error::BuildError;
use crate::plan::DirectAccess;
use crate::rankdir::{self, NO_DIR};
use crate::snapprep::{
    build_derivations_encoded, prepare_instance, project_view, reduce_to_full_encoded, Derivation,
    EncRel,
};
use crate::window::WindowBuf;
use rda_db::{key_ids, Database, EncodedRelation, Snapshot, Tuple, Value};
use rda_query::classify::Problem;
use rda_query::{
    complete_order, fd_reordered_order, layered_join_tree, positions_of, Cq, FdSet, VarId,
};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

/// Fault site: entry of the lexicographic build kernel
/// ([`LexDirectAccess::build_on`]).
pub const SITE_LEXDA_BUILD: &str = "lexda::build";

/// Buckets smaller than this skip the rank directory: a binary search
/// over so few entries is already one or two cache lines.
const DIR_MIN_ENTRIES: usize = 16;

/// Size of the fixed stack buffers the access paths use when the query
/// is small enough (in variables and layers) — the overwhelmingly
/// common case, sparing the thread-local round trip.
const STACK_SCRATCH: usize = 32;

/// How many entries the batch kernel's resume layer scans forward from
/// the previous cursor before giving up and searching the rank
/// directory's window, clipped to the entries after the cursor. A
/// sorted batch's typical carry lands on an adjacent entry, so a
/// handful of sequential (same-cache-line) probes beats a directory
/// lookup plus binary search almost always.
const LINEAR_ADVANCE: usize = 8;

/// Per-bucket metadata, packed so a layer descent reads one struct
/// (plus its neighbor's `offset` implicitly via `len`) instead of
/// probing parallel arrays.
#[derive(Debug, Clone)]
struct BucketMeta {
    /// Sum of the bucket's entry weights (Figure 4's subtree counts).
    total: u64,
    /// First entry index of the bucket in the layer's entry arrays.
    offset: u32,
    /// Number of entries.
    len: u32,
    /// Offset of this bucket's rank directory in
    /// [`Layer::dir_pool`], or [`NO_DIR`].
    dir: u32,
    /// log₂ of the directory's slot count `B`.
    dir_log: u8,
}

/// One layer's arena: the struct-of-arrays form of Figure 4's bucketed,
/// weighted, sorted runs.
///
/// Entries are grouped into buckets (one bucket per assignment of the
/// bucket-key variables), buckets are stored back to back sorted by
/// their key codes, and entries within a bucket ascend by value code. All
/// rank arithmetic on this data is exact: construction fails with
/// [`BuildError::CountOverflow`] rather than letting a count exceed
/// `u64`, so every `start × factor` product during an access is a
/// sub-count of the total and cannot overflow.
///
/// # Rank directories
///
/// For buckets with many entries, the per-access binary search over
/// `starts` is a chain of dependent cache misses — the dominant cost of
/// Algorithm 1 once hashing is gone. Each such bucket therefore carries
/// a **rank directory**: `B = 2^dir_log` slots where slot `j` stores
/// `#{entries e : starts[e]·B ≤ j·total}` (computed exactly, in `u64`,
/// at build time). For a normalized rank `q < total`, the answer of the
/// search provably lies in the window
/// `dir[⌊q·B/total⌋] ..= dir[⌊q·B/total⌋ + 1]`, which for `B ≈ len` is
/// O(1) expected entries — turning the descent into one division plus a
/// touch of one or two cache lines per layer.
#[derive(Debug, Clone)]
struct Layer {
    /// Child layers in the layered join tree.
    children: Vec<usize>,
    /// Per entry: the rank-descent hot data, packed to 16 bytes so one
    /// directory window touches one cache line. Algorithm 2's
    /// value-keyed searches run over the same array.
    entries: Vec<Entry>,
    /// Per entry × extra child beyond the first: the agreeing bucket
    /// (`extra_children[e * (children.len() - 1) + (c - 1)]`) — only
    /// branching layered trees populate this.
    extra_children: Vec<u32>,
    /// Per bucket: entry range, total weight, rank directory.
    buckets: Vec<BucketMeta>,
    /// Backing store for the rank directories.
    dir_pool: Vec<u32>,
}

/// One arena entry's hot data (16 bytes).
#[derive(Debug, Clone)]
struct Entry {
    /// Total weight of the entries before this one in its bucket
    /// (Figure 4's `s` column).
    start: u64,
    /// Code of the layer variable's value.
    value: u32,
    /// Bucket index in the first child layer (0 when childless).
    child0: u32,
}

impl Layer {
    /// Bytes of heap storage behind this layer's arrays.
    fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.entries.len() * size_of::<Entry>()
            + self.buckets.len() * size_of::<BucketMeta>()
            + 4 * (self.extra_children.len() + self.dir_pool.len())) as u64
    }

    /// Algorithm 1's layer search: the absolute index of the last entry
    /// of bucket `m` with `start ≤ q`, for a normalized rank
    /// `q < m.total`. The rank directory brackets the first entry with
    /// `start > q` to a window, which is clipped to the entries at or
    /// after `from` — 0 for a fresh layer; a resumed one knows that
    /// entry lies past its scanned prefix.
    #[inline(always)]
    fn rank_search(&self, m: &BucketMeta, q: u64, from: usize) -> usize {
        let lo = m.offset as usize;
        let (wlo, whi) =
            rankdir::rank_window(&self.dir_pool, m.dir, m.dir_log, m.total, m.len as usize, q);
        rankdir::bracketed_partition_point(&self.entries, (lo + wlo).max(from), lo + whi, |e| {
            e.start <= q
        }) - 1
    }

    /// The resumed layer's search: [`Layer::rank_search`] for a `q` at or
    /// after the entry `cursor` of the previous descent. A sorted
    /// batch's typical carry lands on an adjacent entry, so up to
    /// [`LINEAR_ADVANCE`] entries are stepped over first.
    #[inline(always)]
    fn rank_search_after(&self, m: &BucketMeta, q: u64, cursor: usize) -> usize {
        let end = (m.offset + m.len) as usize;
        let past = cursor + LINEAR_ADVANCE + 1;
        (cursor..past)
            .find(|&idx| idx + 1 == end || self.entries[idx + 1].start > q)
            // Entry `past` starts at or below `q`: the first entry above
            // `q` lies after it.
            .unwrap_or_else(|| self.rank_search(m, q, past + 1))
    }
}

/// One descent's per-layer state: the bucket (`chosen`) and absolute
/// entry (`entry`) picked at every layer, and what the descent records
/// for a later resume (`trace`). `chosen[0]` is always 0: the root
/// layer has one bucket and is no layer's child.
struct Cursor<'s, T> {
    chosen: &'s mut [u32],
    entry: &'s mut [u32],
    trace: T,
}

/// One layer of the sorted-batch walk's trace: the residual rank
/// entering the layer, its post-division factor (answers per unit of
/// the layer's `start`), and the chosen entry's exclusive residual
/// bound (`next_start · f_div`) — the carry detector.
#[derive(Clone, Copy, Default)]
struct Carry {
    k_in: u64,
    f_div: u64,
    upper: u64,
}

/// Where a descent records its layers. Single accesses, windows and
/// unsorted batches record nothing (`()`, so the stores compile away);
/// the sorted-batch walk records one [`Carry`] per layer.
trait Trace {
    fn record(&mut self, i: usize, carry: Carry);
}

impl Trace for () {
    #[inline(always)]
    fn record(&mut self, _: usize, _: Carry) {}
}

impl Trace for &mut [Carry] {
    #[inline(always)]
    fn record(&mut self, i: usize, carry: Carry) {
        self[i] = carry;
    }
}

/// Marks, in a child-bucket column, a row no child bucket agrees with.
const NO_BUCKET: u32 = u32::MAX;

/// The counting DP's link from a parent layer to one child layer: per
/// row of `parent`, the child bucket that agrees with it on the child's
/// bucket key, [`NO_BUCKET`] where none does. The key's codes sit in the
/// parent's columns `positions` and in the child's `child_keys`, and
/// `opened` lists the row that opened each child bucket. One
/// [`key_ids`] pass, then one read of a `key id → bucket` table per row.
fn child_buckets(
    parent: &EncodedRelation,
    positions: &[usize],
    child: &EncodedRelation,
    child_keys: &[usize],
    opened: &[(u32, u32)],
) -> Vec<u32> {
    let ids = key_ids(parent, positions, child, child_keys);
    let mut table = vec![NO_BUCKET; ids.len];
    for (b, &(row, _)) in opened.iter().enumerate() {
        table[ids.build[row as usize] as usize] = b as u32;
    }
    let bucket = |&id: &u32| table.get(id as usize).copied().unwrap_or(NO_BUCKET);
    ids.probe.iter().map(bucket).collect()
}

/// Everything the preprocessing pipeline (steps 1–4 plus the encoded
/// layer materialization of step 5) produces — the input of the arena
/// construction in [`LexDirectAccess::from_prep`]. All relations are in
/// the snapshot's shared code space; nothing here owns a dictionary.
/// (The pre-arena oracle in `rda_baseline::reference` does *not*
/// consume this: it runs the value-level pipeline, so the differential
/// tests compare two genuinely independent builds.)
pub(crate) struct LayerPrep<'a> {
    pub(crate) out_vars: Vec<VarId>,
    pub(crate) order: Vec<VarId>,
    pub(crate) var_slots: usize,
    pub(crate) derivations: Vec<Derivation>,
    /// Fully reduced layer relations under the snapshot's dictionary
    /// (columns in ascending [`VarId`] order per `layer_vars`), already
    /// sorted by (bucket key, layer value) — the arena construction
    /// consumes them in one pass. A layer that is all of its reduced
    /// atom is that atom's relation, the snapshot's own when nothing
    /// dangled. Empty exactly in the boolean / fully-implied case.
    pub(crate) enc_layers: Vec<EncRel<'a>>,
    pub(crate) layer_vars: Vec<Vec<VarId>>,
    pub(crate) children: Vec<Vec<usize>>,
    /// Answer count for the boolean case (`enc_layers.is_empty()`).
    pub(crate) trivial_total: u64,
    /// Phase times of the preparation so far (`dp` and the arena
    /// figures are filled in by [`LexDirectAccess::from_prep`]).
    pub(crate) cost: BuildCost,
}

/// A layer's columns (`vars`) by role: its bucket-key columns (every
/// column but the layer variable's), and the layer variable's column.
fn layer_columns(vars: &[VarId], layer_var: VarId) -> (Vec<usize>, usize) {
    let value_pos = vars
        .iter()
        .position(|&v| v == layer_var)
        .expect("layer var in node");
    let keys: Vec<usize> = (0..vars.len()).filter(|&p| p != value_pos).collect();
    (keys, value_pos)
}

/// Steps 1–5a of [`LexDirectAccess::build_on`]: classify, then run the
/// whole preparation — normalization, FD checks and extension, the
/// free-connex-to-full reduction (the build's only dangling-tuple
/// removal), order completion, one projection per layer, and bucket
/// sorting — in the snapshot's code space. No relation is re-encoded:
/// the only encoding happened at [`Database::freeze`] time.
///
/// The per-layer stages run one after another on the calling thread:
/// a layer costs tens to hundreds of microseconds on the benchmark
/// tiers, less than a scoped-thread spawn per layer pays back (and a
/// fan-out measured no gain up to 400 k tuples per relation on the
/// 2-vCPU reference host).
pub(crate) fn prepare_layers<'a>(
    q: &Cq,
    snap: &'a Snapshot,
    lex: &[VarId],
    fds: &FdSet,
) -> Result<LayerPrep<'a>, BuildError> {
    let mut clock = PhaseClock::start();
    let mut cost = BuildCost::default();
    validate_lex(q, lex)?;
    let (ext, rels) = prepare_instance(q, snap, fds, &Problem::DirectAccessLex(lex.to_vec()))?;
    let qp = ext.query.clone();
    let l_plus = fd_reordered_order(&ext, lex);
    let derivations = build_derivations_encoded(&ext, &rels)?;
    cost.prep_ns = clock.lap();

    let mut red = reduce_to_full_encoded(&qp, rels)
        .expect("classification guarantees the extension is free-connex");
    cost.reduce_ns = clock.lap();

    // Boolean (or fully-implied) case: no order variables at all.
    let order =
        complete_order(&qp, &l_plus).expect("classification guarantees a trio-free completion");
    if order.is_empty() {
        debug_assert!(derivations.is_empty(), "no order ⇒ no free ⇒ no promotions");
        return Ok(LayerPrep {
            out_vars: q.free().to_vec(),
            order,
            var_slots: qp.var_count(),
            derivations,
            enc_layers: Vec::new(),
            layer_vars: Vec::new(),
            children: Vec::new(),
            trivial_total: u64::from(!red.known_empty),
            cost,
        });
    }

    // Layered join tree over the reduced, globally consistent full
    // query: a layer is the projection of its defining edge, no semijoin
    // could remove a row, and every tuple has positive weight (Figure 4).
    let atoms = red.query.atoms();
    let edges: Vec<_> = atoms.iter().map(|a| a.var_set()).collect();
    let layered = layered_join_tree(&edges, &order)
        .expect("Lemma 3.10: the reduction preserves trio-freeness");
    let f = order.len();
    let layer_vars: Vec<Vec<VarId>> = layered
        .layers
        .iter()
        .map(|node| node.vars.iter().collect())
        .collect();
    let edge = |i: usize| layered.layers[i].defining_edge;
    let mut enc_layers: Vec<EncRel<'a>> = (0..f)
        .map(|i| {
            let (e, last) = (edge(i), (i + 1..f).all(|j| edge(j) != edge(i)));
            let positions = positions_of(&atoms[e].terms, &layer_vars[i]);
            project_view(&mut red.rels[e], &positions, last)
        })
        .collect();
    cost.layers_ns = clock.lap();

    // Bucket-sort every layer. When the layer variable is the node's
    // last column, (bucket key, layer value) is the storage order the
    // projection already left the rows in: nothing to do. Otherwise
    // `sort_by_cols` orders the layer's codes — a borrowed layer's copy.
    for (i, enc) in enc_layers.iter_mut().enumerate() {
        let (mut keys, value_pos) = layer_columns(&layer_vars[i], order[i]);
        keys.push(value_pos);
        if layer_vars[i].last() == Some(&order[i]) {
            debug_assert!(
                (1..enc.len()).all(|r| enc.cmp_rows_on(r - 1, r, &keys).is_lt()),
                "a projected layer ascends in (bucket key, layer value)"
            );
            continue;
        }
        enc.to_mut().sort_by_cols(&keys);
    }
    cost.sort_ns = clock.lap();
    #[cfg(debug_assertions)]
    assert_layers_consistent(&layered, &layer_vars, &red, &enc_layers);

    let children: Vec<Vec<usize>> = (0..f).map(|i| layered.children(i)).collect();
    Ok(LayerPrep {
        out_vars: q.free().to_vec(),
        order,
        var_slots: qp.var_count(),
        derivations,
        enc_layers,
        layer_vars,
        children,
        trivial_total: 0,
        cost,
    })
}

/// The proof step [`prepare_layers`] no longer runs, kept as a debug
/// check: every layer is a projection of the join, so no assigned-edge
/// semijoin may remove a row, and neither may a semijoin along a
/// layered-tree edge in either direction (the layered full reducer's
/// only steps).
#[cfg(debug_assertions)]
fn assert_layers_consistent(
    layered: &rda_query::LayeredJoinTree,
    layer_vars: &[Vec<VarId>],
    red: &crate::snapprep::EncodedReduction,
    enc_layers: &[EncRel<'_>],
) {
    let keeps_all = |rel: &EncodedRelation, vars: &[VarId], other, other_vars: &[VarId]| {
        let (keys, other_keys) = rda_query::shared_positions(vars, other_vars);
        rel.semijoin_plan(&keys, other, &other_keys).is_none()
    };
    for (i, node) in layered.layers.iter().enumerate() {
        let (rel, vars) = (&enc_layers[i], &layer_vars[i]);
        for &e in &node.assigned_edges {
            let atom_vars = &red.query.atoms()[e].terms;
            // An atom a layer took whole is that layer.
            let whole = (0..layer_vars.len()).find(|&j| layer_vars[j] == *atom_vars);
            let atom = whole.map_or(&*red.rels[e], |j| &*enc_layers[j]);
            debug_assert!(keeps_all(rel, vars, atom, atom_vars));
        }
        if let Some(p) = node.parent {
            debug_assert!(keeps_all(rel, vars, &enc_layers[p], &layer_vars[p]));
            debug_assert!(keeps_all(&enc_layers[p], &layer_vars[p], rel, vars));
        }
    }
}

/// Reusable per-thread buffers for the access hot paths. Kept in a
/// thread-local (not in the structure) so [`LexDirectAccess`] stays
/// `Sync` and accesses allocate nothing once the buffers have grown to
/// the structure's dimensions.
#[derive(Default)]
struct Scratch {
    /// Per layer: the absolute entry index chosen for it.
    entry: Vec<u32>,
    /// Per layer: the bucket index chosen for it.
    chosen: Vec<u32>,
    /// Per order position: `(code lower bound, could be exact)`.
    target: Vec<(u32, bool)>,
    /// Per variable slot: the probe bound before mapping to positions.
    var_bound: Vec<(u32, bool)>,
    /// Sorted-batch walk, per layer: the trace of the previous descent.
    carry: Vec<Carry>,
}

impl Scratch {
    fn ensure(&mut self, var_slots: usize, layers: usize, order: usize) {
        if self.var_bound.len() < var_slots {
            self.var_bound.resize(var_slots, (0, false));
        }
        if self.chosen.len() < layers {
            self.chosen.resize(layers, 0);
            self.entry.resize(layers, 0);
            self.carry.resize(layers, Carry::default());
        }
        if self.target.len() < order {
            self.target.resize(order, (0, false));
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            entry: Vec::new(),
            chosen: Vec::new(),
            target: Vec::new(),
            var_bound: Vec::new(),
            carry: Vec::new(),
        })
    };
}

/// A direct-access structure for the answers of a conjunctive query
/// sorted by a (possibly partial) lexicographic order (Theorem 3.3 /
/// 4.1 / 8.21: ⟨n log n⟩ construction, ⟨log n⟩ per access).
///
/// Internally the structure is a [`Dictionary`](rda_db::Dictionary)
/// plus one flat struct-of-arrays arena per layer; `access_into`, `inverted_access`,
/// and `rank_of_lower_bound` run as binary searches over integer slices
/// and perform **no heap allocation**. The owned forms (`access`,
/// windows, batches, `iter`) come from [`DirectAccess`].
///
/// ```
/// use rda_core::{DirectAccess, LexDirectAccess};
/// use rda_db::Database;
/// use rda_query::{parser::parse, FdSet};
///
/// let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
/// let db = Database::new()
///     .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
///     .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![5, 6], vec![2, 5]]);
/// let lex = q.vars(&["x", "y", "z"]);
/// let da = LexDirectAccess::build(&q, &db, &lex, &FdSet::empty()).unwrap();
/// assert_eq!(da.len(), 5);
/// // Figure 2b: the 3rd answer (index 2) is (1, 5, 4).
/// assert_eq!(da.access(2).unwrap().values()[2], 4.into());
/// ```
#[derive(Debug, Clone)]
pub struct LexDirectAccess {
    /// Head variables of the original query, defining the output tuple.
    out_vars: Vec<VarId>,
    /// Per head position: the layer whose variable fills it (every head
    /// variable is an order variable, so answers decode straight from
    /// the chosen layer entries).
    out_layers: Vec<usize>,
    /// The complete order over `free(Q⁺)` actually used internally.
    order: Vec<VarId>,
    /// Number of variables interned in the query (assignment array size).
    var_slots: usize,
    /// The shared snapshot the structure was built over; its dictionary
    /// decodes every code in the arena.
    snap: Arc<Snapshot>,
    layers: Vec<Layer>,
    derivations: Vec<Derivation>,
    total: u64,
    /// What the build paid, per phase (see [`BuildCost`]).
    cost: BuildCost,
}

impl LexDirectAccess {
    /// Build the structure for query `q` over a frozen [`Snapshot`],
    /// ordered by the (partial) lexicographic order `lex`, under unary
    /// FDs `fds`. The whole build runs in the snapshot's code space —
    /// no relation is re-encoded or cloned, so every structure built
    /// over the same snapshot shares one dictionary and one encoding
    /// pass.
    ///
    /// The structure pins the snapshot it was built over (that is what
    /// keeps it immutable): under live updates, later
    /// [`Snapshot::freeze_delta`] generations never disturb it — it
    /// keeps serving its own generation's answers until a new structure
    /// is built over (or carried into) the next generation by the
    /// engine.
    ///
    /// Fails with [`BuildError::NotTractable`] exactly on the paper's
    /// intractable side (Theorem 4.1 / 8.21), and with
    /// [`BuildError::CountOverflow`] when the answer count would not fit
    /// in `u64` (rank arithmetic would be unrepresentable).
    pub fn build_on(
        q: &Cq,
        snap: &Arc<Snapshot>,
        lex: &[VarId],
        fds: &FdSet,
    ) -> Result<Self, BuildError> {
        Self::build_on_budgeted(q, snap, lex, fds, BuildBudget::UNLIMITED)
    }

    /// [`LexDirectAccess::build_on`] under a [`BuildBudget`]: the
    /// counting-DP arenas charge the budget as they grow (per entry and
    /// per rank directory), and the build aborts with
    /// [`BuildError::BudgetExceeded`] the moment a cap is crossed —
    /// before, not after, the offending allocation dominates memory.
    pub(crate) fn build_on_budgeted(
        q: &Cq,
        snap: &Arc<Snapshot>,
        lex: &[VarId],
        fds: &FdSet,
        budget: BuildBudget,
    ) -> Result<Self, BuildError> {
        rda_db::trip(SITE_LEXDA_BUILD).map_err(|f| BuildError::FaultInjected { site: f.site })?;
        let prep = prepare_layers(q, snap, lex, fds)?;
        Self::from_prep(prep, Arc::clone(snap), budget)
    }

    /// Convenience for one-shot builds from a value-level [`Database`]:
    /// clones and freezes `db` into a private snapshot, then builds.
    /// Serving workloads that prepare more than one structure should
    /// freeze once ([`Database::freeze`]) and call
    /// [`LexDirectAccess::build_on`] so the encoding cost is shared.
    pub fn build(q: &Cq, db: &Database, lex: &[VarId], fds: &FdSet) -> Result<Self, BuildError> {
        Self::build_on(q, &db.clone().freeze(), lex, fds)
    }

    pub(crate) fn from_prep(
        prep: LayerPrep,
        snap: Arc<Snapshot>,
        budget: BuildBudget,
    ) -> Result<Self, BuildError> {
        let mut clock = PhaseClock::start();
        let mut meter = budget.meter();
        let LayerPrep {
            out_vars,
            order,
            var_slots,
            derivations,
            enc_layers,
            layer_vars,
            children,
            trivial_total,
            mut cost,
        } = prep;

        // Inverted access derives every order variable from the probe
        // tuple: directly for original head variables, through an FD
        // chain for promoted ones. Verify coverage once here so the hot
        // path can skip per-call bookkeeping.
        {
            let mut covered: Vec<bool> = vec![false; var_slots];
            for &v in &out_vars {
                covered[v.index()] = true;
            }
            for d in &derivations {
                covered[d.var.index()] = true;
            }
            assert!(
                order.iter().all(|v| covered[v.index()]),
                "every order variable is a head variable or FD-promoted"
            );
        }

        // Every head variable is free in Q⁺, and the completed order
        // ranges over all of free(Q⁺), so each head position maps to
        // exactly one layer — the decode table of every emit path.
        let out_layers: Vec<usize> = out_vars
            .iter()
            .map(|v| {
                order
                    .iter()
                    .position(|o| o == v)
                    .expect("head variables appear in the completed order")
            })
            .collect();

        if enc_layers.is_empty() {
            return Ok(LexDirectAccess {
                out_vars,
                out_layers,
                order,
                var_slots,
                snap,
                layers: Vec::new(),
                derivations,
                total: trivial_total,
                cost,
            });
        }

        // Counting DP, deepest layer first (children have larger index):
        // each encoded layer arrives sorted by (bucket key, layer value)
        // from the sort stage of `prepare_layers`. One pass per child
        // finds every row's agreeing bucket there and multiplies its
        // total into the row's weight (0: a dangling row, dropped); one
        // walk of the rows then appends the entries, opening a bucket
        // where the key changes, and the buckets are closed after it.
        // Weights are u64 under checked arithmetic: construction fails
        // rather than store a count above u64::MAX.
        let f = order.len();
        let mut layers: Vec<Option<Layer>> = (0..f).map(|_| None).collect();
        // Per built layer, per bucket: the row that opened it and its
        // first entry — what its parent links to, and its extent.
        let mut opened: Vec<Vec<(u32, u32)>> = vec![Vec::new(); f];
        for i in (0..f).rev() {
            let (enc, vars) = (&enc_layers[i], &layer_vars[i]);
            let (key_positions, value_pos) = layer_columns(vars, order[i]);
            let rows = enc.len();
            assert!(
                rows <= u32::MAX as usize,
                "layer relation exceeds the u32 entry space"
            );
            // Per child: every row's agreeing bucket there. The child's
            // bucket-key variables are contained in this layer's by the
            // running intersection property.
            let mut weights = vec![1u64; rows];
            let links = children[i]
                .iter()
                .map(|&c| {
                    let (child_keys, _) = layer_columns(&layer_vars[c], order[c]);
                    let key_vars: Vec<VarId> =
                        child_keys.iter().map(|&p| layer_vars[c][p]).collect();
                    let (parent_keys, child) = (positions_of(vars, &key_vars), &enc_layers[c]);
                    let col = child_buckets(enc, &parent_keys, child, &child_keys, &opened[c]);
                    let buckets = &layers[c].as_ref().expect("children already built").buckets;
                    for (w, &b) in weights.iter_mut().zip(&col) {
                        let total = buckets.get(b as usize).map_or(0, |m| m.total);
                        *w = w.checked_mul(total).ok_or(BuildError::CountOverflow)?;
                    }
                    Ok(col)
                })
                .collect::<Result<Vec<Vec<u32>>, BuildError>>()?;

            let extra = links.len().saturating_sub(1);
            // Budget charge precedes the arena growth it accounts for:
            // a capped build stops before reserving the layer, not after.
            // (The instance is fully reduced, so every row becomes an
            // entry.)
            let entry_bytes = (std::mem::size_of::<Entry>() + extra * 4) as u64;
            meter.charge(entry_bytes * rows as u64, rows as u64)?;
            let mut layer = Layer {
                children: children[i].clone(),
                entries: Vec::with_capacity(rows),
                extra_children: Vec::with_capacity(rows * extra),
                buckets: Vec::new(),
                dir_pool: Vec::new(),
            };
            let value_col = enc.col(value_pos);
            let key_src: Vec<&[u32]> = key_positions.iter().map(|&p| enc.col(p)).collect();
            let mut buckets: Vec<(u32, u32)> = Vec::new();
            for (row, &w) in weights.iter().enumerate() {
                if w == 0 {
                    continue;
                }
                let same_key =
                    |&(first, _): &(u32, u32)| key_src.iter().all(|c| c[row] == c[first as usize]);
                if !buckets.last().is_some_and(same_key) {
                    buckets.push((row as u32, layer.entries.len() as u32));
                }
                layer.entries.push(Entry {
                    start: w, // the weight until the bucket's close
                    value: value_col[row],
                    child0: links.first().map_or(0, |col| col[row]),
                });
                for col in links.iter().skip(1) {
                    layer.extra_children.push(col[row]);
                }
            }
            debug_assert_eq!(layer.extra_children.len(), layer.entries.len() * extra);
            layer.buckets.reserve_exact(buckets.len());
            for (j, &(_, at)) in buckets.iter().enumerate() {
                let end = buckets
                    .get(j + 1)
                    .map_or(layer.entries.len(), |&(_, e)| e as usize);
                close_bucket(&mut layer, at as usize..end, &mut meter)?;
            }
            layers[i] = Some(layer);
            opened[i] = buckets;
        }
        let layers: Vec<Layer> = layers.into_iter().map(|l| l.expect("all built")).collect();
        let total = layers[0].buckets.first().map_or(0, |b| b.total);
        cost.dp_ns = clock.lap();
        cost.arena_entries = layers.iter().map(|l| l.entries.len() as u64).sum();
        cost.arena_bytes = layers.iter().map(Layer::heap_bytes).sum();

        Ok(LexDirectAccess {
            out_vars,
            out_layers,
            order,
            var_slots,
            snap,
            layers,
            derivations,
            total,
            cost,
        })
    }

    /// What this structure's build paid: nanoseconds per phase, arena
    /// entries and bytes. Recorded at build time; reading it costs
    /// nothing.
    pub fn build_cost(&self) -> &BuildCost {
        &self.cost
    }

    /// The complete internal order over `free(Q⁺)` (the requested prefix
    /// completed per Lemma 4.4, FD-reordered per Definition 8.13).
    pub fn internal_order(&self) -> &[VarId] {
        &self.order
    }

    /// The snapshot the structure was built over.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.snap
    }

    /// Algorithm 1's descent: from layer `from` down, pick in every
    /// layer's chosen bucket the entry whose answers contain the
    /// residual rank `k`, consume its share of `k`, and point the child
    /// layers at their agreeing buckets. `factor` is the number of
    /// answers extending the partial assignment entering layer `from`
    /// (`total` at the root); layers above `from` keep their cursor.
    /// Caller guarantees `k` is below that count. Pure integer searches;
    /// no allocation.
    ///
    /// Overflow-freedom: `factor` always equals the exact number of
    /// answers extending the current partial assignment, and every
    /// `start × factor` product counts a subset of those answers — both
    /// are `≤ total ≤ u64::MAX` by the build-time overflow check.
    #[inline(always)]
    fn descend<T: Trace>(&self, mut k: u64, mut factor: u64, from: usize, cur: &mut Cursor<'_, T>) {
        for i in from..self.layers.len() {
            let layer = &self.layers[i];
            let m = &layer.buckets[cur.chosen[i] as usize];
            factor = per_unit(factor, m.total);
            let q = if factor == 1 { k } else { k / factor };
            // Odometer reset: a carry leaves zero residual for every
            // layer below it — the bucket's first entry (starts ascend
            // strictly from 0), no search needed.
            let idx = if q == 0 {
                m.offset as usize
            } else {
                layer.rank_search(m, q, 0)
            };
            (k, factor) = self.commit(i, idx, k, factor, cur);
        }
        debug_assert_eq!(k, 0, "descent consumes the whole rank");
    }

    /// The sorted-batch walk's re-entry: resume the previous descent
    /// (traced in `cur`) at its carry layer `d` with residual `k`. That
    /// layer keeps its bucket and its recorded post-division factor,
    /// and — the batch's ranks ascend — its new entry lies at or after
    /// the old one; every layer below descends fresh.
    fn resume(&self, d: usize, k: u64, cur: &mut Cursor<'_, &mut [Carry]>) {
        let layer = &self.layers[d];
        let m = &layer.buckets[cur.chosen[d] as usize];
        let factor = cur.trace[d].f_div;
        let q = if factor == 1 { k } else { k / factor };
        let idx = layer.rank_search_after(m, q, cur.entry[d] as usize);
        let (k, factor) = self.commit(d, idx, k, factor, cur);
        self.descend(k, factor, d + 1, cur);
    }

    /// Choose entry `idx` of layer `i` for the residual `k` under the
    /// post-division `factor`: run the child step, trace the layer, and
    /// consume the entry's share of `k`. Returns the residual and the
    /// factor entering the next layer.
    #[inline(always)]
    fn commit<T: Trace>(
        &self,
        i: usize,
        idx: usize,
        k: u64,
        factor: u64,
        cur: &mut Cursor<'_, T>,
    ) -> (u64, u64) {
        let layer = &self.layers[i];
        let start = layer.entries[idx].start;
        // The entry's weight: the next entry starts at `start + w`.
        let w = self.child_step::<true>(layer, idx, cur.chosen);
        let carry = Carry {
            k_in: k,
            f_div: factor,
            upper: (start + w) * factor,
        };
        cur.trace.record(i, carry);
        cur.entry[i] = idx as u32;
        (k - start * factor, factor * w)
    }

    /// The per-entry child step of every descent: point each child layer
    /// of `layer` at the bucket agreeing with its entry `idx`. With
    /// `WEIGHT`, return the product of those buckets' totals (Figure 4's
    /// weight of the entry: answers per unit of its `start`); without,
    /// return 1 and load no child bucket.
    #[inline(always)]
    fn child_step<const WEIGHT: bool>(&self, layer: &Layer, idx: usize, chosen: &mut [u32]) -> u64 {
        let Some((&c0, rest)) = layer.children.split_first() else {
            return 1;
        };
        let b0 = layer.entries[idx].child0;
        chosen[c0] = b0;
        let mut w = if WEIGHT {
            self.layers[c0].buckets[b0 as usize].total
        } else {
            1
        };
        let base = idx * rest.len();
        for (ci, &c) in rest.iter().enumerate() {
            let b = layer.extra_children[base + ci];
            chosen[c] = b;
            if WEIGHT {
                w *= self.layers[c].buckets[b as usize].total;
            }
        }
        w
    }

    /// Debug cross-check of the sorted-batch walk (the pattern of
    /// `Snapshot::freeze_delta`'s merge check): the resumed descent of
    /// `k` chose the same entry at every layer as a fresh descent does.
    /// The walk holds the thread-local scratch, so only queries whose
    /// fresh cursor fits on the stack are checked.
    #[cfg(debug_assertions)]
    fn assert_resume_is_fresh(&self, k: u64, resumed: &[u32]) {
        let f = self.layers.len();
        if f <= STACK_SCRATCH {
            self.with_cursor(|fresh| {
                self.descend(k, self.total, 0, fresh);
                assert_eq!(fresh.entry[..f], resumed[..f], "resumed rank {k}");
            });
        }
    }

    /// Run `f` over an untraced [`Cursor`]: fixed stack arrays when the
    /// query has at most `STACK_SCRATCH` layers — virtually every real
    /// query — the thread-local scratch otherwise.
    #[inline]
    fn with_cursor<R>(&self, f: impl FnOnce(&mut Cursor<'_, ()>) -> R) -> R {
        let f = |chosen: &mut [u32], entry: &mut [u32]| {
            f(&mut Cursor {
                chosen,
                entry,
                trace: (),
            })
        };
        if self.layers.len() <= STACK_SCRATCH {
            return f(&mut [0; STACK_SCRATCH], &mut [0; STACK_SCRATCH]);
        }
        SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            s.ensure(self.var_slots, self.layers.len(), self.order.len());
            let Scratch { chosen, entry, .. } = &mut *s;
            f(chosen, entry)
        })
    }

    /// Decode the chosen layer entries into `out` (head order),
    /// allocation-free once `out` has the head arity's capacity.
    fn emit_into(&self, entry: &[u32], out: &mut Vec<Value>) {
        let dict = self.snap.dict();
        out.extend(self.out_layers.iter().map(|&i| {
            dict.value(self.layers[i].entries[entry[i] as usize].value)
                .clone()
        }));
    }

    /// Remark 3: the number of answers strictly before `answer` in the
    /// order, whether or not `answer` itself is an answer. Combined with
    /// [`DirectAccess::access_into`](crate::DirectAccess::access_into)
    /// this yields "return the next answer in order" for non-answers.
    /// Returns `None` if the tuple cannot be consistently derived (under
    /// FDs). O(log n), allocation-free.
    pub fn rank_of_lower_bound(&self, answer: &Tuple) -> Option<u64> {
        self.probe(answer).map(|(rank, _)| rank)
    }

    /// Remark 3's "inverted access for missing answers": the first
    /// answer `≥ answer` together with its index, or `None` when every
    /// answer precedes `answer`.
    pub fn next_at_or_after(&self, answer: &Tuple) -> Option<(u64, Tuple)> {
        let rank = self.rank_of_lower_bound(answer)?;
        self.access(rank).map(|t| (rank, t))
    }

    /// Shared core of the probe APIs: encode `answer` into code bounds
    /// and run [`LexDirectAccess::rank_lower_bound`]. Unlike the access
    /// paths this always uses the thread-local scratch: the probe state
    /// is wide enough that zeroing stack buffers would cost more than
    /// the thread-local round trip saves.
    fn probe(&self, answer: &Tuple) -> Option<(u64, bool)> {
        SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            s.ensure(self.var_slots, self.layers.len(), self.order.len());
            let Scratch {
                chosen,
                target,
                var_bound,
                ..
            } = &mut *s;
            if !self.fill_target(answer, var_bound, target) {
                return None;
            }
            Some(self.rank_lower_bound(&target[..self.order.len()], chosen))
        })
    }

    /// Derive, for each order position, the code lower bound of the
    /// probe tuple's value (and whether the value is interned exactly):
    /// directly from the head for original variables, through the
    /// code-keyed FD lookups for promoted ones. Returns `false` when the
    /// tuple cannot be an answer and has no derivable bound (arity
    /// mismatch or underivable promoted value).
    fn fill_target(
        &self,
        answer: &Tuple,
        var_bound: &mut [(u32, bool)],
        target: &mut [(u32, bool)],
    ) -> bool {
        if answer.arity() != self.out_vars.len() {
            return false;
        }
        let dict = self.snap.dict();
        for (i, &v) in self.out_vars.iter().enumerate() {
            var_bound[v.index()] = dict.lower_bound(&answer[i]);
        }
        for d in &self.derivations {
            // A promoted value is derivable only from an exactly interned
            // determinant; otherwise the tuple's rank is undefined under
            // the FD-reordered internal order (matching the paper's
            // convention that such tuples are never answers).
            let (from, exact) = var_bound[d.from.index()];
            if !exact {
                return false;
            }
            match d.image(from) {
                Some(c) => var_bound[d.var.index()] = (c, true),
                None => return false,
            }
        }
        for (i, &v) in self.order.iter().enumerate() {
            target[i] = var_bound[v.index()];
        }
        true
    }

    /// Odometer step of the window walk: move `cur` (left by a descent)
    /// to the next answer. Amortized O(1): most steps advance the
    /// deepest layer's entry within its bucket; a carry resets the
    /// suffix of layers to the first entries of their (re-derived)
    /// buckets, with no search anywhere. Returns `false` past the last
    /// answer.
    fn advance(&self, cur: &mut Cursor<'_, ()>) -> bool {
        let last_in_bucket = |i: usize| {
            let m = &self.layers[i].buckets[cur.chosen[i] as usize];
            cur.entry[i] + 1 == m.offset + m.len
        };
        let Some(i) = (0..self.layers.len()).rev().find(|&i| !last_in_bucket(i)) else {
            return false;
        };
        cur.entry[i] += 1;
        // Re-derive the suffix: every layer after the carry point
        // restarts at the first entry of its bucket, and each layer's
        // children (always deeper, by layered-tree construction) get
        // their buckets from the freshly chosen entry before they are
        // themselves visited.
        for j in i..self.layers.len() {
            let layer = &self.layers[j];
            if j > i {
                cur.entry[j] = layer.buckets[cur.chosen[j] as usize].offset;
            }
            self.child_step::<false>(layer, cur.entry[j] as usize, cur.chosen);
        }
        true
    }

    /// Seed a walk at rank `lo` and emit `n` consecutive answers through
    /// `out`: one O(log n) descent, then O(1) amortized per tuple.
    /// Caller guarantees `lo + n ≤ total`.
    fn walk_emit(&self, lo: u64, n: u64, cur: &mut Cursor<'_, ()>, out: &mut WindowBuf) {
        self.descend(lo, self.total, 0, cur);
        for step in 0..n {
            if step > 0 {
                let more = self.advance(cur);
                debug_assert!(more, "the walk stays within len()");
            }
            out.push_with(|vals| self.emit_into(cur.entry, vals));
        }
    }

    /// Core of Algorithm 2 and Remark 3: count answers strictly before
    /// the (possibly absent) tuple with the given order bounds; the
    /// boolean reports whether the tuple is an actual answer. Pure
    /// integer binary searches; no allocation.
    fn rank_lower_bound(&self, target: &[(u32, bool)], chosen: &mut [u32]) -> (u64, bool) {
        debug_assert_eq!(target.len(), self.layers.len());
        if self.layers.is_empty() {
            return (0, self.total == 1);
        }
        if self.total == 0 {
            return (0, false);
        }
        let mut rank = 0u64;
        let mut factor = self.total;
        for (i, layer) in self.layers.iter().enumerate() {
            let m = &layer.buckets[chosen[i] as usize];
            let lo = m.offset as usize;
            let hi = lo + m.len as usize;
            factor = per_unit(factor, m.total);
            let (code, can_exact) = target[i];
            // First entry with value ≥ the probe value: codes below the
            // probe's lower-bound code decode to strictly smaller values.
            let idx =
                rankdir::bracketed_partition_point(&layer.entries, lo, hi, |e| e.value < code);
            let before = if idx < hi {
                layer.entries[idx].start
            } else {
                m.total
            };
            rank += before * factor;
            if !(can_exact && idx < hi && layer.entries[idx].value == code) {
                return (rank, false);
            }
            factor *= self.child_step::<true>(layer, idx, chosen);
        }
        (rank, true)
    }
}

impl DirectAccess for LexDirectAccess {
    /// Number of answers (`|Q(I)|`).
    fn len(&self) -> u64 {
        self.total
    }

    /// Algorithm 1: write the answer at index `k` of the sorted answer
    /// array into `out` (in head order, reusing its capacity) and
    /// return `true`, or return `false` ("out-of-bound") when
    /// `k ≥ len()`. O(log n); after `out` has grown to the head arity
    /// once, calls perform **zero** heap allocations.
    fn access_into(&self, k: u64, out: &mut Vec<Value>) -> bool {
        out.clear();
        if k >= self.total {
            return false;
        }
        // Exactly the head arity: the owned `DirectAccess::access`
        // turns a fresh buffer into its tuple without reallocating.
        out.reserve_exact(self.out_layers.len());
        self.with_cursor(|cur| {
            self.descend(k, self.total, 0, cur);
            self.emit_into(cur.entry, out);
        });
        true
    }

    /// Algorithm 2: the index of `answer` in the sorted answer array, or
    /// `None` ("not-an-answer"). `answer` is a tuple over the original
    /// query's head variables. O(log n), allocation-free.
    fn inverted_access(&self, answer: &Tuple) -> Option<u64> {
        self.probe(answer)
            .and_then(|(rank, exact)| exact.then_some(rank))
    }

    /// Windowed access: write the answers at ranks `range` (clamped to
    /// `len()`) into `out` in order, returning how many were written.
    ///
    /// The O(log n) rank bracketing of [`LexDirectAccess::access_into`] is
    /// paid **once** for the whole window; every further tuple is an
    /// O(1) amortized arena step. After `out` has grown to the window's
    /// size once, refills perform **zero** heap allocations.
    fn access_range_into(&self, range: Range<u64>, out: &mut WindowBuf) -> u64 {
        out.begin(self.out_vars.len());
        let (lo, hi) = crate::window::clamp_range(&range, self.total);
        if lo >= hi {
            return 0;
        }
        let n = hi - lo;
        self.with_cursor(|cur| self.walk_emit(lo, n, cur, out));
        n
    }

    /// Batched access: fill `out` with the answers at the given ranks
    /// — in **input order**, out-of-range ranks skipped, equivalent to
    /// `ranks.iter().filter_map(|&k| self.access(k))` — and return how
    /// many rows were written.
    ///
    /// When the in-range ranks already ascend (a client walking rank
    /// order), the arenas are descended **once** with shared bracketing
    /// — a generalized odometer walk keeping one cursor per layer: each
    /// next rank re-enters the previous descent at its shallowest carry
    /// point (the first layer whose chosen entry no longer contains the
    /// rank's residual) and re-derives sibling buckets only from there
    /// down. Dense ascending batches approach the O(1)-amortized cost
    /// of the window walk. The walk's contract is sorted input only:
    /// any other batch pays one independent descent per rank —
    /// scattered ranks share too little of a descent for sorting them
    /// first to pay.
    ///
    /// After `out` and the per-thread scratch have grown to the batch's
    /// size once, calls perform **zero** heap allocations.
    fn access_batch_into(&self, ranks: &[u64], out: &mut WindowBuf) -> u64 {
        out.begin(self.out_vars.len());
        let in_range = || ranks.iter().copied().filter(|&k| k < self.total);
        if !in_range().is_sorted() {
            self.with_cursor(|cur| {
                for k in in_range() {
                    self.descend(k, self.total, 0, cur);
                    out.push_with(|vals| self.emit_into(cur.entry, vals));
                }
            });
            return out.len() as u64;
        }
        let mut rest = in_range();
        let Some(mut prev) = rest.next() else {
            return 0;
        };
        SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            s.ensure(self.var_slots, self.layers.len(), self.order.len());
            let Scratch {
                chosen,
                entry,
                carry,
                ..
            } = &mut *s;
            let cur = &mut Cursor {
                chosen,
                entry,
                trace: &mut carry[..self.layers.len()],
            };
            self.descend(prev, self.total, 0, cur);
            out.push_with(|vals| self.emit_into(cur.entry, vals));
            for k in rest {
                let delta = k - prev;
                if delta > 0 {
                    // Shallowest carry point: the first layer whose
                    // previous entry no longer contains the residual —
                    // the deepest layer at the latest, whose entries hold
                    // one answer each (resuming at the root would still
                    // be right). Layers above it keep their cursors
                    // (residuals shifted by `delta`); the rest re-descend.
                    let carries = |c: &Carry| c.k_in + delta >= c.upper;
                    let d = cur.trace.iter().position(carries).unwrap_or(0);
                    cur.trace[..d].iter_mut().for_each(|c| c.k_in += delta);
                    self.resume(d, cur.trace[d].k_in + delta, cur);
                    #[cfg(debug_assertions)]
                    self.assert_resume_is_fresh(k, cur.entry);
                    prev = k;
                }
                out.push_with(|vals| self.emit_into(cur.entry, vals));
            }
        });
        out.len() as u64
    }
}

/// Answers per unit of a bucket's `start`: the pending answer count
/// `factor` over the bucket's `total`. Chain-shaped trees keep
/// `factor == total` (the pending count is exactly this subtree), so
/// the division — and the one normalizing `k` — usually fold away.
#[inline(always)]
fn per_unit(factor: u64, total: u64) -> u64 {
    if factor == total {
        1
    } else {
        factor / total
    }
}

/// Close the bucket of the entries in `range`, right after the last
/// closed one, whose `start` fields hold their weights: turn the weights
/// into prefix sums, record the bucket metadata, and build its rank
/// directory — rejecting counts above `u64::MAX` and charging the
/// directory pool's growth against the build budget.
fn close_bucket(
    layer: &mut Layer,
    range: Range<usize>,
    meter: &mut BudgetMeter,
) -> Result<(), BuildError> {
    let (offset, len) = (range.start, range.len());
    let mut total: u64 = 0;
    for e in &mut layer.entries[range] {
        let w = e.start;
        e.start = total;
        total = total.checked_add(w).ok_or(BuildError::CountOverflow)?;
    }

    // Rank directory (see the `Layer` docs): B = 2^dir_log slots, slot
    // j counting the entries with start·B ≤ j·total. `dir_log` is
    // capped so that the runtime shift `q << dir_log` (with q < total)
    // cannot overflow u64.
    let mut dir = NO_DIR;
    let mut dir_log: u8 = 0;
    if len >= DIR_MIN_ENTRIES && total > 1 {
        let mut log = (usize::BITS - (len - 1).leading_zeros()).min(16) as u8;
        let total_bits = 64 - (total - 1).leading_zeros() as u8;
        log = log.min(64 - total_bits);
        // A directory offset must fit `BucketMeta::dir`'s u32 (NO_DIR
        // excluded); a layer huge enough to exhaust the pool simply
        // falls back to plain binary search for its remaining buckets.
        let fits_pool =
            log >= 3 && layer.dir_pool.len().saturating_add((1usize << log) + 1) < NO_DIR as usize;
        if fits_pool {
            let slots = (1usize << log) + 1;
            meter.charge(slots as u64 * 4 + 24, 0)?;
            let at = layer.dir_pool.len();
            (dir, dir_log) = (at as u32, log);
            layer.dir_pool.resize(at + slots, 0);
            let entries = &layer.entries[offset..offset + len];
            rankdir::fill_directory(
                &mut layer.dir_pool[at..],
                |e| entries[e].start,
                len,
                log,
                total,
            );
        }
    }

    layer.buckets.push(BucketMeta {
        total,
        offset: offset as u32,
        len: len as u32,
        dir,
        dir_log,
    });
    Ok(())
}

pub(crate) fn validate_lex(q: &Cq, lex: &[VarId]) -> Result<(), BuildError> {
    let free = q.free_set();
    let mut seen = rda_query::VarSet::EMPTY;
    for &v in lex {
        if !free.contains(v) {
            return Err(BuildError::InvalidOrder(format!(
                "{} is not a free variable",
                q.var_name(v)
            )));
        }
        if seen.contains(v) {
            return Err(BuildError::InvalidOrder(format!(
                "{} repeats in the order",
                q.var_name(v)
            )));
        }
        seen = seen.with(v);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_db::tup;
    use rda_query::parser::parse;

    /// Figure 2's database.
    fn fig2_db() -> Database {
        Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
            .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![5, 6], vec![2, 5]])
    }

    fn build(q: &Cq, db: &Database, lex: &[&str]) -> LexDirectAccess {
        LexDirectAccess::build(q, db, &q.vars(lex), &FdSet::empty()).unwrap()
    }

    #[test]
    fn figure_2b_ordering() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let da = build(&q, &fig2_db(), &["x", "y", "z"]);
        let got: Vec<Tuple> = da.iter().collect();
        let expect = vec![
            tup![1, 2, 5],
            tup![1, 5, 3],
            tup![1, 5, 4],
            tup![1, 5, 6],
            tup![6, 2, 5],
        ];
        assert_eq!(got, expect);
    }

    /// A layer that is all of its atom reads the snapshot's own columns,
    /// in memory and in a cold-opened file (mapped in place).
    #[test]
    fn identity_layers_are_the_snapshot_relations() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        // Every y of R meets S and the other way round: nothing dangles.
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
            .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![2, 5]]);
        let path = std::env::temp_dir().join(format!("rda-lexda-views-{}", std::process::id()));
        rda_db::save_snapshot(&db.clone().freeze(), &path).unwrap();
        let opened = rda_db::open_snapshot(&path);
        std::fs::remove_file(&path).unwrap();
        for snap in [db.freeze(), opened.unwrap()] {
            let lex = q.vars(&["x", "y", "z"]);
            let prep = prepare_layers(&q, &snap, &lex, &FdSet::empty()).unwrap();
            for (rel, vars) in [("R", ["x", "y"]), ("S", ["y", "z"])] {
                let i = prep.layer_vars.iter().position(|v| *v == q.vars(&vars));
                let layer = &prep.enc_layers[i.expect("one layer per atom")];
                let stored = snap.encoded(rel).unwrap();
                for p in 0..2 {
                    assert_eq!(layer.col(p).as_ptr(), stored.col(p).as_ptr(), "{rel}.{p}");
                }
            }
        }
    }

    #[test]
    fn example_3_6_and_3_7() {
        // Q3(v1..v4) :- R(v1,v3), S(v2,v4) with Figure 4's database;
        // access 12 must return (a2, b1, c3, d2).
        let q = parse("Q(v1, v2, v3, v4) :- R(v1, v3), S(v2, v4)").unwrap();
        let db = Database::new()
            .with(rda_db::Relation::from_tuples(
                "R",
                2,
                vec![
                    tup!["a1", "c1"],
                    tup!["a1", "c2"],
                    tup!["a2", "c2"],
                    tup!["a2", "c3"],
                ],
            ))
            .with(rda_db::Relation::from_tuples(
                "S",
                2,
                vec![
                    tup!["b1", "d1"],
                    tup!["b1", "d2"],
                    tup!["b1", "d3"],
                    tup!["b2", "d4"],
                ],
            ));
        let da = build(&q, &db, &["v1", "v2", "v3", "v4"]);
        assert_eq!(da.len(), 16);
        assert_eq!(da.access(12).unwrap(), tup!["a2", "b1", "c3", "d2"]);
        // Inverted access round-trips every index (Remark 3).
        for k in 0..16 {
            let t = da.access(k).unwrap();
            assert_eq!(da.inverted_access(&t), Some(k), "k={k}");
        }
        assert_eq!(da.access(16), None);
    }

    #[test]
    fn inverted_access_rejects_non_answers() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let da = build(&q, &fig2_db(), &["x", "y", "z"]);
        assert_eq!(da.inverted_access(&tup![1, 2, 3]), None);
        assert_eq!(da.inverted_access(&tup![0, 0, 0]), None);
    }

    #[test]
    fn next_at_or_after_finds_successors() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let da = build(&q, &fig2_db(), &["x", "y", "z"]);
        // (1, 3, 0) is not an answer; the next answer is (1, 5, 3) at index 1.
        assert_eq!(
            da.next_at_or_after(&tup![1, 3, 0]),
            Some((1, tup![1, 5, 3]))
        );
        // Before everything.
        assert_eq!(
            da.next_at_or_after(&tup![0, 0, 0]),
            Some((0, tup![1, 2, 5]))
        );
        // After everything.
        assert_eq!(da.next_at_or_after(&tup![9, 9, 9]), None);
        // Exactly an answer: returns itself.
        assert_eq!(
            da.next_at_or_after(&tup![1, 5, 4]),
            Some((2, tup![1, 5, 4]))
        );
    }

    #[test]
    fn access_into_matches_access() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let da = build(&q, &fig2_db(), &["x", "y", "z"]);
        let mut buf: Vec<Value> = Vec::new();
        for k in 0..da.len() {
            assert!(da.access_into(k, &mut buf));
            assert_eq!(Tuple::new(buf.clone()), da.access(k).unwrap(), "k={k}");
        }
        assert!(!da.access_into(da.len(), &mut buf));
        assert!(buf.is_empty());
    }

    /// The batch contract, spelled out: per-rank accesses in request
    /// order, out-of-range ranks skipped.
    fn batch_oracle(da: &LexDirectAccess, ranks: &[u64]) -> Vec<Tuple> {
        ranks.iter().filter_map(|&k| da.access(k)).collect()
    }

    #[test]
    fn access_batch_matches_oracle_on_fig2() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let da = build(&q, &fig2_db(), &["x", "y", "z"]);
        for ranks in [
            vec![],
            vec![0],
            vec![4, 0, 2],
            vec![3, 3, 3],
            vec![0, 1, 2, 3, 4],
            vec![9, 2, 100, 0, 4, 2],
            vec![5, 6, u64::MAX],
        ] {
            assert_eq!(
                da.access_batch(&ranks),
                batch_oracle(&da, &ranks),
                "{ranks:?}"
            );
            let mut out = WindowBuf::new();
            let n = da.access_batch_into(&ranks, &mut out);
            assert_eq!(n as usize, out.len());
            assert_eq!(out.to_tuples(), batch_oracle(&da, &ranks), "{ranks:?}");
        }
    }

    #[test]
    fn access_batch_matches_oracle_across_layers_and_layouts() {
        // Big enough for rank directories to kick in (buckets well past
        // DIR_MIN_ENTRIES), with carries at every layer of the descent.
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let r: Vec<Vec<i64>> = (0..120).map(|i| vec![i, i % 6]).collect();
        let s: Vec<Vec<i64>> = (0..6)
            .flat_map(|y| (0..25).map(move |z| vec![y, 100 + z]))
            .collect();
        let db = Database::new()
            .with_i64_rows("R", 2, r)
            .with_i64_rows("S", 2, s);
        let da = build(&q, &db, &["x", "y", "z"]);
        assert_eq!(da.len(), 120 * 25);
        // Mixed strides so consecutive ranks carry at different depths
        // (the ascending walk), then the same with reversals,
        // duplicates and out-of-range ranks (one descent per rank).
        let mut ranks: Vec<u64> = (0..da.len()).step_by(7).collect();
        assert_eq!(da.access_batch(&ranks), batch_oracle(&da, &ranks));
        let mut coarse: Vec<u64> = (0..da.len()).step_by(193).collect();
        coarse.reverse();
        ranks.extend(coarse);
        ranks.extend([0, 0, da.len() - 1, da.len(), da.len() + 5, 1, 1]);
        assert_eq!(da.access_batch(&ranks), batch_oracle(&da, &ranks));
        let mut out = WindowBuf::new();
        let n = da.access_batch_into(&ranks, &mut out);
        assert_eq!(n, ranks.iter().filter(|&&k| k < da.len()).count() as u64);
        assert_eq!(out.to_tuples(), batch_oracle(&da, &ranks));
    }

    #[test]
    fn access_batch_on_boolean_head() {
        let q = parse("Q() :- R(x, y), S(y, z)").unwrap();
        let da = build(&q, &fig2_db(), &[]);
        let got = da.access_batch(&[0, 0, 1, 0]);
        assert_eq!(got, vec![Tuple::new(vec![]); 3]);
        let mut out = WindowBuf::new();
        assert_eq!(da.access_batch_into(&[1, 0, 2], &mut out), 1);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn partial_order_is_a_prefix_of_some_full_order() {
        // Theorem 4.1 positive side: <z, y> on the 2-path.
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let da = build(&q, &fig2_db(), &["z", "y"]);
        assert_eq!(da.len(), 5);
        // Answers must be non-decreasing on (z, y).
        let answers: Vec<Tuple> = da.iter().collect();
        for w in answers.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            let ka = (a[2].clone(), a[1].clone());
            let kb = (b[2].clone(), b[1].clone());
            assert!(ka <= kb, "{a} !<= {b} on (z, y)");
        }
    }

    #[test]
    fn intractable_order_is_rejected() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let r = LexDirectAccess::build(&q, &fig2_db(), &q.vars(&["x", "z", "y"]), &FdSet::empty());
        assert!(matches!(r, Err(BuildError::NotTractable(_))));
    }

    #[test]
    fn invalid_orders_are_rejected() {
        let q = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
        let y = q.var("y").unwrap();
        let r = LexDirectAccess::build(&q, &fig2_db(), &[y], &FdSet::empty());
        assert!(matches!(r, Err(BuildError::InvalidOrder(_))));
        let x = q.var("x").unwrap();
        let r = LexDirectAccess::build(&q, &fig2_db(), &[x, x], &FdSet::empty());
        assert!(matches!(r, Err(BuildError::InvalidOrder(_))));
    }

    #[test]
    fn projection_queries_work() {
        // Q(x, y) :- R(x, y), S(y, z): free-connex; answers are R tuples
        // with a join partner.
        let q = parse("Q(x, y) :- R(x, y), S(y, z)").unwrap();
        let da = build(&q, &fig2_db(), &["x", "y"]);
        let got: Vec<Tuple> = da.iter().collect();
        assert_eq!(got, vec![tup![1, 2], tup![1, 5], tup![6, 2]]);
    }

    #[test]
    fn boolean_query() {
        let q = parse("Q() :- R(x, y), S(y, z)").unwrap();
        let da = build(&q, &fig2_db(), &[]);
        assert_eq!(da.len(), 1);
        assert_eq!(da.access(0), Some(Tuple::new(vec![])));
        assert_eq!(da.access(1), None);

        let empty_db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 100]])
            .with_i64_rows("S", 2, vec![vec![5, 3]]);
        let da = build(&q, &empty_db, &[]);
        assert_eq!(da.len(), 0);
        assert_eq!(da.access(0), None);
    }

    #[test]
    fn empty_join_gives_zero_answers() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 100]])
            .with_i64_rows("S", 2, vec![vec![5, 3]]);
        let da = build(&q, &db, &["x", "y", "z"]);
        assert_eq!(da.len(), 0);
        assert!(da.is_empty());
        assert_eq!(da.inverted_access(&tup![1, 100, 3]), None);
        assert_eq!(da.rank_of_lower_bound(&tup![1, 100, 3]), Some(0));
    }

    #[test]
    fn self_join_supported_without_fds() {
        let q = parse("Q(x, y, z) :- R(x, y), R(y, z)").unwrap();
        let db = Database::new().with_i64_rows("R", 2, vec![vec![1, 2], vec![2, 3], vec![2, 1]]);
        let da = build(&q, &db, &["x", "y", "z"]);
        let got: Vec<Tuple> = da.iter().collect();
        assert_eq!(got, vec![tup![1, 2, 1], tup![1, 2, 3], tup![2, 1, 2]]);
    }

    #[test]
    fn fd_makes_hard_order_accessible() {
        // Example 1.1: LEX <x,z,y> with FD R: x → y (order becomes
        // equivalent to <x,y,z>).
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let fds = FdSet::parse(&q, &[("R", "x", "y")]);
        // R satisfies x → y: drop (1,5) vs (1,2) conflict by changing data.
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 5], vec![6, 2]])
            .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![2, 5]]);
        let lex = q.vars(&["x", "z", "y"]);
        let da = LexDirectAccess::build(&q, &db, &lex, &fds).unwrap();
        let got: Vec<Tuple> = da.iter().collect();
        // Answers: (1,5,3), (1,5,4), (6,2,5); sorted by <x,z,y>:
        // (1,3,5), (1,4,5), (6,5,2) as (x,z,y) — i.e. same sequence.
        assert_eq!(got, vec![tup![1, 5, 3], tup![1, 5, 4], tup![6, 2, 5]]);
        // Inverted access still works with the derived variable.
        for k in 0..da.len() {
            let t = da.access(k).unwrap();
            assert_eq!(da.inverted_access(&t), Some(k));
        }
    }

    #[test]
    fn count_overflow_is_rejected_at_build() {
        // Six disconnected unary atoms with 2048 values each: the answer
        // count is 2048⁶ = 2⁶⁶ > u64::MAX. The pre-arena implementation
        // silently saturated; the arena refuses to build.
        let q = parse("Q(a, b, c, d, e, f) :- A(a), B(b), C(c), D(d), E(e), F(f)").unwrap();
        let mut db = Database::new();
        for name in ["A", "B", "C", "D", "E", "F"] {
            db = db.with_i64_rows(name, 1, (0..2048).map(|i| vec![i]).collect::<Vec<_>>());
        }
        let r = LexDirectAccess::build(
            &q,
            &db,
            &q.vars(&["a", "b", "c", "d", "e", "f"]),
            &FdSet::empty(),
        );
        assert!(matches!(r, Err(BuildError::CountOverflow)), "{r:?}");
    }

    #[test]
    fn rank_directory_holds_at_its_clamp() {
        // `A` with `a_values` values, `B`…`F` with 2048 = 2¹¹ each: every
        // root entry weighs 2⁵⁵.
        let q = parse("Q(a, b, c, d, e, f) :- A(a), B(b), C(c), D(d), E(e), F(f)").unwrap();
        let lex = q.vars(&["a", "b", "c", "d", "e", "f"]);
        let build_with = |a_values: i64| {
            let mut db = Database::new().with_i64_rows(
                "A",
                1,
                (0..a_values).map(|i| vec![i]).collect::<Vec<_>>(),
            );
            for name in ["B", "C", "D", "E", "F"] {
                db = db.with_i64_rows(name, 1, (0..2048).map(|i| vec![i]).collect::<Vec<_>>());
            }
            LexDirectAccess::build(&q, &db, &lex, &FdSet::empty())
        };

        // 32 entries, total 2⁶⁰: the directory's log is clamped from 5
        // to 64 − 60 = 4, so its last slot's bound B·total is 2⁶⁴.
        let da = build_with(32).unwrap();
        assert_eq!(da.len(), 1 << 60);
        let root = &da.layers[0].buckets[0];
        assert_eq!((root.len, root.dir_log), (32, 4));
        assert_ne!(root.dir, NO_DIR);
        for k in [0, (1 << 55) - 1, 1 << 55, 31 << 55, (1 << 60) - 1] {
            let t = da.access(k).unwrap();
            assert_eq!(t[0], Value::int((k >> 55) as i64), "k={k}");
            assert_eq!(da.inverted_access(&t), Some(k), "k={k}");
        }

        // The overflow boundary: 511·2⁵⁵ answers fit in u64, 512·2⁵⁵ = 2⁶⁴
        // do not.
        assert_eq!(build_with(511).unwrap().len(), 511 << 55);
        let r = build_with(512);
        assert!(matches!(r, Err(BuildError::CountOverflow)), "{r:?}");
    }
}
