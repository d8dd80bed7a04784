//! Shard-parallel lexicographic direct access over a
//! [`ShardedSnapshot`].
//!
//! The lexicographic order sorts answers by the completed order's first
//! variable before anything else, and a sharded snapshot partitions the
//! code space of exactly that leading dimension. So the answers of
//! shard `s` — the answers whose head-of-order code falls in
//! [`ShardedSnapshot::shard_range`]`(s)` — occupy one **contiguous
//! global rank interval**: per-shard structures built independently
//! compose into the global structure by nothing more than an offset
//! table. [`ShardedLexAccess`] is that composition: it routes every
//! rank (and rank interval, and batch run) to the single shard that
//! owns it, adds the shard's base offset, and otherwise delegates to
//! an ordinary [`LexDirectAccess`] with the identical ⟨quasilinear
//! preprocessing, logarithmic access⟩ guarantee.
//!
//! Builds fan out one worker per shard through
//! [`rda_db::parallel`] with a forced width (a 1-core host still
//! exercises the exact partition/route code paths — the regime the
//! forced-shard differential oracle in `tests/shard.rs` pins down).
//!
//! Sharding degenerates to a single-shard build — bit-identical to
//! [`LexDirectAccess::build_on`] — whenever the partitioning argument
//! above does not apply: one shard requested, functional dependencies
//! present (FD-derived columns may depend on rows outside the shard's
//! range), self-joins (per-relation overrides cannot distinguish the
//! occurrences), or a boolean/empty completed order (nothing to route
//! by).

use crate::budget::{BuildBudget, BuildCost};
use crate::error::BuildError;
use crate::fault;
use crate::instance::normalize_query;
use crate::lexda::{prepare_layers, validate_lex, LexDirectAccess};
use crate::plan::DirectAccess;
use crate::window::{clamp_range, WindowBuf};
use rda_db::parallel;
use rda_db::{Dictionary, EncodedRelation, ShardedSnapshot, Snapshot, Tuple};
use rda_query::classify::{classify, Problem, Verdict};
use rda_query::connex::complete_order;
use rda_query::fd::FdSet;
use rda_query::query::Cq;
use rda_query::VarId;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Lexicographic direct access assembled from per-shard
/// [`LexDirectAccess`] structures over a [`ShardedSnapshot`] — same
/// answer order, same guarantees, shard-parallel preprocessing. See
/// the [module docs](self) for why per-shard ranks concatenate.
#[derive(Debug, Clone)]
pub struct ShardedLexAccess {
    /// One structure per shard, in shard (= leading code range) order.
    shards: Vec<LexDirectAccess>,
    /// `offsets[s]` is the global rank of shard `s`'s first answer;
    /// `offsets[shards.len()]` is the total. Non-decreasing.
    offsets: Vec<u64>,
    /// The base snapshot every per-shard view derives from.
    base: Arc<Snapshot>,
    total: u64,
}

impl LexDirectAccess {
    /// [`LexDirectAccess::build_on`], fanned out shard-parallel over a
    /// sharded snapshot: classify once, then build one independent
    /// structure per shard on a restricted view of the base snapshot
    /// (atoms containing the completed order's head variable filtered
    /// to the shard's leading-code range), and merge the per-shard rank
    /// directories into a global offset table.
    ///
    /// The returned structure answers every operation of the unsharded
    /// build, bit-for-bit equal; `tests/shard.rs` holds the two
    /// differentially equal across shard counts, backends, and
    /// [`ShardedSnapshot::freeze_delta`] generations.
    ///
    /// `budget` is enforced **per shard** (each shard meters its own
    /// arena); callers wanting a strict global cap should use the
    /// unsharded builder.
    pub fn build_on_sharded(
        q: &Cq,
        sharded: &ShardedSnapshot,
        lex: &[VarId],
        fds: &FdSet,
        budget: BuildBudget,
    ) -> Result<ShardedLexAccess, BuildError> {
        fault::trip(fault::SITE_LEXDA_BUILD)
            .map_err(|f| BuildError::FaultInjected { site: f.site })?;
        validate_lex(q, lex)?;
        let base = sharded.base();
        // Route only when the contiguity argument holds (module docs);
        // otherwise a single-shard build is the correct degeneration.
        let route = if sharded.shards() <= 1 || !fds.is_empty() || !q.is_self_join_free() {
            None
        } else {
            match classify(q, fds, &Problem::DirectAccessLex(lex.to_vec())) {
                Verdict::Tractable { .. } => {}
                v => return Err(BuildError::NotTractable(v)),
            }
            complete_order(&normalize_query(q), lex).and_then(|order| order.first().copied())
        };
        let Some(route) = route else {
            let prep = prepare_layers(q, base, lex, fds)?;
            let da = LexDirectAccess::from_prep(prep, Arc::clone(base), budget)?;
            return Ok(ShardedLexAccess::single(da, Arc::clone(base)));
        };
        // First position of the route variable in each atom that
        // contains it. (Filtering on the first occurrence is exact:
        // normalized encodings only keep rows whose repeated positions
        // agree.) Self-join-free, so relation names key atoms.
        let mut route_pos: Vec<(&str, usize)> = Vec::new();
        for atom in q.atoms() {
            let enc = base
                .encoded(&atom.relation)
                .ok_or_else(|| BuildError::MissingRelation(atom.relation.clone()))?;
            if enc.arity() != atom.terms.len() {
                return Err(BuildError::ArityMismatch {
                    relation: atom.relation.clone(),
                    expected: atom.terms.len(),
                    found: enc.arity(),
                });
            }
            if let Some(p) = atom.terms.iter().position(|&t| t == route) {
                route_pos.push((atom.relation.as_str(), p));
            }
        }
        if route_pos.is_empty() {
            // A free variable outside every atom — let the ordinary
            // pipeline produce its usual error.
            let prep = prepare_layers(q, base, lex, fds)?;
            let da = LexDirectAccess::from_prep(prep, Arc::clone(base), budget)?;
            return Ok(ShardedLexAccess::single(da, Arc::clone(base)));
        }
        let n = sharded.shards();
        let built: Vec<Result<LexDirectAccess, BuildError>> =
            parallel::map_indexed_with(n, n, |s| {
                let (lo, hi) = sharded.shard_range(s);
                let mut overrides: BTreeMap<String, Arc<EncodedRelation>> = BTreeMap::new();
                for &(name, p) in &route_pos {
                    let part = if p == 0 {
                        // Leading position: the pre-split shard part is
                        // exactly this filter, already materialized.
                        Arc::clone(sharded.part(name, s).expect("partitioned at freeze"))
                    } else {
                        let enc = base.encoded(name).expect("validated above");
                        Arc::new(enc.filter_col_range(p, lo, hi))
                    };
                    overrides.insert(name.to_string(), part);
                }
                let view = base.with_encoding_overrides(overrides);
                let prep = prepare_layers(q, &view, lex, fds)?;
                LexDirectAccess::from_prep(prep, view, budget)
            });
        let mut shards = Vec::with_capacity(n);
        for r in built {
            shards.push(r?);
        }
        ShardedLexAccess::assemble(shards, Arc::clone(base))
    }
}

impl ShardedLexAccess {
    /// Wrap a single unsharded structure (the degenerate composition).
    fn single(da: LexDirectAccess, base: Arc<Snapshot>) -> ShardedLexAccess {
        let total = da.len();
        ShardedLexAccess {
            shards: vec![da],
            offsets: vec![0, total],
            base,
            total,
        }
    }

    /// Compose per-shard structures (in shard order) into the global
    /// rank space via checked prefix sums.
    fn assemble(
        shards: Vec<LexDirectAccess>,
        base: Arc<Snapshot>,
    ) -> Result<ShardedLexAccess, BuildError> {
        let mut offsets = Vec::with_capacity(shards.len() + 1);
        let mut total = 0u64;
        offsets.push(0);
        for da in &shards {
            total = total
                .checked_add(da.len())
                .ok_or(BuildError::CountOverflow)?;
            offsets.push(total);
        }
        Ok(ShardedLexAccess {
            shards,
            offsets,
            base,
            total,
        })
    }

    /// Number of answers (`|Q(I)|`), summed over shards.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// `true` when the query has no answers.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of shards the structure routes over (1 when the build
    /// degenerated to a single shard).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The global rank→shard routing table: `offsets()[s]` is shard
    /// `s`'s first global rank, and the final entry is [`Self::len`].
    pub fn shard_offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// What the build paid, summed over the per-shard builds.
    pub fn build_cost(&self) -> BuildCost {
        let mut cost = BuildCost::default();
        for da in &self.shards {
            cost.absorb(da.build_cost());
        }
        cost
    }

    /// The complete internal order (identical across shards — the
    /// completion is a function of the query alone).
    pub fn internal_order(&self) -> &[VarId] {
        self.shards[0].internal_order()
    }

    /// The order-preserving dictionary — the base snapshot's, shared by
    /// every shard view.
    pub fn dictionary(&self) -> &Dictionary {
        self.base.dict()
    }

    /// The base snapshot the sharded build derives from. Per-shard
    /// views share its uid, generation, and ancestry, so snapshot
    /// lineage (serve cursors included) is oblivious to sharding.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.base
    }

    /// Width of the emitted answer tuples (the head arity).
    fn head_arity(&self) -> usize {
        self.shards[0].head_arity()
    }

    /// The shard owning global rank `k` (`k < len()` required): the
    /// unique `s` with `offsets[s] ≤ k < offsets[s+1]` and a non-empty
    /// interval. Empty shards are skipped by construction.
    fn shard_of(&self, k: u64) -> usize {
        self.offsets.partition_point(|&o| o <= k) - 1
    }

    /// The answer at global rank `k` — routed to its owning shard,
    /// accessed at `k - offsets[s]`: fill `out` with the answer's
    /// values and return `true`, or clear it and return `false` when
    /// `k` is out of bounds. O(log n), same as unsharded.
    pub fn access_into(&self, k: u64, out: &mut Vec<rda_db::Value>) -> bool {
        if k >= self.total {
            out.clear();
            return false;
        }
        let s = self.shard_of(k);
        self.shards[s].access_into(k - self.offsets[s], out)
    }

    /// The global rank of `answer`, or `None` when it is not an answer.
    /// Routes by scanning shards (each shard rejects tuples outside its
    /// leading-code range in one probe).
    pub fn inverted_access(&self, answer: &Tuple) -> Option<u64> {
        for (s, da) in self.shards.iter().enumerate() {
            if let Some(local) = da.inverted_access(answer) {
                return Some(self.offsets[s] + local);
            }
        }
        None
    }

    /// The number of answers strictly before `answer` in the global
    /// order, whether or not `answer` is an answer: the first shard
    /// whose lower bound lands strictly inside it owns the boundary;
    /// every earlier shard contributes its full length.
    pub fn rank_of_lower_bound(&self, answer: &Tuple) -> Option<u64> {
        let mut acc = 0u64;
        for da in &self.shards {
            let r = da.rank_of_lower_bound(answer)?;
            if r < da.len() {
                return Some(acc + r);
            }
            acc += da.len();
        }
        Some(acc)
    }

    /// The first answer `≥ answer` with its global rank, or `None` when
    /// every answer precedes `answer`.
    pub fn next_at_or_after(&self, answer: &Tuple) -> Option<(u64, Tuple)> {
        let rank = self.rank_of_lower_bound(answer)?;
        self.access(rank).map(|t| (rank, t))
    }

    /// The answers at global ranks `range` (clamped), in order, into
    /// `out`. A range inside one shard delegates whole; a spanning
    /// range stitches consecutive per-shard windows.
    pub fn access_range_into(&self, range: Range<u64>, out: &mut WindowBuf) -> u64 {
        let (lo, hi) = clamp_range(&range, self.total);
        if lo >= hi {
            out.begin(self.head_arity());
            return 0;
        }
        let first = self.shard_of(lo);
        if hi <= self.offsets[first + 1] {
            return self.shards[first]
                .access_range_into(lo - self.offsets[first]..hi - self.offsets[first], out);
        }
        out.begin(self.head_arity());
        let mut scratch = WindowBuf::new();
        let mut written = 0u64;
        for s in first..self.shards.len() {
            let (slo, shi) = (self.offsets[s], self.offsets[s + 1]);
            if slo >= hi {
                break;
            }
            let l = lo.max(slo) - slo;
            let h = hi.min(shi) - slo;
            if l >= h {
                continue;
            }
            written += self.shards[s].access_range_into(l..h, &mut scratch);
            for row in scratch.rows() {
                out.push_row(row);
            }
        }
        written
    }

    /// Batched access in input order, out-of-range ranks skipped —
    /// maximal same-shard runs are translated to local ranks and served
    /// by one shared per-shard descent each.
    pub fn access_batch_into(&self, ranks: &[u64], out: &mut WindowBuf) -> u64 {
        if self.shards.len() == 1 {
            return self.shards[0].access_batch_into(ranks, out);
        }
        out.begin(self.head_arity());
        let mut scratch = WindowBuf::new();
        let mut local: Vec<u64> = Vec::new();
        let mut written = 0u64;
        let mut i = 0usize;
        while i < ranks.len() {
            if ranks[i] >= self.total {
                i += 1;
                continue;
            }
            let s = self.shard_of(ranks[i]);
            let (slo, shi) = (self.offsets[s], self.offsets[s + 1]);
            local.clear();
            while i < ranks.len() {
                let k = ranks[i];
                if k >= self.total {
                    // Skipped ranks do not break a run.
                    i += 1;
                    continue;
                }
                if k < slo || k >= shi {
                    break;
                }
                local.push(k - slo);
                i += 1;
            }
            self.shards[s].access_batch_into(&local, &mut scratch);
            for row in scratch.rows() {
                out.push_row(row);
            }
            written += local.len() as u64;
        }
        written
    }
}
