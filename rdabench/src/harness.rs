//! What every workload shares: the recorder (clock, spans, latencies,
//! checksum, failures), the run loop (set-up, correctness gate,
//! warm-up, fixed-count rounds), and the per-run result.

use crate::data::{self, Tier};
use crate::json::Json;
use crate::rng::SplitMix64;
use crate::stats;
use crate::trace::{NameId, NameStats, Timer, Tracer};
use rda_db::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Measured rounds per run. A round is a run of work units with the host
/// probe after it; a traced run switches tracing on between rounds.
pub const ROUNDS: usize = 15;
/// `--smoke` makes do with this many.
const SMOKE_ROUNDS: usize = 3;
/// In a traced run the first third of the rounds stays untraced: the
/// reference the tracing overhead is measured against.
const UNTRACED_REFERENCE_SHARE: usize = 3;
/// Every timing metric is this percentile of its samples (see [`quiet`]).
pub const QUIET_PERCENTILE: f64 = 2.0;
/// Requests whose spans the trace file lists in full.
const TRACE_FILE_REQUESTS: u32 = 2_000;

macro_rules! span_names {
    ($($field:ident => $name:literal),* $(,)?) => {
        /// Ids of every span name the harness records.
        #[derive(Debug, Clone, Copy)]
        pub struct SpanIds { $(pub $field: NameId),* }
        impl SpanIds {
            fn register(tr: &mut Tracer) -> Self {
                SpanIds { $($field: tr.name($name)),* }
            }
        }
    };
}

span_names! {
    db_freeze => "db.snapshot.freeze",
    db_freeze_delta => "db.snapshot.freeze_delta",
    db_append_delta => "db.persist.append_delta",
    db_save => "db.persist.save",
    db_load => "db.persist.load",
    db_mutate => "db.database.mutate",
    q_parse => "query.parser.parse",
    q_classify => "query.classify.classify",
    lexda_build => "core.lexda.build",
    sumda_build => "core.sumda.build",
    prepare_miss => "core.engine.prepare_miss",
    prepare_hit => "core.engine.prepare_hit",
    advance => "core.engine.advance",
    engine_open => "core.engine.open",
    first_page => "core.window.first_page",
    plan_access => "core.plan.access",
    plan_access_product => "core.plan.access_product",
    plan_access_fd => "core.plan.access_fd",
    plan_access_sum => "core.plan.access_sum",
    plan_window => "core.plan.window",
    plan_batch => "core.plan.batch",
    lexda_access => "core.lexda.access",
    sumda_access => "core.sumda.access",
    lexda_inverted => "core.lexda.inverted",
    lexda_window => "core.lexda.window",
    sumda_window => "core.sumda.window",
    batch_scattered => "core.lexda.batch_scattered",
    batch_dense => "core.lexda.batch_dense",
    lexsel => "core.lexsel.select",
    sumsel => "core.sumsel.select",
    weighted_select => "orderstat.weighted.select",
    s_prepare => "serve.session.prepare",
    s_page => "serve.session.page",
    s_stream => "serve.session.stream_next",
    s_batch => "serve.session.page_batch",
    c_decode => "serve.cursor.decode",
    c_encode => "serve.cursor.encode",
    oracle => "baseline.materialize",
    op_first_page => "bench.first_page",
    op_select => "bench.select",
    op_cold_open => "bench.cold_open",
    op_write => "bench.write",
    op_stale_retry => "bench.stale_retry",
    host_calib => "host.calib",
}

#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub out: PathBuf,
}

/// One round, for looking at how a run went.
#[derive(Debug, Clone, Default)]
pub struct RoundStats {
    pub traced: bool,
    pub busy_ns: u64,
    pub ops: u64,
    pub rows: u64,
    pub calib_ns: f64,
}

impl RoundStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("traced", Json::Bool(self.traced)),
            ("busy_ns", Json::Num(self.busy_ns as f64)),
            ("ops", Json::Num(self.ops as f64)),
            ("rows", Json::Num(self.rows as f64)),
            ("calib_ns", Json::Num(self.calib_ns)),
        ])
    }

    fn from_json(j: &Json) -> Option<RoundStats> {
        Some(RoundStats {
            traced: j.get("traced")?.as_bool()?,
            busy_ns: j.get("busy_ns")?.as_f64()? as u64,
            ops: j.get("ops")?.as_f64()? as u64,
            rows: j.get("rows")?.as_f64()? as u64,
            calib_ns: j.get("calib_ns")?.as_f64()?,
        })
    }
}

/// The open work unit's time and op count, for one kind or for all.
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    ns: u64,
    n: u64,
}

/// Clock, spans, per-kind latencies, checksum and failure accounting.
pub struct Rec {
    pub tr: Tracer,
    pub s: SpanIds,
    /// Per kind: the open unit, the closed units' mean time per op, and
    /// every op's own time (the last two from untraced units only).
    open: Vec<Acc>,
    unit_means: Vec<Vec<f64>>,
    each: Vec<Vec<f32>>,
    /// All kinds together: the open unit, the closed units' busy time
    /// (untraced and traced apart), and totals over untraced units.
    open_all: Acc,
    open_rows: u64,
    unit_busy: Vec<f64>,
    unit_busy_traced: Vec<f64>,
    ops: u64,
    rows: u64,
    round: RoundStats,
    /// Off during set-up, the gate and the warm-up: ops count as
    /// attempted and are checked, but enter no statistic.
    recording: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    checksum: u64,
    pub oracle_rows: u64,
    pub counts: BTreeMap<&'static str, u64>,
    calib: Calib,
}

impl Rec {
    pub fn new(kinds: usize) -> Rec {
        let mut tr = Tracer::new();
        let s = SpanIds::register(&mut tr);
        Rec {
            tr,
            s,
            open: vec![Acc::default(); kinds],
            unit_means: vec![Vec::new(); kinds],
            each: vec![Vec::new(); kinds],
            open_all: Acc::default(),
            open_rows: 0,
            unit_busy: Vec::new(),
            unit_busy_traced: Vec::new(),
            ops: 0,
            rows: 0,
            round: RoundStats::default(),
            recording: false,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            checksum: 0xcbf2_9ce4_8422_2325,
            oracle_rows: 0,
            counts: BTreeMap::new(),
            calib: Calib::new(),
        }
    }

    #[inline]
    pub fn begin(&mut self, name: NameId) -> Timer {
        self.tr.begin(name)
    }

    #[inline]
    pub fn end(&mut self, t: Timer) -> u64 {
        self.tr.end(t)
    }

    /// `n` completed ops of one kind that took `ns` together and
    /// delivered `rows` answer rows.
    #[inline]
    pub fn op(&mut self, kind: usize, n: usize, rows: u64, ns: u64) {
        self.attempted += n as u64;
        if self.recording {
            self.open[kind].ns += ns;
            self.open[kind].n += n as u64;
            self.open_all.ns += ns;
            self.open_all.n += n as u64;
            self.open_rows += rows;
            if !self.tr.enabled() {
                // f32: the harness's own memory shows in `peak_rss_mb`.
                self.each[kind].push(stats::per_op_ns(ns, n) as f32);
            }
        }
    }

    /// End of one work unit: every workload repeats the same unit of
    /// work (a cycle through its op kinds, a block of its traffic
    /// script), so units are samples of equal work, and what differs
    /// between two of them is what the host did meanwhile.
    pub fn close_unit(&mut self) {
        let all = std::mem::take(&mut self.open_all);
        let rows = std::mem::take(&mut self.open_rows);
        let traced = self.tr.enabled();
        for (open, means) in self.open.iter_mut().zip(&mut self.unit_means) {
            let acc = std::mem::take(open);
            if acc.n > 0 && !traced {
                means.push(acc.ns as f64 / acc.n as f64);
            }
        }
        if all.n == 0 {
            return;
        }
        self.round.busy_ns += all.ns;
        self.round.ops += all.n;
        self.round.rows += rows;
        if traced {
            self.unit_busy_traced.push(all.ns as f64);
        } else {
            self.unit_busy.push(all.ns as f64);
            self.ops += all.n;
            self.rows += rows;
        }
    }

    /// An op with an unexpected error, a refusal, or wrong rows.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what());
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what);
        }
    }

    /// Fold one served row into the running answer checksum.
    #[inline]
    pub fn row(&mut self, row: &[Value]) {
        let mut h = self.checksum.rotate_left(5) ^ row.len() as u64;
        for v in row {
            let x = match v {
                Value::Int(i) => *i as u64,
                // The generators emit integers only; anything else still
                // has to move the checksum.
                other => {
                    use std::hash::{Hash, Hasher};
                    let mut hasher = std::collections::hash_map::DefaultHasher::new();
                    other.hash(&mut hasher);
                    hasher.finish()
                }
            };
            h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.checksum = h;
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    pub fn get_count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    fn start_round(&mut self, traced: bool) {
        self.tr.set_enabled(traced);
        self.recording = true;
        self.round = RoundStats {
            traced,
            ..RoundStats::default()
        };
    }

    fn finish_round(&mut self) -> RoundStats {
        self.close_unit();
        self.recording = false;
        self.round.calib_ns = self.calibrate();
        self.tr.set_enabled(false);
        std::mem::take(&mut self.round)
    }

    /// The host probe, once per round: a fixed pointer chase plus sum
    /// (does this host run at the speed the other run's host did?) and
    /// `rda_orderstat::weighted_select` on a fixed seeded array.
    fn calibrate(&mut self) -> f64 {
        // The fastest of a few passes: the first one meets caches full
        // of the workload's data, and the probe is about the host, not
        // about what the workload evicted.
        let mut best = u64::MAX;
        for _ in 0..Calib::PASSES {
            let t = self.begin(self.s.host_calib);
            let sink = self.calib.kernel();
            let (ns, _) = self.tr.end_units(t, Calib::STEPS as u32);
            std::hint::black_box(sink);
            best = best.min(ns);
        }
        let t = self.begin(self.s.weighted_select);
        let pick = rda_orderstat::weighted_select(&self.calib.items, self.calib.half, u64::cmp);
        self.end(t);
        assert!(pick.is_some(), "half the total weight is always in range");
        stats::per_op_ns(best, Calib::STEPS)
    }
}

struct Calib {
    next: Vec<u32>,
    items: Vec<(u64, u64)>,
    half: u64,
}

impl Calib {
    const SLOTS: usize = 1 << 18; // 1 MiB of u32: inside L2, outside L1
    const STEPS: usize = 1 << 16;
    const PASSES: usize = 4;

    fn new() -> Calib {
        // One random cycle through all slots (Sattolo), fixed seed.
        let mut rng = SplitMix64::new(0xCA11B);
        let mut next: Vec<u32> = (0..Self::SLOTS as u32).collect();
        for i in (1..Self::SLOTS).rev() {
            next.swap(i, rng.below(i as u64) as usize);
        }
        let items: Vec<(u64, u64)> = (0..4096)
            .map(|_| (rng.next_u64(), 1 + rng.below(16)))
            .collect();
        let half = items.iter().map(|(_, w)| w).sum::<u64>() / 2;
        Calib { next, items, half }
    }

    fn kernel(&self) -> u64 {
        let mut at = 0u32;
        for _ in 0..Self::STEPS {
            at = self.next[at as usize];
        }
        let sum: u64 = self.next.iter().map(|&x| u64::from(x)).sum();
        sum ^ u64::from(at)
    }
}

/// A benchmark workload: a world built from a tier and a seed, and
/// rounds of a fixed op count run against it.
pub trait Workload {
    const NAME: &'static str;
    /// Op kinds, indexing `Rec::op`'s `kind`.
    const KINDS: &'static [&'static str];
    /// The kinds behind `read_us` and `heavy_us`.
    const READ: usize;
    const HEAVY: usize;
    /// Work units in one round per second of `--seconds`, frozen here
    /// from the 2-core reference host so a round's op count never
    /// depends on a clock.
    const UNITS_PER_SECOND: f64;
    /// Set-ups per run, about a second's worth; `setup_s` is the fastest
    /// (a set-up cannot be cut into samples, so the least disturbed of
    /// them stands for it).
    const SETUP_REPS: usize;
    /// Work units the gate replays on the twin: enough for every op
    /// kind to occur.
    const GATE_UNITS: u64;
    const TIER: Tier;
    type World;

    /// Generate, freeze, start what serves, prepare and warm. With
    /// `oracle`, also materialize every request in full for the gate.
    fn setup(tier: Tier, seed: u64, oracle: bool, rec: &mut Rec) -> Self::World;
    /// Run `units` work units, calling [`Rec::close_unit`] after each;
    /// all randomness comes from the world.
    fn round(world: &mut Self::World, units: u64, rec: &mut Rec);
    /// Fold the world's own counters into `rec.counts` and tear down.
    fn finish(world: Self::World, rec: &mut Rec);
    /// Per-layer figures that are not a span statistic.
    fn derived(rec: &Rec, names: &[NameStats]) -> Vec<(&'static str, f64)>;
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Inter-quartile distance of the samples, as a share of their
    /// median: how unquiet the run was, not how sure the value is.
    pub spread: f64,
    pub samples: u64,
}

impl Metric {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&*self.name)),
            ("unit", Json::str(&*self.unit)),
            ("value", Json::Num(self.value)),
            ("spread", Json::Num(self.spread)),
            ("samples", Json::Num(self.samples as f64)),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Metric> {
        Some(Metric {
            name: j.get("name")?.as_str()?.to_string(),
            unit: j.get("unit")?.as_str()?.to_string(),
            value: j.get("value")?.as_f64()?,
            spread: j.get("spread")?.as_f64()?,
            samples: j.get("samples")?.as_f64()? as u64,
        })
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub checksum: u64,
    pub counts: BTreeMap<String, u64>,
    /// Every `end_to_end` metric of `BENCHMARK.json`.
    pub end_to_end: Vec<Metric>,
    /// Further per-kind figures of this workload (p50, p99 per op kind).
    pub detail: Vec<Metric>,
    /// Every `per_layer` metric of `BENCHMARK.json` (traced runs only).
    pub per_layer: Vec<Metric>,
    pub host_parallelism: usize,
    pub calib_ns: f64,
    pub units_per_round: u64,
    pub tier: String,
    /// Each round's own figures, for looking at how a run behaved.
    pub rounds: Vec<RoundStats>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn to_json(&self) -> Json {
        let metrics = |ms: &[Metric]| Json::Arr(ms.iter().map(Metric::to_json).collect());
        Json::obj([
            ("workload", Json::str(&*self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("not_for_claims", Json::Bool(self.smoke)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            (
                "answer_checksum",
                Json::str(format!("{:016x}", self.checksum)),
            ),
            (
                "counts",
                Json::obj(
                    self.counts
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64))),
                ),
            ),
            (
                "load",
                Json::obj([
                    ("loop", Json::str("closed")),
                    ("clients", Json::Num(1.0)),
                    ("server_workers", Json::Num(1.0)),
                    ("rounds", Json::Num(self.rounds.len() as f64)),
                    ("units_per_round", Json::Num(self.units_per_round as f64)),
                    ("tier", Json::str(&*self.tier)),
                ]),
            ),
            (
                "host",
                Json::obj([
                    ("parallelism", Json::Num(self.host_parallelism as f64)),
                    ("calib_ns", Json::Num(self.calib_ns)),
                ]),
            ),
            ("end_to_end", metrics(&self.end_to_end)),
            ("detail", metrics(&self.detail)),
            ("per_layer", metrics(&self.per_layer)),
            (
                "rounds",
                Json::Arr(self.rounds.iter().map(RoundStats::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Option<RunResult> {
        let metrics = |key: &str| -> Option<Vec<Metric>> {
            j.get(key)?.as_arr().iter().map(Metric::from_json).collect()
        };
        Some(RunResult {
            workload: j.get("workload")?.as_str()?.to_string(),
            seed: j.get("seed")?.as_f64()? as u64,
            seconds: j.get("seconds")?.as_f64()?,
            traced: j.get("traced")?.as_bool()?,
            smoke: j.get("not_for_claims")?.as_bool()?,
            attempted: j.get("attempted")?.as_f64()? as u64,
            failed: j.get("failed")?.as_f64()? as u64,
            failures: j
                .get("failures")?
                .as_arr()
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            checksum: u64::from_str_radix(j.get("answer_checksum")?.as_str()?, 16).ok()?,
            counts: j
                .get("counts")?
                .fields()
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()? as u64)))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            detail: metrics("detail")?,
            per_layer: metrics("per_layer")?,
            host_parallelism: j.get("host")?.get("parallelism")?.as_f64()? as usize,
            calib_ns: j.get("host")?.get("calib_ns")?.as_f64()?,
            units_per_round: j.get("load")?.get("units_per_round")?.as_f64()? as u64,
            tier: j.get("load")?.get("tier")?.as_str()?.to_string(),
            rounds: j
                .get("rounds")?
                .as_arr()
                .iter()
                .map(RoundStats::from_json)
                .collect::<Option<_>>()?,
        })
    }

    /// The driver's result line: `end_to_end` metrics of an untraced
    /// run, `per_layer` metrics of a traced one.
    pub fn driver_line(&self) -> String {
        let shown = if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(shown.iter().map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(&*m.unit))]),
                    )
                })),
            ),
        ])
        .to_line()
    }
}

/// The figure of a kind of work when the host was quiet: the
/// [`QUIET_PERCENTILE`]th percentile of its samples, each sample the mean
/// time per op over one work unit.
///
/// The reference host is a shared virtual machine. With nothing else
/// running in it, identical work takes 1.0x to 1.6x as long from one
/// second to the next, in phases that last seconds, sometimes a whole
/// run. Interference only ever adds time, so the low end of the samples
/// is the code and the rest is the host. Over ten runs on ten seeds the
/// median of per-round medians spread 10-36 % of itself (inter-quartile),
/// the fastest round 6-25 %, this percentile 1-9 % (README, "the quiet
/// figure").
fn quiet(name: &str, unit: &str, samples: &[f64], scale: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        value: stats::percentile(samples, QUIET_PERCENTILE).unwrap_or(0.0) / scale,
        spread: stats::iqr_share(samples),
        samples: samples.len() as u64,
    }
}

/// A plain percentile over every op of a kind (medians and tails are
/// reported beside the quiet figure, and bounded by nothing).
fn over_ops(name: &str, unit: &str, each: &[f64], p: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        value: stats::percentile(each, p).unwrap_or(0.0),
        spread: stats::iqr_share(each),
        samples: each.len() as u64,
    }
}

fn single(name: &str, unit: &str, value: f64, samples: u64) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        value,
        spread: 0.0,
        samples,
    }
}

/// Give freed heap back to the kernel, then ask the kernel to restart
/// the resident-set high-water mark: what `peak_rss_mb` reads afterwards
/// is what was allocated afterwards. Where either is refused the mark
/// stays monotone over the process.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointer and only releases free
        // memory at the top of the allocator's own arenas.
        unsafe { malloc_trim(0) };
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where results, traces and scratch files go; set once by `main`.
pub static OUT_DIR: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();

/// A fresh, empty directory for files a workload writes while it runs
/// (inside the output directory, so inside the checkout); the workload
/// removes it when its world ends.
pub fn scratch_dir(purpose: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = OUT_DIR
        .get()
        .cloned()
        .unwrap_or_else(|| PathBuf::from("rdabench/out"))
        .join(format!("tmp-{}-{purpose}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a scratch directory under the output directory");
    dir
}

pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Run one workload once: set-ups, gate, warm-up, rounds.
pub fn run<W: Workload>(cfg: &Cfg) -> RunResult {
    let mut rec = Rec::new(W::KINDS.len());
    let tier = if cfg.smoke { data::SMOKE } else { W::TIER };
    let round_count = if cfg.smoke { SMOKE_ROUNDS } else { ROUNDS };
    let units = ((W::UNITS_PER_SECOND * cfg.seconds / round_count as f64).round() as u64).max(1);

    // Correctness gate, untimed: every op kind against the full
    // materialization of the 2k-tuple twin.
    let mut twin = W::setup(data::TWIN, cfg.seed, true, &mut rec);
    W::round(&mut twin, W::GATE_UNITS, &mut rec);
    W::finish(twin, &mut rec);

    // Set-up, several times; the last world is the one measured. A
    // traced run records the spans of the last set-up.
    let mut setup_s = Vec::with_capacity(W::SETUP_REPS);
    let mut world = None;
    let reps = if cfg.smoke { 1 } else { W::SETUP_REPS };
    for rep in 0..reps {
        drop(world.take());
        rec.counts.clear();
        rec.tr.set_enabled(cfg.traced && rep + 1 == reps);
        let start = Instant::now();
        world = Some(W::setup(tier, cfg.seed, false, &mut rec));
        setup_s.push(start.elapsed().as_secs_f64());
        rec.tr.set_enabled(false);
    }
    let mut world = world.expect("at least one set-up");

    // The memory metric is the high-water mark from here on: the world
    // that serves plus whatever the rounds allocate on top. (The gate's
    // materialized answers, and whatever the allocator kept of the
    // discarded set-ups, are the harness's doing, not the workload's.)
    reset_peak_rss();

    // Warm-up round, then the measured rounds.
    W::round(&mut world, units, &mut rec);
    let mut rounds = Vec::with_capacity(round_count);
    for r in 0..round_count {
        rec.start_round(cfg.traced && r >= round_count / UNTRACED_REFERENCE_SHARE);
        W::round(&mut world, units, &mut rec);
        rounds.push(rec.finish_round());
    }
    W::finish(world, &mut rec);

    let names = rec.tr.aggregate();
    if cfg.traced {
        let path = cfg.out.join(format!("trace-{}.json", W::NAME));
        let body = rec.tr.to_json(TRACE_FILE_REQUESTS).to_pretty();
        if let Err(e) = std::fs::create_dir_all(&cfg.out).and_then(|()| std::fs::write(&path, body))
        {
            rec.fail(|| format!("cannot write {}: {e}", path.display()));
        }
    }

    // End-to-end figures come from untraced units only. Throughput is
    // what a unit holds over what a unit costs when the host is quiet.
    let units_done = rec.unit_busy.len().max(1) as f64;
    let unit_quiet_s = stats::percentile(&rec.unit_busy, QUIET_PERCENTILE).unwrap_or(0.0) / 1e9;
    let per_quiet_second = |total: u64| {
        if unit_quiet_s > 0.0 {
            total as f64 / units_done / unit_quiet_s
        } else {
            0.0
        }
    };
    let rate = |name: &str, total: u64| Metric {
        name: name.to_string(),
        unit: "1/s".to_string(),
        value: per_quiet_second(total),
        spread: stats::iqr_share(&rec.unit_busy),
        samples: rec.unit_busy.len() as u64,
    };
    let end_to_end = vec![
        single(
            "setup_s",
            "s",
            setup_s.iter().copied().reduce(f64::min).unwrap_or(0.0),
            setup_s.len() as u64,
        ),
        rate("ops_per_s", rec.ops),
        rate("rows_per_s", rec.rows),
        quiet("read_us", "us", &rec.unit_means[W::READ], 1e3),
        quiet("heavy_us", "us", &rec.unit_means[W::HEAVY], 1e3),
        single("peak_rss_mb", "MiB", peak_rss_mb(), 1),
    ];

    let mut detail = Vec::new();
    for (k, kind) in W::KINDS.iter().enumerate() {
        let means = &rec.unit_means[k];
        let each: Vec<f64> = rec.each[k].iter().map(|&x| f64::from(x)).collect();
        detail.push(quiet(&format!("{kind}_quiet_ns"), "ns", means, 1.0));
        detail.push(single(
            &format!("{kind}_min_ns"),
            "ns",
            means.iter().copied().reduce(f64::min).unwrap_or(0.0),
            means.len() as u64,
        ));
        detail.push(over_ops(&format!("{kind}_p50_ns"), "ns", &each, 50.0));
        detail.push(over_ops(&format!("{kind}_p99_ns"), "ns", &each, 99.0));
    }

    let calib: Vec<f64> = rounds.iter().map(|r| r.calib_ns).collect();
    let calib_ns = calib.iter().copied().reduce(f64::min).unwrap_or(0.0);
    let per_layer = if cfg.traced {
        let overhead = match (
            stats::percentile(&rec.unit_busy, QUIET_PERCENTILE),
            stats::percentile(&rec.unit_busy_traced, QUIET_PERCENTILE),
        ) {
            (Some(plain), Some(with)) if with > 0.0 => 1.0 - plain / with,
            _ => 0.0,
        };
        let mut derived = W::derived(&rec, &names);
        derived.extend([
            ("baseline.oracle_rows_checked", rec.oracle_rows as f64),
            ("host.calib_ns", calib_ns),
            ("host.parallelism", host_parallelism() as f64),
            ("trace_overhead_share", overhead),
        ]);
        crate::layers::per_layer(&names, &derived)
    } else {
        Vec::new()
    };

    RunResult {
        workload: W::NAME.to_string(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        traced: cfg.traced,
        smoke: cfg.smoke,
        attempted: rec.attempted,
        failed: rec.failed,
        failures: rec.failures.clone(),
        checksum: rec.checksum(),
        counts: rec
            .counts
            .iter()
            .map(|(k, v)| ((*k).to_string(), *v))
            .collect(),
        end_to_end,
        detail,
        per_layer,
        host_parallelism: host_parallelism(),
        calib_ns,
        units_per_round: units,
        tier: tier.name.to_string(),
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_survives_its_own_file_format() {
        let metric = |name: &str| Metric {
            name: name.to_string(),
            unit: "us".to_string(),
            value: 6.0093,
            spread: 0.018,
            samples: 450,
        };
        let r = RunResult {
            workload: "served_pages".to_string(),
            seed: 7,
            seconds: 10.0,
            traced: false,
            smoke: false,
            attempted: 708_864,
            failed: 1,
            failures: vec!["scan_ab: rank 3 served [Int(1)], reference differs".to_string()],
            checksum: 0xfe37_9cb3_0830_0ba7,
            counts: [("clean_ops".to_string(), 708_608)].into_iter().collect(),
            end_to_end: vec![metric("read_us")],
            detail: vec![metric("page_quiet_ns")],
            per_layer: Vec::new(),
            host_parallelism: 2,
            calib_ns: 7.56,
            units_per_round: 173,
            tier: "small".to_string(),
            rounds: vec![RoundStats {
                traced: false,
                busy_ns: 650_000_000,
                ops: 44_288,
                rows: 2_480_000,
                calib_ns: 7.6,
            }],
        };
        let file = Json::parse(&r.to_json().to_pretty()).unwrap();
        let back = RunResult::from_json(&file).expect("every field reads back");
        assert_eq!(back.to_json(), r.to_json());
        assert!(!back.correct() && back.checksum == r.checksum);
        // The driver's line: exactly its four keys, metrics by name.
        let line = Json::parse(&r.driver_line()).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics")
                .unwrap()
                .get("read_us")
                .unwrap()
                .get("value"),
            Some(&Json::Num(6.0093))
        );
    }

    #[test]
    fn unit_samples_keep_kinds_apart_and_skip_what_is_not_recorded() {
        let mut rec = Rec::new(2);
        rec.op(0, 4, 4, 400); // set-up: attempted, not recorded
        rec.close_unit();
        rec.start_round(false);
        rec.op(0, 256, 256, 25_600);
        rec.op(1, 1, 100, 5_000);
        rec.close_unit();
        rec.op(0, 256, 256, 51_200);
        let round = rec.finish_round(); // closes the open unit
        assert_eq!(rec.attempted, 4 + 256 + 1 + 256);
        assert_eq!(rec.unit_means[0], [100.0, 200.0]);
        assert_eq!(rec.unit_means[1], [5_000.0]);
        assert_eq!(rec.unit_busy, [30_600.0, 51_200.0]);
        assert_eq!((round.ops, round.rows, round.busy_ns), (513, 612, 81_800));
        assert_eq!(quiet("k", "ns", &rec.unit_means[0], 1.0).value, 102.0);
    }
}
