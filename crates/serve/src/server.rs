//! The in-process request front door: `prepare` / `page` /
//! `stream_next` / `page_batch` calls from concurrent client sessions
//! against one shared [`Engine`], each executed on its caller's thread
//! behind one bounded admission fence ([`Server::run`]).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, Weak};
use std::time::{Duration, Instant};

use rda_core::{
    canonical_request_key, plan_dependencies, AccessPlan, Backend, DirectAccess, Engine, OrderSpec,
    Policy, WindowBuf,
};
use rda_db::Snapshot;
use rda_query::{Cq, FdSet};

use crate::cursor::{Cursor, CursorView, Token};
use crate::error::{ServeError, StaleReason};
use crate::sync;

/// Fault site: entry of page execution (`page`, `stream_next`,
/// `page_batch`), within the request's panic fence — a scheduled panic
/// here simulates a bug in page execution and must surface as a typed
/// error with the execution slot released.
pub const SITE_SERVE_PAGE: &str = "serve::page";

/// Tunables for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Requests executing at once (at least 1); each runs on its
    /// caller's thread.
    pub workers: usize,
    /// Bound on the admission queue: requests past this many waiting
    /// behind the executing ones are rejected with
    /// [`ServeError::Overloaded`] instead of buffering without limit.
    pub queue_limit: usize,
    /// Deadline applied to sessions that do not set their own: a
    /// request still waiting when it expires is dropped with
    /// [`ServeError::DeadlineExceeded`].
    pub default_deadline: Duration,
    /// Hard cap on rows per page; larger requests are clamped, so one
    /// greedy client cannot turn a page into a full materialization.
    pub max_page_rows: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_limit: 64,
            default_deadline: Duration::from_secs(5),
            max_page_rows: 1 << 16,
        }
    }
}

/// A registered (query, order, FDs, policy) request, stored under its
/// canonical key so cursors can re-prepare after the engine advances.
#[derive(Clone)]
struct QuerySpec {
    q: Cq,
    order: OrderSpec,
    fds: FdSet,
    policy: Policy,
}

/// A session's hold on a request: a weak plan handle and its last cursor.
struct Pin {
    plan: Weak<AccessPlan>,
    cursor: Cursor,
}

/// Pin `plan` over `snap`, dropping every pin of another snapshot first.
fn repin<'p>(
    pins: &'p mut HashMap<String, Pin>,
    request_key: String,
    spec: &QuerySpec,
    snap: &Snapshot,
    plan: &Arc<AccessPlan>,
) -> &'p mut Pin {
    pins.retain(|_, pin| pin.cursor.snapshot_uid == snap.uid());
    let cursor = Cursor {
        request_key: request_key.clone(),
        snapshot_uid: snap.uid(),
        generation: snap.generation(),
        next_rank: 0,
        deps: plan_dependencies(&spec.q, snap).unwrap_or_default(),
    };
    let plan = Arc::downgrade(plan);
    let pin = Pin { plan, cursor };
    pins.entry(request_key).insert_entry(pin).into_mut()
}

/// Monotone service counters (see [`Server::stats`]).
#[derive(Default)]
struct Stats {
    admitted: AtomicU64,
    prepares: AtomicU64,
    pages: AtomicU64,
    batch_pages: AtomicU64,
    rows: AtomicU64,
    overloaded: AtomicU64,
    deadline_expired: AtomicU64,
    stale_cursors: AtomicU64,
    bad_cursors: AtomicU64,
    panics_caught: AtomicU64,
}

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests let in: given an execution slot or a place in the
    /// queue behind one.
    pub admitted: u64,
    /// Prepares served.
    pub prepares: u64,
    /// Window pages served ([`Session::page`], [`Session::stream_next`]).
    pub pages: u64,
    /// Batch pages served ([`Session::page_batch`]).
    pub batch_pages: u64,
    /// Rows written into session buffers.
    pub rows: u64,
    /// Requests shed at admission ([`ServeError::Overloaded`]).
    pub overloaded: u64,
    /// Requests shed after waiting past their deadline
    /// ([`ServeError::DeadlineExceeded`]).
    pub deadline_expired: u64,
    /// Requests refused with [`ServeError::CursorStale`].
    pub stale_cursors: u64,
    /// Requests refused with [`ServeError::BadCursor`].
    pub bad_cursors: u64,
    /// Panics converted into typed [`ServeError::Internal`] replies by
    /// the per-request fence.
    pub panics_caught: u64,
    /// Poisoned guards recovered instead of propagated, process-wide
    /// ([`rda_db::poison_recoveries`], not per server): the admission
    /// mutex and request registry of every [`Server`], and the
    /// [`Engine`]'s plan-cache, snapshot and build-budget locks. 0 in a
    /// healthy process.
    pub poison_recoveries: u64,
}

/// Who is inside the fence. One mutex guards all three, so "a slot is
/// free", "the queue is full" and "the server is paused" are decided
/// together; it guards plain integers, so a poisoned guard is
/// recovered, never propagated.
#[derive(Default)]
struct Admission {
    /// Requests holding an execution slot (at most `workers`).
    executing: usize,
    /// Requests waiting for a slot (at most `queue_limit`).
    waiting: usize,
    /// Set by [`Server::pause`]: slot holders wait at the gate.
    paused: bool,
}

/// One held execution slot, released on every path out of
/// [`Server::run`] — unwinding included.
struct Slot<'a>(&'a Server);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut adm = sync::lock(&self.0.admission);
        adm.executing -= 1;
        // A wake-up is a syscall: skip it when nobody waits.
        if adm.waiting > 0 {
            self.0.slot_freed.notify_one();
        }
    }
}

/// Which rows a page-shaped request asks for.
enum Rows<'r> {
    /// `len` consecutive rows from rank `at` — `None` continues from
    /// the cursor's own next rank (the cursor still proves freshness
    /// either way).
    Window { at: Option<u64>, len: u64 },
    /// The answers at these ranks (any order, duplicates allowed),
    /// served through the backend's batch kernel — one rank descent
    /// for the whole set on the native arenas.
    Batch(&'r [u64]),
}

/// What [`Session::prepare`] returns: the opening cursor plus the
/// plan's vitals.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Opaque cursor at rank 0 of the prepared sequence (at the stale
    /// cursor's rank, from [`Session::repair`]).
    pub token: Token,
    /// Total number of ranked answers.
    pub len: u64,
    /// The backend the engine routed the request to.
    pub backend: Backend,
    /// The snapshot generation the sequence was validated against.
    pub generation: u64,
}

/// What a successful [`Session::page`] / [`Session::stream_next`]
/// returns; the rows themselves are in [`Session::rows`].
#[derive(Debug, Clone)]
pub struct PageOutcome {
    /// Rows written into the session buffer.
    pub rows: u64,
    /// Cursor for the next page, or `None` at the end of the sequence.
    pub next: Option<Token>,
    /// The snapshot generation the page was validated against.
    pub generation: u64,
    /// Whether the cursor was issued against an older snapshot and
    /// resumed cleanly on the current one (all plan dependencies
    /// unchanged).
    pub resumed: bool,
}

/// The in-process serving front door.
///
/// A `Server` is a **bounded** admission fence around one shared
/// [`Engine`]. Clients talk to it through cheap per-client
/// [`Session`]s; every call executes on the calling thread once it
/// holds one of `workers` execution slots, so a spike of clients
/// turns into waiting and then into typed
/// [`ServeError::Overloaded`] rejections — never into unbounded
/// memory growth.
///
/// The server holds the [`Engine`] behind an `Arc` and never blocks
/// writers: [`Engine::advance`] / [`Engine::advance_delta`] may be
/// called at any time from outside, and in-flight cursors either
/// resume cleanly (their relations provably unchanged) or fail with
/// [`ServeError::CursorStale`].
pub struct Server {
    engine: Arc<Engine>,
    registry: RwLock<HashMap<String, Arc<QuerySpec>>>,
    stats: Stats,
    admission: Mutex<Admission>,
    slot_freed: Condvar,
    gate_opened: Condvar,
    workers: usize,
    queue_limit: usize,
    max_page_rows: u64,
    default_deadline: Duration,
}

impl Server {
    /// Put the admission fence in front of `engine`.
    pub fn new(engine: Arc<Engine>, config: ServerConfig) -> Server {
        Server {
            engine,
            registry: RwLock::new(HashMap::new()),
            stats: Stats::default(),
            admission: Mutex::new(Admission::default()),
            slot_freed: Condvar::new(),
            gate_opened: Condvar::new(),
            workers: config.workers.max(1),
            queue_limit: config.queue_limit.max(1),
            max_page_rows: config.max_page_rows.max(1),
            default_deadline: config.default_deadline,
        }
    }

    /// [`Server::new`] with [`ServerConfig::default`].
    pub fn with_defaults(engine: Arc<Engine>) -> Server {
        Server::new(engine, ServerConfig::default())
    }

    /// Open a client session. Sessions are cheap (one reusable page
    /// buffer) and independent: make one per client thread.
    pub fn session(&self) -> Session<'_> {
        Session {
            server: self,
            buf: WindowBuf::new(),
            deadline: self.default_deadline,
            pins: HashMap::new(),
        }
    }

    /// The engine this server fronts (writers advance it directly).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Stop executing admitted requests. Admission continues until
    /// every slot is held and the queue behind them is full, at which
    /// point new requests get [`ServeError::Overloaded`] — which is
    /// exactly what makes backpressure and deadline behavior
    /// deterministically testable. Also usable as a maintenance drain
    /// before a large `advance`.
    pub fn pause(&self) {
        sync::lock(&self.admission).paused = true;
    }

    /// Resume executing admitted requests.
    pub fn resume(&self) {
        sync::lock(&self.admission).paused = false;
        self.gate_opened.notify_all();
    }

    /// A point-in-time copy of the service counters.
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.stats;
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        StatsSnapshot {
            admitted: load(&s.admitted),
            prepares: load(&s.prepares),
            pages: load(&s.pages),
            batch_pages: load(&s.batch_pages),
            rows: load(&s.rows),
            overloaded: load(&s.overloaded),
            deadline_expired: load(&s.deadline_expired),
            stale_cursors: load(&s.stale_cursors),
            bad_cursors: load(&s.bad_cursors),
            panics_caught: load(&s.panics_caught),
            poison_recoveries: rda_db::poison_recoveries(),
        }
    }

    /// Take an execution slot, waiting on the caller's own thread when
    /// all `workers` are held — unless `queue_limit` requests already
    /// wait, in which case the request is refused. The pause gate is
    /// passed *holding* the slot, so a paused server holds exactly
    /// `workers + queue_limit` requests (deterministic backpressure).
    fn admit(&self) -> Result<Slot<'_>, ServeError> {
        let mut adm = sync::lock(&self.admission);
        if adm.executing >= self.workers && adm.waiting >= self.queue_limit {
            drop(adm);
            self.stats.overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded {
                queue_limit: self.queue_limit,
            });
        }
        self.stats.admitted.fetch_add(1, Ordering::Relaxed);
        adm.waiting += 1;
        while adm.executing >= self.workers {
            adm = sync::wait(&self.slot_freed, adm);
        }
        adm.waiting -= 1;
        adm.executing += 1;
        while adm.paused {
            adm = sync::wait(&self.gate_opened, adm);
        }
        drop(adm);
        Ok(Slot(self))
    }

    /// The one way a request executes: admitted into a slot, checked
    /// once against its deadline *after* any waiting (so waiting
    /// counts against it), then run on the calling thread under a
    /// panic fence. Request bodies are read-only against shared state
    /// (engine locks recover poison; the registry only ever gains
    /// complete `Arc` entries), so unwinding out of one leaves nothing
    /// half-mutated and the panic can soundly become a typed error.
    fn run<T>(
        &self,
        deadline: Duration,
        body: impl FnOnce() -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        // `None`: a deadline past the end of the clock never expires.
        let expires = Instant::now().checked_add(deadline);
        let _slot = self.admit()?;
        if expires.is_some_and(|at| deadline_expired(Instant::now(), at)) {
            self.stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::DeadlineExceeded);
        }
        catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|payload| {
            self.stats.panics_caught.fetch_add(1, Ordering::Relaxed);
            Err(ServeError::Internal {
                detail: panic_detail(payload.as_ref()),
            })
        })
    }

    /// Plan and register `spec`, pinning it with a cursor at
    /// `next_rank`.
    fn prepare(
        &self,
        deadline: Duration,
        spec: &QuerySpec,
        next_rank: u64,
        pins: &mut HashMap<String, Pin>,
    ) -> Result<Prepared, ServeError> {
        self.run(deadline, || {
            let (snap, plan) =
                self.engine
                    .prepare_pinned(&spec.q, spec.order.clone(), &spec.fds, spec.policy)?;
            let request_key = canonical_request_key(&spec.q, &spec.order, &spec.fds, spec.policy);
            sync::write(&self.registry)
                .entry(request_key.clone())
                .or_insert_with(|| Arc::new(spec.clone()));
            self.stats.prepares.fetch_add(1, Ordering::Relaxed);
            let pin = repin(pins, request_key, spec, &snap, &plan);
            pin.cursor.next_rank = next_rank;
            Ok(Prepared {
                token: pin.cursor.encode(),
                len: plan.len(),
                backend: plan.backend(),
                generation: pin.cursor.generation,
            })
        })
    }

    fn rows(
        &self,
        deadline: Duration,
        token: &Token,
        what: Rows<'_>,
        buf: &mut WindowBuf,
        pins: &mut HashMap<String, Pin>,
    ) -> Result<PageOutcome, ServeError> {
        let result = self.run(deadline, || self.execute_rows(token, what, buf, pins));
        if matches!(result, Err(ServeError::Internal { .. })) {
            // A panic may have interrupted a refill; drop the partial
            // rows so the session's buffer is unambiguously empty.
            buf.clear();
        }
        result
    }

    /// A cursor on the engine's current snapshot and its pin's is fresh:
    /// served from the pin. Any other goes through [`Server::pin_plan`].
    fn execute_rows(
        &self,
        token: &Token,
        what: Rows<'_>,
        buf: &mut WindowBuf,
        pins: &mut HashMap<String, Pin>,
    ) -> Result<PageOutcome, ServeError> {
        // Chaos site INSIDE the fence: an injected panic here simulates
        // a bug in page execution and must come back as a typed error.
        rda_db::trip(SITE_SERVE_PAGE).map_err(|f| ServeError::Internal {
            detail: f.to_string(),
        })?;
        let cursor = self.view(token)?;
        let uid = cursor.snapshot_uid;
        let warm = pins
            .get_mut(cursor.request_key)
            .filter(|pin| pin.cursor.snapshot_uid == uid && self.engine.snapshot_uid() == uid)
            .and_then(|pin| Some((pin.plan.upgrade()?, pin)));
        let (plan, pin, resumed) = match warm {
            Some((plan, pin)) => (plan, pin, false),
            None => {
                let spec = self.spec(cursor.request_key)?;
                let (snap, plan, resumed) = self.pin_plan(&spec, &cursor)?;
                let pin = repin(pins, cursor.request_key.to_owned(), &spec, &snap, &plan);
                (plan, pin, resumed)
            }
        };
        let (served, counter, next_rank) = match what {
            Rows::Window { at, len } => {
                let start = at.unwrap_or(cursor.next_rank);
                let len = len.min(self.max_page_rows);
                let served = plan.access_range_into(start..start.saturating_add(len), buf);
                (served, &self.stats.pages, start + served)
            }
            Rows::Batch(ranks) => {
                // The page-size cap applies to the *count* of requested
                // ranks: a batch is a page's worth of rows, wherever
                // those rows live. Random access does not advance the
                // stream: the cursor comes back at its own rank,
                // re-stamped against the snapshot this batch was
                // validated on, so a cleanly-resumed client keeps a
                // fresh token.
                let ranks = &ranks[..ranks.len().min(self.max_page_rows as usize)];
                let served = plan.access_batch_into(ranks, buf);
                (served, &self.stats.batch_pages, cursor.next_rank)
            }
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.stats.rows.fetch_add(served, Ordering::Relaxed);
        let next = (next_rank < plan.len()).then(|| {
            pin.cursor.next_rank = next_rank;
            pin.cursor.encode()
        });
        Ok(PageOutcome {
            rows: served,
            next,
            generation: pin.cursor.generation,
            resumed,
        })
    }

    /// Read `token` in place, counting a damaged one in `bad_cursors`.
    fn view<'t>(&self, token: &'t Token) -> Result<CursorView<'t>, ServeError> {
        CursorView::parse(token.as_bytes()).map_err(|e| {
            self.stats.bad_cursors.fetch_add(1, Ordering::Relaxed);
            ServeError::BadCursor(e)
        })
    }

    /// The registered request under `request_key`.
    fn spec(&self, request_key: &str) -> Result<Arc<QuerySpec>, ServeError> {
        let spec = sync::read(&self.registry).get(request_key).cloned();
        spec.ok_or_else(|| ServeError::UnknownQuery {
            request_key: request_key.to_string(),
        })
    }

    /// Pin a (snapshot, plan) pair that is mutually consistent: the
    /// plan serves exactly `snap`'s data for every relation it reads,
    /// so the dependency versions stamped into the outgoing cursor
    /// describe the sequence the page came from.
    /// [`Engine::prepare_pinned`] makes the pairing atomic with respect
    /// to racing `advance` calls. The cursor is checked twice: first
    /// against the engine's current snapshot, so a stale request is
    /// refused *before* a plan is built for it; then against the pinned
    /// snapshot — the check that counts, since an `advance` can land
    /// between the two — which is the very snapshot the page will be
    /// served and stamped from. Returns whether the cursor resumed.
    fn pin_plan(
        &self,
        spec: &QuerySpec,
        cursor: &CursorView<'_>,
    ) -> Result<(Arc<Snapshot>, Arc<AccessPlan>, bool), ServeError> {
        let pinned = validate_cursor(cursor, &self.engine.snapshot()).and_then(|_| {
            let (snap, plan) =
                self.engine
                    .prepare_pinned(&spec.q, spec.order.clone(), &spec.fds, spec.policy)?;
            let resumed = validate_cursor(cursor, &snap)?;
            Ok((snap, plan, resumed))
        });
        if matches!(pinned, Err(ServeError::CursorStale(_))) {
            self.stats.stale_cursors.fetch_add(1, Ordering::Relaxed);
        }
        pinned
    }
}

/// A per-client handle onto a [`Server`].
///
/// The session owns one reusable [`WindowBuf`]: every page request
/// refills it in place, so steady-state paging performs no per-page
/// heap allocations once the buffer has grown to the page size.
///
/// It also *pins* each request it prepared or paged: a weak handle on
/// the plan (no snapshot, no evicted plan) and its last page's cursor,
/// which serve pages with no registry, plan-cache or dependency lookup
/// while the engine stays on that snapshot.
///
/// Sessions are `Send` (move one into each client thread) but not
/// `Sync`; they borrow the server, so scoped threads are the natural
/// shape.
pub struct Session<'a> {
    server: &'a Server,
    buf: WindowBuf,
    deadline: Duration,
    pins: HashMap<String, Pin>,
}

impl Session<'_> {
    /// Set the per-request deadline for subsequent calls.
    pub fn set_deadline(&mut self, deadline: Duration) {
        self.deadline = deadline;
    }

    /// Register and plan a (query, order, FDs, policy) request,
    /// returning the opening cursor. Memoized end to end: repeating an
    /// equal request hits the engine's plan cache.
    pub fn prepare(
        &mut self,
        q: &Cq,
        order: OrderSpec,
        fds: &FdSet,
        policy: Policy,
    ) -> Result<Prepared, ServeError> {
        let spec = QuerySpec {
            q: q.clone(),
            order,
            fds: fds.clone(),
            policy,
        };
        self.server.prepare(self.deadline, &spec, 0, &mut self.pins)
    }

    /// Re-prepare the request `token` names on the engine's current
    /// snapshot and return a cursor at the same rank of the fresh
    /// sequence — what a caller does with a
    /// [`ServeError::CursorStale`], since only the server still knows
    /// the query behind a token. Ranks may shift when the data changed;
    /// that is what repair means. A stream resumes from the returned
    /// token; an explicit [`Session::page`] offset or
    /// [`Session::page_batch`] ranks stand, because the caller passes
    /// them again. Fails with [`ServeError::BadCursor`] for a damaged
    /// token and [`ServeError::UnknownQuery`] for one this server never
    /// prepared.
    pub fn repair(&mut self, token: &Token) -> Result<Prepared, ServeError> {
        let server = self.server;
        let cursor = server.view(token)?;
        let spec = server.spec(cursor.request_key)?;
        server.prepare(self.deadline, &spec, cursor.next_rank, &mut self.pins)
    }

    /// Fetch the page of `len` rows starting at rank `offset`. The
    /// cursor only proves which sequence to read and that it is still
    /// fresh; the offset is free-form (random access is O(log n) on
    /// native backends). Rows land in [`Session::rows`].
    pub fn page(
        &mut self,
        token: &Token,
        offset: u64,
        len: u64,
    ) -> Result<PageOutcome, ServeError> {
        let at = Some(offset);
        self.serve(token, Rows::Window { at, len })
    }

    /// Fetch the next `len` rows from the cursor's own position — the
    /// sequential resumption path. Rows land in [`Session::rows`].
    pub fn stream_next(&mut self, token: &Token, len: u64) -> Result<PageOutcome, ServeError> {
        self.serve(token, Rows::Window { at: None, len })
    }

    /// Fetch the answers at `ranks` — any order, duplicates allowed,
    /// out-of-range ranks skipped — in the order requested. Rows land
    /// in [`Session::rows`]. On the native arena backends the whole
    /// batch costs **one** rank descent plus O(k) local cursor
    /// advances (see `DirectAccess::access_batch_into`), so scattered
    /// point lookups no longer pay the descent per row. The cursor is
    /// not advanced (a batch is random access, not streaming); at most
    /// `max_page_rows` ranks are served per call.
    pub fn page_batch(&mut self, token: &Token, ranks: &[u64]) -> Result<PageOutcome, ServeError> {
        self.serve(token, Rows::Batch(ranks))
    }

    /// Every page-shaped request.
    fn serve(&mut self, token: &Token, what: Rows<'_>) -> Result<PageOutcome, ServeError> {
        let (buf, pins) = (&mut self.buf, &mut self.pins);
        self.server.rows(self.deadline, token, what, buf, pins)
    }

    /// The rows of the most recent successful page, in rank order —
    /// unless the last page failed with [`ServeError::Internal`]: a
    /// panic may have cut a refill short, so that failure leaves the
    /// buffer empty. Every other error leaves the last successful
    /// page in place.
    pub fn rows(&self) -> &WindowBuf {
        &self.buf
    }
}

/// Deadline policy at the fence: a request that gets its slot **at**
/// its deadline has zero time left to execute, so it is already late —
/// the boundary is inclusive (`now >= deadline`), matching the
/// zero-duration-deadline guarantee that a `Duration::ZERO` deadline
/// always sheds.
fn deadline_expired(now: Instant, deadline: Instant) -> bool {
    now >= deadline
}

fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// The stale-cursor policy. Returns `Ok(resumed)`:
///
/// - same snapshot uid — fresh, serve as-is;
/// - a *descendant* snapshot whose content versions still match every
///   relation the plan reads — **clean**: the ranked sequence is
///   provably identical, so the cursor resumes transparently
///   (`Ok(true)`);
/// - a descendant with any dependency changed — **dirty**: the
///   sequence the cursor indexes no longer exists
///   ([`StaleReason::DirtyDependency`]);
/// - not a descendant at all — no comparison is meaningful
///   ([`StaleReason::UnrelatedSnapshot`]).
fn validate_cursor(cursor: &CursorView<'_>, snap: &Snapshot) -> Result<bool, ServeError> {
    if snap.uid() == cursor.snapshot_uid {
        return Ok(false);
    }
    if !snap.descends_from(cursor.snapshot_uid) {
        return Err(ServeError::CursorStale(StaleReason::UnrelatedSnapshot {
            cursor_uid: cursor.snapshot_uid,
        }));
    }
    for (relation, cursor_version) in cursor.deps() {
        let current = snap.relation_version(relation);
        if current != Some(cursor_version) {
            return Err(ServeError::CursorStale(StaleReason::DirtyDependency {
                relation: relation.to_owned(),
                cursor_version,
                current_version: current,
            }));
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_core::SITE_ENGINE_PREPARE as PREPARE;
    use rda_db::{self as fault, FaultAction, FaultPlan};

    /// The lock-count contract: on a warm session a clean page, stream
    /// and batch each take the admission mutex twice (slot in, slot
    /// out), no other lock, and never reach the engine's prepare.
    #[test]
    fn a_clean_page_on_a_warm_session_takes_only_the_admission_lock() {
        let rows = (0..40i64).map(|i| vec![i % 7, i]);
        let db = rda_db::Database::new().with_i64_rows("R", 2, rows);
        let server = Server::with_defaults(Arc::new(Engine::new(db.freeze())));
        let q = rda_query::parser::parse("Q(x, y) :- R(x, y)").unwrap();
        let mut session = server.session();
        let order = OrderSpec::lex(&q, &["x", "y"]);
        let prepared = session.prepare(&q, order, &FdSet::empty(), Policy::Reject);
        let token = prepared.unwrap().token;
        let _armed = fault::install(FaultPlan::new().inject(PREPARE, u64::MAX, FaultAction::Fail));
        sync::TAKEN.take();
        let page = session.page(&token, 3, 4).unwrap();
        let stream = session.stream_next(&page.next.unwrap(), 5).unwrap();
        let batch = session.page_batch(&stream.next.unwrap(), &[9, 0, 9]);
        assert_eq!(batch.unwrap().rows, 3);
        let admission = &server.admission as *const Mutex<Admission> as usize;
        assert_eq!(sync::TAKEN.take(), vec![admission; 6]);
        assert_eq!(fault::hits(PREPARE), 0, "no engine prepare");
    }

    /// The admission deadline boundary is inclusive: a request that gets
    /// its slot at exactly its deadline has zero time left, so it sheds.
    /// The zero-duration service test relies on this edge — `now >=
    /// deadline`, not `now > deadline` — pinned here because an
    /// exact-boundary admission cannot be staged against a real clock.
    #[test]
    fn deadline_boundary_is_inclusive() {
        let t = Instant::now();
        let tick = Duration::from_nanos(1);
        assert!(
            deadline_expired(t, t),
            "admitted exactly at the deadline: already late"
        );
        assert!(deadline_expired(t + tick, t));
        assert!(!deadline_expired(t, t + tick));
    }
}
