//! The fault substrate: deterministic fault injection for chaos
//! testing, and the one poison-recovery helper every lock above this
//! crate goes through.
//!
//! A [`FaultPlan`] schedules faults at named **sites** — fixed points
//! that call [`trip`] every time they execute. A site is just a
//! string, and each crate keeps its site's constant beside the call:
//!
//! | site | constant | where it fires |
//! |------|----------|----------------|
//! | `engine::prepare` | `rda_core::SITE_ENGINE_PREPARE` | entry of `Engine::prepare_pinned` |
//! | `lexda::build` | `rda_core::SITE_LEXDA_BUILD` | entry of `LexDirectAccess::build_on` |
//! | `sumda::build` | `rda_core::SITE_SUMDA_BUILD` | entry of `SumDirectAccess::build_on` |
//! | `serve::page` | `rda_serve::SITE_SERVE_PAGE` | entry of page execution, inside the request's panic fence |
//!
//! Each site the armed plan schedules keeps a monotone **hit
//! counter**, and the plan maps `(site, nth hit)` to a
//! [`FaultAction`]: a panic or a typed spurious failure
//! ([`InjectedFault`]). Because the schedule is keyed by hit index —
//! not by wall clock or thread timing — the exact same failure
//! sequence replays on a 1-core CI host as on a 64-core workstation,
//! which is what makes recovery *provable* rather than merely
//! observed.
//!
//! Scheduling is either explicit ([`FaultPlan::inject`]) or derived
//! from a seed ([`FaultPlan::inject_seeded`]): the seed expands to
//! pseudo-random hit indices through splitmix64, so a chaos harness
//! can name an entire failure schedule with one number.
//!
//! The plan is installed process-globally ([`install`] returns an RAII
//! [`FaultGuard`]); when nothing is armed, [`trip`] is a single
//! `Acquire` atomic load. The hooks are compiled in unconditionally —
//! they sit on build/prepare paths and once per served page, never on
//! the per-answer access hot path — and are intended for tests only,
//! chiefly `rda_serve`'s seeded fault storm
//! (`crates/serve/tests/chaos.rs`).
//!
//! A `std` lock is *poisoned* when a thread panics while holding it;
//! every later acquisition then returns `Err` forever. Where the
//! guarded state is valid at every point a panic can leave it,
//! propagating poison would turn one contained failure into a dead
//! lock for no integrity gain. [`recover`] takes the guard back
//! instead and counts the recovery ([`poison_recoveries`]), so chaos
//! tests and `rda_serve`'s stats can assert that poison was seen and
//! survived rather than silently impossible. Each lock's owner says
//! why its state survives a panic; this module's own locks are never
//! held across one.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Process-wide count of poisoned guards recovered (a lock poisoned
/// once reports a recovery per subsequent acquisition).
static RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// The guard of a lock acquisition, poisoned or not: a poisoned guard
/// is taken back and counted in [`poison_recoveries`]. Use it only on
/// locks whose state stays valid when a holder panics.
pub fn recover<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(|e| {
        RECOVERIES.fetch_add(1, Ordering::Relaxed);
        e.into_inner()
    })
}

/// Poisoned guards [`recover`] has taken back in this process.
pub fn poison_recoveries() -> u64 {
    RECOVERIES.load(Ordering::Relaxed)
}

/// What an armed fault does when its scheduled hit arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic at the site — exercises panic fences and poison
    /// recovery.
    Panic,
    /// Return a typed spurious failure ([`InjectedFault`]) — exercises
    /// error propagation without unwinding.
    Fail,
}

/// The typed error produced by [`FaultAction::Fail`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site that fired.
    pub site: String,
    /// The site's hit index at which the schedule fired (0-based).
    pub hit: u64,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {} (hit {})", self.site, self.hit)
    }
}

impl std::error::Error for InjectedFault {}

/// A deterministic, per-site failure schedule.
///
/// Build one with explicit entries, seeded entries, or both; then arm
/// it with [`install`]. Every entry fires **at most once** — a schedule
/// is a finite script, so a chaos run always reaches a fault-free
/// steady state for its final oracle checks.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    schedule: HashMap<String, Vec<(u64, FaultAction)>>,
}

impl FaultPlan {
    /// An empty plan carrying `seed` (used by
    /// [`FaultPlan::inject_seeded`] to derive hit indices).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            schedule: HashMap::new(),
        }
    }

    /// An empty plan with seed 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `action` at the `nth` hit (0-based) of `site`.
    pub fn inject(mut self, site: &str, nth: u64, action: FaultAction) -> Self {
        self.schedule
            .entry(site.to_string())
            .or_default()
            .push((nth, action));
        self
    }

    /// Schedule `count` occurrences of `action` at `site`, at
    /// pseudo-random hit indices in `[0, window)` derived from the
    /// plan's seed — the same seed always derives the same schedule.
    pub fn inject_seeded(
        mut self,
        site: &str,
        count: usize,
        window: u64,
        action: FaultAction,
    ) -> Self {
        let mut state = self
            .seed
            .wrapping_add(fnv1a(site.as_bytes()))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        let entries = self.schedule.entry(site.to_string()).or_default();
        for _ in 0..count.min(window as usize) {
            loop {
                state = splitmix64(&mut state);
                let nth = state % window.max(1);
                if !entries.iter().any(|&(n, _)| n == nth) {
                    entries.push((nth, action));
                    break;
                }
            }
        }
        self
    }

    /// The scheduled (hit, action) pairs for `site`, in schedule order.
    pub(crate) fn scheduled(&self, site: &str) -> &[(u64, FaultAction)] {
        self.schedule.get(site).map_or(&[], Vec::as_slice)
    }

    /// Total number of scheduled faults across all sites.
    pub fn len(&self) -> usize {
        self.schedule.values().map(Vec::len).sum()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01B3);
    }
    h
}

/// An armed plan plus its per-site hit counters.
struct Armed {
    plan: FaultPlan,
    counters: Mutex<HashMap<String, u64>>,
}

/// Cheap disarmed-path flag: [`trip`] is one `Acquire` load when clear.
static ANY_ARMED: AtomicBool = AtomicBool::new(false);
static ACTIVE: RwLock<Option<Arc<Armed>>> = RwLock::new(None);

/// Arm `plan` process-wide, replacing any armed plan. The returned
/// [`FaultGuard`] disarms on drop (including drop during a test
/// panic), so a failing chaos test cannot leak faults into the rest
/// of the suite. Tests that install plans must serialize with each
/// other — the registry is global.
#[must_use = "dropping the guard disarms the plan immediately"]
pub fn install(plan: FaultPlan) -> FaultGuard {
    let armed = Arc::new(Armed {
        plan,
        counters: Mutex::new(HashMap::new()),
    });
    *recover(ACTIVE.write()) = Some(armed);
    ANY_ARMED.store(true, Ordering::Release);
    FaultGuard(())
}

/// RAII handle for an armed [`FaultPlan`]; disarms on drop.
#[derive(Debug)]
pub struct FaultGuard(());

impl Drop for FaultGuard {
    fn drop(&mut self) {
        ANY_ARMED.store(false, Ordering::Release);
        *recover(ACTIVE.write()) = None;
    }
}

/// Pass through fault site `site`: count the hit and apply the armed
/// plan's scheduled action, if any.
///
/// Disarmed (the steady state), this is a single `Acquire` atomic load.
/// Armed, it may return a typed [`InjectedFault`] ([`FaultAction::Fail`])
/// or panic ([`FaultAction::Panic`]) — the caller's fences, not this
/// function, decide what a panic means.
pub fn trip(site: &str) -> Result<(), InjectedFault> {
    if !ANY_ARMED.load(Ordering::Acquire) {
        return Ok(());
    }
    let armed = {
        match &*recover(ACTIVE.read()) {
            Some(a) => Arc::clone(a),
            None => return Ok(()),
        }
    };
    let entries = armed.plan.scheduled(site);
    if entries.is_empty() {
        return Ok(());
    }
    let hit = {
        let mut counters = recover(armed.counters.lock());
        let c = counters.entry(site.to_string()).or_insert(0);
        let hit = *c;
        *c += 1;
        hit
    };
    let Some(&(_, action)) = entries.iter().find(|&&(n, _)| n == hit) else {
        return Ok(());
    };
    match action {
        FaultAction::Panic => panic!("injected panic at {site} (hit {hit})"),
        FaultAction::Fail => Err(InjectedFault {
            site: site.to_string(),
            hit,
        }),
    }
}

/// The number of times `site` has been hit under the currently armed
/// plan — lets tests assert a schedule actually ran. Only a site the
/// plan schedules is counted: [`trip`] returns before counting at any
/// other, so `hits` reads 0 there, as it does when nothing is armed.
pub fn hits(site: &str) -> u64 {
    if !ANY_ARMED.load(Ordering::Acquire) {
        return 0;
    }
    match &*recover(ACTIVE.read()) {
        Some(a) => *recover(a.counters.lock()).get(site).unwrap_or(&0),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The registry is process-global; unit tests here serialize.
    static SERIAL: StdMutex<()> = StdMutex::new(());

    #[test]
    fn disarmed_trip_is_a_no_op() {
        let _s = SERIAL.lock().unwrap();
        assert_eq!(trip("anywhere"), Ok(()));
        assert_eq!(hits("anywhere"), 0);
    }

    #[test]
    fn scheduled_fail_fires_exactly_once_at_its_hit() {
        let _s = SERIAL.lock().unwrap();
        let _g = install(FaultPlan::new().inject("site", 1, FaultAction::Fail));
        assert_eq!(trip("site"), Ok(()), "hit 0 passes");
        assert_eq!(
            trip("site"),
            Err(InjectedFault {
                site: "site".to_string(),
                hit: 1
            })
        );
        assert_eq!(trip("site"), Ok(()), "hit 2 passes — the script ran out");
        assert_eq!(hits("site"), 3);
        assert_eq!(trip("other"), Ok(()), "unscheduled sites never fire");
        assert_eq!(hits("other"), 0, "nor are they counted");
    }

    #[test]
    fn guard_disarms_on_drop() {
        let _s = SERIAL.lock().unwrap();
        {
            let _g = install(FaultPlan::new().inject("site", 0, FaultAction::Fail));
            assert!(trip("site").is_err());
        }
        assert_eq!(trip("site"), Ok(()));
    }

    #[test]
    fn scheduled_panic_panics_and_is_catchable() {
        let _s = SERIAL.lock().unwrap();
        let _g = install(FaultPlan::new().inject("boom", 0, FaultAction::Panic));
        let r = std::panic::catch_unwind(|| trip("boom"));
        let msg = *r.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("injected panic at boom"), "{msg}");
    }

    #[test]
    fn seeded_schedules_replay_exactly() {
        let _s = SERIAL.lock().unwrap();
        let a = FaultPlan::seeded(42).inject_seeded("s", 5, 100, FaultAction::Panic);
        let b = FaultPlan::seeded(42).inject_seeded("s", 5, 100, FaultAction::Panic);
        assert_eq!(a.scheduled("s"), b.scheduled("s"));
        assert_eq!(a.len(), 5);
        let c = FaultPlan::seeded(43).inject_seeded("s", 5, 100, FaultAction::Panic);
        assert_ne!(a.scheduled("s"), c.scheduled("s"), "seed changes schedule");
        // Distinct hit indices: each scheduled fault fires at its own hit.
        let mut nths: Vec<u64> = a.scheduled("s").iter().map(|&(n, _)| n).collect();
        nths.sort_unstable();
        nths.dedup();
        assert_eq!(nths.len(), 5);
        // The chaos storm's schedule (`crates/serve/tests/chaos.rs`),
        // by value: a change to the seed expansion fails here first.
        let storm = FaultPlan::seeded(0xC4A0_5EED)
            .inject("serve::page", 1, FaultAction::Panic)
            .inject_seeded("serve::page", 4, 90, FaultAction::Panic)
            .inject_seeded("engine::prepare", 3, 90, FaultAction::Panic);
        let nths = |site| -> Vec<u64> { storm.scheduled(site).iter().map(|&(n, _)| n).collect() };
        assert_eq!(nths("serve::page"), [1, 21, 69, 29, 15]);
        assert_eq!(nths("engine::prepare"), [29, 19, 55]);
    }
}
