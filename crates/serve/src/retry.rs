//! Client-side retry and graceful degradation.
//!
//! A [`RetryPolicy`] installed on a [`Session`](crate::Session) makes
//! the session absorb the server's *transient* typed errors instead of
//! surfacing them:
//!
//! | error | session reaction |
//! |-------|------------------|
//! | [`Overloaded`](crate::ServeError::Overloaded) | back off (decorrelated jitter) and resubmit; under sustained overload also **degrade** — halve the requested page length |
//! | [`DeadlineExceeded`](crate::ServeError::DeadlineExceeded) | back off and resubmit |
//! | [`Internal`](crate::ServeError::Internal) | resubmit (requests are read-only, so an identical retry is always safe) — opt out with [`RetryPolicy::retry_internal`] |
//! | [`CursorStale`](crate::ServeError::CursorStale) | **repair**: re-prepare the registered query and resume the page at the stale cursor's rank on the fresh sequence ([`PageOutcome::repaired`](crate::PageOutcome::repaired) is set) |
//!
//! Everything else (`BadCursor`, `UnknownQuery`, `Plan`) is a
//! permanent, caller-meaningful outcome and is never retried.
//!
//! Backoff is **decorrelated jitter** (`sleep = min(cap,
//! uniform(base, prev·3))`): attempts from many colliding sessions
//! spread out instead of re-colliding in synchronized waves, which is
//! what plain exponential backoff does under fleet-wide overload. The
//! jitter RNG is seeded per policy, so tests replay exact schedules.
//!
//! Degradation is a shift, not a flag: every `degrade_after`
//! *consecutive* overloads halve subsequent page lengths once more
//! (never below [`RetryPolicy::min_page_len`]); each success undoes
//! one halving. A session under pressure thus converges to the page
//! size the server can actually sustain and recovers to full pages
//! when pressure lifts.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::ServeError;

/// Retry/degrade tunables for one [`Session`](crate::Session); install
/// with [`Session::set_retry_policy`](crate::Session::set_retry_policy).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per call, first try included (≥ 1).
    pub max_attempts: u32,
    /// Lower bound of every backoff sleep.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the jitter RNG (deterministic schedules in tests).
    pub seed: u64,
    /// Retry [`ServeError::Internal`] replies. Safe because requests
    /// are read-only; turn off to surface every contained panic.
    pub retry_internal: bool,
    /// Repair [`ServeError::CursorStale`] by re-preparing and resuming
    /// at the stale cursor's rank on the fresh sequence.
    pub repair_stale: bool,
    /// Consecutive overloads before each further halving of the page
    /// length. `0` disables degradation.
    pub degrade_after: u32,
    /// Floor the degraded page length never goes below.
    pub min_page_len: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            seed: 0x5EED,
            retry_internal: true,
            repair_stale: true,
            degrade_after: 2,
            min_page_len: 1,
        }
    }
}

impl RetryPolicy {
    /// Whether `e` is transient under this policy (worth resubmitting
    /// after backoff). Stale cursors are handled by *repair*, not by
    /// blind resubmission, so they are not "retryable" here.
    pub(crate) fn retryable(&self, e: &ServeError) -> bool {
        match e {
            ServeError::Overloaded { .. } | ServeError::DeadlineExceeded => true,
            ServeError::Internal { .. } => self.retry_internal,
            _ => false,
        }
    }
}

/// Cap on degradation halvings: beyond this the page length is pinned
/// to `min_page_len` anyway, and an unbounded shift would take as many
/// successes to recover as it took overloads to dig.
const MAX_DEGRADE_SHIFT: u32 = 16;

/// Per-session retry state: the policy plus the jitter RNG and the
/// degradation level.
pub(crate) struct RetryState {
    pub(crate) policy: RetryPolicy,
    rng: StdRng,
    prev_delay: Duration,
    consecutive_overloaded: u32,
    degrade_shift: u32,
}

impl RetryState {
    pub(crate) fn new(policy: RetryPolicy) -> RetryState {
        let rng = StdRng::seed_from_u64(policy.seed);
        let prev_delay = policy.base_backoff;
        RetryState {
            policy,
            rng,
            prev_delay,
            consecutive_overloaded: 0,
            degrade_shift: 0,
        }
    }

    /// What the session does between two attempts after the transient
    /// error `e`: note an overload, sleep the backoff.
    pub(crate) fn back_off(&mut self, e: &ServeError) {
        if matches!(e, ServeError::Overloaded { .. }) {
            self.note_overloaded();
        }
        std::thread::sleep(self.backoff());
    }

    /// The next decorrelated-jitter delay:
    /// `min(cap, uniform(base, prev·3))`.
    fn backoff(&mut self) -> Duration {
        // All arithmetic in u128 nanoseconds, clamped to the configured
        // ceiling *before* sampling. The previous version did
        // `as_nanos() as u64` (silently truncating large durations) and
        // `base + 1` / `prev · 3` in u64 — once the delay grows toward
        // the top of the u64 range at high attempt counts, that
        // arithmetic overflows: a panic in debug, a wrapped (possibly
        // empty, panicking) sample range in release.
        let cap = self.policy.max_backoff.as_nanos();
        let base = self.policy.base_backoff.as_nanos().min(cap);
        let prev = self.prev_delay.as_nanos().min(cap);
        // prev ≤ cap ≤ Duration::MAX.as_nanos() < 2^94, so the u128
        // product cannot overflow.
        let hi = (prev * 3).clamp(base, cap);
        // `Duration::from_nanos` takes u64, so delays past ~584 years
        // pin there — still within the configured ceiling's intent.
        let lo64 = u64::try_from(base).unwrap_or(u64::MAX);
        let hi64 = u64::try_from(hi).unwrap_or(u64::MAX).max(lo64);
        let picked = Duration::from_nanos(self.rng.random_range(lo64..=hi64));
        self.prev_delay = picked.min(self.policy.max_backoff);
        self.prev_delay
    }

    /// Record an overload rejection; returns `true` when it tipped the
    /// session one degradation level deeper.
    fn note_overloaded(&mut self) -> bool {
        self.consecutive_overloaded += 1;
        if self.policy.degrade_after > 0
            && self.consecutive_overloaded >= self.policy.degrade_after
            && self.degrade_shift < MAX_DEGRADE_SHIFT
        {
            self.consecutive_overloaded = 0;
            self.degrade_shift += 1;
            return true;
        }
        false
    }

    /// Record a served request: overload streak over, recover one
    /// degradation level, re-anchor the jitter.
    pub(crate) fn note_success(&mut self) {
        self.consecutive_overloaded = 0;
        self.degrade_shift = self.degrade_shift.saturating_sub(1);
        self.prev_delay = self.policy.base_backoff;
    }

    /// The page length actually requested at the current degradation
    /// level: `len` halved `degrade_shift` times, floored at
    /// `min_page_len` (and never above `len` itself).
    pub(crate) fn effective_len(&self, len: u64) -> u64 {
        (len >> self.degrade_shift).max(self.policy.min_page_len.min(len))
    }

    pub(crate) fn degrade_shift(&self) -> u32 {
        self.degrade_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_jittered_bounded_and_deterministic() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
            seed: 7,
            ..RetryPolicy::default()
        };
        let mut a = RetryState::new(policy.clone());
        let mut b = RetryState::new(policy.clone());
        for _ in 0..32 {
            let d = a.backoff();
            assert_eq!(d, b.backoff(), "same seed, same schedule");
            assert!(d >= policy.base_backoff && d <= policy.max_backoff);
        }
        let mut c = RetryState::new(RetryPolicy { seed: 8, ..policy });
        let same = (0..32).filter(|_| a.backoff() == c.backoff()).count();
        assert!(same < 32, "different seeds diverge");
    }

    #[test]
    fn backoff_saturates_at_extreme_durations_without_overflow() {
        // base == cap == Duration::MAX: as_nanos() exceeds u64, and the
        // old `base + 1` overflowed before any sample was drawn.
        let mut st = RetryState::new(RetryPolicy {
            base_backoff: Duration::MAX,
            max_backoff: Duration::MAX,
            ..RetryPolicy::default()
        });
        for _ in 0..8 {
            // Pinned at the largest representable nanosecond delay.
            assert_eq!(st.backoff(), Duration::from_nanos(u64::MAX));
        }
        // The exact u64-boundary base the old arithmetic overflowed on.
        let mut st = RetryState::new(RetryPolicy {
            base_backoff: Duration::from_nanos(u64::MAX),
            max_backoff: Duration::from_nanos(u64::MAX),
            ..RetryPolicy::default()
        });
        assert_eq!(st.backoff(), Duration::from_nanos(u64::MAX));
        // A base above the cap clamps to the cap instead of sampling an
        // inverted range.
        let mut st = RetryState::new(RetryPolicy {
            base_backoff: Duration::from_secs(10),
            max_backoff: Duration::from_secs(1),
            ..RetryPolicy::default()
        });
        assert_eq!(st.backoff(), Duration::from_secs(1));
    }

    #[test]
    fn backoff_stays_inside_the_ceiling_at_high_attempt_counts() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            seed: 3,
            ..RetryPolicy::default()
        };
        let mut st = RetryState::new(policy.clone());
        for attempt in 0..10_000u32 {
            let d = st.backoff();
            assert!(
                d >= policy.base_backoff && d <= policy.max_backoff,
                "attempt {attempt}: {d:?} escaped [base, cap]"
            );
        }
    }

    #[test]
    fn degradation_halves_after_streaks_and_recovers_on_success() {
        let mut st = RetryState::new(RetryPolicy {
            degrade_after: 2,
            min_page_len: 4,
            ..RetryPolicy::default()
        });
        assert_eq!(st.effective_len(64), 64);
        assert!(!st.note_overloaded());
        assert!(st.note_overloaded(), "second consecutive overload degrades");
        assert_eq!(st.effective_len(64), 32);
        assert!(!st.note_overloaded());
        assert!(st.note_overloaded());
        assert_eq!(st.effective_len(64), 16);
        // The floor holds even deep in the shift.
        for _ in 0..20 {
            st.note_overloaded();
        }
        assert_eq!(st.effective_len(64), 4);
        assert_eq!(st.effective_len(2), 2, "floor never exceeds the ask");
        // Every success climbs one level back out.
        st.note_success();
        let shift_after_one = st.degrade_shift();
        st.note_success();
        assert_eq!(st.degrade_shift(), shift_after_one.saturating_sub(1));
    }

    #[test]
    fn interleaved_overloads_do_not_degrade() {
        let mut st = RetryState::new(RetryPolicy {
            degrade_after: 2,
            ..RetryPolicy::default()
        });
        for _ in 0..10 {
            assert!(!st.note_overloaded());
            st.note_success(); // streak broken every time
        }
        assert_eq!(st.degrade_shift(), 0);
    }
}
