//! The shared bounded-retry policy.
//!
//! Both transports retry the same way: the in-process fault-injecting
//! transport iterates [`RetryPolicy::attempts`] with *virtual* backoff
//! (no sleeping — simulated time would poison determinism), while the
//! network path sleeps for [`RetryPolicy::backoff`] between attempts.
//! Backoff jitter is **derived**, not drawn from the clock: attempt `a`
//! for `(round, client)` always jitters identically at a given seed, so
//! a chaos-proxy replay reproduces the exact retry schedule.

use fedclust_tensor::rng::{derive, streams};
use rand::Rng;
use std::time::Duration;

/// Bounded attempts + deterministic exponential backoff. `--retries N`
/// means *N retries after the first attempt*, i.e. `max_attempts = N + 1`,
/// identically in-process and over TCP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (always >= 1).
    pub max_attempts: u32,
    /// Backoff unit: attempt `a > 0` waits ~`base * 2^(a-1)`, jittered.
    pub backoff_base: Duration,
    /// Exponent cap so backoff stops doubling at `base * 2^cap`.
    pub backoff_cap_exp: u32,
}

impl RetryPolicy {
    /// Policy for `--retries N`: `N + 1` attempts, 50 ms backoff unit,
    /// exponent capped at 6 (so at most ~3.2 s between attempts).
    pub fn from_retries(retries: u32) -> Self {
        RetryPolicy {
            max_attempts: retries.saturating_add(1),
            backoff_base: Duration::from_millis(50),
            backoff_cap_exp: 6,
        }
    }

    /// Replace the backoff unit (e.g. from `--backoff-base`).
    pub fn with_backoff_base(mut self, base: Duration) -> Self {
        self.backoff_base = base;
        self
    }

    /// Attempt indices to iterate: `0..max_attempts`.
    pub fn attempts(&self) -> std::ops::Range<u32> {
        0..self.max_attempts
    }

    /// Number of *retries* (attempts beyond the first).
    pub fn retries(&self) -> u32 {
        self.max_attempts.saturating_sub(1)
    }

    /// Deterministic backoff before `attempt` (0-based). Attempt 0 is
    /// immediate; attempt `a > 0` waits `base * 2^min(a-1, cap)` scaled
    /// by a jitter factor in `[0.5, 1.5)` derived from
    /// `(seed, RETRY_BACKOFF, round, client, attempt)` so a worker
    /// fleet never retries in lock-step yet replays bit-identically.
    pub fn backoff(&self, seed: u64, round: u64, client: u64, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let exp = (attempt - 1).min(self.backoff_cap_exp);
        let base_ms = self.backoff_base.as_millis() as u64;
        let scaled_ms = base_ms.saturating_mul(1u64 << exp.min(32));
        let mut rng = derive(
            seed,
            &[streams::RETRY_BACKOFF, round, client, attempt as u64],
        );
        let jitter = 0.5 + rng.gen::<f64>();
        Duration::from_millis((scaled_ms as f64 * jitter) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retries_to_attempts_mapping() {
        assert_eq!(RetryPolicy::from_retries(0).max_attempts, 1);
        assert_eq!(RetryPolicy::from_retries(2).max_attempts, 3);
        assert_eq!(RetryPolicy::from_retries(2).retries(), 2);
        assert_eq!(RetryPolicy::from_retries(u32::MAX).max_attempts, u32::MAX);
        assert_eq!(
            RetryPolicy::from_retries(3).attempts().collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn first_attempt_is_immediate() {
        let policy = RetryPolicy::from_retries(4);
        assert_eq!(policy.backoff(42, 1, 2, 0), Duration::ZERO);
    }

    #[test]
    fn backoff_is_deterministic_and_jittered_within_bounds() {
        let policy = RetryPolicy::from_retries(8);
        for attempt in 1..=8u32 {
            let a = policy.backoff(42, 3, 7, attempt);
            let b = policy.backoff(42, 3, 7, attempt);
            assert_eq!(a, b, "attempt {attempt} not deterministic");
            let exp = (attempt - 1).min(policy.backoff_cap_exp);
            let nominal = 50u64 << exp;
            let ms = a.as_millis() as u64;
            assert!(
                ms >= nominal / 2 && ms < nominal + nominal / 2 + 1,
                "attempt {attempt}: {ms} ms outside [{}, {})",
                nominal / 2,
                nominal + nominal / 2
            );
        }
    }

    #[test]
    fn different_clients_desynchronise() {
        let policy = RetryPolicy::from_retries(4);
        let delays: Vec<Duration> = (0..8u64).map(|c| policy.backoff(42, 1, c, 2)).collect();
        let distinct: std::collections::BTreeSet<_> = delays.iter().collect();
        assert!(
            distinct.len() > 4,
            "per-client jitter collapsed: {delays:?}"
        );
    }

    #[test]
    fn exponent_cap_holds() {
        let policy = RetryPolicy::from_retries(64);
        let late = policy.backoff(1, 0, 0, 64);
        // cap 6 → nominal 3200 ms, jitter < 1.5x.
        assert!(late < Duration::from_millis(4801), "{late:?}");
    }
}
