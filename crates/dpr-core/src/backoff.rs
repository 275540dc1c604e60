//! Bounded exponential backoff for short waits.
//!
//! The protocol has a handful of places where a thread must wait for
//! progress made elsewhere — a delayed batch waiting for a fast-forward
//! commit, a synchronous-recoverability batch waiting for durability, the
//! gate drain waiting for in-flight writers to leave the epoch. A bare
//! `yield_now` loop burns a full core for the whole wait; a fixed sleep adds
//! latency to waits that would have resolved in nanoseconds. [`Backoff`]
//! escalates through three regimes instead: spin (cheapest, for waits that
//! resolve within a few cache misses), yield (give the scheduler a chance on
//! oversubscribed machines), then short bounded sleeps (stop burning the
//! core entirely, capped so wakeup latency stays small).

use std::time::Duration;

/// Spin-loop iterations before escalating to `yield_now`.
const SPIN_LIMIT: u32 = 6;
/// Yields before escalating to sleeping.
const YIELD_LIMIT: u32 = 10;
/// First sleep duration; doubles per step up to [`MAX_SLEEP`].
const BASE_SLEEP: Duration = Duration::from_micros(50);
/// Sleep cap — bounds worst-case wakeup latency once a wait goes long.
const MAX_SLEEP: Duration = Duration::from_millis(1);

/// Bounded exponential backoff: spin → yield → short sleep.
///
/// ```
/// use dpr_core::backoff::Backoff;
/// let mut backoff = Backoff::new();
/// let mut tries = 0;
/// while tries < 3 {
///     tries += 1; // ... check the condition being waited on ...
///     backoff.snooze();
/// }
/// ```
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// A fresh backoff in the spinning regime.
    #[must_use]
    pub fn new() -> Backoff {
        Backoff { step: 0 }
    }

    /// Back to the spinning regime (call after the awaited condition made
    /// progress, so the next wait starts cheap again).
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// True once the spin and yield steps are spent, so the next
    /// [`Backoff::snooze`] would sleep — the hint that a wait is no longer
    /// "momentary" (useful for deadline checks that are too expensive to
    /// evaluate every spin, and for callers that block on an event
    /// instead of sleeping).
    #[must_use]
    pub fn is_waiting_long(&self) -> bool {
        self.step >= YIELD_LIMIT
    }

    /// Wait one escalating step: `2^n` spin-loop hints while in the spin
    /// regime, then `yield_now`, then exponentially growing sleeps capped at
    /// 1 ms.
    pub fn snooze(&mut self) {
        if self.step < SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
        } else if self.step < YIELD_LIMIT {
            std::thread::yield_now();
        } else {
            let exp = (self.step - YIELD_LIMIT).min(10);
            let sleep = BASE_SLEEP.saturating_mul(1 << exp).min(MAX_SLEEP);
            std::thread::sleep(sleep);
        }
        self.step = self.step.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn escalates_through_regimes() {
        let mut b = Backoff::new();
        // Not "long" while a snooze would still spin or yield.
        for _ in 0..YIELD_LIMIT {
            assert!(!b.is_waiting_long());
            b.snooze();
        }
        assert!(b.is_waiting_long());
        b.reset();
        assert!(!b.is_waiting_long());
    }

    #[test]
    fn sleep_steps_stay_bounded() {
        let mut b = Backoff::new();
        // Drive well past the cap; each step must stay ~1 ms.
        for _ in 0..30 {
            b.snooze();
        }
        let t = Instant::now();
        b.snooze();
        assert!(
            t.elapsed() < Duration::from_millis(50),
            "sleep cap exceeded"
        );
    }

    #[test]
    fn early_steps_are_cheap() {
        let mut b = Backoff::new();
        let t = Instant::now();
        for _ in 0..SPIN_LIMIT {
            b.snooze();
        }
        // Pure spinning: far below a scheduler quantum.
        assert!(t.elapsed() < Duration::from_millis(10));
    }
}
