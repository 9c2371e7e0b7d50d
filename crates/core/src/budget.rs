//! Fuel/deadline metering: [`Budget`] and the per-evaluation
//! [`BudgetMeter`] every strategy charges its work against.
//!
//! This generalizes what used to be a [`Naive`](crate::naive::Naive)-only
//! step counter into a mechanism honored by **all** evaluators (the four
//! arena strategies and the streaming engine): a budget is a *fuel* cap
//! in abstract work units, a wall-clock *deadline*, or both, and an
//! evaluation that runs out surfaces [`EvalError::BudgetExhausted`]
//! instead of occupying a worker indefinitely.  That is the serving
//! story's isolation primitive — one pathological query cannot starve
//! the box (see `minctx-serve` and DESIGN.md "Concurrent service").
//!
//! Work units are deliberately abstract and strategy-specific: each
//! evaluator charges at its natural accounting points (per expression
//! visit and candidate node in the naive recursion, per memo miss / axis
//! sweep / candidate in MINCONTEXT, per table cell in the context-value
//! tables, per event in the streaming automaton).  The invariant is not
//! comparability across strategies but *proportionality within one*:
//! work grows with charges, so any runaway evaluation hits the cap.
//!
//! Metering is built to cost nothing when unlimited: a charge is one
//! `checked_sub` on a `u64` (remaining fuel starts at `u64::MAX`) plus a
//! skipped branch when no deadline is set.  `Instant::now()` is polled
//! only every [`DEADLINE_POLL_UNITS`] charged units, so deadline
//! enforcement adds one syscall-ish clock read per ~50k node touches.

use crate::error::{EvalError, Exhausted};
use std::time::{Duration, Instant};

/// Charged units between wall-clock polls: small enough that a deadline
/// overshoots by well under a millisecond of evaluator work, large
/// enough that the clock read never shows up in profiles.
const DEADLINE_POLL_UNITS: u64 = 50_000;

/// Limits on one evaluation: an optional *fuel* cap (abstract work
/// units) and an optional wall-clock *timeout*.  `Default` is unlimited.
///
/// Configure an [`Engine`](crate::Engine) with
/// [`with_budget`](crate::Engine::with_budget) /
/// [`with_timeout`](crate::Engine::with_timeout), or build a `Budget`
/// directly for per-request metering (the `minctx-serve` request loop
/// anchors deadlines at submit time via [`Budget::meter_at`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Abstract work-unit cap; `None` means unmetered fuel.
    pub fuel: Option<u64>,
    /// Wall-clock allowance; `None` means no deadline.
    pub timeout: Option<Duration>,
}

impl Budget {
    /// No limits at all (the default).
    pub const UNLIMITED: Budget = Budget {
        fuel: None,
        timeout: None,
    };

    /// A fuel-only budget.
    pub fn fuel(fuel: u64) -> Budget {
        Budget {
            fuel: Some(fuel),
            timeout: None,
        }
    }

    /// A deadline-only budget.
    pub fn timeout(timeout: Duration) -> Budget {
        Budget {
            fuel: None,
            timeout: Some(timeout),
        }
    }

    /// This budget with the fuel cap replaced.
    pub fn with_fuel(mut self, fuel: u64) -> Budget {
        self.fuel = Some(fuel);
        self
    }

    /// This budget with the timeout replaced.
    pub fn with_timeout(mut self, timeout: Duration) -> Budget {
        self.timeout = Some(timeout);
        self
    }

    /// Whether neither limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.fuel.is_none() && self.timeout.is_none()
    }

    /// Starts metering now: the deadline (if any) is `now + timeout`.
    pub fn meter(&self) -> BudgetMeter {
        self.meter_at(Instant::now())
    }

    /// Starts metering with the timeout anchored at `start` — a request
    /// loop passes its submit instant so queue wait counts against the
    /// deadline too.
    pub fn meter_at(&self, start: Instant) -> BudgetMeter {
        BudgetMeter {
            remaining: self.fuel.unwrap_or(u64::MAX),
            fuel: self.fuel,
            deadline: self.timeout.map(|t| start + t),
            until_poll: 1,
        }
    }
}

/// The mutable metering state for one evaluation, created from a
/// [`Budget`] and threaded through
/// [`Evaluator::evaluate`](crate::Evaluator::evaluate).
#[derive(Debug)]
pub struct BudgetMeter {
    /// Fuel left; `u64::MAX` when unmetered (practically inexhaustible:
    /// charging it down would take centuries of evaluator work).
    remaining: u64,
    /// The configured cap, for error reporting.
    fuel: Option<u64>,
    deadline: Option<Instant>,
    /// Charged units until the next wall-clock poll.  Starts at 1 so a
    /// deadline already in the past fails on the first charge.
    until_poll: u64,
}

impl Default for BudgetMeter {
    fn default() -> Self {
        BudgetMeter::unlimited()
    }
}

impl BudgetMeter {
    /// A meter that never trips (what unmetered evaluations run under).
    pub fn unlimited() -> BudgetMeter {
        Budget::UNLIMITED.meter_at(Instant::now())
    }

    /// Charges `units` of work; errors once fuel is spent or the
    /// deadline has passed.  Hot-path cost when unlimited: one
    /// `checked_sub` and one untaken branch.
    #[inline]
    pub fn charge(&mut self, units: u64) -> Result<(), EvalError> {
        match self.remaining.checked_sub(units) {
            Some(rest) => self.remaining = rest,
            None => {
                self.remaining = 0;
                return Err(EvalError::BudgetExhausted {
                    cause: Exhausted::Fuel {
                        fuel: self.fuel.unwrap_or(u64::MAX),
                    },
                });
            }
        }
        if self.deadline.is_some() {
            self.until_poll = self.until_poll.saturating_sub(units.max(1));
            if self.until_poll == 0 {
                return self.poll_deadline();
            }
        }
        Ok(())
    }

    /// Units charged so far — the profile/EXPLAIN surface reads this
    /// after an evaluation to report fuel consumed.  When the meter is
    /// unmetered this still counts exactly (spent = `u64::MAX` −
    /// remaining); once a fuel cap trips, it reports the full cap.
    pub fn spent(&self) -> u64 {
        self.fuel.unwrap_or(u64::MAX) - self.remaining
    }

    /// Cold path: reads the clock and resets the poll countdown.
    #[cold]
    fn poll_deadline(&mut self) -> Result<(), EvalError> {
        self.until_poll = DEADLINE_POLL_UNITS;
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => Err(EvalError::BudgetExhausted {
                cause: Exhausted::Deadline,
            }),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_meter_never_trips() {
        let mut m = BudgetMeter::unlimited();
        for _ in 0..10_000 {
            m.charge(1_000_000).unwrap();
        }
    }

    #[test]
    fn fuel_is_exact() {
        // A cap of n allows exactly n units.
        let mut m = Budget::fuel(10).meter();
        m.charge(4).unwrap();
        m.charge(6).unwrap();
        let err = m.charge(1).unwrap_err();
        assert_eq!(
            err,
            EvalError::BudgetExhausted {
                cause: Exhausted::Fuel { fuel: 10 }
            }
        );
        // Once tripped, it stays tripped.
        assert!(m.charge(0).is_err() || m.charge(1).is_err());
    }

    #[test]
    fn overcharge_trips_immediately() {
        let mut m = Budget::fuel(5).meter();
        assert!(m.charge(6).is_err());
    }

    #[test]
    fn expired_deadline_trips_on_first_charge() {
        let mut m = Budget::timeout(Duration::ZERO).meter();
        assert_eq!(
            m.charge(1).unwrap_err(),
            EvalError::BudgetExhausted {
                cause: Exhausted::Deadline
            }
        );
    }

    #[test]
    fn meter_at_counts_elapsed_time_before_the_meter_existed() {
        let start = Instant::now() - Duration::from_secs(1);
        let mut m = Budget::timeout(Duration::from_millis(10)).meter_at(start);
        assert!(m.charge(1).is_err());
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let mut m = Budget::timeout(Duration::from_secs(600)).meter();
        for _ in 0..1000 {
            m.charge(100_000).unwrap();
        }
    }

    #[test]
    fn budget_constructors_compose() {
        let b = Budget::fuel(7).with_timeout(Duration::from_millis(3));
        assert_eq!(b.fuel, Some(7));
        assert_eq!(b.timeout, Some(Duration::from_millis(3)));
        assert!(!b.is_unlimited());
        assert!(Budget::UNLIMITED.is_unlimited());
        assert!(Budget::default().is_unlimited());
    }
}
