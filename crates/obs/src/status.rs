//! The one event alphabet and its counter.
//!
//! Each number-format crate reports its own event vocabulary (IEEE
//! flags, posit events, fixed-point events); the kernels translate them
//! into one byte-sized alphabet, so a single 64 KiB event table per op
//! covers every 8-bit format and all three execution tiers report
//! identically. [`Event8`] is that alphabet and [`StatusCounters`] the
//! order-independent accumulator that the row-banded sweeps merge into
//! and that every trace scope ([`OpCounts`](crate::OpCounts)) carries.

use std::fmt;
use std::ops::{BitOr, BitOrAssign};

/// Events one 8-bit scalar operation can raise, across all formats.
///
/// IEEE formats use `NAR_NAN` (invalid → NaN), `DIV_BY_ZERO`, `OVERFLOW`,
/// `UNDERFLOW`, `INEXACT`; posits use `NAR_NAN` (NaR produced),
/// `SATURATED` (maxpos/minpos rail), `INEXACT`; Q4.4 uses `SATURATED`,
/// `WRAPPED`, `INEXACT`. The bits fit in a `u8`, so the full event
/// function of a binary op is itself a 64 KiB table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Event8(u8);

impl Event8 {
    /// No event.
    pub const NONE: Self = Self(0);
    /// NaN (IEEE invalid) or posit NaR produced from clean inputs.
    pub const NAR_NAN: Self = Self(1);
    /// The result was rounded.
    pub const INEXACT: Self = Self(2);
    /// IEEE overflow to infinity.
    pub const OVERFLOW: Self = Self(4);
    /// IEEE underflow (tiny and inexact).
    pub const UNDERFLOW: Self = Self(8);
    /// IEEE division of a finite nonzero value by zero.
    pub const DIV_BY_ZERO: Self = Self(16);
    /// Posit/fixed saturation at the format rails.
    pub const SATURATED: Self = Self(32);
    /// Fixed-point two's-complement wrap.
    pub const WRAPPED: Self = Self(64);

    /// Reconstructs from raw bits (as stored in an event table).
    #[inline(always)]
    #[must_use]
    pub fn from_bits(bits: u8) -> Self {
        Self(bits & 0x7F)
    }

    /// Raw bits (bit 0 = NaR/NaN .. bit 6 = wrapped).
    #[inline(always)]
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.0
    }

    /// Whether all events in `other` are set in `self`.
    #[inline]
    #[must_use]
    pub fn contains(&self, other: Self) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no event is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }
}

impl BitOr for Event8 {
    type Output = Self;
    fn bitor(self, rhs: Self) -> Self {
        Self(self.0 | rhs.0)
    }
}

impl BitOrAssign for Event8 {
    fn bitor_assign(&mut self, rhs: Self) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for Event8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "-");
        }
        let names = [
            (Self::NAR_NAN, "nar_nan"),
            (Self::INEXACT, "inexact"),
            (Self::OVERFLOW, "overflow"),
            (Self::UNDERFLOW, "underflow"),
            (Self::DIV_BY_ZERO, "div0"),
            (Self::SATURATED, "saturated"),
            (Self::WRAPPED, "wrapped"),
        ];
        let mut first = true;
        for (ev, name) in names {
            if self.contains(ev) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        Ok(())
    }
}

/// Per-event operation counters for a kernel sweep or a trace scope.
///
/// Merging is commutative and associative (saturating `u64` sums), so
/// row-banded parallel kernels produce the same totals as serial ones no
/// matter how rows are partitioned — the status analogue of the
/// bit-identical-output guarantee.
///
/// ```
/// use nga_obs::{Event8, StatusCounters};
/// let mut c = StatusCounters::new();
/// c.record(Event8::NAR_NAN | Event8::SATURATED);
/// c.record(Event8::NONE);
/// assert_eq!((c.ops(), c.nar_nan(), c.saturated()), (2, 1, 1));
/// assert_eq!(c.union().to_string(), "nar_nan|saturated");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatusCounters {
    ops: u64,
    nar_nan: u64,
    inexact: u64,
    overflow: u64,
    underflow: u64,
    div_by_zero: u64,
    saturated: u64,
    wrapped: u64,
}

impl StatusCounters {
    /// All counters zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the events raised by one scalar operation.
    #[inline]
    pub fn record(&mut self, ev: Event8) {
        self.ops = self.ops.saturating_add(1);
        if ev.contains(Event8::NAR_NAN) {
            self.nar_nan = self.nar_nan.saturating_add(1);
        }
        if ev.contains(Event8::INEXACT) {
            self.inexact = self.inexact.saturating_add(1);
        }
        if ev.contains(Event8::OVERFLOW) {
            self.overflow = self.overflow.saturating_add(1);
        }
        if ev.contains(Event8::UNDERFLOW) {
            self.underflow = self.underflow.saturating_add(1);
        }
        if ev.contains(Event8::DIV_BY_ZERO) {
            self.div_by_zero = self.div_by_zero.saturating_add(1);
        }
        if ev.contains(Event8::SATURATED) {
            self.saturated = self.saturated.saturating_add(1);
        }
        if ev.contains(Event8::WRAPPED) {
            self.wrapped = self.wrapped.saturating_add(1);
        }
    }

    /// Counts `n` work items that raised no event (e.g. explorer
    /// candidates).
    pub fn add_ops(&mut self, n: u64) {
        self.ops = self.ops.saturating_add(n);
    }

    /// Fold another accumulator into this one (order-independent).
    pub fn merge(&mut self, other: &Self) {
        self.ops = self.ops.saturating_add(other.ops);
        self.nar_nan = self.nar_nan.saturating_add(other.nar_nan);
        self.inexact = self.inexact.saturating_add(other.inexact);
        self.overflow = self.overflow.saturating_add(other.overflow);
        self.underflow = self.underflow.saturating_add(other.underflow);
        self.div_by_zero = self.div_by_zero.saturating_add(other.div_by_zero);
        self.saturated = self.saturated.saturating_add(other.saturated);
        self.wrapped = self.wrapped.saturating_add(other.wrapped);
    }

    /// The sticky union: every event raised at least once.
    #[must_use]
    pub fn union(&self) -> Event8 {
        let mut ev = Event8::NONE;
        if self.nar_nan > 0 {
            ev |= Event8::NAR_NAN;
        }
        if self.inexact > 0 {
            ev |= Event8::INEXACT;
        }
        if self.overflow > 0 {
            ev |= Event8::OVERFLOW;
        }
        if self.underflow > 0 {
            ev |= Event8::UNDERFLOW;
        }
        if self.div_by_zero > 0 {
            ev |= Event8::DIV_BY_ZERO;
        }
        if self.saturated > 0 {
            ev |= Event8::SATURATED;
        }
        if self.wrapped > 0 {
            ev |= Event8::WRAPPED;
        }
        ev
    }

    /// Sum of the seven event counters.
    #[must_use]
    pub fn events_total(&self) -> u64 {
        self.nar_nan
            .saturating_add(self.inexact)
            .saturating_add(self.overflow)
            .saturating_add(self.underflow)
            .saturating_add(self.div_by_zero)
            .saturating_add(self.saturated)
            .saturating_add(self.wrapped)
    }

    /// Operations recorded.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Operations that produced NaN/NaR from clean inputs.
    #[must_use]
    pub fn nar_nan(&self) -> u64 {
        self.nar_nan
    }

    /// Operations that rounded.
    #[must_use]
    pub fn inexact(&self) -> u64 {
        self.inexact
    }

    /// Operations that overflowed to infinity.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Operations that underflowed.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Operations that divided by zero.
    #[must_use]
    pub fn div_by_zero(&self) -> u64 {
        self.div_by_zero
    }

    /// Operations that saturated at a format rail.
    #[must_use]
    pub fn saturated(&self) -> u64 {
        self.saturated
    }

    /// Operations that wrapped.
    #[must_use]
    pub fn wrapped(&self) -> u64 {
        self.wrapped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_round_trip() {
        let ev = Event8::DIV_BY_ZERO | Event8::UNDERFLOW;
        assert_eq!(Event8::from_bits(ev.bits()), ev);
        assert_eq!(ev.to_string(), "underflow|div0");
    }

    #[test]
    fn counters_merge_is_order_independent() {
        let evs = [
            Event8::NONE,
            Event8::NAR_NAN,
            Event8::INEXACT | Event8::SATURATED,
            Event8::OVERFLOW | Event8::INEXACT,
        ];
        let mut serial = StatusCounters::new();
        for ev in evs {
            serial.record(ev);
        }
        let mut a = StatusCounters::new();
        let mut b = StatusCounters::new();
        a.record(evs[2]);
        a.record(evs[0]);
        b.record(evs[3]);
        b.record(evs[1]);
        let mut merged = StatusCounters::new();
        merged.merge(&b);
        merged.merge(&a);
        assert_eq!(merged, serial);
        assert_eq!(merged.ops(), 4);
        assert_eq!(merged.inexact(), 2);
    }
}
